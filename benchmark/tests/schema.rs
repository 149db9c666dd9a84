//! `BENCHMARK.json` and the binary must tell one story: the same
//! workloads, the same metrics with the same units, each printed once.

mod common;

use mcpaxos_benchmark::json::{self, Json};
use mcpaxos_benchmark::spec::{contract_json, MetricSpec, END_TO_END, PER_LAYER, WORKLOADS};

fn contract() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        text,
        contract_json(),
        "BENCHMARK.json is not what `--print-contract` prints"
    );
    json::parse(&text).expect("BENCHMARK.json is JSON")
}

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

fn field<'a>(j: &'a Json, key: &str) -> &'a str {
    j.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{key} missing in {j:?}"))
}

fn check_metrics(listed: &[Json], specs: &[MetricSpec], bounded: bool) {
    assert_eq!(listed.len(), specs.len());
    for (j, s) in listed.iter().zip(specs) {
        assert_eq!(field(j, "name"), s.name);
        assert_eq!(field(j, "unit"), s.unit, "{}", s.name);
        assert_eq!(field(j, "better"), s.better.as_str(), "{}", s.name);
        assert!(is_name(s.name) && is_unit(s.unit), "{}", s.name);
        let keys = j.as_object().expect("metric is an object").len();
        if bounded {
            let bound = j.get("bound").and_then(Json::as_f64).expect("bound");
            assert_eq!(Some(bound), s.bound, "{}", s.name);
            assert!(bound > 0.0 && bound <= 0.25, "{}", s.name);
            assert_eq!(keys, 4, "{}", s.name);
        } else {
            assert_eq!(keys, 3, "{}", s.name);
        }
    }
}

#[test]
fn benchmark_json_matches_the_code() {
    let c = contract();
    let keys: Vec<&String> = c.as_object().expect("object").keys().collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let workloads = c
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads");
    let names: Vec<&str> = workloads.iter().map(|w| field(w, "name")).collect();
    assert_eq!(names, WORKLOADS);
    for w in workloads {
        let why = field(w, "why");
        assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        assert_eq!(w.as_object().expect("object").len(), 2);
    }
    check_metrics(
        c.get("end_to_end")
            .and_then(Json::as_array)
            .expect("end_to_end"),
        &END_TO_END,
        true,
    );
    check_metrics(
        c.get("per_layer")
            .and_then(Json::as_array)
            .expect("per_layer"),
        &PER_LAYER,
        false,
    );
    assert!(END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s" && m.better.as_str() == "lower"));
    let all: Vec<&str> = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .map(|m| m.name)
        .collect();
    let mut unique = all.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(all.len(), unique.len(), "a metric name is used twice");
    let seconds = c
        .get("run_seconds")
        .and_then(Json::as_f64)
        .expect("run_seconds");
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));
}

#[test]
fn every_workload_prints_every_metric_once_with_its_unit() {
    for w in WORKLOADS {
        for (trace, specs) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let run = common::quick(w, 3, trace);
            assert!(run.correct(), "{w} trace={trace}\n{}", run.stdout);
            let metrics = run.metrics();
            assert_eq!(metrics.len(), specs.len(), "{w} trace={trace}");
            for s in specs {
                let (value, unit) = &metrics[s.name];
                assert_eq!(unit, s.unit, "{w}/{}", s.name);
                assert!(value.is_finite(), "{w}/{}", s.name);
                if s.bound.is_some() {
                    assert!(*value > 0.0, "{w}/{} must never read 0", s.name);
                }
                let prefix = format!("{w}/{} = ", s.name);
                let printed: Vec<&str> = run
                    .stdout
                    .lines()
                    .filter(|l| l.starts_with(&prefix))
                    .collect();
                assert_eq!(printed.len(), 1, "{w}/{} printed {printed:?}", s.name);
                assert!(
                    printed[0].ends_with(&format!(" {}", s.unit)),
                    "{}",
                    printed[0]
                );
            }
            let result = run.result.as_object().expect("object");
            let keys: Vec<&String> = result.keys().collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        }
    }
}
