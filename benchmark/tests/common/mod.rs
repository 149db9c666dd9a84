//! Runs the benchmark binary the way the guard does and reads what it
//! printed.

use mcpaxos_benchmark::json::{self, Json};
use std::collections::BTreeMap;
use std::process::Command;

pub struct Run {
    pub stdout: String,
    pub result: Json,
}

impl Run {
    pub fn metrics(&self) -> BTreeMap<String, (f64, String)> {
        self.result
            .get("metrics")
            .and_then(Json::as_object)
            .expect("result line has metrics")
            .iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    (
                        v.get("value").and_then(Json::as_f64).expect("value"),
                        v.get("unit")
                            .and_then(Json::as_str)
                            .expect("unit")
                            .to_string(),
                    ),
                )
            })
            .collect()
    }

    pub fn correct(&self) -> bool {
        self.result.get("correct") == Some(&Json::Bool(true))
    }
}

/// One quick run of `workload` in a process of its own.
pub fn quick(workload: &str, seed: u64, trace: bool) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_mcpaxos-benchmark"))
        .args(["--guarded", "--quick", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = json::parse(last).expect("result line is JSON");
    Run { stdout, result }
}
