//! Command line of the repo benchmark.
//!
//! `--workload W --seed S --seconds T --trace 0|1` runs one workload and
//! prints its result as the last line of standard output (the form the
//! driver calls). `--all [--trace] [--quick] [--repeat K]` runs every
//! workload, each in a child process under an address-space cap and a
//! wall deadline.

use mcpaxos_benchmark::json::{self, Json};
use mcpaxos_benchmark::spec::{
    contract_json, MetricSpec, DEFECTS, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS,
};
use mcpaxos_benchmark::{measure, run_workload, Args, Outcome};
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// Address-space cap of a workload process, in KiB (4 GiB). A healthy
/// run peaks under 200 MB; known defects of the program grow without
/// limit and must die here, not take the machine down.
const ADDRESS_SPACE_KIB: u64 = 4 * 1024 * 1024;

/// Exit code of a workload process that asks for another attempt.
const RETRY: u8 = 3;
/// Attempts the guard makes at most. Only known defects of the program
/// that strike at random (`tcp-open`: a wedged or stormed cluster, a
/// late generator) ask for another one.
const ATTEMPTS: u32 = 3;

const USAGE: &str =
    "usage: mcpaxos-benchmark --workload <name> [--seed N] [--seconds N] [--trace 0|1] [--quick]
       mcpaxos-benchmark --all [--seed N] [--seconds N] [--trace] [--quick] [--repeat K]
workloads: sim-paper sim-steady sim-collide sim-failover tcp-open";

struct Cli {
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    repeat: usize,
    /// Set on the process that runs the workload itself.
    guarded: bool,
    /// Set with `guarded` when no further attempt will follow.
    last_attempt: bool,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        all: false,
        seed: 1,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        quick: false,
        repeat: 1,
        guarded: false,
        last_attempt: false,
    };
    let mut args = std::env::args().skip(1).peekable();
    while let Some(a) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{what} needs a value"));
        match a.as_str() {
            "--workload" => cli.workload = Some(value("--workload")?),
            "--all" => cli.all = true,
            "--seed" => {
                cli.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cli.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=600.0).contains(&cli.seconds) {
                    return Err("--seconds must be between 0 and 600".into());
                }
            }
            // The driver passes `--trace 0|1`; by hand `--trace` is enough.
            "--trace" => {
                cli.trace = match args.peek().map(String::as_str) {
                    Some("0") => {
                        args.next();
                        false
                    }
                    Some("1") => {
                        args.next();
                        true
                    }
                    _ => true,
                }
            }
            "--quick" => cli.quick = true,
            "--repeat" => {
                cli.repeat = value("--repeat")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?
            }
            "--guarded" => cli.guarded = true,
            "--last-attempt" => cli.last_attempt = true,
            // What BENCHMARK.json must contain, from the code's own tables.
            "--print-contract" => {
                print!("{}", contract_json());
                std::process::exit(0);
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if cli.all == cli.workload.is_some() {
        return Err("give exactly one of --workload and --all".into());
    }
    if let Some(w) = &cli.workload {
        if !WORKLOADS.contains(&w.as_str()) && !DEFECTS.contains(&w.as_str()) {
            return Err(format!("unknown workload {w}"));
        }
    }
    Ok(cli)
}

/// Where traces and WAL files go: `out/` beside this crate's manifest
/// when cargo tells us where that is, else `benchmark/out` under the
/// current directory.
fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("benchmark"))
        .join("out")
}

fn specs(trace: bool) -> &'static [MetricSpec] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// The result line: one JSON object, the last line of standard output.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, String, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Runs the workload in this process and prints its result.
fn run_here(cli: &Cli, workload: &str) -> ExitCode {
    let args = Args {
        workload: workload.to_string(),
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        quick: cli.quick,
        out_dir: out_dir(),
        last_attempt: cli.last_attempt,
    };
    let Outcome {
        attempted,
        failed,
        problems,
        retry,
        report,
    } = match run_workload(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{workload}: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(why) = retry.filter(|_| !cli.last_attempt) {
        // No result line: the guard starts a fresh process. Returning
        // ends this one even if a wedged cluster's threads still spin.
        eprintln!("{workload}: attempt discarded: {why}");
        return ExitCode::from(RETRY);
    }
    for p in &problems {
        eprintln!("{workload}: CHECK FAILED: {p}");
    }
    // A per-layer metric that does not apply to a workload reads 0 by
    // contract; an end-to-end one must never.
    for name in report.unset().iter().filter(|_| !cli.trace) {
        eprintln!("{workload}: metric {name} was not measured and reads 0");
    }
    let values = report.values();
    for v in &values {
        println!("{workload}/{} = {} {}", v.name, v.value, v.unit);
    }
    println!("{workload}/ops_attempted = {attempted} count");
    println!("{workload}/ops_failed = {failed} count");
    let metrics: Vec<(String, String, f64)> = values
        .iter()
        .map(|v| (v.name.to_string(), v.unit.to_string(), v.value))
        .collect();
    let correct = problems.is_empty();
    println!(
        "{}",
        result_line(correct, attempted.max(1), failed, &metrics)
    );
    if correct && failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// What the guard learned from a child.
struct ChildResult {
    /// The child exited cleanly: outputs correct and nothing failed.
    ok: bool,
    /// The child asked for another attempt, or had to be killed.
    retry: bool,
    /// The child's result line as it printed it, if it got that far.
    line: Option<String>,
    /// `name → (value, unit)` from the child's result line.
    metrics: Vec<(String, f64, String)>,
    attempted: u64,
    failed: u64,
}

/// Runs one workload under the guard, again in a fresh process if an
/// attempt was discarded or killed, [`ATTEMPTS`] times at most and only
/// while the driver's limit of 180 s per run leaves room for another.
fn run_guarded(cli: &Cli, workload: &str) -> ChildResult {
    // Three times what a healthy run takes.
    let expected = if cli.quick {
        4.0
    } else {
        cli.seconds * 1.6 + 6.0
    };
    let deadline = Duration::from_secs_f64(3.0 * expected);
    let started = Instant::now();
    for attempt in 1..ATTEMPTS {
        let r = run_attempt(cli, workload, false, deadline);
        if !r.retry || started.elapsed() + deadline > Duration::from_secs(170) {
            return r;
        }
        eprintln!("{workload}: attempt {attempt} of {ATTEMPTS} did not count; starting over");
    }
    run_attempt(cli, workload, true, deadline)
}

/// Runs one attempt as a child of this process under `ulimit -v` and a
/// wall deadline, echoing its output. A child that breaches either is
/// killed and all its operations count as failed.
fn run_attempt(cli: &Cli, workload: &str, last: bool, deadline: Duration) -> ChildResult {
    let exe = std::env::current_exe().expect("own executable path");
    let mut cmd = Command::new("sh");
    cmd.arg("-c")
        .arg(format!("ulimit -v {ADDRESS_SPACE_KIB}; exec \"$0\" \"$@\""))
        .arg(&exe)
        .args(["--guarded", "--workload", workload])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if cli.trace { "1" } else { "0" }]);
    if cli.quick {
        cmd.arg("--quick");
    }
    if last {
        cmd.arg("--last-attempt");
    }
    let mut child = cmd
        .stdout(Stdio::piped())
        .spawn()
        .expect("sh is available to apply the address-space cap");
    let stdout = child.stdout.take().expect("piped stdout");
    // The reader thread ends when the child's stdout closes, which the
    // kill below guarantees.
    let reader = std::thread::spawn(move || {
        let mut lines = Vec::new();
        for line in BufReader::new(stdout).lines().map_while(Result::ok) {
            lines.push(line);
        }
        lines
    });
    let started = Instant::now();
    let status = loop {
        match child.try_wait().expect("wait for the workload process") {
            Some(status) => break Some(status),
            None if started.elapsed() > deadline => {
                child.kill().ok();
                child.wait().ok();
                break None;
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    let lines = reader.join().expect("reader thread");
    let parsed = lines.last().and_then(|l| json::parse(l).ok());
    let mut out = std::io::stdout().lock();
    // The child's result line is the guard's to print (last).
    let shown = if parsed.is_some() {
        lines.len() - 1
    } else {
        lines.len()
    };
    for l in &lines[..shown] {
        writeln!(out, "{l}").ok();
    }
    drop(out);
    let clean = status.is_some_and(|s| s.success());
    match (status, parsed) {
        (Some(_), Some(j)) => {
            let num = |k: &str| j.get(k).and_then(Json::as_f64).unwrap_or(0.0) as u64;
            let metrics = j
                .get("metrics")
                .and_then(Json::as_object)
                .map(|m| {
                    m.iter()
                        .map(|(k, v)| {
                            (
                                k.clone(),
                                v.get("value").and_then(Json::as_f64).unwrap_or(0.0),
                                v.get("unit")
                                    .and_then(Json::as_str)
                                    .unwrap_or("")
                                    .to_string(),
                            )
                        })
                        .collect()
                })
                .unwrap_or_default();
            ChildResult {
                ok: clean,
                retry: false,
                line: lines.last().cloned(),
                metrics,
                attempted: num("attempted"),
                failed: num("failed"),
            }
        }
        (status, _) => {
            let discarded = status.is_some_and(|s| s.code() == Some(i32::from(RETRY)));
            match status {
                None => eprintln!("{workload}: killed after {deadline:?} (deadline)"),
                // The child said why on its own standard error.
                Some(_) if discarded => {}
                Some(s) => eprintln!("{workload}: died without a result ({s})"),
            }
            ChildResult {
                ok: false,
                retry: discarded || status.is_none(),
                line: None,
                metrics: Vec::new(),
                attempted: 1,
                failed: 1,
            }
        }
    }
}

/// `--workload` as the driver calls it: guard the workload and pass its
/// result line on.
fn run_one(cli: &Cli, workload: &str) -> ExitCode {
    let r = run_guarded(cli, workload);
    // A child that was killed leaves no result line, and the guard adds
    // none: its diagnostics went to standard error.
    if let Some(line) = &r.line {
        println!("{line}");
    }
    if r.ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn quartiles(sorted: &[f64]) -> (f64, f64, f64) {
    (
        measure::percentile_sorted(sorted, 25.0),
        measure::percentile_sorted(sorted, 50.0),
        measure::percentile_sorted(sorted, 75.0),
    )
}

/// One metric of one workload over the repeats of `--all`.
struct Row {
    name: &'static str,
    unit: String,
    values: Vec<f64>,
}

/// `--all`: every workload `repeat` times, a table of every metric, and
/// with `--repeat` the spread of each.
fn run_all(cli: &Cli) -> ExitCode {
    let mut ok = true;
    let mut table: Vec<Vec<Row>> = WORKLOADS.iter().map(|_| Vec::new()).collect();
    for round in 0..cli.repeat {
        for (w, rows) in WORKLOADS.iter().zip(&mut table) {
            let r = run_guarded(cli, w);
            ok &= r.ok;
            println!(
                "{w}: round {} {} ({} attempted, {} failed)",
                round + 1,
                if r.ok { "ok" } else { "FAILED" },
                r.attempted,
                r.failed
            );
            for s in specs(cli.trace) {
                let Some((_, v, u)) = r.metrics.iter().find(|(n, _, _)| n == s.name) else {
                    continue;
                };
                match rows.iter_mut().find(|row| row.name == s.name) {
                    Some(row) => row.values.push(*v),
                    None => rows.push(Row {
                        name: s.name,
                        unit: u.clone(),
                        values: vec![*v],
                    }),
                }
            }
        }
    }
    println!();
    println!(
        "{:<14} {:<30} {:>16} {:<8}",
        "workload", "metric", "median", "unit"
    );
    for (w, rows) in WORKLOADS.iter().zip(&mut table) {
        for Row { name, unit, values } in rows {
            values.sort_by(f64::total_cmp);
            let (q1, med, q3) = quartiles(values);
            print!("{w:<14} {name:<30} {med:>16.6} {unit:<8}");
            if cli.repeat > 1 {
                let range = values[values.len() - 1] - values[0];
                let spread = range / med.abs().max(f64::MIN_POSITIVE);
                print!(" q1 {q1:.6} q3 {q3:.6} (max-min)/median {spread:.4}");
            }
            println!();
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("at least one workload failed");
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(c) => c,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("{e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match (&cli.workload, cli.guarded) {
        (Some(w), true) => run_here(&cli, w),
        (Some(w), false) => run_one(&cli, w),
        (None, _) => run_all(&cli),
    }
}
