//! The repo benchmark. See `README.md` beside this crate.

pub mod checks;
pub mod deploy;
pub mod json;
pub mod layers;
pub mod measure;
pub mod sim_run;
pub mod spec;
pub mod tcp_run;
pub mod trace;

#[global_allocator]
static ALLOC: measure::CountingAlloc = measure::CountingAlloc;

/// What one workload process is asked to do.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// Seconds of measurement the run should fill.
    pub seconds: f64,
    /// Run the traced variant and report the per-layer metrics.
    pub trace: bool,
    /// Smoke size: a fraction of the commands, one timed rep.
    pub quick: bool,
    /// Where traces and WAL files go.
    pub out_dir: std::path::PathBuf,
    /// No further attempt follows this one: report what it saw instead
    /// of asking for another.
    pub last_attempt: bool,
}

/// What one workload process found.
#[derive(Debug)]
pub struct Outcome {
    /// Commands that became due in the measured windows.
    pub attempted: u64,
    /// Of those, the ones the reference replica had not applied by the
    /// deadline.
    pub failed: u64,
    /// Output-check violations; empty means the outputs are correct.
    pub problems: Vec<String>,
    /// Why this attempt says nothing about the program at its best and
    /// should be repeated in a fresh process (a known defect struck).
    pub retry: Option<String>,
    pub report: spec::Report,
}

/// Runs one workload in this process.
pub fn run_workload(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "sim-paper" | "sim-steady" | "sim-collide" | "sim-failover" => Ok(sim_run::run(args)),
        "tcp-open" | "defect-tcp-closed-loop" => tcp_run::run(args),
        w if spec::DEFECTS.contains(&w) => Ok(sim_run::run(args)),
        other => Err(format!(
            "unknown workload {other}; known: {}",
            spec::WORKLOADS.join(", ")
        )),
    }
}
