//! Tier-1 guard for the repo benchmark: `benchmark/` is its own
//! workspace over path-deps on `crates/*`, and `benchmark/src/deploy.rs`
//! implements `Context`, `StableStore` and `Actor` itself, so nothing
//! else in `cargo test` notices when a change to those crates leaves it
//! unbuildable or its workloads incorrect. This builds it and runs every
//! workload at smoke size.

use std::path::Path;
use std::process::Command;

/// Runs `cmd` to completion, panicking with its stderr unless it exits 0.
fn run_ok(what: &str, cmd: &mut Command) {
    let out = cmd
        .output()
        .unwrap_or_else(|e| panic!("{what}: cannot start: {e}"));
    assert!(
        out.status.success(),
        "{what}: {}\n--- stderr ---\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn benchmark_builds_and_every_workload_runs_quick() {
    // Its own target directory, named explicitly: no build-lock
    // contention with the outer `cargo test`, and the binary's path does
    // not depend on a `CARGO_TARGET_DIR` the caller may have set.
    let bench = Path::new(env!("CARGO_MANIFEST_DIR")).join("benchmark");
    let target = bench.join("target");
    run_ok(
        "cargo build of benchmark/",
        Command::new(env!("CARGO"))
            .args(["build", "--release", "--offline", "--manifest-path"])
            .arg(bench.join("Cargo.toml"))
            .arg("--target-dir")
            .arg(&target),
    );
    run_ok(
        "mcpaxos-benchmark --all --quick",
        Command::new(target.join("release/mcpaxos-benchmark"))
            .args(["--all", "--quick"])
            .current_dir(env!("CARGO_MANIFEST_DIR")),
    );
}
