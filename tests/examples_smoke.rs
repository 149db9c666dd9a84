//! Tier-1 guard for the deterministic examples: each must exit 0 and
//! print the line that says it did what its header promises. `cargo test`
//! has already built every example beside this test binary
//! (`target/<profile>/examples/`), so this runs them from there — no
//! nested cargo, no second target directory. The two wall-clock examples
//! (`live_cluster`, `tcp_cluster`) stay with CI.

use std::path::PathBuf;
use std::process::Command;

/// Runs the built example `name` and returns its stdout.
fn run_example(name: &str) -> String {
    let exe = std::env::current_exe().expect("test binary path");
    // target/<profile>/deps/<this test> -> target/<profile>/examples/<name>
    let path: PathBuf = exe
        .parent()
        .and_then(|deps| deps.parent())
        .expect("test binary lives in target/<profile>/deps")
        .join("examples")
        .join(name);
    let out = Command::new(&path).output().unwrap_or_else(|e| {
        panic!(
            "{}: cannot start: {e} (a `--test` filter skips building examples)",
            path.display()
        )
    });
    assert!(
        out.status.success(),
        "{name}: {}\n--- stderr ---\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("examples print UTF-8")
}

#[test]
fn deterministic_examples_exit_zero_and_report_ok() {
    for (name, ok) in [
        (
            "quickstart",
            "ok: every command learned 3 steps after proposal",
        ),
        (
            "replicated_kv",
            "ok: 30 commands applied at every replica, identical stores",
        ),
        ("bank_generic_broadcast", "ok: replicas agree;"),
    ] {
        let stdout = run_example(name);
        assert!(
            stdout.lines().any(|l| l.starts_with(ok)),
            "{name} printed no {ok:?} line:\n{stdout}"
        );
    }
    // `leader_failover` prints no `ok:` line; its claim is that the
    // multicoordinated run rides the leader crash at the 3-step latency.
    let stdout = run_example("leader_failover");
    let multi = stdout
        .split("\nmulticoordinated: ")
        .nth(1)
        .unwrap_or_else(|| panic!("leader_failover printed no multicoordinated run:\n{stdout}"));
    assert!(
        multi.contains("worst-case latency: 3 ticks;"),
        "multicoordinated run stalled:\n{stdout}"
    );
}
