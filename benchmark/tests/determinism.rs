//! At smoke size: what the simulated workloads count must not depend on
//! anything but the seed.

mod common;

use mcpaxos_benchmark::deploy::commands;

/// Metrics read off the simulated clock or a counter.
const EXACT: [&str; 5] = [
    "commit_p50_ticks",
    "commit_p99_ticks",
    "unavail_ticks",
    "fsyncs_per_cmd",
    "wire_bytes_per_cmd",
];

#[test]
fn exact_metrics_repeat_for_a_seed_and_across_reps() {
    for w in ["sim-paper", "sim-steady", "sim-collide", "sim-failover"] {
        let a = common::quick(w, 7, false);
        let b = common::quick(w, 7, false);
        // The binary itself compares every rep of an invocation with its
        // counting rep and reports a mismatch as an incorrect output.
        assert!(
            a.correct() && b.correct(),
            "{w}: reps disagreed\n{}",
            a.stdout
        );
        let (ma, mb) = (a.metrics(), b.metrics());
        for name in EXACT {
            assert_eq!(
                ma[name].0.to_bits(),
                mb[name].0.to_bits(),
                "{w}/{name} differs between two invocations with one seed"
            );
        }
        // Debug-formatting a std hash set grows its buffer in an order
        // that differs from run to run; the bytes asked for repeat to a
        // few parts per million, not to the bit.
        let (x, y) = (ma["alloc_kb_per_cmd"].0, mb["alloc_kb_per_cmd"].0);
        assert!((x - y).abs() <= 1e-4 * x, "{w}/alloc_kb_per_cmd {x} vs {y}");
    }
}

#[test]
fn another_seed_is_another_workload() {
    assert_ne!(commands(7, 0, 0.1, 32), commands(8, 0, 0.1, 32));
    // Where delays are random the seed shows in the counts too.
    let a = common::quick("sim-collide", 7, false).metrics();
    let b = common::quick("sim-collide", 8, false).metrics();
    assert!(
        EXACT.iter().any(|name| a[*name].0 != b[*name].0),
        "sim-collide counted the same under seeds 7 and 8"
    );
}

#[test]
fn tracing_does_not_change_what_is_counted() {
    // A traced rep whose simulation diverged from the untraced one is
    // reported by the binary as an incorrect output.
    for w in ["sim-steady", "sim-failover"] {
        let t = common::quick(w, 7, true);
        assert!(t.correct(), "{w}: traced run diverged\n{}", t.stdout);
    }
}
