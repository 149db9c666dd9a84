//! Open- and closed-loop throughput measurement for the batched +
//! pipelined hot path.
//!
//! Two drive modes over the same cluster and workload:
//!
//! * **Open loop** — commands arrive at a fixed rate
//!   ([`mcpaxos_smr::open_loop_arrivals`]) regardless of completions.
//!   Under overload the backlog shows up as delivery latency, which is
//!   what the p99/p999 columns are for: an open loop cannot hide a
//!   saturated system behind a throttled offered load.
//! * **Closed loop** — a fixed window of in-flight commands; a new
//!   command is issued only when one is learned. This measures the
//!   system's natural pipelining but its latencies stay flat at
//!   saturation, so it is reported alongside, never instead of, the
//!   open-loop numbers.
//!
//! Both modes run the full proposer → coordinator → acceptor → learner
//! path in the deterministic simulator (1 tick = 1 ms for the
//! commands-per-second conversion) over a `CommandHistory<KvCmd>`
//! workload, with batching/pipelining dialed by [`mcpaxos_core::BatchConfig`].
//! `batch = 0` means the default configuration: one command per wave,
//! no linger, an unbounded pipeline.

use crate::harness::ClusterHarness;
use mcpaxos_actor::SimTime;
use mcpaxos_core::agents::metrics;
use mcpaxos_core::{BatchConfig, DeployConfig, Policy};
use mcpaxos_cstruct::{CStruct, CommandHistory};
use mcpaxos_simnet::{LatencyStats, NetConfig};
use mcpaxos_smr::{open_loop_arrivals, KvCmd, Workload};

/// The c-struct the throughput runs decide over: generalized consensus
/// on a command history, the paper's target for high-rate workloads.
pub type ThroughputHistory = CommandHistory<KvCmd>;

/// Open-loop offered load, commands per tick. High enough to saturate
/// the lockstep batch=1/depth=1 path (which retires well under one
/// command per tick), so batching headroom is what the sweep measures.
pub const THROUGHPUT_RATE: f64 = 4.0;

/// Tick at which the first command is injected (lets the cluster elect
/// its first round and reach phase 2 undisturbed, as E1 does).
const WARMUP_T: u64 = 100;

/// One throughput measurement.
#[derive(Clone, Debug)]
pub struct ThroughputStats {
    /// `"open"` or `"closed"`.
    pub mode: &'static str,
    /// Coordinator/proposer batch size (0 = the default configuration).
    pub batch: usize,
    /// Pipeline depth (in-flight 2a waves).
    pub depth: usize,
    /// Commands issued.
    pub commands: usize,
    /// Commands learned.
    pub learned: usize,
    /// Commands per second at 1 tick = 1 ms.
    pub cps: f64,
    /// Delivery-latency distribution (ticks, nearest-rank percentiles).
    pub lat: LatencyStats,
    /// Batched 2a waves the coordinators issued.
    pub batches: i64,
    /// Commands carried in those waves.
    pub batched_cmds: i64,
}

fn deploy(batch: usize, depth: usize) -> DeployConfig {
    let cfg = DeployConfig::simple(1, 3, 5, 1, Policy::MultiCoordinated);
    if batch == 0 {
        return cfg;
    }
    cfg.with_batching(BatchConfig {
        // Uncapped queue: the sweep measures batching/pipelining, not
        // shedding policy (the backpressure rows exercise caps).
        queue_cap: 0,
        ..BatchConfig::pipelined(batch, depth)
    })
}

fn harness(batch: usize, depth: usize, seed: u64) -> ClusterHarness<ThroughputHistory> {
    ClusterHarness::new(deploy(batch, depth), seed, NetConfig::lockstep())
}

fn finish(
    mode: &'static str,
    batch: usize,
    depth: usize,
    commands: usize,
    end: u64,
    h: &ClusterHarness<ThroughputHistory>,
) -> ThroughputStats {
    let learned = h.learned(0).total_len() as usize;
    let samples: Vec<u64> = h.latencies(0).into_iter().flatten().collect();
    let lat = LatencyStats::of(&samples).expect("at least one learned command");
    let makespan_ticks = end.saturating_sub(WARMUP_T).max(1);
    ThroughputStats {
        mode,
        batch,
        depth,
        commands,
        learned,
        cps: commands as f64 * 1_000.0 / makespan_ticks as f64,
        lat,
        batches: h.metric_total(metrics::BATCHES),
        batched_cmds: h.metric_total(metrics::BATCHED_CMDS),
    }
}

/// Runs `commands` kv-put commands open-loop at `rate` commands/tick and
/// measures completion.
///
/// # Panics
///
/// Panics if the run stalls before every command is learned.
pub fn open_loop_run(batch: usize, depth: usize, commands: usize, seed: u64) -> ThroughputStats {
    let mut h = harness(batch, depth, seed);
    let mut w = Workload::new(seed, 0, 0.0);
    for at in open_loop_arrivals(THROUGHPUT_RATE, commands) {
        h.propose_at(SimTime(WARMUP_T + at), 0, w.next_kv_put());
    }
    let end = h.run_until_learned(0, commands, 5, 2_000_000);
    let stats = finish("open", batch, depth, commands, end, &h);
    assert_eq!(
        stats.learned, commands,
        "open-loop b={batch}/d={depth} stalled at t={end}: {}/{commands} learned",
        stats.learned
    );
    stats
}

/// Runs `commands` kv-put commands closed-loop with `window` in flight:
/// a new command is issued only as learned commands free window slots.
///
/// # Panics
///
/// Panics if the run stalls before every command is learned.
pub fn closed_loop_run(
    batch: usize,
    depth: usize,
    commands: usize,
    window: usize,
    seed: u64,
) -> ThroughputStats {
    let mut h = harness(batch, depth, seed);
    let mut w = Workload::new(seed, 0, 0.0);
    let mut issued = 0usize;
    let mut t = WARMUP_T;
    let max_t = 2_000_000;
    loop {
        let learned = h.learned(0).total_len() as usize;
        if learned >= commands {
            break;
        }
        while issued < commands && issued - learned < window {
            h.propose_at(SimTime(t), 0, w.next_kv_put());
            issued += 1;
        }
        t += 5;
        assert!(
            t < max_t,
            "closed-loop b={batch}/d={depth} stalled at t={t}"
        );
        h.run_until(t);
    }
    let end = h.sim.now().ticks();
    finish("closed", batch, depth, commands, end, &h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batched_open_loop_learns_everything_and_batches() {
        let s = open_loop_run(8, 4, 64, 42);
        assert_eq!(s.learned, 64);
        assert!(s.batches > 0, "batched run must issue batched waves");
        assert!(
            s.batched_cmds >= 64,
            "every command rides a wave: {}",
            s.batched_cmds
        );
        assert!(s.lat.p999 >= s.lat.p50);
    }

    #[test]
    fn closed_loop_respects_the_window() {
        let s = closed_loop_run(8, 4, 64, 16, 42);
        assert_eq!(s.learned, 64);
        assert_eq!(s.mode, "closed");
    }

    #[test]
    fn batching_beats_lockstep() {
        let base = open_loop_run(1, 1, 128, 7);
        let batched = open_loop_run(16, 8, 128, 7);
        assert!(
            batched.cps > base.cps * 2.0,
            "batched {:.0} cps vs lockstep {:.0} cps",
            batched.cps,
            base.cps
        );
    }
}
