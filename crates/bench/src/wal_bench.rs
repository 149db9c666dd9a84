//! E11 — WAL group commit: fsync amortization vs per-vote flushing.
//!
//! §4.4 prices the protocol in synchronous disk writes: one per accept at
//! every acceptor. Every run stores votes in a [`mcpaxos_actor::WalStore`],
//! which buffers until the acceptor flushes. At `gc=0`, the per-vote
//! baseline, the acceptor flushes each vote before its "2b". Group commit
//! keeps that logical write-per-accept but batches the *syncs*: one flush
//! (armed by the acceptor's `TOK_FLUSH` timer) makes the whole batch
//! durable as a single counted disk write. Either way no acceptor announces
//! a vote a crash could erase — what the `model_check` suite exhausts; this
//! module measures what the batching buys.
//!
//! The same paced command stream runs once per flush policy and the run
//! records total acceptor syncs, the amortization ratio against the
//! per-vote baseline, and the latency the deferral costs. [`wal_floors`]
//! is the gate the E11 table builder applies: group commit must keep
//! amortizing (reduction ≥ 5×) and no store may surface corrupt records.

use crate::harness::ClusterHarness;
use mcpaxos_actor::{SimDuration, SimTime, WalStore};
use mcpaxos_core::{DeployConfig, Durability, Policy};
use mcpaxos_cstruct::CStruct;
use mcpaxos_cstruct::CmdSet;
use mcpaxos_simnet::NetConfig;

type Set = CmdSet<u32>;

/// Number of commands in the standard E11 run.
pub const WAL_COMMANDS: u32 = 1_000;
/// Group-commit interval (ticks) of the headline batching run.
pub const WAL_GROUP_COMMIT: u64 = 8;
/// Injection pacing: one command per tick, so a flush window covers
/// several buffered votes.
pub const WAL_PACE: u64 = 1;

/// Measurements of one WAL run under a fixed flush policy.
#[derive(Clone, Debug)]
pub struct WalRunStats {
    /// Flush-policy label ("per-vote" or "gc=N").
    pub label: String,
    /// Commands actually learned by the learner.
    pub learned: usize,
    /// Synchronous disk writes summed over all acceptors (the §4.4 unit:
    /// per-vote syncs for the baseline, non-empty flushes under batching).
    pub acc_syncs: u64,
    /// Syncs per command per acceptor.
    pub syncs_per_cmd: f64,
    /// Corrupt records surfaced by any acceptor store (must be 0 in a
    /// crash-free run).
    pub corrupt_records: u64,
    /// Mean learning latency in ticks.
    pub mean_latency: f64,
    /// Maximum learning latency in ticks (the deferral stall bound).
    pub max_latency: u64,
}

/// Runs the E11 command stream over WAL-backed acceptors with the given
/// group-commit interval (0 = per-vote flushing, the E7-style baseline).
pub fn wal_run(group_commit: u64, n: u32) -> WalRunStats {
    let cfg = DeployConfig::simple(1, 3, 5, 1, Policy::MultiCoordinated)
        .with_durability(Durability::Reduced)
        .with_group_commit(SimDuration(group_commit));
    let net = NetConfig::lockstep();
    let mut h = ClusterHarness::<Set>::with_storage(cfg, 23, net, |_| Box::new(WalStore::new()));

    for i in 0..n {
        h.propose_at(SimTime(100 + WAL_PACE * u64::from(i)), 0, i);
    }
    let inject_end = 100 + WAL_PACE * u64::from(n);
    h.run_until_learned(0, n as usize, 25, inject_end + 60_000);

    let learned = h.learned(0).count();
    let acc_syncs = h.writes(h.cfg.roles.acceptors());
    let n_acc = h.cfg.roles.acceptors().len() as f64;
    let corrupt_records: u64 = h
        .cfg
        .roles
        .acceptors()
        .iter()
        .map(|&a| h.sim.storage(a).map(|s| s.corrupt_records()).unwrap_or(0))
        .sum();

    WalRunStats {
        label: if group_commit == 0 {
            "per-vote".to_string()
        } else {
            format!("gc={group_commit}")
        },
        learned,
        acc_syncs,
        syncs_per_cmd: acc_syncs as f64 / f64::from(n).max(1.0) / n_acc,
        corrupt_records,
        mean_latency: h.mean_latency(0),
        max_latency: h.max_latency(0),
    }
}

/// Disk-write amortization of `batched` against the per-vote `baseline` —
/// the quantity the ≥ 5× CI floor is on.
pub fn sync_reduction(baseline: &WalRunStats, batched: &WalRunStats) -> f64 {
    baseline.acc_syncs as f64 / batched.acc_syncs.max(1) as f64
}

/// The E11 gate on the per-vote `baseline` and the run at
/// [`WAL_GROUP_COMMIT`]; `Err` names the first floor that does not hold.
pub fn wal_floors(baseline: &WalRunStats, batched: &WalRunStats) -> Result<(), String> {
    for s in [baseline, batched] {
        if s.corrupt_records != 0 {
            return Err(format!(
                "{} run surfaced {} corrupt records without a crash",
                s.label, s.corrupt_records
            ));
        }
    }
    let ratio = sync_reduction(baseline, batched);
    if ratio < 5.0 {
        return Err(format!("disk-write reduction {ratio:.1}x < 5x floor"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small smoke run (the full 1k-command comparison is the E11
    /// table, which `gen_experiments --check` renders in release).
    #[test]
    fn wal_run_smoke() {
        let baseline = wal_run(0, 100);
        let batched = wal_run(WAL_GROUP_COMMIT, 100);
        assert_eq!(baseline.learned, 100);
        assert_eq!(batched.learned, 100);
        assert_eq!(baseline.corrupt_records, 0);
        assert_eq!(batched.corrupt_records, 0);
        assert!(
            sync_reduction(&baseline, &batched) > 2.0,
            "no amortization: {baseline:?} vs {batched:?}"
        );
    }

    /// Each E11 floor fires on a pair of runs doctored to miss it alone.
    #[test]
    fn wal_floors_name_the_missed_floor() {
        let run = |label: &str, acc_syncs| WalRunStats {
            label: label.to_string(),
            learned: 100,
            acc_syncs,
            syncs_per_cmd: acc_syncs as f64 / 500.0,
            corrupt_records: 0,
            mean_latency: 3.0,
            max_latency: 3,
        };
        let baseline = run("per-vote", 500);
        let good = run("gc=8", 100);
        assert_eq!(wal_floors(&baseline, &good), Ok(()));

        let slow = run("gc=8", 120);
        let err = wal_floors(&baseline, &slow).unwrap_err();
        assert!(err.contains("4.2x < 5x"), "{err}");

        let mut corrupt = good.clone();
        corrupt.corrupt_records = 1;
        let err = wal_floors(&baseline, &corrupt).unwrap_err();
        assert!(err.contains("gc=8 run surfaced 1 corrupt"), "{err}");
    }
}
