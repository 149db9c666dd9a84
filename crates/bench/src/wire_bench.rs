//! E10 — wire bytes and live memory under delta shipping and
//! stable-prefix compaction.
//!
//! The same 1 000-command, ~10 %-conflict KV workload runs twice on the
//! deterministic simulator with per-message byte accounting: once with
//! the paper's whole-c-struct messages (every `2a`/`2b` re-serializes the
//! full command history — O(n²) cumulative bytes) and once in bounded
//! mode ([`WireConfig::bounded`]: suffix deltas + learner-quorum stable
//! watermark + truncation). The bounded run must cut cumulative
//! `2a`/`2b` bytes ≥ 10× and keep every acceptor's live history window
//! bounded (non-monotonic over time): [`wire_floors`] states those
//! floors once, and the E10 table builder refuses to render without them.

use crate::harness::ClusterHarness;
use mcpaxos_actor::wire::to_bytes;
use mcpaxos_actor::SimTime;
use mcpaxos_core::{Acceptor, DeployConfig, Learner, Msg, Policy, WireConfig};
use mcpaxos_cstruct::{CStruct, CommandHistory};
use mcpaxos_simnet::NetConfig;
use mcpaxos_smr::{KvCmd, Workload};

type KvH = CommandHistory<KvCmd>;

/// Number of commands in the standard E10 run.
pub const WIRE_COMMANDS: u32 = 1_000;
/// Stable-segment cadence of the bounded mode (replicas checkpoint every
/// `STABLE_KEEP / 2` segments).
pub const WIRE_SEGMENT: u64 = 64;
/// Conflict fraction of the workload.
pub const WIRE_RHO: f64 = 0.1;

/// Measurements of one wire run.
#[derive(Clone, Debug)]
pub struct WireRunStats {
    /// Run label ("full" or "bounded").
    pub label: &'static str,
    /// Commands injected (and required to be learned).
    pub commands: u32,
    /// Cumulative serialized "2a" bytes.
    pub bytes_2a: u64,
    /// Cumulative "2b" bytes.
    pub bytes_2b: u64,
    /// Compaction-control bytes (`stable`/`stable_prop`/`stable_ack`/
    /// `needfull`/`needstable`): the overhead the savings pay for.
    pub bytes_control: u64,
    /// Logical learned length at the end (must equal `commands`).
    pub learned_total: u64,
    /// Largest live history window observed at any acceptor.
    pub acc_live_max: usize,
    /// Final live window of the first acceptor.
    pub acc_live_final: usize,
    /// Whether any sampled acceptor live window *shrank* between samples
    /// (non-monotonic ⇔ truncation really reclaims memory).
    pub acc_live_decreased: bool,
    /// Final stable watermark at the learner.
    pub watermark: u64,
    /// Sum of `delta_sends` across agents.
    pub delta_sends: i64,
    /// Sum of `full_resyncs` across agents.
    pub full_resyncs: i64,
    /// Sum of `truncations` across agents.
    pub truncations: i64,
}

/// Runs the E10 workload with (`bounded = true`) or without the
/// delta/compaction machinery, byte-metered.
pub fn wire_run(bounded: bool, n: u32) -> WireRunStats {
    let wire = if bounded {
        WireConfig::bounded(WIRE_SEGMENT)
    } else {
        WireConfig::default()
    };
    let cfg = DeployConfig::simple(1, 3, 5, 1, Policy::MultiCoordinated).with_wire(wire);
    let mut h: ClusterHarness<KvH> = ClusterHarness::new(cfg, 42, NetConfig::lockstep());
    h.sim
        .enable_byte_meter(Box::new(|m: &Msg<KvH>| (m.tag(), to_bytes(m).len() as u64)));

    let mut w = Workload::new(9, 0, WIRE_RHO);
    let inject_end = 100 + 15 * u64::from(n);
    for i in 0..n {
        h.propose_at(SimTime(100 + 15 * u64::from(i)), 0, w.next_kv_put());
    }

    // Drive in slices, sampling every acceptor's live window.
    let learner_pid = h.cfg.roles.learners()[0];
    let acceptors = h.cfg.roles.acceptors().to_vec();
    let mut acc_live_max = 0usize;
    let mut acc_live_decreased = false;
    let mut prev_live: Vec<usize> = vec![0; acceptors.len()];
    let mut t = 0u64;
    let deadline = inject_end + 60_000;
    loop {
        t += 250;
        h.run_until(t);
        for (k, &a) in acceptors.iter().enumerate() {
            let live = h
                .sim
                .actor::<Acceptor<KvH>>(a)
                .expect("acceptor")
                .vval()
                .live_len();
            acc_live_max = acc_live_max.max(live);
            if live < prev_live[k] {
                acc_live_decreased = true;
            }
            prev_live[k] = live;
        }
        let learned_total = h
            .sim
            .actor::<Learner<KvH>>(learner_pid)
            .expect("learner")
            .learned()
            .total_len();
        if (learned_total >= u64::from(n) && t >= inject_end) || t >= deadline {
            break;
        }
    }

    let learner = h.sim.actor::<Learner<KvH>>(learner_pid).expect("learner");
    let learned_total = learner.learned().total_len();
    let watermark = learner.watermark();
    let acc_live_final = h
        .sim
        .actor::<Acceptor<KvH>>(acceptors[0])
        .expect("acceptor")
        .vval()
        .live_len();

    let wt = |tag: &str| h.sim.wire_total(tag);
    let control = wt("stable").bytes
        + wt("stable_prop").bytes
        + wt("stable_ack").bytes
        + wt("needfull").bytes
        + wt("needstable").bytes;

    WireRunStats {
        label: if bounded { "bounded" } else { "full" },
        commands: n,
        bytes_2a: wt("2a").bytes,
        bytes_2b: wt("2b").bytes,
        bytes_control: control,
        learned_total,
        acc_live_max,
        acc_live_final,
        acc_live_decreased,
        watermark,
        delta_sends: h.metric_total("delta_sends"),
        full_resyncs: h.metric_total("full_resyncs"),
        truncations: h.metric_total("truncations"),
    }
}

/// Cumulative `2a`+`2b` bytes — the quantity the ≥10× floor is on.
pub fn data_plane_bytes(s: &WireRunStats) -> u64 {
    s.bytes_2a + s.bytes_2b
}

/// How many times fewer `2a`+`2b` bytes `bounded` shipped than `full`.
pub fn wire_reduction(full: &WireRunStats, bounded: &WireRunStats) -> f64 {
    data_plane_bytes(full) as f64 / data_plane_bytes(bounded).max(1) as f64
}

/// The E10 gate on a full/bounded pair of runs; `Err` names the first
/// floor that does not hold.
pub fn wire_floors(full: &WireRunStats, bounded: &WireRunStats) -> Result<(), String> {
    let ratio = wire_reduction(full, bounded);
    if ratio < 10.0 {
        return Err(format!("2a+2b byte reduction {ratio:.1}x < 10x floor"));
    }
    if !bounded.acc_live_decreased {
        return Err("bounded acceptor window never shrank (monotonic)".into());
    }
    if bounded.acc_live_final * 4 > bounded.commands as usize {
        return Err(format!(
            "bounded acceptor window ended at {} (> {}/4)",
            bounded.acc_live_final, bounded.commands
        ));
    }
    if bounded.watermark == 0 {
        return Err("bounded watermark never advanced".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small smoke run (the full 1k-command comparison is the E10
    /// table, which `gen_experiments --check` renders in release).
    #[test]
    fn wire_run_smoke() {
        // Past one stable segment (64) so compaction actually runs.
        let full = wire_run(false, 100);
        let bounded = wire_run(true, 100);
        assert_eq!(full.learned_total, 100);
        assert_eq!(bounded.learned_total, 100);
        assert!(bounded.watermark > 0);
        assert!(bounded.acc_live_decreased, "no truncation observed");
        assert!(data_plane_bytes(&bounded) < data_plane_bytes(&full));
    }

    /// Each E10 floor fires on a pair of runs doctored to miss it alone.
    #[test]
    fn wire_floors_name_the_missed_floor() {
        let run = |label, bytes, acc_live_final| WireRunStats {
            label,
            commands: 1_000,
            bytes_2a: bytes,
            bytes_2b: bytes,
            bytes_control: 0,
            learned_total: 1_000,
            acc_live_max: 200,
            acc_live_final,
            acc_live_decreased: true,
            watermark: 960,
            delta_sends: 0,
            full_resyncs: 0,
            truncations: 0,
        };
        let full = run("full", 10_000, 1_000);
        let good = run("bounded", 1_000, 250);
        assert_eq!(wire_floors(&full, &good), Ok(()));

        type Doctor = fn(&mut WireRunStats);
        let doctored: [(&str, Doctor); 4] = [
            ("9.1x < 10x", |s| s.bytes_2b = 1_200),
            ("never shrank", |s| s.acc_live_decreased = false),
            ("ended at 251", |s| s.acc_live_final = 251),
            ("watermark never advanced", |s| s.watermark = 0),
        ];
        for (expect, doctor) in doctored {
            let mut bad = good.clone();
            doctor(&mut bad);
            let err = wire_floors(&full, &bad).unwrap_err();
            assert!(err.contains(expect), "{expect:?} not in {err:?}");
        }
    }
}
