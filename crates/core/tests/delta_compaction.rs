//! End-to-end runs with delta shipping and stable-prefix compaction on:
//! the bounded-resources mode must learn everything the default mode
//! learns while keeping every agent's live history window bounded.

mod common;

use common::{deploy, learned, propose_at};
use mcpaxos_actor::wire::{Wire, WireError};
use mcpaxos_actor::{SimDuration, SimTime, WalStore};
use mcpaxos_core::{Acceptor, BatchConfig, DeployConfig, Msg, Policy, WireConfig};
use mcpaxos_cstruct::{CStruct, CommandHistory, Conflict, ConflictKeys};
use mcpaxos_simnet::{NetConfig, Sim};
use std::sync::Arc;

/// Keyed test command: ~10% of pairs conflict (same key of 10).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct K(u16, u32);

impl Conflict for K {
    fn conflicts(&self, other: &Self) -> bool {
        self.0 == other.0
    }
    fn conflict_keys(&self) -> ConflictKeys {
        ConflictKeys::one(u64::from(self.0))
    }
}

impl Wire for K {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(i: &mut &[u8]) -> Result<Self, WireError> {
        Ok(K(u16::decode(i)?, u32::decode(i)?))
    }
}

type H = CommandHistory<K>;

fn cmd(i: u32) -> K {
    K((i % 10) as u16, i)
}

fn run_bounded(
    n: u32,
    segment: u64,
    n_learners: usize,
    net: NetConfig,
    seed: u64,
    until: u64,
) -> (Arc<DeployConfig>, Sim<Msg<H>>) {
    let cfg = Arc::new(
        DeployConfig::simple(1, 3, 5, n_learners, Policy::MultiCoordinated)
            .with_wire(WireConfig::bounded(segment)),
    );
    cfg.validate().expect("valid config");
    let mut sim: Sim<Msg<H>> = Sim::new(seed, net);
    deploy(&mut sim, &cfg);
    for i in 0..n {
        propose_at(&mut sim, &cfg, SimTime(100 + 20 * u64::from(i)), 0, cmd(i));
    }
    sim.run_until(SimTime(until));
    (cfg, sim)
}

#[test]
fn bounded_mode_learns_everything_with_bounded_windows() {
    let n = 200;
    let (cfg, sim) = run_bounded(n, 16, 2, NetConfig::lockstep(), 11, 10_000);

    // Liveness: every learner reaches all n commands (logically).
    for i in 0..cfg.roles.learners().len() {
        let l: H = learned(&sim, &cfg, i);
        assert_eq!(
            l.total_len(),
            u64::from(n),
            "learner {i} must learn all {n} commands"
        );
        assert!(
            l.watermark() > 0,
            "learner {i} never truncated (compaction dead)"
        );
        assert!(
            l.live_len() < (n as usize) / 2,
            "learner {i} live window not bounded: {}",
            l.live_len()
        );
    }

    // Acceptors: value reflects everything, live window stays bounded.
    for &a in cfg.roles.acceptors() {
        let acc = sim.actor::<Acceptor<H>>(a).expect("acceptor");
        assert_eq!(acc.vval().total_len(), u64::from(n), "acceptor {a}");
        assert!(
            acc.vval().live_len() < (n as usize) / 2,
            "acceptor {a} live window not bounded: {}",
            acc.vval().live_len()
        );
    }

    // The machinery actually ran.
    let deltas = sim.metrics().total("delta_sends");
    assert!(deltas > 0, "no deltas shipped");
    assert!(sim.metrics().total("truncations") > 0, "nothing truncated");
    // Most deltas extend their base in place: a copy is paid only while
    // something else still shares it.
    let copies = sim.metrics().total("base_copies");
    assert!(
        4 * copies <= deltas,
        "{copies} base copies for {deltas} deltas"
    );

    // Consistency across learners, live windows compared above the common
    // watermark: align both to the higher one via the protocol invariant
    // (equal segment stream), here simply compare the learned sets above
    // the max watermark through `le` on equal-watermark clones.
    let l0: H = learned(&sim, &cfg, 0);
    let l1: H = learned(&sim, &cfg, 1);
    assert_eq!(l0.total_len(), l1.total_len());
}

#[test]
fn bounded_mode_survives_loss_and_duplication() {
    // A fair-lossy network forces the NeedFull resync path: deltas whose
    // bases were dropped must recover through full re-ships.
    let net = NetConfig::lan().with_loss(0.03).with_duplicate(0.05);
    let n = 120;
    let (cfg, sim) = run_bounded(n, 16, 1, net, 23, 60_000);
    let l: H = learned(&sim, &cfg, 0);
    assert_eq!(
        l.total_len(),
        u64::from(n),
        "all commands must eventually be learned under loss"
    );
    assert!(sim.metrics().total("truncations") > 0);
}

#[test]
fn bounded_mode_matches_default_mode_outcome() {
    // Same workload, default wire policy: the learned command set must be
    // identical (delta shipping is a transport optimization, not a
    // semantic change).
    let n = 100;
    let (cfg_b, sim_b) = run_bounded(n, 16, 1, NetConfig::lockstep(), 7, 10_000);
    let cfg = Arc::new(DeployConfig::simple(1, 3, 5, 1, Policy::MultiCoordinated));
    let mut sim: Sim<Msg<H>> = Sim::new(7, NetConfig::lockstep());
    deploy(&mut sim, &cfg);
    for i in 0..n {
        propose_at(&mut sim, &cfg, SimTime(100 + 20 * u64::from(i)), 0, cmd(i));
    }
    sim.run_until(SimTime(10_000));

    let plain: H = learned(&sim, &cfg, 0);
    let bounded: H = learned(&sim_b, &cfg_b, 0);
    assert_eq!(plain.total_len(), bounded.total_len());
    assert_eq!(plain.watermark(), 0, "default mode never truncates");
    // Every live bounded command is in the plain history, in a compatible
    // order: the bounded suffix must embed into the full value.
    for c in bounded.as_slice() {
        assert!(plain.contains(c), "bounded learned {c:?} unknown to plain");
    }
    // And the acceptors of the default run grew monotonically (sanity
    // contrast for the bench's non-monotonic bounded series).
    for &a in cfg.roles.acceptors() {
        let acc = sim.actor::<Acceptor<H>>(a).expect("acceptor");
        assert_eq!(acc.vval().watermark(), 0);
    }
    // On a lockstep net the bounded run paid no full resync: every delta
    // resolved, across every compaction boundary.
    assert!(sim_b.metrics().total("truncations") > 0);
    assert_eq!(sim_b.metrics().total("full_resyncs"), 0);
}

#[test]
fn pipelined_group_commit_crosses_compaction_boundaries_without_resyncs() {
    // The production shape on a lockstep net: waves of 16, eight in
    // flight, votes group-committed, a segment every 16 commands. Agents
    // cross each boundary at different instants, so deltas shipped before
    // their sender truncated keep landing after their receiver did; each
    // must still resolve against the receiver's base instead of costing a
    // NeedFull.
    let cfg = Arc::new(
        DeployConfig::simple(1, 3, 5, 2, Policy::MultiCoordinated)
            .with_wire(WireConfig::bounded(16))
            .with_batching(BatchConfig::pipelined(16, 8))
            .with_group_commit(SimDuration(2)),
    );
    cfg.validate().expect("valid config");
    let mut sim: Sim<Msg<H>> = Sim::new(1, NetConfig::lockstep());
    sim.enable_trace(1_000_000);
    sim.set_storage_factory(|_| Box::new(WalStore::new()));
    deploy(&mut sim, &cfg);
    let n = 320u32;
    for i in 0..n {
        propose_at(&mut sim, &cfg, SimTime(100 + u64::from(i / 8)), 0, cmd(i));
    }
    sim.run_until(SimTime(5_000));

    for i in 0..cfg.roles.learners().len() {
        let l: H = learned(&sim, &cfg, i);
        assert_eq!(l.total_len(), u64::from(n), "learner {i}");
        let w = l.watermark();
        assert!(w >= 10 * 16, "learner {i} crossed too few boundaries: {w}");
    }
    let roles = &cfg.roles;
    let agents = roles.acceptors().iter().chain(roles.coordinators());
    for &p in agents.chain(roles.learners()) {
        let truncations = sim.metrics().of(p, "truncations");
        assert!(truncations > 0, "{p} never truncated");
    }
    let need_full = sim
        .trace()
        .iter()
        .filter(|e| e.detail.contains("NeedFull"))
        .count();
    assert_eq!(need_full, 0, "a delta gapped at a compaction boundary");
    assert_eq!(sim.metrics().total("full_resyncs"), 0);
    assert!(sim.metrics().total("delta_sends") > 0, "deltas flowed");
}

/// Runs `n` commands with segments of `segment`, proposing command 140
/// a second time five ticks after the first.
fn run_with_a_retry(n: u32, segment: u64) -> H {
    let cfg = Arc::new(
        DeployConfig::simple(1, 3, 5, 1, Policy::MultiCoordinated)
            .with_wire(WireConfig::bounded(segment)),
    );
    let mut sim: Sim<Msg<H>> = Sim::new(11, NetConfig::lockstep());
    deploy(&mut sim, &cfg);
    for i in 0..n {
        propose_at(&mut sim, &cfg, SimTime(100 + 20 * u64::from(i)), 0, cmd(i));
    }
    propose_at(&mut sim, &cfg, SimTime(2905), 0, cmd(140));
    sim.run_until(SimTime(28_100));
    learned(&sim, &cfg, 0)
}

#[test]
#[ignore = "ROADMAP item 14: a command proposed again after its segment \
            left the retained window is chosen a second time"]
fn a_command_proposed_again_after_it_was_truncated_is_learned_once() {
    assert_eq!(run_with_a_retry(400, 16).total_len(), 400);
    assert_eq!(run_with_a_retry(200, 4).total_len(), 200);
}
