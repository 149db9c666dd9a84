//! Proactive delta-base downgrade (restart `Hello` / link reset): a peer
//! that lost the base of a sender's suffix deltas — by crashing or by
//! sitting behind a healed partition — must be downgraded to full
//! payloads *proactively*, without first shipping a doomed delta and
//! paying the `NeedFull` round-trip to learn about it.
//!
//! The runs are lockstep (no loss, no duplication), so every `NeedFull`
//! in the trace is a round-trip the proactive path failed to save; the
//! tests pin that count at zero while `base_resets` proves bases were
//! actually dropped. A `Hello` also lets a receiver ask again for the
//! full value of a sender whose last one arrived ahead of it.

mod common;

use common::{deploy, learned, needs_full, propose_at};
use mcpaxos_actor::host::Recorder;
use mcpaxos_actor::wire::{Wire, WireError};
use mcpaxos_actor::{Actor, ProcessId, SimTime};
use mcpaxos_core::{
    Acceptor, Coordinator, DeployConfig, Msg, Payload, Policy, Round, WireConfig, RTYPE_MULTI,
};
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

/// Delta shipping on, compaction off: bases live forever, so a stale one
/// can only be cleared by the proactive downgrade under test.
fn delta_cfg() -> Arc<DeployConfig> {
    Arc::new(
        DeployConfig::simple(1, 3, 5, 1, Policy::MultiCoordinated).with_wire(WireConfig {
            delta_ship: true,
            ..WireConfig::default()
        }),
    )
}

fn deliveries(sim: &Sim<Msg<H>>, what: &str) -> usize {
    sim.trace()
        .iter()
        .filter(|e| e.detail.contains(what))
        .count()
}

#[test]
fn learner_restart_skips_the_needfull_round_trip() {
    let cfg = delta_cfg();
    let mut sim: Sim<Msg<H>> = Sim::new(3, NetConfig::lockstep());
    sim.enable_trace(1_000_000);
    deploy(&mut sim, &cfg);
    let n = 30u32;
    for i in 0..n {
        propose_at(&mut sim, &cfg, SimTime(100 + 20 * u64::from(i)), 0, cmd(i));
    }
    // The learner restarts mid-stream: every acceptor still holds a "2b"
    // delta base for it, in the *same* round — exactly the stale-base
    // shape a reactive design pays a NeedFull round-trip to discover.
    let l = cfg.roles.learners()[0];
    sim.crash_at(SimTime(400), l);
    sim.recover_at(SimTime(500), l);
    sim.run_until(SimTime(30_000));

    let v: H = learned(&sim, &cfg, 0);
    assert_eq!(v.total_len(), u64::from(n), "relearned everything");
    assert!(
        deliveries(&sim, "Hello") > 0,
        "the restart announcement must reach the acceptors"
    );
    assert!(
        sim.metrics().total("base_resets") > 0,
        "acceptors must drop the learner's stale 2b bases"
    );
    assert_eq!(
        deliveries(&sim, "NeedFull"),
        0,
        "every saved round-trip: no doomed delta may be shipped"
    );
    assert!(sim.metrics().total("delta_sends") > 0, "deltas flowed");
}

#[test]
fn partition_heal_resets_bases_on_both_sides() {
    let cfg = delta_cfg();
    let mut sim: Sim<Msg<H>> = Sim::new(5, NetConfig::lockstep());
    sim.enable_trace(1_000_000);
    deploy(&mut sim, &cfg);
    let n = 40u32;
    for i in 0..n {
        propose_at(&mut sim, &cfg, SimTime(100 + 20 * u64::from(i)), 0, cmd(i));
    }
    // One acceptor is cut off while the round keeps making progress on
    // the remaining quorum: the coordinator's "2a" base for it advances
    // with every send the partition silently drops. On heal, the link
    // reset must downgrade it to Full — a delta against the advanced
    // base would gap and cost a NeedFull round-trip.
    let a = cfg.roles.acceptors()[0];
    let rest: Vec<ProcessId> = cfg
        .roles
        .all()
        .iter()
        .copied()
        .filter(|&p| p != a)
        .collect();
    sim.partition_at(SimTime(450), vec![a], rest);
    sim.heal_at(SimTime(700));
    sim.run_until(SimTime(30_000));

    let v: H = learned(&sim, &cfg, 0);
    assert_eq!(v.total_len(), u64::from(n), "learned everything");
    assert!(
        sim.metrics().total("base_resets") > 0,
        "heal must drop bases for the severed links"
    );
    assert_eq!(
        deliveries(&sim, "NeedFull"),
        0,
        "no post-heal delta may be shipped against a stale base"
    );
    assert!(sim.metrics().total("delta_sends") > 0, "deltas flowed");
}

/// Whether `agent` asks `from` for its full value on a delta, after that
/// sender's full value arrived ahead of it, then again after a `Hello`
/// from it.
fn asks_for_a_full_value_ahead(
    agent: &mut dyn Actor<Msg = Msg<H>>,
    from: ProcessId,
    wrap: fn(Round, Payload<H>) -> Msg<H>,
) -> (bool, bool) {
    let r = Round::new(0, 1, 0, RTYPE_MULTI);
    // The sender's 8 commands with the stable segment 0..4 truncated.
    let at = |n: u32| {
        let mut v: H = (0..n).map(cmd).collect();
        assert!(v.truncate_stable(&(0..4).map(cmd).collect::<Vec<_>>()));
        v
    };
    let delta = || Payload::Delta {
        base_len: 8,
        digest: at(9).digest(),
        suffix: vec![cmd(8)],
    };
    let mut cx = Recorder::new(0);
    agent.on_message(from, wrap(r, Payload::full(at(8))), &mut cx);
    cx.sent.clear();
    agent.on_message(from, wrap(r, delta()), &mut cx);
    let before = needs_full(&cx);
    agent.on_message(from, Msg::Hello, &mut cx);
    agent.on_message(from, wrap(r, delta()), &mut cx);
    (before, needs_full(&cx))
}

#[test]
fn a_hello_lets_deltas_from_a_sender_ahead_ask_for_its_full_value_again() {
    let cfg = Arc::new(
        DeployConfig::simple(1, 3, 5, 1, Policy::MultiCoordinated)
            .with_wire(WireConfig::bounded(16)),
    );
    let (coord, acc) = (cfg.roles.coordinators()[0], cfg.roles.acceptors()[0]);
    let mut a: Acceptor<H> = Acceptor::new(cfg.clone());
    let p2a = |round, val| Msg::P2a { round, val };
    assert_eq!(
        asks_for_a_full_value_ahead(&mut a, coord, p2a),
        (false, true)
    );
    let mut c: Coordinator<H> = Coordinator::new(cfg.clone(), coord);
    let p2b = |round, val| Msg::P2b { round, val };
    assert_eq!(asks_for_a_full_value_ahead(&mut c, acc, p2b), (false, true));
}
