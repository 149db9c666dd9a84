//! End-to-end protocol runs on the simulator: happy paths for all three
//! round flavours, latency-in-steps checks (the paper's headline numbers),
//! and failover behaviour.

mod common;

use common::{assert_safety, deploy, learn_history, learned, propose_at};
use mcpaxos_actor::{Actor, ProcessId, SimTime};
use mcpaxos_core::{
    agent, Acceptor, CollisionPolicy, Coordinator, DeployConfig, Learner, Msg, Policy, Proposer,
};
use mcpaxos_cstruct::{CStruct, CmdSet, SingleDecree};
use mcpaxos_simnet::{NetConfig, Sim};
use std::sync::Arc;

type SD = SingleDecree<u32>;
type Set = CmdSet<u32>;

fn run_happy_path(policy: Policy) -> (Arc<DeployConfig>, Sim<Msg<Set>>) {
    let cfg = Arc::new(DeployConfig::simple(1, 3, 5, 2, policy));
    cfg.validate().expect("valid config");
    let mut sim: Sim<Msg<Set>> = Sim::new(7, NetConfig::lockstep());
    deploy(&mut sim, &cfg);
    // Let the first round establish, then feed commands.
    propose_at(&mut sim, &cfg, SimTime(100), 0, 1);
    propose_at(&mut sim, &cfg, SimTime(120), 0, 2);
    propose_at(&mut sim, &cfg, SimTime(140), 0, 3);
    sim.run_until(SimTime(400));
    (cfg, sim)
}

/// The one role→agent mapping every deployment goes through.
#[test]
fn every_process_gets_the_agent_of_its_role_and_strangers_none() {
    let cfg = Arc::new(DeployConfig::simple(2, 3, 5, 2, Policy::MultiCoordinated));
    let roles = &cfg.roles;
    let ids = roles.all();
    // Registration order is role order, which the simulator's event and
    // RNG order depend on.
    let by_role = [
        roles.proposers(),
        roles.coordinators(),
        roles.acceptors(),
        roles.learners(),
    ];
    assert_eq!(ids, by_role.concat());
    let mut sim: Sim<Msg<Set>> = Sim::new(1, NetConfig::lockstep());
    deploy(&mut sim, &cfg);
    for &p in &ids {
        let hosted = [
            sim.actor::<Proposer<Set>>(p).is_some(),
            sim.actor::<Coordinator<Set>>(p).is_some(),
            sim.actor::<Acceptor<Set>>(p).is_some(),
            sim.actor::<Learner<Set>>(p).is_some(),
        ];
        assert_eq!(hosted, by_role.map(|r| r.contains(&p)), "{p}");
    }
    // An id outside the role map is refused, not quietly made a learner.
    let stranger = ProcessId(ids.len() as u32);
    let refused = std::panic::catch_unwind(|| -> Box<dyn Actor<Msg = Msg<Set>>> {
        agent!(Set, cfg, stranger)
    });
    assert!(refused.is_err());
}

#[test]
fn multicoordinated_round_learns_all_commands() {
    let (cfg, sim) = run_happy_path(Policy::MultiCoordinated);
    for i in 0..2 {
        let l: Set = learned(&sim, &cfg, i);
        assert_eq!(l.count(), 3, "learner {i} must learn all 3 commands");
    }
    assert_safety(&sim, &cfg, &[1, 2, 3]);
    // No collisions for commuting commands.
    assert_eq!(sim.metrics().total("collision_mc"), 0);
}

#[test]
fn single_coordinated_round_learns_all_commands() {
    let (cfg, sim) = run_happy_path(Policy::SingleCoordinated);
    assert_eq!(learned::<Set>(&sim, &cfg, 0).count(), 3);
    assert_safety(&sim, &cfg, &[1, 2, 3]);
}

#[test]
fn fast_round_learns_all_commands() {
    let (cfg, sim) = run_happy_path(Policy::FastThenClassic);
    assert_eq!(learned::<Set>(&sim, &cfg, 0).count(), 3);
    assert_safety(&sim, &cfg, &[1, 2, 3]);
}

/// The paper's latency claim (§1, §3.1): classic and multicoordinated
/// rounds learn in 3 communication steps, fast rounds in 2. With unit
/// link delays, steps = elapsed ticks between the proposal leaving the
/// proposer and the learner learning.
#[test]
fn latency_in_steps_matches_paper() {
    let latency = |policy: Policy| -> u64 {
        let cfg = Arc::new(DeployConfig::simple(1, 3, 5, 1, policy));
        let mut sim: Sim<Msg<Set>> = Sim::new(7, NetConfig::lockstep());
        deploy(&mut sim, &cfg);
        let t0 = SimTime(100);
        propose_at(&mut sim, &cfg, t0, 0, 42);
        sim.run_until(SimTime(300));
        let hist = learn_history::<Set>(&sim, &cfg, 0);
        let t_learn = hist
            .iter()
            .find(|(_, n)| *n >= 1)
            .expect("command learned")
            .0;
        // The proposal is *delivered* to the proposer at t0; it forwards
        // within the same tick, so the first network hop lands at t0+1.
        t_learn.since(t0).ticks()
    };
    assert_eq!(
        latency(Policy::SingleCoordinated),
        3,
        "classic = 3 steps (propose → 2a → 2b)"
    );
    assert_eq!(
        latency(Policy::MultiCoordinated),
        3,
        "multicoordinated = same 3 steps as classic"
    );
    assert_eq!(
        latency(Policy::FastThenClassic),
        2,
        "fast = 2 steps (propose → 2b)"
    );
}

/// Consensus instantiation (§3.1): with `SingleDecree`, concurrent
/// proposals to a multicoordinated round are a collision; exactly one
/// value must be learned by everyone once recovery runs.
#[test]
fn consensus_decides_exactly_one_value_under_contention() {
    for seed in 0..10u64 {
        let cfg = Arc::new(
            DeployConfig::simple(2, 3, 5, 2, Policy::MultiCoordinated)
                .with_collision(CollisionPolicy::Coordinated),
        );
        let mut sim: Sim<Msg<SD>> = Sim::new(seed, NetConfig::lan());
        deploy(&mut sim, &cfg);
        // Two proposers race different values.
        propose_at(&mut sim, &cfg, SimTime(100), 0, 111);
        propose_at(&mut sim, &cfg, SimTime(100), 1, 222);
        sim.run_until(SimTime(2_000));
        let a: SD = learned(&sim, &cfg, 0);
        let b: SD = learned(&sim, &cfg, 1);
        assert!(
            a.value().is_some(),
            "seed {seed}: consensus must terminate (learner 0 learned nothing)"
        );
        assert!(a.compatible(&b), "seed {seed}: learners disagree");
        // Both learned: must be the same value (consistency).
        if let (Some(x), Some(y)) = (a.value(), b.value()) {
            assert_eq!(x, y, "seed {seed}");
        }
        assert_safety(&sim, &cfg, &[111, 222]);
    }
}

/// §4.1 availability: in a multicoordinated round the crash of one
/// coordinator does not interrupt progress — no new round is started.
#[test]
fn multicoordinated_survives_coordinator_crash_without_round_change() {
    let cfg = Arc::new(DeployConfig::simple(1, 3, 5, 1, Policy::MultiCoordinated));
    let mut sim: Sim<Msg<Set>> = Sim::new(7, NetConfig::lockstep());
    deploy(&mut sim, &cfg);
    propose_at(&mut sim, &cfg, SimTime(100), 0, 1);
    sim.run_until(SimTime(150));
    assert_eq!(learned::<Set>(&sim, &cfg, 0).count(), 1);
    let rounds_before = sim.metrics().total("rounds_started");
    // Crash a NON-leader coordinator (the leader is the lowest id, p1).
    let victim = cfg.roles.coordinators()[2];
    sim.crash_at(SimTime(160), victim);
    propose_at(&mut sim, &cfg, SimTime(200), 0, 2);
    propose_at(&mut sim, &cfg, SimTime(220), 0, 3);
    sim.run_until(SimTime(400));
    assert_eq!(learned::<Set>(&sim, &cfg, 0).count(), 3);
    assert_eq!(
        sim.metrics().total("rounds_started"),
        rounds_before,
        "coordinator crash must not trigger a round change"
    );
    assert_safety(&sim, &cfg, &[1, 2, 3]);
}

/// Crashing the *leader* of a multicoordinated round also leaves the
/// round usable (any coordinator quorum of the survivors works).
#[test]
fn multicoordinated_survives_leader_crash_too() {
    let cfg = Arc::new(DeployConfig::simple(1, 3, 5, 1, Policy::MultiCoordinated));
    let mut sim: Sim<Msg<Set>> = Sim::new(7, NetConfig::lockstep());
    deploy(&mut sim, &cfg);
    propose_at(&mut sim, &cfg, SimTime(100), 0, 1);
    sim.run_until(SimTime(150));
    let leader = cfg.roles.coordinators()[0];
    sim.crash_at(SimTime(160), leader);
    propose_at(&mut sim, &cfg, SimTime(200), 0, 2);
    sim.run_until(SimTime(260));
    // Learned through {c2, c3}, still round 1: quorum of 2-of-3 remains.
    assert_eq!(learned::<Set>(&sim, &cfg, 0).count(), 2);
    assert_safety(&sim, &cfg, &[1, 2]);
}

/// In a single-coordinated round the leader crash stalls the system until
/// leader election plus a new round's phase 1 complete (§4.1) — progress
/// resumes, but only after a visible gap.
#[test]
fn single_coordinated_leader_crash_stalls_then_recovers() {
    let cfg = Arc::new(DeployConfig::simple(1, 3, 5, 1, Policy::SingleCoordinated));
    let mut sim: Sim<Msg<Set>> = Sim::new(7, NetConfig::lockstep());
    deploy(&mut sim, &cfg);
    propose_at(&mut sim, &cfg, SimTime(100), 0, 1);
    sim.run_until(SimTime(150));
    assert_eq!(learned::<Set>(&sim, &cfg, 0).count(), 1);
    let leader = cfg.roles.coordinators()[0];
    sim.crash_at(SimTime(160), leader);
    propose_at(&mut sim, &cfg, SimTime(200), 0, 2);
    // Shortly after: nothing (the round's only coordinator is dead).
    sim.run_until(SimTime(260));
    assert_eq!(
        learned::<Set>(&sim, &cfg, 0).count(),
        1,
        "single-coordinated round must stall while leaderless"
    );
    // Eventually: c2 times out c1, starts a round, command goes through.
    sim.run_until(SimTime(2_000));
    assert_eq!(learned::<Set>(&sim, &cfg, 0).count(), 2);
    assert!(sim.metrics().total("rounds_started") >= 2);
    assert_safety(&sim, &cfg, &[1, 2]);
}

/// Acceptor crash-recovery: a minority of acceptors crash and recover;
/// safety holds throughout and new commands are still learned.
#[test]
fn acceptor_crash_recovery_preserves_safety_and_progress() {
    for policy in [Policy::MultiCoordinated, Policy::SingleCoordinated] {
        let cfg = Arc::new(DeployConfig::simple(1, 3, 5, 2, policy));
        let mut sim: Sim<Msg<Set>> = Sim::new(11, NetConfig::lan());
        deploy(&mut sim, &cfg);
        propose_at(&mut sim, &cfg, SimTime(100), 0, 1);
        sim.run_until(SimTime(200));
        let a0 = cfg.roles.acceptors()[0];
        let a1 = cfg.roles.acceptors()[1];
        sim.crash_at(SimTime(210), a0);
        sim.crash_at(SimTime(215), a1);
        propose_at(&mut sim, &cfg, SimTime(250), 0, 2);
        sim.recover_at(SimTime(400), a0);
        sim.recover_at(SimTime(420), a1);
        propose_at(&mut sim, &cfg, SimTime(600), 0, 3);
        sim.run_until(SimTime(3_000));
        let l: Set = learned(&sim, &cfg, 0);
        assert_eq!(l.count(), 3, "{policy:?}: all commands learned");
        assert_safety(&sim, &cfg, &[1, 2, 3]);
    }
}

/// Message loss: with 5% loss and retransmission, everything is still
/// learned and safety holds (fair-lossy liveness, §4.3).
#[test]
fn lossy_network_still_converges() {
    for seed in [1u64, 2, 3] {
        let cfg = Arc::new(DeployConfig::simple(1, 3, 5, 2, Policy::MultiCoordinated));
        let mut sim: Sim<Msg<Set>> =
            Sim::new(seed, NetConfig::lan().with_loss(0.05).with_duplicate(0.02));
        deploy(&mut sim, &cfg);
        for (i, t) in [100u64, 150, 200, 250, 300].iter().enumerate() {
            propose_at(&mut sim, &cfg, SimTime(*t), 0, i as u32);
        }
        sim.run_until(SimTime(5_000));
        let l: Set = learned(&sim, &cfg, 0);
        assert_eq!(l.count(), 5, "seed {seed}: all commands learned");
        assert_safety(&sim, &cfg, &[0, 1, 2, 3, 4]);
    }
}
