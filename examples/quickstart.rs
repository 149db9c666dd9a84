//! Quickstart: decide commands through a multicoordinated round.
//!
//! Deploys 1 proposer, 3 coordinators, 5 acceptors and 2 learners on the
//! deterministic simulator, proposes three commuting commands, and shows
//! they are learned in three communication steps each — without any
//! single coordinator on the critical path.
//!
//! Run with `cargo run --example quickstart`.

use mcpaxos_suite::actor::SimTime;
use mcpaxos_suite::core::{agent, DeployConfig, Learner, Msg, Policy};
use mcpaxos_suite::cstruct::{CStruct, CmdSet};
use mcpaxos_suite::simnet::{NetConfig, Sim};
use std::sync::Arc;

type Set = CmdSet<u32>;

fn main() {
    let cfg = Arc::new(DeployConfig::simple(1, 3, 5, 2, Policy::MultiCoordinated));
    cfg.validate().expect("valid deployment");
    println!(
        "deploying: {} proposer(s), {} coordinators (quorums of {}), {} acceptors \
         (quorums of {}), {} learners",
        cfg.roles.proposers().len(),
        cfg.roles.coordinators().len(),
        cfg.schedule
            .coord_quorum(cfg.schedule.initial(0, 0))
            .quorum_size(),
        cfg.roles.acceptors().len(),
        cfg.quorums.classic_size(),
        cfg.roles.learners().len(),
    );

    let mut sim: Sim<Msg<Set>> = Sim::new(42, NetConfig::lockstep());
    for p in cfg.roles.all() {
        let c = cfg.clone();
        sim.add_process(p, move || agent!(Set, c, p));
    }

    // Propose three commands once the first round is established.
    let client = mcpaxos_suite::actor::ProcessId(999);
    for (i, cmd) in [11u32, 22, 33].into_iter().enumerate() {
        sim.inject_at(
            SimTime(100 + 40 * i as u64),
            cfg.roles.proposers()[0],
            client,
            Msg::Propose {
                cmd,
                acc_quorum: None,
            },
        );
    }
    sim.run_until(SimTime(500));

    for (i, &l) in cfg.roles.learners().iter().enumerate() {
        let learner: &Learner<Set> = sim.actor(l).expect("learner");
        println!("learner {i} learned: {:?}", learner.learned().commands());
        for (t, n) in learner.history() {
            println!("  t={t}: {n} command(s) learned");
        }
    }
    println!(
        "rounds started: {}, collisions: {}",
        sim.metrics().total("rounds_started"),
        sim.metrics().total("collision_mc"),
    );
    let learner: &Learner<Set> = sim.actor(cfg.roles.learners()[0]).expect("learner");
    assert_eq!(learner.learned().count(), 3, "all three commands learned");
    println!("ok: every command learned 3 steps after proposal");
}
