//! Workspace-level integration: the full stack (actor → simnet → core →
//! gbcast → smr) exercised together, plus cross-runtime agreement between
//! the simulator and the threaded runtime.

use mcpaxos_suite::actor::{ProcessId, SimTime};
use mcpaxos_suite::core::{agent, DeployConfig, Learner, Msg, Policy};
use mcpaxos_suite::cstruct::{CStruct, CmdSet, CommandHistory};
use mcpaxos_suite::gbcast::checks;
use mcpaxos_suite::simnet::{DelayDist, NetConfig, Sim};
use mcpaxos_suite::smr::{KvCmd, KvStore, Replica, Workload};
use std::sync::Arc;

const CLIENT: ProcessId = ProcessId(9_999);

type H = CommandHistory<KvCmd>;

fn deploy_kv(sim: &mut Sim<Msg<H>>, cfg: &Arc<DeployConfig>) {
    for p in cfg.roles.all() {
        let c = cfg.clone();
        sim.add_process(p, move || {
            if c.roles.is_learner(p) {
                Box::new(Replica::<KvStore>::new(c.clone()))
            } else {
                agent!(H, c, p)
            }
        });
    }
}

/// A full scenario: mixed-conflict KV workload, one coordinator crash,
/// one acceptor crash + recovery, a transient partition — ending in
/// converged replicas and intact generic-broadcast properties.
#[test]
fn kitchen_sink_scenario() {
    for seed in 0..4u64 {
        let cfg = Arc::new(DeployConfig::simple(2, 3, 5, 3, Policy::MultiCoordinated));
        let net = NetConfig::lockstep()
            .with_delay(DelayDist::Uniform(1, 4))
            .with_loss(0.02);
        let mut sim: Sim<Msg<H>> = Sim::new(seed, net);
        deploy_kv(&mut sim, &cfg);
        let mut w0 = Workload::new(seed, 0, 0.3);
        let mut w1 = Workload::new(seed, 1, 0.3);
        let mut all = Vec::new();
        for i in 0..12u64 {
            for (pi, w) in [(0usize, &mut w0), (1usize, &mut w1)] {
                let cmd = w.next_kv(0.8);
                all.push(cmd.clone());
                sim.inject_at(
                    SimTime(100 + 45 * i),
                    cfg.roles.proposers()[pi],
                    CLIENT,
                    Msg::Propose {
                        cmd,
                        acc_quorum: None,
                    },
                );
            }
        }
        // Faults.
        sim.crash_at(SimTime(260), cfg.roles.coordinators()[2]);
        let a0 = cfg.roles.acceptors()[0];
        sim.crash_at(SimTime(340), a0);
        sim.recover_at(SimTime(700), a0);
        sim.partition_at(
            SimTime(420),
            vec![cfg.roles.acceptors()[1]],
            vec![cfg.roles.acceptors()[3], cfg.roles.acceptors()[4]],
        );
        sim.heal_at(SimTime(900));

        sim.run_until(SimTime(30_000));

        let replicas: Vec<&Replica<KvStore>> = cfg
            .roles
            .learners()
            .iter()
            .map(|&l| sim.actor::<Replica<KvStore>>(l).expect("replica"))
            .collect();
        // Liveness: everything applied everywhere.
        for (i, r) in replicas.iter().enumerate() {
            assert_eq!(
                r.applied().len(),
                all.len(),
                "seed {seed}: replica {i} incomplete: {:?}",
                r.applied().len()
            );
        }
        // Agreement: identical stores.
        for r in &replicas[1..] {
            assert_eq!(
                replicas[0].machine().snapshot(),
                r.machine().snapshot(),
                "seed {seed}"
            );
        }
        // Generic broadcast properties on the learned histories.
        let hs: Vec<H> = replicas
            .iter()
            .map(|r| r.learner().learned().clone())
            .collect();
        checks::check_consistency(&hs);
        checks::check_liveness(&hs, &all);
        for h in &hs {
            checks::check_nontriviality(h.as_slice(), &all);
        }
        checks::check_conflicting_order_agreement(replicas[0].applied(), replicas[1].applied());
    }
}

/// The facade re-exports compose: a consensus round driven entirely
/// through `mcpaxos_suite::*` paths.
#[test]
fn facade_quickstart_compiles_and_runs() {
    let cfg = Arc::new(DeployConfig::simple(1, 3, 5, 1, Policy::MultiCoordinated));
    let mut sim: Sim<Msg<CmdSet<u32>>> = Sim::new(1, NetConfig::lockstep());
    for p in cfg.roles.all() {
        let c = cfg.clone();
        sim.add_process(p, move || agent!(CmdSet<u32>, c, p));
    }
    sim.inject_at(
        SimTime(100),
        cfg.roles.proposers()[0],
        CLIENT,
        Msg::Propose {
            cmd: 7u32,
            acc_quorum: None,
        },
    );
    sim.run_until(SimTime(400));
    let learner: &Learner<CmdSet<u32>> = sim.actor(cfg.roles.learners()[0]).unwrap();
    assert!(learner.learned().contains(&7));
}

/// Simulator and threaded runtime agree: the same deployment and the same
/// commands produce the same learned set (order-free c-struct).
#[test]
fn sim_and_live_runtime_agree() {
    use mcpaxos_suite::runtime::{PeerTable, TcpConfig, TcpNode};
    use std::time::{Duration, Instant};

    let cfg = Arc::new(DeployConfig::simple(1, 3, 5, 1, Policy::MultiCoordinated));
    let cmds = [3u32, 1, 4, 1, 5]; // dup on purpose

    // Simulator run.
    let mut sim: Sim<Msg<CmdSet<u32>>> = Sim::new(5, NetConfig::lan());
    for p in cfg.roles.all() {
        let c = cfg.clone();
        sim.add_process(p, move || agent!(CmdSet<u32>, c, p));
    }
    for (i, &cmd) in cmds.iter().enumerate() {
        sim.inject_at(
            SimTime(100 + 10 * i as u64),
            cfg.roles.proposers()[0],
            CLIENT,
            Msg::Propose {
                cmd,
                acc_quorum: None,
            },
        );
    }
    sim.run_until(SimTime(2_000));
    let sim_learned = sim
        .actor::<Learner<CmdSet<u32>>>(cfg.roles.learners()[0])
        .unwrap()
        .learned()
        .clone();

    // Live run.
    let mut cluster: TcpNode<Msg<CmdSet<u32>>> =
        TcpNode::bind(PeerTable::shared(), TcpConfig::default()).unwrap();
    for p in cfg.roles.all() {
        cluster.spawn(p, agent!(CmdSet<u32>, cfg, p));
    }
    for &cmd in &cmds {
        cluster.send(
            cfg.roles.proposers()[0],
            CLIENT,
            Msg::Propose {
                cmd,
                acc_quorum: None,
            },
        );
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        let m = cluster.metrics();
        if m.of(cfg.roles.learners()[0], "learned") >= 4 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let actors = cluster.stop();
    let live_learned = actors[&cfg.roles.learners()[0]]
        .as_any()
        .downcast_ref::<Learner<CmdSet<u32>>>()
        .unwrap()
        .learned()
        .clone();

    assert_eq!(sim_learned, live_learned, "both runtimes learn {{1,3,4,5}}");
    assert_eq!(sim_learned.count(), 4);
}
