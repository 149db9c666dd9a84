//! The same agents on real OS threads: a live Multicoordinated Paxos
//! cluster with every role hosted by one `TcpNode` — co-located
//! processes reach each other by a mailbox push, never a socket —
//! deciding commands in wall-clock time.
//!
//! Run with `cargo run --example live_cluster`.

use mcpaxos_suite::actor::ProcessId;
use mcpaxos_suite::core::{agent, DeployConfig, Learner, Msg, Policy};
use mcpaxos_suite::cstruct::{CStruct, CmdSet};
use mcpaxos_suite::runtime::{PeerTable, TcpConfig, TcpNode};
use std::sync::Arc;
use std::time::{Duration, Instant};

type Set = CmdSet<u32>;

fn main() {
    let cfg = Arc::new(DeployConfig::simple(1, 3, 5, 2, Policy::MultiCoordinated));
    let mut cluster: TcpNode<Msg<Set>> =
        TcpNode::bind(PeerTable::shared(), TcpConfig::default()).expect("bind loopback");
    for p in cfg.roles.all() {
        cluster.spawn(p, agent!(Set, cfg, p));
    }
    println!(
        "spawned {} threads (1 proposer, 3 coordinators, 5 acceptors, 2 learners)",
        cfg.roles.all().len()
    );

    let client = ProcessId(999);
    let t0 = Instant::now();
    for cmd in [1u32, 2, 3, 4, 5] {
        cluster.send(
            cfg.roles.proposers()[0],
            client,
            Msg::Propose {
                cmd,
                acc_quorum: None,
            },
        );
    }

    // Poll the learners' metric until all five commands are learned.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let m = cluster.metrics();
        let done = cfg
            .roles
            .learners()
            .iter()
            .all(|&l| m.of(l, "learned") >= 5);
        if done || Instant::now() > deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    println!("decided in {:?} of wall-clock time", t0.elapsed());

    let actors = cluster.stop();
    for (i, &l) in cfg.roles.learners().iter().enumerate() {
        let learner = actors[&l]
            .as_any()
            .downcast_ref::<Learner<Set>>()
            .expect("learner");
        println!("learner {i} learned {:?}", learner.learned().commands());
        assert_eq!(learner.learned().count(), 5);
    }
    println!("ok: live cluster learned every command");
}
