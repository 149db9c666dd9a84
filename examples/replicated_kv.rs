//! A replicated key-value store over generic broadcast, surviving a
//! coordinator crash mid-stream with zero interruption.
//!
//! Same-key writes interfere and are delivered in one agreed order at
//! every replica; different-key writes commute and flow concurrently
//! through the multicoordinated round.
//!
//! Run with `cargo run --example replicated_kv`.

use mcpaxos_suite::actor::{ProcessId, SimTime};
use mcpaxos_suite::core::{agent, DeployConfig, Msg, Policy};
use mcpaxos_suite::cstruct::CommandHistory;
use mcpaxos_suite::simnet::{NetConfig, Sim};
use mcpaxos_suite::smr::{KvCmd, KvStore, Replica, Workload};
use std::sync::Arc;

type H = CommandHistory<KvCmd>;

fn main() {
    let cfg = Arc::new(DeployConfig::simple(2, 3, 5, 3, Policy::MultiCoordinated));
    let mut sim: Sim<Msg<H>> = Sim::new(7, NetConfig::lan());
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

    // Two clients write a mixed workload (20% hot-key conflicts).
    let client = ProcessId(999);
    let mut w0 = Workload::new(1, 0, 0.2);
    let mut w1 = Workload::new(1, 1, 0.2);
    let mut n = 0u32;
    for i in 0..15u64 {
        for (pi, w) in [(0usize, &mut w0), (1usize, &mut w1)] {
            let cmd = w.next_kv(0.9);
            sim.inject_at(
                SimTime(100 + 30 * i),
                cfg.roles.proposers()[pi],
                client,
                Msg::Propose {
                    cmd,
                    acc_quorum: None,
                },
            );
            n += 1;
        }
    }

    // Crash coordinator c2 in the middle of the stream: with 2-of-3
    // coordinator quorums nothing stalls.
    let victim = cfg.roles.coordinators()[1];
    sim.crash_at(SimTime(300), victim);
    println!("crashing coordinator {victim} at t=300 (no round change expected)");

    sim.run_until(SimTime(20_000));

    for (i, &l) in cfg.roles.learners().iter().enumerate() {
        let r: &Replica<KvStore> = sim.actor(l).expect("replica");
        println!(
            "replica {i}: applied {} commands, {} keys, store hash {:?}",
            r.applied().len(),
            r.machine().snapshot().len(),
            r.machine().snapshot().iter().take(4).collect::<Vec<_>>(),
        );
    }
    let r0: &Replica<KvStore> = sim.actor(cfg.roles.learners()[0]).unwrap();
    let r1: &Replica<KvStore> = sim.actor(cfg.roles.learners()[1]).unwrap();
    assert_eq!(r0.machine().snapshot(), r1.machine().snapshot());
    assert_eq!(r0.applied().len() as u32, n);
    println!(
        "ok: {} commands applied at every replica, identical stores, {} round(s) used",
        n,
        sim.metrics().total("rounds_started"),
    );
}
