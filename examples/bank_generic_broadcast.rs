//! The generic-broadcast bank: deposits commute, withdrawals and audits
//! interfere — replicas agree on every balance without totally ordering
//! the commuting traffic.
//!
//! Run with `cargo run --example bank_generic_broadcast`.

use mcpaxos_suite::actor::{ProcessId, SimTime};
use mcpaxos_suite::core::{agent, DeployConfig, Msg, Policy};
use mcpaxos_suite::cstruct::CommandHistory;
use mcpaxos_suite::simnet::{DelayDist, NetConfig, Sim};
use mcpaxos_suite::smr::{Bank, BankCmd, BankOp, CmdId, Replica};
use std::sync::Arc;

type H = CommandHistory<BankCmd>;

fn main() {
    let cfg = Arc::new(DeployConfig::simple(2, 3, 5, 2, Policy::MultiCoordinated));
    // A jittery network that reorders messages: commuting deposits still
    // flow collision-free.
    let net = NetConfig::lockstep().with_delay(DelayDist::Uniform(1, 4));
    let mut sim: Sim<Msg<H>> = Sim::new(99, net);
    for p in cfg.roles.all() {
        let c = cfg.clone();
        sim.add_process(p, move || {
            if c.roles.is_learner(p) {
                Box::new(Replica::<Bank>::new(c.clone()))
            } else {
                agent!(H, c, p)
            }
        });
    }

    let client = ProcessId(999);
    let mut seq = 0u32;
    let mut send = |sim: &mut Sim<Msg<H>>, t: u64, pi: usize, op: BankOp| {
        let cmd = BankCmd {
            id: CmdId {
                client: pi as u32,
                seq,
            },
            op,
        };
        seq += 1;
        sim.inject_at(
            SimTime(t),
            cfg.roles.proposers()[pi],
            client,
            Msg::Propose {
                cmd,
                acc_quorum: None,
            },
        );
    };

    // Concurrent deposits from both clients (commute freely)...
    for i in 0..6u64 {
        send(
            &mut sim,
            100 + 10 * i,
            0,
            BankOp::Deposit {
                account: 1,
                amount: 100,
            },
        );
        send(
            &mut sim,
            100 + 10 * i,
            1,
            BankOp::Deposit {
                account: 2,
                amount: 50,
            },
        );
    }
    // ...then interfering traffic: a transfer, a guarded withdrawal, an audit.
    send(
        &mut sim,
        200,
        0,
        BankOp::Transfer {
            from: 1,
            to: 2,
            amount: 250,
        },
    );
    send(
        &mut sim,
        200,
        1,
        BankOp::Withdraw {
            account: 2,
            amount: 500,
        },
    );
    send(&mut sim, 210, 0, BankOp::Audit);

    sim.run_until(SimTime(20_000));

    for (i, &l) in cfg.roles.learners().iter().enumerate() {
        let r: &Replica<Bank> = sim.actor(l).expect("replica");
        println!(
            "replica {i}: acct1={} acct2={} total={} rejected={} audits={}",
            r.machine().balance(1),
            r.machine().balance(2),
            r.machine().total(),
            r.machine().rejected(),
            r.machine().audits(),
        );
    }
    let r0: &Replica<Bank> = sim.actor(cfg.roles.learners()[0]).unwrap();
    let r1: &Replica<Bank> = sim.actor(cfg.roles.learners()[1]).unwrap();
    assert_eq!(r0.machine(), r1.machine(), "replicas agree exactly");
    let deposited = 6 * 100 + 6 * 50;
    let expected = if r0.machine().rejected() == 1 {
        deposited // the 500-withdrawal lost the race and was rejected
    } else {
        deposited - 500 // it found sufficient funds after the transfer
    };
    assert_eq!(r0.machine().total(), expected, "money conserved");
    println!(
        "ok: replicas agree; collisions among commuting deposits: {} (interfering ops: {})",
        sim.metrics().total("collision_mc"),
        3,
    );
}
