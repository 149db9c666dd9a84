//! Property-based safety sweep at workspace level: randomized scenarios
//! drawn by proptest, checking the Generalized Consensus safety
//! properties over the full stack. Complements the per-crate suites by
//! letting proptest explore the scenario space (and shrink failures).

use mcpaxos_suite::actor::{ProcessId, SimTime};
use mcpaxos_suite::core::{agent, CollisionPolicy, DeployConfig, Learner, Msg, Policy};
use mcpaxos_suite::cstruct::{CStruct, CmdSeq};
use mcpaxos_suite::simnet::{DelayDist, NetConfig, Sim};
use proptest::prelude::*;
use std::sync::Arc;

const CLIENT: ProcessId = ProcessId(9_999);

type Seq = CmdSeq<u32>;

#[derive(Clone, Debug)]
struct Scenario {
    seed: u64,
    policy: Policy,
    jitter: u64,
    loss_pct: u8,
    cmds: Vec<(u64, u32)>, // (inject time, command)
    crash_coord: Option<(u64, usize)>,
    crash_acceptor: Option<(u64, usize, u64)>, // (down, idx, up-delta)
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (
        any::<u64>(),
        prop_oneof![
            Just(Policy::SingleCoordinated),
            Just(Policy::MultiCoordinated),
            Just(Policy::FastThenClassic),
        ],
        1u64..6,
        0u8..6,
        prop::collection::vec((100u64..1_200, 0u32..8), 1..6),
        prop::option::of((200u64..900, 0usize..3)),
        prop::option::of((200u64..900, 0usize..5, 200u64..800)),
    )
        .prop_map(
            |(seed, policy, jitter, loss_pct, cmds, crash_coord, crash_acceptor)| Scenario {
                seed,
                policy,
                jitter,
                loss_pct,
                cmds,
                crash_coord,
                crash_acceptor,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        .. ProptestConfig::default()
    })]

    /// Nontriviality + consistency always; total-order agreement between
    /// learners for sequence c-structs; liveness when the run quiesces.
    #[test]
    fn randomized_scenarios_preserve_safety(s in scenario()) {
        let cfg = Arc::new(
            DeployConfig::simple(2, 3, 5, 2, s.policy)
                .with_collision(CollisionPolicy::Coordinated),
        );
        let net = NetConfig::lockstep()
            .with_delay(DelayDist::Uniform(1, s.jitter.max(1)))
            .with_loss(f64::from(s.loss_pct) / 100.0);
        let mut sim: Sim<Msg<Seq>> = Sim::new(s.seed, net);
        for p in cfg.roles.all() {
            let c = cfg.clone();
            sim.add_process(p, move || agent!(Seq, c, p));
        }
        let mut proposed = Vec::new();
        for (i, &(t, cmd)) in s.cmds.iter().enumerate() {
            proposed.push(cmd);
            sim.inject_at(
                SimTime(t),
                cfg.roles.proposers()[i % 2],
                CLIENT,
                Msg::Propose { cmd, acc_quorum: None },
            );
        }
        if let Some((t, idx)) = s.crash_coord {
            sim.crash_at(SimTime(t), cfg.roles.coordinators()[idx]);
        }
        if let Some((t, idx, up)) = s.crash_acceptor {
            let a = cfg.roles.acceptors()[idx];
            sim.crash_at(SimTime(t), a);
            sim.recover_at(SimTime(t + up), a);
        }
        sim.run_until(SimTime(15_000));

        let learned: Vec<Seq> = cfg
            .roles
            .learners()
            .iter()
            .map(|&l| sim.actor::<Learner<Seq>>(l).unwrap().learned().clone())
            .collect();
        // Nontriviality.
        for v in &learned {
            for c in v.commands() {
                prop_assert!(proposed.contains(&c), "learned unproposed {c}");
            }
        }
        // Consistency: prefix-compatible sequences.
        prop_assert!(
            learned[0].le(&learned[1]) || learned[1].le(&learned[0]),
            "learners diverged: {:?} vs {:?}",
            learned[0],
            learned[1]
        );
        // Liveness: a healed run with a living coordinator learns all.
        let coord_crashed_forever = s.crash_coord.is_some();
        if !coord_crashed_forever || s.policy == Policy::MultiCoordinated {
            let distinct: std::collections::BTreeSet<u32> = proposed.iter().copied().collect();
            prop_assert_eq!(
                learned[0].count(),
                distinct.len(),
                "liveness: learned {:?} of {:?}",
                learned[0],
                distinct
            );
        }
    }
}
