//! End-to-end generic broadcast over the simulator: commuting commands
//! flow concurrently through multicoordinated rounds without collisions;
//! conflicting commands are totally ordered; all four properties hold
//! under jitter, loss and conflict-rate sweeps.

use mcpaxos_actor::wire::{Wire, WireError};
use mcpaxos_actor::{ProcessId, SimTime};
use mcpaxos_core::{agent, DeployConfig, Learner, Msg, Policy};
use mcpaxos_cstruct::{CommandHistory, Conflict};
use mcpaxos_gbcast::{checks, Delivery};
use mcpaxos_simnet::{DelayDist, NetConfig, Sim};
use std::sync::Arc;

/// A keyed operation: conflicts iff same key.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct Op {
    key: u16,
    uid: u32,
}

impl Conflict for Op {
    fn conflicts(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl Wire for Op {
    fn encode(&self, out: &mut Vec<u8>) {
        self.key.encode(out);
        self.uid.encode(out);
    }
    fn decode(i: &mut &[u8]) -> Result<Self, WireError> {
        Ok(Op {
            key: u16::decode(i)?,
            uid: u32::decode(i)?,
        })
    }
}

type H = CommandHistory<Op>;

const CLIENT: ProcessId = ProcessId(9_999);

fn deploy(sim: &mut Sim<Msg<H>>, cfg: &Arc<DeployConfig>) {
    for p in cfg.roles.all() {
        let cfg = cfg.clone();
        sim.add_process(p, move || agent!(H, cfg, p));
    }
}

fn histories(sim: &Sim<Msg<H>>, cfg: &Arc<DeployConfig>) -> Vec<H> {
    cfg.roles
        .learners()
        .iter()
        .map(|&l| sim.actor::<Learner<H>>(l).unwrap().learned().clone())
        .collect()
}

fn run(
    seed: u64,
    n_keys: u16,
    n_cmds: u32,
    net: NetConfig,
) -> (Arc<DeployConfig>, Sim<Msg<H>>, Vec<Op>) {
    let cfg = Arc::new(DeployConfig::simple(2, 3, 5, 3, Policy::MultiCoordinated));
    let mut sim: Sim<Msg<H>> = Sim::new(seed, net);
    deploy(&mut sim, &cfg);
    let mut broadcast = Vec::new();
    for i in 0..n_cmds {
        let op = Op {
            key: (i as u16) % n_keys.max(1),
            uid: i,
        };
        broadcast.push(op.clone());
        let p = cfg.roles.proposers()[(i % 2) as usize];
        sim.inject_at(
            SimTime(100 + 7 * i as u64),
            p,
            CLIENT,
            Msg::Propose {
                cmd: op,
                acc_quorum: None,
            },
        );
    }
    sim.run_until(SimTime(15_000));
    (cfg, sim, broadcast)
}

#[test]
fn commuting_workload_no_collisions() {
    // Many keys → essentially no conflicts → no collisions, everything
    // delivered through the multicoordinated round.
    let (cfg, sim, broadcast) = run(1, 1_000, 12, NetConfig::lan());
    let hs = histories(&sim, &cfg);
    checks::check_consistency(&hs);
    checks::check_liveness(&hs, &broadcast);
    for h in &hs {
        checks::check_nontriviality(h.as_slice(), &broadcast);
    }
    assert_eq!(sim.metrics().total("collision_mc"), 0);
}

#[test]
fn conflicting_workload_totally_ordered_per_key() {
    for seed in 0..8u64 {
        // Two keys only: heavy conflicts; jitter forces reorderings.
        let (cfg, sim, broadcast) = run(
            seed,
            2,
            8,
            NetConfig::lockstep().with_delay(DelayDist::Uniform(1, 5)),
        );
        let hs = histories(&sim, &cfg);
        checks::check_consistency(&hs);
        checks::check_liveness(&hs, &broadcast);
        for (i, a) in hs.iter().enumerate() {
            for b in &hs[i + 1..] {
                checks::check_conflicting_order_agreement(a.as_slice(), b.as_slice());
            }
        }
    }
}

#[test]
fn deliveries_are_append_only_across_time() {
    let cfg = Arc::new(DeployConfig::simple(2, 3, 5, 1, Policy::MultiCoordinated));
    let mut sim: Sim<Msg<H>> = Sim::new(42, NetConfig::lan().with_loss(0.03));
    deploy(&mut sim, &cfg);
    let mut broadcast = Vec::new();
    for i in 0..10u32 {
        let op = Op {
            key: i as u16 % 3,
            uid: i,
        };
        broadcast.push(op.clone());
        let p = cfg.roles.proposers()[(i % 2) as usize];
        sim.inject_at(
            SimTime(100 + 60 * i as u64),
            p,
            CLIENT,
            Msg::Propose {
                cmd: op,
                acc_quorum: None,
            },
        );
    }
    // Absorb at checkpoints; Delivery panics on any stability violation.
    let mut delivery: Delivery<Op> = Delivery::new();
    for t in [300u64, 600, 900, 1_500, 3_000, 8_000, 15_000] {
        sim.run_until(SimTime(t));
        let h = histories(&sim, &cfg).remove(0);
        delivery.absorb(&h);
    }
    assert_eq!(delivery.len(), 10, "all commands delivered in the end");
    checks::check_nontriviality(delivery.delivered(), &broadcast);
}

#[test]
fn mixed_conflict_rates_stay_safe_under_loss() {
    for (seed, keys) in [(7u64, 1u16), (8, 3), (9, 100)] {
        let net = NetConfig::lockstep()
            .with_delay(DelayDist::Uniform(1, 6))
            .with_loss(0.04);
        let (cfg, sim, broadcast) = run(seed, keys, 9, net);
        let hs = histories(&sim, &cfg);
        checks::check_consistency(&hs);
        checks::check_liveness(&hs, &broadcast);
    }
}
