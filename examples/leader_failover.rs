//! Availability comparison (§4.1): the same leader crash hits a classic
//! single-coordinated deployment and a multicoordinated one. The classic
//! cluster visibly stalls until leader election and a new round's phase 1
//! complete; the multicoordinated cluster never misses a beat.
//!
//! Run with `cargo run --example leader_failover`.

use mcpaxos_suite::actor::{ProcessId, SimTime};
use mcpaxos_suite::core::{agent, DeployConfig, Learner, Msg, Policy};
use mcpaxos_suite::cstruct::CmdSet;
use mcpaxos_suite::simnet::{NetConfig, Sim};
use std::sync::Arc;

type Set = CmdSet<u32>;

fn run(policy: Policy) -> (Vec<Option<u64>>, i64) {
    let cfg = Arc::new(DeployConfig::simple(1, 3, 5, 1, policy));
    let mut sim: Sim<Msg<Set>> = Sim::new(11, NetConfig::lockstep());
    for p in cfg.roles.all() {
        let c = cfg.clone();
        sim.add_process(p, move || agent!(Set, c, p));
    }
    // Steady stream of commands; the leader dies at t=500.
    let client = ProcessId(999);
    let mut inject_times = Vec::new();
    for i in 0..30u32 {
        let t = 100 + 30 * u64::from(i);
        inject_times.push(t);
        sim.inject_at(
            SimTime(t),
            cfg.roles.proposers()[0],
            client,
            Msg::Propose {
                cmd: i,
                acc_quorum: None,
            },
        );
    }
    sim.crash_at(SimTime(500), cfg.roles.coordinators()[0]);
    sim.run_until(SimTime(6_000));
    let learner: &Learner<Set> = sim.actor(cfg.roles.learners()[0]).expect("learner");
    let history = learner.history().to_vec();
    let latencies: Vec<Option<u64>> = inject_times
        .iter()
        .enumerate()
        .map(|(k, &t)| {
            history
                .iter()
                .find(|(_, n)| *n > k)
                .map(|(lt, _)| lt.ticks().saturating_sub(t))
        })
        .collect();
    (latencies, sim.metrics().total("rounds_started"))
}

fn main() {
    for (name, policy) in [
        ("classic single-coordinated", Policy::SingleCoordinated),
        ("multicoordinated", Policy::MultiCoordinated),
    ] {
        let (lats, rounds) = run(policy);
        println!("\n{name}: leader crashes at t=500 (commands every 30 ticks)");
        print!("per-command latency: ");
        for l in &lats {
            match l {
                Some(x) => print!("{x} "),
                None => print!("- "),
            }
        }
        println!();
        let max = lats.iter().flatten().max().copied().unwrap_or(0);
        println!("worst-case latency: {max} ticks; rounds started: {rounds}");
    }
    println!(
        "\nThe classic run shows a latency spike (leader timeout + election + phase 1)\n\
         and an extra round; the multicoordinated run stays flat at 3 steps: the\n\
         surviving 2-of-3 coordinator quorum keeps forwarding (§4.1)."
    );
}
