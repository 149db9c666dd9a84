//! Sharded cluster harness: N Multicoordinated Paxos instances in one
//! simulator, with routing, cross-shard sequencing and merge verification.
//!
//! This is the deployment the E12 experiment drives: each shard is a
//! full 1-proposer/1-coordinator/3-acceptor/1-learner instance (its
//! agents wrapped in [`Sharded`]) over a disjoint process-id range, all
//! sharing one [`Sim`] so cross-shard traffic and per-shard byte
//! accounting stay in a single deterministic event loop. Commands route
//! by conflict-key hash ([`ShardRouter`]); multi-key commands pass through
//! a [`CrossShardSequencer`] and are proposed to every involved shard;
//! the per-shard learned histories merge through [`ShardedReplica`].

use mcpaxos_actor::SimTime;
use mcpaxos_core::{
    agent, shard_configs, shard_tag, DeployConfig, Learner, Msg, Policy, ShardMsg, Sharded,
};
use mcpaxos_cstruct::{CStruct, CommandHistory};
use mcpaxos_simnet::{NetConfig, Sim};
use mcpaxos_smr::{Bank, BankCmd, CrossShardSequencer, ShardRouter, ShardedReplica, Workload};
use std::sync::Arc;

use crate::harness::CLIENT;

/// The c-struct every shard's instance runs over.
pub type ShardHistory = CommandHistory<BankCmd>;

/// The envelope type on the shared simulator.
pub type ShardNetMsg = ShardMsg<ShardHistory>;

/// N sharded consensus instances in one simulator, plus the routing and
/// sequencing glue a sharded deployment needs.
pub struct ShardedHarness {
    n_shards: u16,
    cfgs: Vec<Arc<DeployConfig>>,
    /// The simulator hosting every shard.
    pub sim: Sim<ShardNetMsg>,
    router: ShardRouter,
    sequencer: CrossShardSequencer<BankCmd>,
    /// Commands each shard is expected to learn (cross-shard commands
    /// count once per involved shard).
    expected: Vec<usize>,
    cross_submitted: usize,
}

impl ShardedHarness {
    /// Deploys `n_shards` instances (1 proposer, 1 coordinator, 3
    /// acceptors, 1 learner each) into `sim` — a fresh simulator, with a
    /// storage factory already set if the run wants one. `tune` adjusts
    /// each shard's [`DeployConfig`] (wire mode, group commit, …).
    pub fn new(
        n_shards: u16,
        policy: Policy,
        mut sim: Sim<ShardNetMsg>,
        tune: impl Fn(DeployConfig) -> DeployConfig,
    ) -> Self {
        let cfgs: Vec<Arc<DeployConfig>> = shard_configs(n_shards, 1, 1, 3, 1, policy)
            .into_iter()
            .map(|c| {
                let c = tune(c);
                c.validate().expect("invalid shard config");
                Arc::new(c)
            })
            .collect();
        for (s, cfg) in cfgs.iter().enumerate() {
            let s = s as u16;
            for p in cfg.roles.all() {
                let cfg = cfg.clone();
                sim.add_process(p, move || {
                    agent!(ShardHistory, cfg, p, |a| Sharded::new(s, a))
                });
            }
        }
        ShardedHarness {
            n_shards,
            cfgs,
            sim,
            router: ShardRouter::new(n_shards),
            sequencer: CrossShardSequencer::new(),
            expected: vec![0; usize::from(n_shards)],
            cross_submitted: 0,
        }
    }

    /// Meters every network message under its shard's tag ("shard0" …),
    /// making per-shard wire bytes visible in [`Sim::wire_totals`].
    pub fn enable_shard_byte_meter(&mut self) {
        self.sim.enable_byte_meter(Box::new(|m: &ShardNetMsg| {
            (m.tag(), mcpaxos_actor::wire::to_bytes(m).len() as u64)
        }));
    }

    /// The router commands are sharded by.
    pub fn router(&self) -> ShardRouter {
        self.router
    }

    fn propose_to(&mut self, shard: u16, t: u64, cmd: BankCmd) {
        let t = SimTime(t.max(self.sim.now().ticks()));
        let p = self.cfgs[usize::from(shard)].roles.proposers()[0];
        self.sim.inject_at(
            t,
            p,
            CLIENT,
            ShardMsg {
                shard,
                inner: Msg::Propose {
                    cmd,
                    acc_quorum: None,
                },
            },
        );
    }

    /// Submits `cmd` at time `t`: single-shard commands go straight to
    /// their shard's proposer; cross-shard commands pass through the
    /// sequencer and are proposed to every involved shard (now, or when
    /// [`ShardedHarness::pump_at`] releases them).
    pub fn submit_at(&mut self, t: u64, cmd: BankCmd) {
        let involved = self.router.route(&cmd);
        for &s in &involved {
            self.expected[usize::from(s)] += 1;
        }
        if involved.len() == 1 {
            self.propose_to(involved[0], t, cmd);
        } else {
            self.cross_submitted += 1;
            if self.sequencer.submit(cmd.clone()) {
                for &s in &involved {
                    self.propose_to(s, t, cmd.clone());
                }
            }
        }
    }

    /// Retires fully learned cross-shard commands and proposes any the
    /// sequencer releases. Call at slice boundaries while driving.
    pub fn pump_at(&mut self, t: u64) {
        let released = {
            let Self {
                sequencer,
                sim,
                router,
                cfgs,
                ..
            } = self;
            sequencer.on_progress(|c| {
                router.route(c).iter().all(|&s| {
                    let l = cfgs[usize::from(s)].roles.learners()[0];
                    sim.actor::<Sharded<Learner<ShardHistory>>>(l)
                        .is_some_and(|a| a.inner().learned().contains(c))
                })
            })
        };
        for cmd in released {
            let involved = self.router.route(&cmd);
            for &s in &involved {
                self.propose_to(s, t, cmd.clone());
            }
        }
    }

    /// Whether every submitted command has been learned by every shard it
    /// involves.
    pub fn done(&self) -> bool {
        self.sequencer.in_flight().is_empty()
            && self.sequencer.held_len() == 0
            && (0..self.n_shards).all(|s| self.learned_count(s) >= self.expected[usize::from(s)])
    }

    /// Runs in 25-tick slices (pumping the sequencer between slices) until
    /// [`ShardedHarness::done`] or `max_t`; returns the stop time.
    pub fn drive_until_done(&mut self, max_t: u64) -> u64 {
        let mut t = self.sim.now().ticks();
        while !self.done() && t < max_t {
            t = (t + 25).min(max_t);
            self.sim.run_until(SimTime(t));
            self.pump_at(t);
        }
        t
    }

    /// The learned history of shard `shard` (its designated learner).
    pub fn learned(&self, shard: u16) -> ShardHistory {
        let l = self.cfgs[usize::from(shard)].roles.learners()[0];
        self.sim
            .actor::<Sharded<Learner<ShardHistory>>>(l)
            .expect("shard learner exists")
            .inner()
            .learned()
            .clone()
    }

    /// Commands learned by shard `shard` — the *logical* total, which
    /// keeps counting commands a compacting deployment has truncated out
    /// of the live window.
    pub fn learned_count(&self, shard: u16) -> usize {
        let l = self.cfgs[usize::from(shard)].roles.learners()[0];
        self.sim
            .actor::<Sharded<Learner<ShardHistory>>>(l)
            .map_or(0, |a| a.inner().learned().total_len() as usize)
    }

    /// Merges every shard's learned history into one [`Bank`] via
    /// [`ShardedReplica`], for state verification.
    pub fn merged(&self) -> ShardedReplica<Bank> {
        let mut rep: ShardedReplica<Bank> = ShardedReplica::new(self.n_shards).keep_log();
        for s in 0..self.n_shards {
            rep.absorb_shard(s, &self.learned(s));
        }
        rep
    }

    /// Stable-storage write counts of shard `shard`'s acceptors.
    pub fn acceptor_writes(&self, shard: u16) -> Vec<u64> {
        self.cfgs[usize::from(shard)]
            .roles
            .acceptors()
            .iter()
            .map(|&a| self.sim.storage(a).map(|s| s.write_count()).unwrap_or(0))
            .collect()
    }
}

/// Accounts the sharded workload spreads over.
pub const SHARD_BENCH_ACCOUNTS: u16 = 4_096;

/// One E12 measurement: deterministic (tick- and byte-level) statistics
/// for a sharded run, independent of host speed — the numbers the
/// `EXPERIMENTS.md` table reports.
#[derive(Clone, Debug)]
pub struct ShardWireStats {
    /// Number of shards deployed.
    pub shards: u16,
    /// Commands the router classified as cross-shard.
    pub cross_shard: usize,
    /// Simulator tick at which every shard had learned everything.
    pub end_ticks: u64,
    /// Wire bytes carried by each shard's messages.
    pub per_shard_bytes: Vec<u64>,
    /// Wire bytes summed across shards.
    pub total_bytes: u64,
    /// Final merged bank balance total (determinism anchor).
    pub bank_total: u64,
}

/// Runs the sharded workload with the per-shard byte meter on and returns
/// deterministic completion/wire statistics (simulator ticks and bytes,
/// not wall-clock). With `tune` the identity this is the default wire
/// mode (full payloads, compaction off), so the per-message cost every
/// consensus instance pays is proportional to its own history length:
/// the work sharding divides. The E12 batched row dials
/// [`DeployConfig::with_batching`] in through `tune`.
///
/// # Panics
///
/// Panics if the run stalls or the merged replica misses commands.
pub fn shard_wire_run(
    shards: u16,
    transfer_fraction: f64,
    commands: usize,
    seed: u64,
    tune: impl Fn(DeployConfig) -> DeployConfig,
) -> ShardWireStats {
    let sim = Sim::new(seed, NetConfig::lockstep());
    let mut h = ShardedHarness::new(shards, Policy::MultiCoordinated, sim, tune);
    h.enable_shard_byte_meter();
    let mut w = Workload::new(seed, 0, 0.0)
        .with_cold_keys(SHARD_BENCH_ACCOUNTS)
        .with_transfer_fraction(transfer_fraction);
    let mut t = 100;
    for _ in 0..commands {
        h.submit_at(t, w.next_sharded_bank());
        t += 2;
    }
    let end_ticks = h.drive_until_done(t + 1_000_000);
    assert!(h.done(), "{shards}-shard wire run stalled at t={end_ticks}");
    let rep = h.merged();
    assert_eq!(rep.applied_count(), commands as u64);
    assert_eq!(rep.pending(), 0);
    let per_shard_bytes: Vec<u64> = (0..shards)
        .map(|s| h.sim.wire_totals().get(shard_tag(s)).map_or(0, |w| w.bytes))
        .collect();
    ShardWireStats {
        shards,
        cross_shard: h.cross_submitted,
        end_ticks,
        total_bytes: per_shard_bytes.iter().sum(),
        per_shard_bytes,
        bank_total: rep.machine().total(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcpaxos_core::BatchConfig;

    #[test]
    fn batched_shards_learn_the_same_state() {
        // `shard_wire_run` asserts the merged replica applied all 60
        // commands with none pending; batching must not change the state.
        let plain = shard_wire_run(2, 0.01, 60, 7, |c| c);
        let batched = shard_wire_run(2, 0.01, 60, 7, |c| {
            c.with_batching(BatchConfig {
                queue_cap: 0,
                ..BatchConfig::pipelined(8, 4)
            })
        });
        assert_eq!(plain.bank_total, batched.bank_total);
    }

    #[test]
    fn sharded_harness_learns_and_merges() {
        let sim = Sim::new(7, NetConfig::lockstep());
        let mut h = ShardedHarness::new(2, Policy::MultiCoordinated, sim, |c| c);
        let mut w = Workload::new(3, 0, 0.0)
            .with_cold_keys(64)
            .with_transfer_fraction(0.1);
        let mut t = 100;
        for _ in 0..40 {
            let cmd = w.next_sharded_bank();
            h.submit_at(t, cmd);
            t += 2;
        }
        let end = h.drive_until_done(60_000);
        assert!(
            h.done(),
            "stalled at t={end}: {:?}",
            h.sequencer.in_flight()
        );
        let rep = h.merged();
        assert_eq!(rep.applied_count(), 40);
        assert_eq!(rep.pending(), 0);
    }
}
