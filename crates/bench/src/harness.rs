//! Reusable cluster harness for experiments: deploy, drive, measure.

use mcpaxos_actor::{ProcessId, SimTime};
use mcpaxos_core::{agent, DeployConfig, Learner, Msg};
use mcpaxos_cstruct::CStruct;
use mcpaxos_simnet::{NetConfig, Sim};
use std::sync::Arc;

/// The pseudo-client id used for injected proposals.
pub const CLIENT: ProcessId = ProcessId(9_999);

/// A deployed cluster plus measurement bookkeeping.
pub struct ClusterHarness<C: CStruct> {
    /// The deployment configuration.
    pub cfg: Arc<DeployConfig>,
    /// The simulator hosting the cluster.
    pub sim: Sim<Msg<C>>,
    injected: Vec<SimTime>,
}

impl<C: CStruct> ClusterHarness<C> {
    /// Deploys every role of `cfg` into a fresh simulator over the default
    /// per-write-sync [`mcpaxos_actor::MemStore`] storage.
    pub fn new(cfg: DeployConfig, seed: u64, net: NetConfig) -> Self {
        Self::build(cfg, Sim::new(seed, net))
    }

    /// Like [`ClusterHarness::new`], but backs every process with storage
    /// from `factory` (e.g. a [`mcpaxos_actor::WalStore`] for the E11
    /// group-commit measurements).
    pub fn with_storage<F>(cfg: DeployConfig, seed: u64, net: NetConfig, factory: F) -> Self
    where
        F: FnMut(ProcessId) -> Box<dyn mcpaxos_actor::StableStore> + 'static,
    {
        let mut sim: Sim<Msg<C>> = Sim::new(seed, net);
        sim.set_storage_factory(factory);
        Self::build(cfg, sim)
    }

    fn build(cfg: DeployConfig, mut sim: Sim<Msg<C>>) -> Self {
        cfg.validate().expect("invalid deployment config");
        let cfg = Arc::new(cfg);
        for p in cfg.roles.all() {
            let cfg = cfg.clone();
            sim.add_process(p, move || agent!(C, cfg, p));
        }
        ClusterHarness {
            cfg,
            sim,
            injected: Vec::new(),
        }
    }

    /// Injects `cmd` at the `idx`-th proposer at time `t`, recording the
    /// injection for latency accounting.
    pub fn propose_at(&mut self, t: SimTime, idx: usize, cmd: C::Cmd) {
        let p = self.cfg.roles.proposers()[idx % self.cfg.roles.proposers().len()];
        self.injected.push(t);
        self.sim.inject_at(
            t,
            p,
            CLIENT,
            Msg::Propose {
                cmd,
                acc_quorum: None,
            },
        );
    }

    /// Runs the simulation to time `t`.
    pub fn run_until(&mut self, t: u64) {
        self.sim.run_until(SimTime(t));
    }

    /// Runs in `slice`-tick increments until learner `idx` holds at least
    /// `count` commands or `max_t` is reached; returns the stop time,
    /// which is a multiple of `slice` past the start — short makespans
    /// want a fine slice.
    pub fn run_until_learned(&mut self, idx: usize, count: usize, slice: u64, max_t: u64) -> u64 {
        let mut t = self.sim.now().ticks();
        while t < max_t && self.learner(idx).learned().total_len() < count as u64 {
            t = (t + slice).min(max_t);
            self.sim.run_until(SimTime(t));
        }
        t
    }

    fn learner(&self, idx: usize) -> &Learner<C> {
        let l = self.cfg.roles.learners()[idx];
        self.sim.actor::<Learner<C>>(l).expect("learner exists")
    }

    /// The learned c-struct of learner `idx`.
    pub fn learned(&self, idx: usize) -> C {
        self.learner(idx).learned().clone()
    }

    /// Per-command latencies in ticks at learner `idx`: the k-th latency
    /// is the time the learner first held ≥ k+1 commands minus the k-th
    /// injection time (injections sorted by time). `None` for commands
    /// never learned.
    pub fn latencies(&self, idx: usize) -> Vec<Option<u64>> {
        let history = self.learner(idx).history();
        let mut inj = self.injected.clone();
        inj.sort_unstable();
        inj.iter()
            .enumerate()
            .map(|(k, &t_inj)| {
                history
                    .iter()
                    .find(|(_, n)| *n > k)
                    .map(|(t, _)| t.since(t_inj).ticks())
            })
            .collect()
    }

    /// Mean of the learned latencies at learner `idx` (ignoring losses).
    pub fn mean_latency(&self, idx: usize) -> f64 {
        let ls: Vec<f64> = self
            .latencies(idx)
            .into_iter()
            .flatten()
            .map(|l| l as f64)
            .collect();
        mean(&ls)
    }

    /// Maximum learned latency at learner `idx` (the stall indicator).
    pub fn max_latency(&self, idx: usize) -> u64 {
        self.latencies(idx).into_iter().flatten().max().unwrap_or(0)
    }

    /// Total of a metric across processes.
    pub fn metric_total(&self, name: &str) -> i64 {
        self.sim.metrics().total(name)
    }

    /// Metric value per process, for the given role subset.
    pub fn metric_per(&self, name: &str, procs: &[ProcessId]) -> Vec<i64> {
        procs
            .iter()
            .map(|&p| self.sim.metrics().of(p, name))
            .collect()
    }

    /// Stable-storage writes summed over `procs`.
    pub fn writes(&self, procs: &[ProcessId]) -> u64 {
        procs
            .iter()
            .map(|&p| self.sim.storage(p).map_or(0, |s| s.write_count()))
            .sum()
    }
}

/// Arithmetic mean, `NaN` for an empty input (which [`f2`] renders `-`):
/// there is no honest mean of nothing.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        f64::NAN
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Formats a float with two decimals.
pub fn f2(x: f64) -> String {
    if x.is_nan() {
        "-".to_string()
    } else {
        format!("{x:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcpaxos_core::Policy;
    use mcpaxos_cstruct::CmdSet;

    #[test]
    fn harness_measures_latency() {
        let cfg = DeployConfig::simple(1, 3, 5, 1, Policy::MultiCoordinated);
        let mut h: ClusterHarness<CmdSet<u32>> = ClusterHarness::new(cfg, 1, NetConfig::lockstep());
        h.propose_at(SimTime(100), 0, 7);
        h.run_until(500);
        assert_eq!(h.latencies(0), vec![Some(3)]);
        assert_eq!(h.mean_latency(0), 3.0);
        assert_eq!(h.max_latency(0), 3);
        assert_eq!(h.learned(0).count(), 1);
        assert!(h.metric_total("accepts") > 0);
        assert!(h.writes(h.cfg.roles.acceptors()) > 0);
    }

    #[test]
    fn the_mean_of_nothing_renders_as_a_dash() {
        assert!(mean(&[]).is_nan());
        assert_eq!(f2(mean(&[])), "-");
        assert_eq!(f2(mean(&[3.0, 4.0])), "3.50");
    }
}
