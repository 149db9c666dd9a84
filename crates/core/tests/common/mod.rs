//! Shared cluster harness for the core integration tests: deploys a full
//! agent set into a simulator and offers propose/inspect helpers.
//!
//! Each test binary compiles this module independently and uses a
//! different subset of the helpers, so dead-code analysis is silenced.
#![allow(dead_code)]

use mcpaxos_actor::host::Recorder;
use mcpaxos_actor::wire::{Wire, WireError};
use mcpaxos_actor::ProcessId;
use mcpaxos_core::{agent, DeployConfig, Learner, Msg, Payload, Round};
use mcpaxos_cstruct::{CStruct, Conflict, ConflictKeys};
use mcpaxos_simnet::Sim;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The pseudo-client process id used as the `from` of injected proposals.
pub const CLIENT: ProcessId = ProcessId(9_999);

/// Keyed command for history-valued tests: conflicts with the commands of
/// its key (`.0`).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct K(pub u16, pub u16);

impl Conflict for K {
    fn conflicts(&self, other: &Self) -> bool {
        self.0 == other.0
    }
    fn conflict_keys(&self) -> ConflictKeys {
        ConflictKeys::one(u64::from(self.0))
    }
}

impl Wire for K {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(K(u16::decode(input)?, u16::decode(input)?))
    }
}

/// The senders' side of delta shipping, for tests that hand-deliver
/// reports: the last report each sender shipped in each round.
pub struct Deltas<C>(BTreeMap<(Round, ProcessId), C>);

impl<C: CStruct> Deltas<C> {
    pub fn new() -> Self {
        Deltas(BTreeMap::new())
    }

    /// The payload of `from`'s report `val` for `round`: a delta when it
    /// literally extends the sender's last report in the round, else the
    /// whole value.
    pub fn ship(&mut self, round: Round, from: ProcessId, val: &C) -> Payload<C> {
        let last = self.0.insert((round, from), val.clone());
        let base = last
            .filter(|l| l.is_literal_prefix_of(val))
            .map(|l| l.total_len());
        match base.and_then(|b| Some((b, val.suffix_from(b)?))) {
            Some((base_len, suffix)) => Payload::Delta {
                base_len,
                digest: val.digest(),
                suffix,
            },
            None => Payload::full(val.clone()),
        }
    }
}

/// Whether `ctx` sent a [`Msg::NeedFull`].
pub fn needs_full<C: CStruct>(ctx: &Recorder<Msg<C>>) -> bool {
    ctx.sent
        .iter()
        .any(|(_, m)| matches!(m, Msg::NeedFull { .. }))
}

/// All size-`k` subsets of `0..n`, eagerly (tiny n in these tests).
pub fn combinations(n: usize, k: usize) -> Vec<Vec<usize>> {
    fn rec(start: usize, n: usize, k: usize, cur: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if cur.len() == k {
            out.push(cur.clone());
            return;
        }
        for i in start..n {
            cur.push(i);
            rec(i + 1, n, k, cur, out);
            cur.pop();
        }
    }
    let mut out = Vec::new();
    if k <= n {
        rec(0, n, k, &mut Vec::new(), &mut out);
    }
    out
}

/// Deploys every role of `cfg` into `sim`.
pub fn deploy<C: CStruct>(sim: &mut Sim<Msg<C>>, cfg: &Arc<DeployConfig>) {
    for p in cfg.roles.all() {
        let cfg = cfg.clone();
        sim.add_process(p, move || agent!(C, cfg, p));
    }
}

/// Injects `cmd` at the `idx`-th proposer at time `at`.
pub fn propose_at<C: CStruct>(
    sim: &mut Sim<Msg<C>>,
    cfg: &Arc<DeployConfig>,
    at: mcpaxos_actor::SimTime,
    idx: usize,
    cmd: C::Cmd,
) {
    let p = cfg.roles.proposers()[idx % cfg.roles.proposers().len()];
    sim.inject_at(
        at,
        p,
        CLIENT,
        Msg::Propose {
            cmd,
            acc_quorum: None,
        },
    );
}

/// The learned c-struct of the `idx`-th learner.
pub fn learned<C: CStruct>(sim: &Sim<Msg<C>>, cfg: &Arc<DeployConfig>, idx: usize) -> C {
    let l = cfg.roles.learners()[idx];
    sim.actor::<Learner<C>>(l)
        .expect("learner exists")
        .learned()
        .clone()
}

/// The `(time, count)` growth history of the `idx`-th learner.
pub fn learn_history<C: CStruct>(
    sim: &Sim<Msg<C>>,
    cfg: &Arc<DeployConfig>,
    idx: usize,
) -> Vec<(mcpaxos_actor::SimTime, usize)> {
    let l = cfg.roles.learners()[idx];
    sim.actor::<Learner<C>>(l)
        .expect("learner exists")
        .history()
        .to_vec()
}

/// Asserts the three safety properties of generalized consensus over the
/// current learner states: nontriviality (every learned command was
/// proposed), stability is enforced by construction (learned only grows
/// through lubs), and consistency (all learned values pairwise
/// compatible).
pub fn assert_safety<C: CStruct>(sim: &Sim<Msg<C>>, cfg: &Arc<DeployConfig>, proposed: &[C::Cmd]) {
    let vals: Vec<C> = (0..cfg.roles.learners().len())
        .map(|i| learned(sim, cfg, i))
        .collect();
    for v in &vals {
        for c in v.commands() {
            assert!(
                proposed.contains(&c),
                "NONTRIVIALITY violated: learned {c:?} was never proposed"
            );
        }
    }
    for (i, a) in vals.iter().enumerate() {
        for b in &vals[i + 1..] {
            assert!(
                a.compatible(b),
                "CONSISTENCY violated: learners diverged: {a:?} vs {b:?}"
            );
        }
    }
}
