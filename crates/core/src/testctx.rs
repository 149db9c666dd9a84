//! Fixtures the unit tests of this crate share: a recording [`Context`]
//! and a small delta-capable c-struct.

use crate::{DeployConfig, Policy};
use mcpaxos_actor::wire::{Wire, WireError};
use mcpaxos_actor::{
    Context, MemStore, Metric, ProcessId, SimDuration, SimTime, StableStore, TimerToken,
};
use mcpaxos_cstruct::{CmdSet, CommandHistory, Conflict, ConflictKeys};
use std::sync::Arc;

/// The 1/3/5/1 multicoordinated deployment: p0 | c1 c2 c3 | a4..a8 | l9.
pub(crate) fn cfg() -> Arc<DeployConfig> {
    Arc::new(DeployConfig::simple(1, 3, 5, 1, Policy::MultiCoordinated))
}

/// The command set holding `v`.
pub(crate) fn mk(v: &[u32]) -> CmdSet<u32> {
    v.iter().copied().collect()
}

/// A command conflicting with those of the same key (`.0`).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) struct K(pub(crate) u16, pub(crate) u16);

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
    fn decode(i: &mut &[u8]) -> Result<Self, WireError> {
        Ok(K(u16::decode(i)?, u16::decode(i)?))
    }
}

/// The delta-capable c-struct of the shipping and compaction tests.
pub(crate) type H = CommandHistory<K>;

/// The history `K(0,0), K(1,1), …` of `n` commands over four keys.
pub(crate) fn h(n: u16) -> H {
    (0..n).map(|i| K(i % 4, i)).collect()
}

/// A [`Context`] that records every effect of an upcall for inspection.
pub(crate) struct TestCtx<M> {
    pub(crate) me: ProcessId,
    pub(crate) now: SimTime,
    pub(crate) sent: Vec<(ProcessId, M)>,
    /// Tokens of the timers armed, in order.
    pub(crate) timers: Vec<TimerToken>,
    /// Names of the metrics emitted, in order.
    pub(crate) metrics: Vec<&'static str>,
    pub(crate) store: MemStore,
    rnd: u64,
}

impl<M> TestCtx<M> {
    /// A context for process `me` at time zero.
    pub(crate) fn new(me: u32) -> Self {
        TestCtx {
            me: ProcessId(me),
            now: SimTime::ZERO,
            sent: vec![],
            timers: vec![],
            metrics: vec![],
            store: MemStore::new(),
            rnd: 0,
        }
    }

    /// How many times metric `name` was emitted.
    pub(crate) fn metric_count(&self, name: &str) -> usize {
        self.metrics.iter().filter(|&&n| n == name).count()
    }
}

impl<M> Context<M> for TestCtx<M> {
    fn me(&self) -> ProcessId {
        self.me
    }
    fn now(&self) -> SimTime {
        self.now
    }
    fn send(&mut self, to: ProcessId, msg: M) {
        self.sent.push((to, msg));
    }
    fn set_timer(&mut self, _after: SimDuration, token: TimerToken) {
        self.timers.push(token);
    }
    fn cancel_timer(&mut self, _token: TimerToken) {}
    fn storage(&mut self) -> &mut dyn StableStore {
        &mut self.store
    }
    fn metric(&mut self, m: Metric) {
        self.metrics.push(m.name);
    }
    fn random(&mut self) -> u64 {
        self.rnd = self.rnd.wrapping_add(0x9E37_79B9_7F4A_7C15);
        self.rnd
    }
}
