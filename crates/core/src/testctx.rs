//! Fixtures the unit tests of this crate share: the 1/3/5/1 deployment
//! and a small delta-capable c-struct. (The recording context is
//! [`mcpaxos_actor::host::Recorder`].)

use crate::{DeployConfig, Policy};
use mcpaxos_actor::wire::{Wire, WireError};
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
