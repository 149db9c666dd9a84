//! A replicated key-value store.

use crate::machine::StateMachine;
use crate::CmdId;
use mcpaxos_actor::wire::{Wire, WireError};
use mcpaxos_cstruct::{Conflict, ConflictKeys};
use std::collections::BTreeMap;

/// Key-value operations.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum KvOp {
    /// Writes `value` under `key`.
    Put(u16, u64),
    /// Removes `key`.
    Del(u16),
    /// Reads `key` (no state change; delivered for read-your-writes
    /// ordering relative to same-key writes).
    Get(u16),
}

impl KvOp {
    /// The key the operation touches.
    pub fn key(&self) -> u16 {
        match *self {
            KvOp::Put(k, _) | KvOp::Del(k) | KvOp::Get(k) => k,
        }
    }

    /// Whether the operation mutates state.
    pub fn is_write(&self) -> bool {
        !matches!(self, KvOp::Get(_))
    }
}

/// A uniquely identified key-value command.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct KvCmd {
    /// Unique id (also the deduplication key).
    pub id: CmdId,
    /// The operation.
    pub op: KvOp,
}

impl Conflict for KvCmd {
    /// Two operations interfere iff they touch the same key and at least
    /// one writes: reads commute with reads, everything commutes across
    /// keys.
    fn conflicts(&self, other: &Self) -> bool {
        self.op.key() == other.op.key() && (self.op.is_write() || other.op.is_write())
    }

    /// Conflicts require equal keys, so the touched key is an exact
    /// locality hint.
    fn conflict_keys(&self) -> ConflictKeys {
        ConflictKeys::one(u64::from(self.op.key()))
    }
}

impl Wire for KvCmd {
    fn encode(&self, out: &mut Vec<u8>) {
        self.id.encode(out);
        match &self.op {
            KvOp::Put(k, v) => {
                0u8.encode(out);
                k.encode(out);
                v.encode(out);
            }
            KvOp::Del(k) => {
                1u8.encode(out);
                k.encode(out);
            }
            KvOp::Get(k) => {
                2u8.encode(out);
                k.encode(out);
            }
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let id = CmdId::decode(input)?;
        let op = match u8::decode(input)? {
            0 => KvOp::Put(u16::decode(input)?, u64::decode(input)?),
            1 => KvOp::Del(u16::decode(input)?),
            2 => KvOp::Get(u16::decode(input)?),
            _ => {
                return Err(WireError {
                    what: "bad KvOp tag",
                })
            }
        };
        Ok(KvCmd { id, op })
    }
}

/// The key-value state machine.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KvStore {
    data: BTreeMap<u16, u64>,
    applied: u64,
}

impl KvStore {
    /// Reads a key.
    pub fn get(&self, key: u16) -> Option<u64> {
        self.data.get(&key).copied()
    }

    /// Number of commands applied (including reads).
    pub fn applied(&self) -> u64 {
        self.applied
    }

    /// Snapshot of the full store.
    pub fn snapshot(&self) -> &BTreeMap<u16, u64> {
        &self.data
    }
}

impl Wire for KvStore {
    /// The pairs as a `Vec<(u16, u64)>` encodes them — a u64 count, then
    /// each key and value — written straight from the map.
    fn encode(&self, out: &mut Vec<u8>) {
        (self.data.len() as u64).encode(out);
        for (k, v) in &self.data {
            k.encode(out);
            v.encode(out);
        }
        self.applied.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let pairs: Vec<(u16, u64)> = Wire::decode(input)?;
        Ok(KvStore {
            data: pairs.into_iter().collect(),
            applied: u64::decode(input)?,
        })
    }
}

impl StateMachine for KvStore {
    type Cmd = KvCmd;

    fn apply(&mut self, cmd: &KvCmd) {
        self.applied += 1;
        match cmd.op {
            KvOp::Put(k, v) => {
                self.data.insert(k, v);
            }
            KvOp::Del(k) => {
                self.data.remove(&k);
            }
            KvOp::Get(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcpaxos_actor::wire::{from_bytes, to_bytes};

    fn cmd(seq: u32, op: KvOp) -> KvCmd {
        KvCmd {
            id: CmdId { client: 0, seq },
            op,
        }
    }

    #[test]
    fn conflict_relation() {
        let put1 = cmd(0, KvOp::Put(1, 10));
        let put1b = cmd(1, KvOp::Put(1, 20));
        let put2 = cmd(2, KvOp::Put(2, 30));
        let get1 = cmd(3, KvOp::Get(1));
        let get1b = cmd(4, KvOp::Get(1));
        let del1 = cmd(5, KvOp::Del(1));
        assert!(put1.conflicts(&put1b), "same-key writes interfere");
        assert!(!put1.conflicts(&put2), "different keys commute");
        assert!(put1.conflicts(&get1), "read vs write same key interferes");
        assert!(!get1.conflicts(&get1b), "reads commute");
        assert!(del1.conflicts(&put1), "delete is a write");
    }

    #[test]
    fn apply_semantics() {
        let mut s = KvStore::default();
        s.apply(&cmd(0, KvOp::Put(1, 10)));
        s.apply(&cmd(1, KvOp::Get(1)));
        assert_eq!(s.get(1), Some(10));
        s.apply(&cmd(2, KvOp::Del(1)));
        assert_eq!(s.get(1), None);
        assert_eq!(s.applied(), 3);
    }

    #[test]
    fn commuting_orders_reach_same_state() {
        let a = cmd(0, KvOp::Put(1, 10));
        let b = cmd(1, KvOp::Put(2, 20));
        let mut s1 = KvStore::default();
        s1.apply(&a);
        s1.apply(&b);
        let mut s2 = KvStore::default();
        s2.apply(&b);
        s2.apply(&a);
        assert_eq!(s1.snapshot(), s2.snapshot());
    }

    #[test]
    fn store_encodes_as_its_pairs_vec() {
        let mut s = KvStore::default();
        for i in 0..40u32 {
            s.apply(&cmd(i, KvOp::Put((i * 7 % 23) as u16, u64::from(i) << 20)));
        }
        s.apply(&cmd(40, KvOp::Del(7)));
        let pairs: Vec<(u16, u64)> = s.data.iter().map(|(&k, &v)| (k, v)).collect();
        let mut old = Vec::new();
        pairs.encode(&mut old);
        s.applied.encode(&mut old);
        assert_eq!(to_bytes(&s), old);
        assert_eq!(from_bytes::<KvStore>(&old).unwrap(), s);
    }

    #[test]
    fn wire_roundtrip() {
        for op in [KvOp::Put(7, 99), KvOp::Del(7), KvOp::Get(7)] {
            let c = cmd(5, op);
            let back: KvCmd = from_bytes(&to_bytes(&c)).unwrap();
            assert_eq!(back, c);
        }
    }
}
