//! The fully-commutative c-struct set: sets of commands.
//!
//! When every pair of commands commutes, execution order is irrelevant and
//! a c-struct is just the *set* of commands it contains. Extension is set
//! inclusion, glb is intersection, lub is union, and every pair of
//! c-structs is compatible — the generalized protocol then never collides.

use crate::traits::{CStruct, Command};
use mcpaxos_actor::wire::{Wire, WireError};
use std::collections::BTreeSet;

/// A set of pairwise-commuting commands.
///
/// Commands must be `Ord` so the set has a canonical iteration order (which
/// also gives the type deterministic `Wire` encoding).
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct CmdSet<C: Ord> {
    cmds: BTreeSet<C>,
}

impl<C: Ord> CmdSet<C> {
    /// Creates an empty set (`⊥`).
    pub fn new() -> Self {
        CmdSet {
            cmds: BTreeSet::new(),
        }
    }

    /// Iterates over the contained commands in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = &C> {
        self.cmds.iter()
    }
}

impl<C: Ord> FromIterator<C> for CmdSet<C> {
    fn from_iter<I: IntoIterator<Item = C>>(iter: I) -> Self {
        CmdSet {
            cmds: iter.into_iter().collect(),
        }
    }
}

impl<C: Command + Ord> CStruct for CmdSet<C> {
    type Cmd = C;

    fn bottom() -> Self {
        Self::new()
    }

    fn append(&mut self, cmd: C) {
        self.cmds.insert(cmd);
    }

    fn le(&self, other: &Self) -> bool {
        self.cmds.is_subset(&other.cmds)
    }

    fn glb(&self, other: &Self) -> Self {
        CmdSet {
            cmds: self.cmds.intersection(&other.cmds).cloned().collect(),
        }
    }

    fn lub(&self, other: &Self) -> Option<Self> {
        Some(CmdSet {
            cmds: self.cmds.union(&other.cmds).cloned().collect(),
        })
    }

    fn compatible(&self, _other: &Self) -> bool {
        true
    }

    fn contains(&self, cmd: &C) -> bool {
        self.cmds.contains(cmd)
    }

    fn absorbs(&self, cmd: &C) -> bool {
        self.contains(cmd)
    }

    fn commands(&self) -> Vec<C> {
        self.cmds.iter().cloned().collect()
    }

    fn count(&self) -> usize {
        self.cmds.len()
    }
}

impl<C: Wire + Ord> Wire for CmdSet<C> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.cmds.len() as u64).encode(out);
        for c in &self.cmds {
            c.encode(out);
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let v: Vec<C> = Wire::decode(input)?;
        Ok(CmdSet {
            cmds: v.into_iter().collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcpaxos_actor::wire::{from_bytes, to_bytes};

    fn mk(cmds: &[u32]) -> CmdSet<u32> {
        cmds.iter().copied().collect()
    }

    #[test]
    fn append_is_idempotent() {
        let mut s = CmdSet::<u32>::bottom();
        s.append(1);
        s.append(1);
        assert_eq!(s.count(), 1);
    }

    #[test]
    fn order_is_inclusion() {
        assert!(mk(&[]).le(&mk(&[1])));
        assert!(mk(&[1]).le(&mk(&[1, 2])));
        assert!(!mk(&[1, 3]).le(&mk(&[1, 2])));
    }

    #[test]
    fn lattice_is_set_lattice() {
        let a = mk(&[1, 2]);
        let b = mk(&[2, 3]);
        assert_eq!(a.glb(&b), mk(&[2]));
        assert_eq!(a.lub(&b), Some(mk(&[1, 2, 3])));
        assert!(a.compatible(&b));
    }

    #[test]
    fn everything_is_compatible() {
        for x in 0..5u32 {
            for y in 0..5u32 {
                assert!(mk(&[x]).compatible(&mk(&[y])));
            }
        }
    }

    #[test]
    fn wire_roundtrip() {
        let s = mk(&[5, 1, 9]);
        let back: CmdSet<u32> = from_bytes(&to_bytes(&s)).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn iter_ascending() {
        let s = mk(&[3, 1, 2]);
        let v: Vec<u32> = s.iter().copied().collect();
        assert_eq!(v, vec![1, 2, 3]);
    }
}
