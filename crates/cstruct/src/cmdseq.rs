//! The totally-ordered c-struct set: sequences of distinct commands.
//!
//! When no two commands commute, a c-struct is a sequence and extension is
//! the prefix relation: this instantiation turns generalized consensus into
//! total-order (atomic) broadcast. Appending a command already present is a
//! no-op, matching the paper's `•` on sequences (§3.3.1).

use crate::traits::{CStruct, Command};
use mcpaxos_actor::wire::{Wire, WireError};

/// A sequence of distinct commands under the prefix order.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct CmdSeq<C> {
    cmds: Vec<C>,
}

impl<C: Eq> CmdSeq<C> {
    /// Creates an empty sequence (`⊥`).
    pub fn new() -> Self {
        CmdSeq { cmds: Vec::new() }
    }

    /// The commands in decision order.
    pub fn as_slice(&self) -> &[C] {
        &self.cmds
    }

    /// Iterates over the commands in decision order.
    pub fn iter(&self) -> impl Iterator<Item = &C> {
        self.cmds.iter()
    }

    /// Length of the longest common prefix of two sequences.
    fn common_prefix_len(&self, other: &Self) -> usize {
        self.cmds
            .iter()
            .zip(&other.cmds)
            .take_while(|(a, b)| a == b)
            .count()
    }
}

impl<C: Eq> FromIterator<C> for CmdSeq<C> {
    fn from_iter<I: IntoIterator<Item = C>>(iter: I) -> Self {
        let mut s = CmdSeq { cmds: Vec::new() };
        for c in iter {
            if !s.cmds.contains(&c) {
                s.cmds.push(c);
            }
        }
        s
    }
}

impl<C: Command> CStruct for CmdSeq<C> {
    type Cmd = C;

    fn bottom() -> Self {
        Self::new()
    }

    fn append(&mut self, cmd: C) {
        if !self.cmds.contains(&cmd) {
            self.cmds.push(cmd);
        }
    }

    fn le(&self, other: &Self) -> bool {
        self.cmds.len() <= other.cmds.len() && self.common_prefix_len(other) == self.cmds.len()
    }

    fn glb(&self, other: &Self) -> Self {
        let n = self.common_prefix_len(other);
        CmdSeq {
            cmds: self.cmds[..n].to_vec(),
        }
    }

    fn lub(&self, other: &Self) -> Option<Self> {
        if self.le(other) {
            Some(other.clone())
        } else if other.le(self) {
            Some(self.clone())
        } else {
            None
        }
    }

    fn contains(&self, cmd: &C) -> bool {
        self.cmds.contains(cmd)
    }

    fn absorbs(&self, cmd: &C) -> bool {
        self.contains(cmd)
    }

    fn commands(&self) -> Vec<C> {
        self.cmds.clone()
    }

    fn count(&self) -> usize {
        self.cmds.len()
    }
}

impl<C: Wire> Wire for CmdSeq<C> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.cmds.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(CmdSeq {
            cmds: Vec::<C>::decode(input)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcpaxos_actor::wire::{from_bytes, to_bytes};

    fn mk(cmds: &[u32]) -> CmdSeq<u32> {
        cmds.iter().copied().collect()
    }

    #[test]
    fn append_preserves_order_and_dedups() {
        let mut s = CmdSeq::<u32>::bottom();
        s.append(2);
        s.append(1);
        s.append(2);
        assert_eq!(s.as_slice(), &[2, 1]);
    }

    #[test]
    fn prefix_order() {
        assert!(mk(&[]).le(&mk(&[1, 2])));
        assert!(mk(&[1]).le(&mk(&[1, 2])));
        assert!(mk(&[1, 2]).le(&mk(&[1, 2])));
        assert!(!mk(&[2]).le(&mk(&[1, 2])));
        assert!(!mk(&[1, 2]).le(&mk(&[1])));
    }

    #[test]
    fn glb_is_longest_common_prefix() {
        assert_eq!(mk(&[1, 2, 3]).glb(&mk(&[1, 2, 4])), mk(&[1, 2]));
        assert_eq!(mk(&[1]).glb(&mk(&[2])), mk(&[]));
        assert_eq!(mk(&[1, 2]).glb(&mk(&[1, 2])), mk(&[1, 2]));
    }

    #[test]
    fn lub_requires_prefix_relation() {
        assert_eq!(mk(&[1]).lub(&mk(&[1, 2])), Some(mk(&[1, 2])));
        assert_eq!(mk(&[1, 2]).lub(&mk(&[1])), Some(mk(&[1, 2])));
        assert_eq!(mk(&[1, 2]).lub(&mk(&[1, 3])), None);
        assert!(!mk(&[1, 2]).compatible(&mk(&[1, 3])));
        assert!(mk(&[1]).compatible(&mk(&[1, 2])));
    }

    #[test]
    fn wire_roundtrip() {
        let s = mk(&[9, 7, 8]);
        let back: CmdSeq<u32> = from_bytes(&to_bytes(&s)).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn from_iter_dedups() {
        assert_eq!(mk(&[1, 2, 1, 3, 2]), mk(&[1, 2, 3]));
    }
}
