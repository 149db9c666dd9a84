//! The consensus c-struct set: `⊥` plus single commands.
//!
//! Lamport shows ordinary consensus is the generalized-consensus instance
//! whose c-structs are `⊥` and single commands, with `v • C = v` whenever
//! `v ≠ ⊥`: once a value is present, further appends are ignored. Two
//! c-structs are compatible iff they are equal or one is `⊥` — so learners
//! that learn non-`⊥` values learn the *same* value, which is exactly
//! consensus consistency.

use crate::traits::{CStruct, Command};
use mcpaxos_actor::wire::{Wire, WireError};

/// The consensus c-struct: either `⊥` (no decision) or one command.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct SingleDecree<C> {
    value: Option<C>,
}

impl<C> SingleDecree<C> {
    /// Creates a c-struct already holding `value`.
    pub fn decided(value: C) -> Self {
        SingleDecree { value: Some(value) }
    }

    /// The decided command, if any.
    pub fn value(&self) -> Option<&C> {
        self.value.as_ref()
    }

    /// Consumes the c-struct, returning the decided command, if any.
    pub fn into_value(self) -> Option<C> {
        self.value
    }
}

impl<C> Default for SingleDecree<C> {
    fn default() -> Self {
        SingleDecree { value: None }
    }
}

impl<C: Command> CStruct for SingleDecree<C> {
    type Cmd = C;

    fn bottom() -> Self {
        SingleDecree { value: None }
    }

    fn append(&mut self, cmd: C) {
        // v • C = v for v ≠ ⊥: the first command sticks.
        if self.value.is_none() {
            self.value = Some(cmd);
        }
    }

    fn le(&self, other: &Self) -> bool {
        match (&self.value, &other.value) {
            (None, _) => true,
            (Some(a), Some(b)) => a == b,
            (Some(_), None) => false,
        }
    }

    fn glb(&self, other: &Self) -> Self {
        if self == other {
            self.clone()
        } else {
            Self::bottom()
        }
    }

    fn lub(&self, other: &Self) -> Option<Self> {
        match (&self.value, &other.value) {
            (None, _) => Some(other.clone()),
            (_, None) => Some(self.clone()),
            (Some(a), Some(b)) if a == b => Some(self.clone()),
            _ => None,
        }
    }

    fn contains(&self, cmd: &C) -> bool {
        self.value.as_ref() == Some(cmd)
    }

    fn absorbs(&self, _cmd: &C) -> bool {
        self.value.is_some()
    }

    fn commands(&self) -> Vec<C> {
        self.value.iter().cloned().collect()
    }
}

impl<C: Wire> Wire for SingleDecree<C> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.value.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(SingleDecree {
            value: Option::<C>::decode(input)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcpaxos_actor::wire::{from_bytes, to_bytes};

    type S = SingleDecree<u32>;

    #[test]
    fn first_append_wins() {
        let mut s = S::bottom();
        assert!(s.is_bottom());
        s.append(5);
        s.append(9);
        assert_eq!(s.value(), Some(&5));
        assert!(s.contains(&5));
        assert!(!s.contains(&9));
        assert_eq!(s.commands(), vec![5]);
    }

    #[test]
    fn partial_order() {
        let bot = S::bottom();
        let a = S::decided(1);
        let b = S::decided(2);
        assert!(bot.le(&a));
        assert!(bot.le(&bot));
        assert!(a.le(&a));
        assert!(!a.le(&b));
        assert!(!a.le(&bot));
    }

    #[test]
    fn lattice_ops() {
        let bot = S::bottom();
        let a = S::decided(1);
        let b = S::decided(2);
        assert_eq!(a.glb(&b), bot);
        assert_eq!(a.glb(&a), a);
        assert_eq!(bot.glb(&a), bot);
        assert_eq!(a.lub(&bot), Some(a.clone()));
        assert_eq!(bot.lub(&b), Some(b.clone()));
        assert_eq!(a.lub(&a), Some(a.clone()));
        assert_eq!(a.lub(&b), None);
        assert!(!a.compatible(&b));
        assert!(a.compatible(&bot));
    }

    #[test]
    fn wire_roundtrip() {
        for s in [S::bottom(), S::decided(77)] {
            let back: S = from_bytes(&to_bytes(&s)).unwrap();
            assert_eq!(back, s);
        }
    }

    #[test]
    fn into_value() {
        assert_eq!(S::decided(3).into_value(), Some(3));
        assert_eq!(S::bottom().into_value(), None);
    }
}
