//! Round numbers (*ballot numbers*), structured per §4.4 of the paper.
//!
//! A round is a record `⟨Count, Id, RType⟩` where `Count = MCount:mCount`
//! splits into a *major* and a *minor* counter, `Id` names the coordinator
//! that created the round, and `RType` selects the round's type under the
//! deployment's [`crate::Schedule`]. Rounds are totally ordered
//! lexicographically on `(major, minor, owner, rtype)`.
//!
//! The major/minor split implements the disk-write reduction of §4.4: an
//! acceptor persists only the major count; on recovery it resumes at
//! `major + 1`, which dominates every round it might have promised before
//! crashing, so the volatile minor count and owner need never be written.
//!
//! The paper's fourth field `S` (the set of coordinator quorums) is
//! informative; here it is derived from the deployment schedule instead of
//! being carried in every round id.

use mcpaxos_actor::wire::{Wire, WireError};
use std::fmt;

/// A round (ballot) number: `⟨major:minor, owner, rtype⟩`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Round {
    /// Major count (`MCount`): bumped on acceptor recovery; the only
    /// round component acceptors persist.
    pub major: u32,
    /// Minor count (`mCount`): bumped for each successive round within a
    /// major epoch; kept in volatile memory.
    pub minor: u32,
    /// Index (into the deployment's coordinator list) of the coordinator
    /// that created the round.
    pub owner: u16,
    /// Round-type selector, interpreted by the schedule (e.g. 0 = fast,
    /// 1 = multicoordinated, 2 = single-coordinated).
    pub rtype: u8,
}

impl Round {
    /// The distinguished initial round, smaller than every started round.
    /// Every acceptor implicitly accepts `⊥` at `ZERO`, so the algorithm
    /// begins with `⊥` chosen.
    pub const ZERO: Round = Round {
        major: 0,
        minor: 0,
        owner: 0,
        rtype: 0,
    };

    /// Creates a round.
    pub const fn new(major: u32, minor: u32, owner: u16, rtype: u8) -> Self {
        Round {
            major,
            minor,
            owner,
            rtype,
        }
    }

    /// Whether this is the initial round [`Round::ZERO`].
    pub fn is_zero(&self) -> bool {
        *self == Round::ZERO
    }

    /// The same logical position with a different round type; used by
    /// schedules that map one counter to several round flavours.
    pub fn with_rtype(mut self, rtype: u8) -> Self {
        self.rtype = rtype;
        self
    }
}

impl fmt::Debug for Round {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "r{}:{}.c{}t{}",
            self.major, self.minor, self.owner, self.rtype
        )
    }
}

impl fmt::Display for Round {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl Wire for Round {
    fn encode(&self, out: &mut Vec<u8>) {
        self.major.encode(out);
        self.minor.encode(out);
        self.owner.encode(out);
        self.rtype.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(Round {
            major: u32::decode(input)?,
            minor: u32::decode(input)?,
            owner: u16::decode(input)?,
            rtype: u8::decode(input)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcpaxos_actor::wire::{from_bytes, to_bytes};

    #[test]
    fn lexicographic_order() {
        let r = Round::new(1, 2, 3, 1);
        assert!(Round::ZERO < r);
        // major dominates
        assert!(Round::new(2, 0, 0, 0) > Round::new(1, 99, 9, 3));
        // then minor
        assert!(Round::new(1, 3, 0, 0) > Round::new(1, 2, 9, 3));
        // then owner
        assert!(Round::new(1, 2, 4, 0) > Round::new(1, 2, 3, 3));
        // then rtype
        assert!(Round::new(1, 2, 3, 2) > Round::new(1, 2, 3, 1));
    }

    #[test]
    fn recovery_major_dominates_all_prior_minors() {
        // The §4.4 argument: any round with a larger major exceeds every
        // round of the previous major epoch.
        for minor in [0u32, 1, 17, u32::MAX] {
            for owner in [0u16, 9] {
                assert!(Round::new(4, 0, 0, 0) > Round::new(3, minor, owner, 3));
            }
        }
    }

    #[test]
    fn zero_and_display() {
        assert!(Round::ZERO.is_zero());
        assert!(!Round::new(0, 1, 0, 0).is_zero());
        assert_eq!(format!("{}", Round::new(1, 2, 3, 1)), "r1:2.c3t1");
    }

    #[test]
    fn wire_roundtrip() {
        let r = Round::new(7, 8, 9, 2);
        let back: Round = from_bytes(&to_bytes(&r)).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn with_rtype_keeps_position() {
        let r = Round::new(1, 5, 2, 0).with_rtype(2);
        assert_eq!((r.major, r.minor, r.owner, r.rtype), (1, 5, 2, 2));
    }
}
