//! The memoized `CommandHistory::digest` is never stale: after any mix of
//! appends, suffix applications, lubs, glbs, truncations, clones and wire
//! round trips it equals the digest chain recomputed from scratch, from
//! the logical origin. And it does not depend on where the value was
//! truncated: not by a literal-prefix truncation, nor by a wire round
//! trip above watermark 0.

use mcpaxos_actor::wire::{from_bytes, to_bytes, Wire, WireError};
use mcpaxos_cstruct::{CStruct, CommandHistory, Conflict, ConflictKeys, DetHasher};
use proptest::prelude::*;
use std::hash::Hasher;

/// Same-key interference with an exact one-key hint.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct K(u8, u16);

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
        Ok(K(u8::decode(input)?, u16::decode(input)?))
    }
}

type H = CommandHistory<K>;

/// The chain, spelled out: from 0, one step per command absorbing the
/// `DetHasher` hash of its encoding — first the `stable` commands `v`
/// truncated, in truncation order, then its live ones.
fn from_scratch(stable: &[K], v: &H) -> u64 {
    assert_eq!(v.watermark(), stable.len() as u64);
    let mut chain = DetHasher::default();
    for c in stable.iter().chain(v.as_slice()) {
        let mut word = DetHasher::default();
        word.write(&to_bytes(c));
        chain.write_u64(word.finish());
    }
    chain.finish()
}

fn cmd() -> impl Strategy<Value = K> {
    (0u8..4, 0u16..48).prop_map(|(key, uid)| K(key, uid))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn digest_memo_matches_a_recomputation(
        ops in prop::collection::vec((0u8..10, prop::collection::vec(cmd(), 0..4)), 1..40)
    ) {
        // `v` is the value under test, `w` a peer at the same watermark
        // for the binary operators; `stable` is what both truncated.
        let (mut v, mut w) = (H::bottom(), H::bottom());
        let mut stable = Vec::new();
        for (op, cmds) in ops {
            match op {
                0 => cmds.into_iter().for_each(|c| v.append(c)),
                1 => v.append_all(cmds),
                2 => w.append_all(cmds),
                3 => {
                    if let Some(l) = v.lub(&w) {
                        v = l;
                    }
                }
                4 => v = v.glb(&w),
                5 => {
                    let base = v.total_len().min(w.total_len());
                    if let Some(suffix) = w.suffix_from(base) {
                        // The checked apply leaves `v` on a wrong digest
                        // and is the plain one on the result's.
                        let mut want = v.clone();
                        want.apply_suffix(base, &suffix).expect("base within v");
                        let (d, before) = (want.digest(), v.as_slice().to_vec());
                        prop_assert!(v.apply_suffix_checked(base, &suffix, d ^ 1).is_err());
                        prop_assert_eq!(v.as_slice(), &before[..]);
                        v.apply_suffix_checked(base, &suffix, d).expect("the result's digest");
                        prop_assert_eq!(v.as_slice(), want.as_slice());
                    }
                }
                6 => {
                    let seg = v.stable_segment(v.watermark(), cmds.len().max(1));
                    if let Some(seg) = seg {
                        assert!(v.truncate_stable(&seg));
                        if !w.truncate_stable(&seg) {
                            w = v.clone();
                        }
                        stable.extend(seg);
                    }
                }
                7 => {
                    // A clone carries the memo; growing it leaves `v`'s be.
                    let mut c = v.clone();
                    c.append_all(cmds);
                    prop_assert_eq!(c.digest(), from_scratch(&stable, &c));
                }
                8 => v = from_bytes(&to_bytes(&v)).expect("round trip"),
                _ => w = v.clone(),
            }
            prop_assert_eq!(v.digest(), from_scratch(&stable, &v));
            prop_assert_eq!(w.digest(), from_scratch(&stable, &w));
        }
    }

    #[test]
    fn truncating_a_literal_prefix_keeps_the_digest(
        cmds in prop::collection::vec(cmd(), 0..24),
        cuts in prop::collection::vec(1usize..6, 1..5),
    ) {
        let whole: H = cmds.into_iter().collect();
        let mut v = whole.clone();
        for k in cuts {
            let seg = v.as_slice()[..k.min(v.live_len())].to_vec();
            prop_assert!(v.truncate_stable(&seg));
            prop_assert_eq!(v.digest(), whole.digest());
        }
    }

    #[test]
    fn a_wire_round_trip_above_watermark_zero_keeps_the_digest(
        cmds in prop::collection::vec(cmd(), 1..24),
        cut in 1usize..24,
        more in prop::collection::vec(cmd(), 0..4),
    ) {
        let mut v: H = cmds.into_iter().collect();
        let seg = v.as_slice()[..cut.min(v.live_len())].to_vec();
        prop_assert!(v.truncate_stable(&seg));
        prop_assert!(v.watermark() > 0);
        let mut back: H = from_bytes(&to_bytes(&v)).expect("round trip");
        prop_assert_eq!(back.watermark(), v.watermark());
        prop_assert_eq!(back.digest(), v.digest());
        // The decoded value keeps chaining the same way.
        back.append_all(more.iter().cloned());
        v.append_all(more);
        prop_assert_eq!(back.digest(), v.digest());
    }
}
