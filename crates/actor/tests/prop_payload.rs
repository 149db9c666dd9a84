//! Property-based coverage for the delta-shipping payload codec
//! (`mcpaxos_core::Payload`), the sibling of `prop_wire.rs`:
//!
//! 1. **Codec laws**: `decode(encode(p)) == p` for full and delta
//!    payloads, and every strict prefix of an encoding fails to decode
//!    (truncated-buffer detection).
//! 2. **Delta semantics across the wire**: a decoded suffix applied to
//!    the base it was cut from reconstructs the full value —
//!    `full ≡ base • suffix` survives serialization.

use mcpaxos_actor::wire::{from_bytes, to_bytes, Wire, WireError};
use mcpaxos_core::{Msg, Payload, Round};
use mcpaxos_cstruct::{CStruct, CommandHistory, Conflict, ConflictKeys};
use proptest::prelude::*;
use std::sync::Arc;

/// Keyed command: same-key interference with an exact locality hint.
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
    fn decode(i: &mut &[u8]) -> Result<Self, WireError> {
        Ok(K(u8::decode(i)?, u16::decode(i)?))
    }
}

type H = CommandHistory<K>;
type P = Payload<H>;

fn k() -> impl Strategy<Value = K> {
    (0u8..5, 0u16..32).prop_map(|(key, uid)| K(key, uid))
}

fn history() -> impl Strategy<Value = H> {
    prop::collection::vec(k(), 0..12).prop_map(|v| v.into_iter().collect())
}

fn payload() -> impl Strategy<Value = P> {
    prop_oneof![
        history().prop_map(Payload::full),
        (any::<u32>(), any::<u64>(), prop::collection::vec(k(), 0..8)).prop_map(
            |(base, digest, suffix)| Payload::Delta {
                base_len: u64::from(base),
                digest,
                suffix,
            },
        ),
    ]
}

fn strict_prefixes_fail<T: Wire + std::fmt::Debug>(v: &T) -> Result<(), TestCaseError> {
    let bytes = to_bytes(v);
    for cut in 0..bytes.len() {
        let r: Result<T, _> = from_bytes(&bytes[..cut]);
        prop_assert!(r.is_err(), "prefix of len {cut} of {v:?} decoded");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Codec law: round-trip plus truncated-buffer rejection, for both
    /// payload shapes.
    #[test]
    fn payload_roundtrips_and_rejects_truncation(p in payload()) {
        let bytes = to_bytes(&p);
        let back: P = from_bytes(&bytes).unwrap();
        prop_assert_eq!(&back, &p);
        strict_prefixes_fail(&p)?;
    }

    /// Corrupt payload tags are rejected, and so is a full value whose
    /// watermark plus live length overflows a `u64`.
    #[test]
    fn bad_payload_tag_fails(tag in 2u8..255) {
        let r: Result<P, _> = from_bytes(&[tag]);
        prop_assert!(r.is_err());
        let mut overflow = vec![0u8]; // the `Full` tag
        u64::MAX.encode(&mut overflow); // watermark
        0u64.encode(&mut overflow); // the chain through it
        vec![K(tag % 5, 0)].encode(&mut overflow);
        prop_assert!(from_bytes::<P>(&overflow).is_err());
    }

    /// `full ≡ base • suffix` through the wire: cut a random split point,
    /// ship the suffix as a delta, decode it, apply to the base.
    #[test]
    fn decoded_delta_reconstructs_full(cmds in prop::collection::vec(k(), 0..16), cut in 0usize..17) {
        let full: H = cmds.iter().cloned().collect();
        let p = cut.min(full.as_slice().len()) as u64;
        let suffix = full.suffix_from(p).expect("in range");
        let delta: P = Payload::Delta { base_len: p, digest: full.digest(), suffix };

        let decoded: P = from_bytes(&to_bytes(&delta)).unwrap();
        let (base_len, digest, suffix) = match decoded {
            Payload::Delta { base_len, digest, suffix } => (base_len, digest, suffix),
            Payload::Full(_) => return Err(TestCaseError::fail("shape changed")),
        };
        prop_assert_eq!(base_len, p);
        let mut base: H = full.as_slice()[..p as usize].iter().cloned().collect();
        base.apply_suffix(base_len, &suffix).expect("base covers split");
        prop_assert_eq!(base.as_slice(), full.as_slice());
        // The digest survives the wire and matches the reconstruction.
        prop_assert_eq!(digest, base.digest());

        // And the full-payload route agrees, Arc sharing preserved
        // transparently by the codec.
        let full_p: P = Payload::Full(Arc::new(full.clone()));
        let back: P = from_bytes(&to_bytes(&full_p)).unwrap();
        match back {
            Payload::Full(v) => prop_assert_eq!(v.as_slice(), full.as_slice()),
            Payload::Delta { .. } => return Err(TestCaseError::fail("shape changed")),
        }
    }

    /// Protocol messages carrying delta payloads round-trip end to end.
    #[test]
    fn messages_with_delta_payloads_roundtrip(
        cmds in prop::collection::vec(k(), 0..10),
        base in any::<u16>(),
        tag in 0u8..3,
    ) {
        let round = Round::new(1, 2, 0, 1);
        let payload: P = Payload::Delta { base_len: u64::from(base), digest: 7, suffix: cmds };
        let msg: Msg<H> = match tag {
            0 => Msg::P1b { round, vrnd: Round::ZERO, vval: payload },
            1 => Msg::P2a { round, val: payload },
            _ => Msg::P2b { round, val: payload },
        };
        let back: Msg<H> = from_bytes(&to_bytes(&msg)).unwrap();
        prop_assert_eq!(back, msg);
        strict_prefixes_fail(&Msg::<H>::NeedFull { round })?;
    }
}
