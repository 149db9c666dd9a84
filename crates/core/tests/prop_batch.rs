//! Proptest suite for the batch codec: a batched proposal
//! ([`Msg::ProposeBatch`]) and a batched 2a wave must be byte-for-byte
//! and state-for-state equivalent to the k sequential messages they
//! amortize (the differential oracle, same pattern as `prop_shard`), and
//! torn or duplicated deliveries must fail loudly or apply idempotently
//! — never corrupt the decoded c-struct.

use mcpaxos_actor::wire::{Wire, WireError};
use mcpaxos_core::{Msg, Payload, Round};
use mcpaxos_cstruct::{CStruct, CommandHistory, Conflict, ConflictKeys};
use proptest::prelude::*;

/// Keyed test command: ~12% of pairs conflict (same key of 8), so
/// generated batches mix commuting and interfering commands.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct K(u16, u32);

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
        Ok(K(u16::decode(i)?, u32::decode(i)?))
    }
}

type H = CommandHistory<K>;
type M = Msg<H>;

fn cmds(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<K>> {
    prop::collection::vec((0u16..8, any::<u32>()).prop_map(|(k, v)| K(k, v)), len)
}

fn roundtrip(m: &M) -> M {
    let mut buf = Vec::new();
    m.encode(&mut buf);
    let mut input = buf.as_slice();
    let decoded = M::decode(&mut input).expect("well-formed message decodes");
    assert!(input.is_empty(), "decode left trailing bytes");
    decoded
}

fn batch_cmds(m: &M) -> &[K] {
    match m {
        Msg::ProposeBatch { cmds, .. } => cmds,
        other => panic!("expected ProposeBatch, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Differential oracle for the proposer→coordinator leg: one
    /// `ProposeBatch` of k commands decodes to exactly the commands that
    /// k sequential `Propose` messages deliver, in order, and appending
    /// either stream to a history yields the same c-struct.
    #[test]
    fn propose_batch_decodes_to_k_sequential_proposals(batch in cmds(0..40usize)) {
        let batched = roundtrip(&Msg::ProposeBatch { cmds: batch.clone(), acc_quorum: None });

        // The unbatched oracle: each command on its own wire trip.
        let mut oracle_cmds = Vec::new();
        for c in &batch {
            match roundtrip(&Msg::Propose { cmd: c.clone(), acc_quorum: None }) {
                Msg::Propose { cmd, .. } => oracle_cmds.push(cmd),
                other => panic!("expected Propose, got {other:?}"),
            }
        }
        prop_assert_eq!(batch_cmds(&batched), oracle_cmds.as_slice());

        // Receivers process a batch as k appends: same resulting history.
        let mut via_batch = H::bottom();
        via_batch.append_all(batch_cmds(&batched).iter().cloned());
        let mut via_singles = H::bottom();
        for c in &oracle_cmds {
            via_singles.append(c.clone());
        }
        prop_assert_eq!(via_batch, via_singles);
    }

    /// Differential oracle for the coordinator→acceptor leg: a 2a whose
    /// cval grew by `append_all` (one wave of k commands) must carry the
    /// same bytes — and decode to the same suffix — as a 2a grown by k
    /// sequential `append` calls from the same base.
    #[test]
    fn batched_2a_matches_k_sequential_2as(
        base in cmds(0..20usize),
        wave in cmds(1..30usize),
    ) {
        let mut batched = H::bottom();
        batched.append_all(base.iter().cloned());
        let base_len = batched.total_len();
        let mut sequential = batched.clone();

        batched.append_all(wave.iter().cloned());
        for c in &wave {
            sequential.append(c.clone());
        }
        prop_assert_eq!(&batched, &sequential);
        prop_assert_eq!(batched.digest(), sequential.digest());

        let round = Round::new(1, 1, 0, 0);
        let mut b_bytes = Vec::new();
        Msg::P2a { round, val: Payload::full(batched.clone()) }.encode(&mut b_bytes);
        let mut s_bytes = Vec::new();
        Msg::P2a { round, val: Payload::full(sequential) }.encode(&mut s_bytes);
        prop_assert_eq!(&b_bytes, &s_bytes, "batched 2a bytes diverge from sequential 2a");

        // The decoded wave suffix matches the sender's (duplicates the
        // membership check absorbed are absent from both sides).
        let decoded = match roundtrip(&Msg::P2a { round, val: Payload::full(batched.clone()) }) {
            Msg::P2a { val, .. } => val.as_full().expect("full payload").as_ref().clone(),
            other => panic!("expected P2a, got {other:?}"),
        };
        prop_assert_eq!(&decoded, &batched);
        prop_assert_eq!(
            decoded.suffix_from(base_len).expect("history has a suffix view"),
            batched.suffix_from(base_len).expect("history has a suffix view")
        );
    }

    /// Torn batch: every strict prefix of an encoded `ProposeBatch` is
    /// rejected with a decode error — never a panic, never a silently
    /// shorter batch.
    #[test]
    fn torn_propose_batch_errors_instead_of_truncating(batch in cmds(1..20usize)) {
        let mut buf = Vec::new();
        let msg: M = Msg::ProposeBatch { cmds: batch, acc_quorum: None };
        msg.encode(&mut buf);
        for cut in 0..buf.len() {
            let mut input = &buf[..cut];
            prop_assert!(
                M::decode(&mut input).is_err(),
                "torn batch (cut at {cut}/{}) decoded successfully",
                buf.len()
            );
        }
    }

    /// Duplicated delivery: decoding the same batched 2a twice and
    /// merging both copies into a learner's value is idempotent (the
    /// lattice join absorbs the duplicate), and a re-appended batch adds
    /// no second membership entry.
    #[test]
    fn duplicated_batch_delivery_is_idempotent(
        base in cmds(0..20usize),
        wave in cmds(1..20usize),
    ) {
        let mut cval = H::bottom();
        cval.append_all(base.iter().cloned());
        cval.append_all(wave.iter().cloned());

        let round = Round::new(1, 1, 0, 0);
        let msg = Msg::P2a { round, val: Payload::full(cval.clone()) };
        let (first, second) = match (roundtrip(&msg), roundtrip(&msg)) {
            (Msg::P2a { val: a, .. }, Msg::P2a { val: b, .. }) => (
                a.as_full().expect("full payload").as_ref().clone(),
                b.as_full().expect("full payload").as_ref().clone(),
            ),
            other => panic!("expected two P2as, got {other:?}"),
        };
        prop_assert_eq!(&first, &second, "re-decode diverged");

        let learned = first.lub(&second).expect("equal values are compatible");
        prop_assert_eq!(&learned, &cval, "duplicate merge changed the value");

        // Re-appending the same wave is absorbed by membership: the
        // history keeps one entry per command.
        let mut dup = cval.clone();
        dup.append_all(wave.iter().cloned());
        prop_assert_eq!(dup.total_len(), cval.total_len(), "duplicate append re-entered");
    }
}
