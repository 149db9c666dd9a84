//! Differential proptest suite: the indexed [`CommandHistory`] must agree
//! with the retained literal transcription [`RefCommandHistory`] on every
//! lattice operator, for random conflict relations — keyed, universal,
//! empty, chained, and *unhinted* (a relation whose `conflict_keys` stays
//! at the sound default), so both the indexed fast path and the wildcard
//! fallback are pinned against the oracle.

use mcpaxos_actor::wire::{Wire, WireError};
use mcpaxos_cstruct::{CStruct, CommandHistory, Conflict, ConflictKeys, RefCommandHistory};
use proptest::prelude::*;

/// Same-key interference with an exact one-key hint.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct KeyCmd {
    key: u8,
    uid: u16,
}

impl Conflict for KeyCmd {
    fn conflicts(&self, other: &Self) -> bool {
        self.key == other.key
    }
    fn conflict_keys(&self) -> ConflictKeys {
        ConflictKeys::one(u64::from(self.key))
    }
}

impl Wire for KeyCmd {
    fn encode(&self, out: &mut Vec<u8>) {
        self.key.encode(out);
        self.uid.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(KeyCmd {
            key: u8::decode(input)?,
            uid: u16::decode(input)?,
        })
    }
}

/// The same relation, but with the default (universal) hint: exercises
/// the unindexed fallback, which must still match the oracle.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct UnhintedCmd(KeyCmd);

impl Conflict for UnhintedCmd {
    fn conflicts(&self, other: &Self) -> bool {
        self.0.conflicts(&other.0)
    }
}

impl Wire for UnhintedCmd {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(UnhintedCmd(KeyCmd::decode(input)?))
    }
}

/// Adjacent-value interference with a two-key hint: conflicts span key
/// buckets, catching bugs in candidate-set union and deduplication.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct ChainCmd(u8);

impl Conflict for ChainCmd {
    fn conflicts(&self, other: &Self) -> bool {
        self.0.abs_diff(other.0) <= 1
    }
    fn conflict_keys(&self) -> ConflictKeys {
        ConflictKeys::two(u64::from(self.0), u64::from(self.0) + 1)
    }
}

impl Wire for ChainCmd {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(ChainCmd(u8::decode(input)?))
    }
}

/// A mixed relation: some commands are "barriers" conflicting with
/// everything (the `ConflictKeys::all()` wildcard), the rest are keyed.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum MixedCmd {
    Keyed(u8, u16),
    Barrier(u16),
}

impl Conflict for MixedCmd {
    fn conflicts(&self, other: &Self) -> bool {
        match (self, other) {
            (MixedCmd::Barrier(_), _) | (_, MixedCmd::Barrier(_)) => true,
            (MixedCmd::Keyed(a, _), MixedCmd::Keyed(b, _)) => a == b,
        }
    }
    fn conflict_keys(&self) -> ConflictKeys {
        match self {
            MixedCmd::Keyed(k, _) => ConflictKeys::one(u64::from(*k)),
            MixedCmd::Barrier(_) => ConflictKeys::all(),
        }
    }
}

impl Wire for MixedCmd {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            MixedCmd::Keyed(k, u) => {
                0u8.encode(out);
                k.encode(out);
                u.encode(out);
            }
            MixedCmd::Barrier(u) => {
                1u8.encode(out);
                u.encode(out);
            }
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(input)? {
            0 => Ok(MixedCmd::Keyed(u8::decode(input)?, u16::decode(input)?)),
            1 => Ok(MixedCmd::Barrier(u16::decode(input)?)),
            _ => Err(WireError { what: "bad mixed" }),
        }
    }
}

/// Asserts every operator agrees between the indexed history and the
/// oracle built from the same command sequences. Comparing the *sequences*
/// (not just poset equality) pins the implementations as behavioural
/// twins.
fn assert_agree<C>(a_cmds: &[C], b_cmds: &[C]) -> Result<(), TestCaseError>
where
    C: Conflict + Eq + std::hash::Hash + Clone + std::fmt::Debug + Wire + Send + 'static,
{
    let ia: CommandHistory<C> = a_cmds.iter().cloned().collect();
    let ib: CommandHistory<C> = b_cmds.iter().cloned().collect();
    let ra: RefCommandHistory<C> = a_cmds.iter().cloned().collect();
    let rb: RefCommandHistory<C> = b_cmds.iter().cloned().collect();

    // Construction dedups identically.
    prop_assert_eq!(ia.as_slice(), ra.as_slice());
    prop_assert_eq!(ib.as_slice(), rb.as_slice());

    // Relations.
    prop_assert_eq!(ia == ib, ra == rb, "eq diverged");
    if ia.is_literal_prefix_of(&ib) {
        prop_assert!(ra.le(&rb), "a literal prefix that does not precede");
        prop_assert_eq!(ia.lub(&ib).map(|l| l.commands()), Some(ib.commands()));
    }
    prop_assert_eq!(ia.le(&ib), ra.le(&rb), "le diverged");
    prop_assert_eq!(ib.le(&ia), rb.le(&ra), "le (flipped) diverged");
    prop_assert_eq!(
        ia.compatible(&ib),
        ra.compatible(&rb),
        "compatible diverged"
    );

    // Lattice operators, compared by representing sequence.
    prop_assert_eq!(
        ia.glb(&ib).commands(),
        ra.glb(&rb).commands(),
        "glb diverged"
    );
    prop_assert_eq!(
        ib.glb(&ia).commands(),
        rb.glb(&ra).commands(),
        "glb (flipped) diverged"
    );
    let il = ia.lub(&ib).map(|l| l.commands());
    let rl = ra.lub(&rb).map(|l| l.commands());
    prop_assert_eq!(il, rl, "lub diverged");

    // Membership and pairwise ordering over every command mentioned.
    for c in a_cmds.iter().chain(b_cmds) {
        prop_assert_eq!(ia.contains(c), ra.contains(c));
    }
    for x in a_cmds {
        for y in a_cmds {
            prop_assert_eq!(
                ia.orders_before(x, y),
                ra.orders_before(x, y),
                "orders_before diverged on {:?} {:?}",
                x,
                y
            );
        }
    }
    Ok(())
}

fn key_cmd() -> impl Strategy<Value = KeyCmd> {
    (0u8..4, 0u16..8).prop_map(|(key, uid)| KeyCmd { key, uid })
}

fn mixed_cmd() -> impl Strategy<Value = MixedCmd> {
    prop_oneof![
        (0u8..4, 0u16..8).prop_map(|(k, u)| MixedCmd::Keyed(k, u)),
        (0u16..3).prop_map(MixedCmd::Barrier),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Keyed relation, indexed fast path.
    #[test]
    fn keyed_histories_match_reference(
        a in prop::collection::vec(key_cmd(), 0..14),
        b in prop::collection::vec(key_cmd(), 0..14),
        shared in prop::collection::vec(key_cmd(), 0..6),
    ) {
        // Seed both sides with a shared prefix so glb/lub have real work.
        let a_cmds: Vec<KeyCmd> = shared.iter().cloned().chain(a).collect();
        let b_cmds: Vec<KeyCmd> = shared.into_iter().chain(b).collect();
        assert_agree(&a_cmds, &b_cmds)?;
    }

    /// Same relation through the unindexed wildcard fallback.
    #[test]
    fn unhinted_histories_match_reference(
        a in prop::collection::vec(key_cmd(), 0..10),
        b in prop::collection::vec(key_cmd(), 0..10),
        shared in prop::collection::vec(key_cmd(), 0..5),
    ) {
        let a_cmds: Vec<UnhintedCmd> =
            shared.iter().cloned().chain(a).map(UnhintedCmd).collect();
        let b_cmds: Vec<UnhintedCmd> =
            shared.into_iter().chain(b).map(UnhintedCmd).collect();
        assert_agree(&a_cmds, &b_cmds)?;
    }

    /// Conflicts that cross key buckets (two-key hints).
    #[test]
    fn chained_histories_match_reference(
        a in prop::collection::vec((0u8..8).prop_map(ChainCmd), 0..12),
        b in prop::collection::vec((0u8..8).prop_map(ChainCmd), 0..12),
    ) {
        assert_agree(&a, &b)?;
    }

    /// Keyed commands mixed with universal barriers.
    #[test]
    fn mixed_histories_match_reference(
        a in prop::collection::vec(mixed_cmd(), 0..12),
        b in prop::collection::vec(mixed_cmd(), 0..12),
        shared in prop::collection::vec(mixed_cmd(), 0..5),
    ) {
        let a_cmds: Vec<MixedCmd> = shared.iter().cloned().chain(a).collect();
        let b_cmds: Vec<MixedCmd> = shared.into_iter().chain(b).collect();
        assert_agree(&a_cmds, &b_cmds)?;
    }

    /// Prefix-shaped pairs, the inputs `le`'s literal-prefix fast path
    /// answers: `b = a ++ extra` (compared both ways), `b = a`, and `a`
    /// with one adjacent pair swapped, then `++ extra`. A swapped
    /// commuting pair leaves the value ⊑-equal to `a` without being a
    /// literal extension of it; a swapped conflicting pair makes an
    /// equal-length value that `a` does not precede.
    #[test]
    fn prefix_shaped_histories_match_reference(
        a in prop::collection::vec(key_cmd(), 0..14),
        extra in prop::collection::vec(key_cmd(), 0..6),
        at in 0usize..14,
    ) {
        let a: Vec<KeyCmd> = CommandHistory::from_iter(a).commands();
        let grown: Vec<KeyCmd> = a.iter().chain(&extra).cloned().collect();
        assert_agree(&a, &grown)?;
        assert_agree(&a, &a)?;
        if a.len() >= 2 {
            let j = at % (a.len() - 1);
            let mut any = a.clone();
            any.swap(j, j + 1);
            assert_agree(&a, &any)?;
            // The first commuting pair at or after `j`, if any.
            if let Some(j) = (j..a.len() - 1).find(|&j| !a[j].conflicts(&a[j + 1])) {
                let mut commuted = a.clone();
                commuted.swap(j, j + 1);
                commuted.extend(extra.iter().cloned());
                assert_agree(&a, &commuted)?;
                let (ia, ic): (CommandHistory<KeyCmd>, CommandHistory<KeyCmd>) =
                    (a.iter().cloned().collect(), commuted.into_iter().collect());
                prop_assert!(ia.le(&ic), "a commuting swap still extends a");
            }
        }
    }

    /// Incremental append equals bulk construction, and the wire codec
    /// round-trips the indexed representation.
    #[test]
    fn append_matches_from_iter_and_wire(
        cmds in prop::collection::vec(key_cmd(), 0..16),
    ) {
        let bulk: CommandHistory<KeyCmd> = cmds.iter().cloned().collect();
        let mut inc = CommandHistory::<KeyCmd>::bottom();
        for c in &cmds {
            inc.append(c.clone());
        }
        prop_assert_eq!(bulk.as_slice(), inc.as_slice());
        let bytes = mcpaxos_actor::wire::to_bytes(&bulk);
        let back: CommandHistory<KeyCmd> =
            mcpaxos_actor::wire::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back.as_slice(), bulk.as_slice());
    }

    /// Delta shipping: a full value equals its base plus the shipped
    /// suffix (`full ≡ base • suffix_from(|base|)`), identically for the
    /// indexed implementation and the oracle, including overlapping
    /// (duplicated-delivery) applications.
    #[test]
    fn suffix_from_apply_suffix_match_reference(
        cmds in prop::collection::vec(key_cmd(), 0..16),
        cut in 0usize..17,
        overlap in 0u64..4,
    ) {
        let full: CommandHistory<KeyCmd> = cmds.iter().cloned().collect();
        let rfull: RefCommandHistory<KeyCmd> = cmds.iter().cloned().collect();
        let n = full.as_slice().len();
        let p = cut.min(n) as u64;

        let suffix = full.suffix_from(p).expect("split point in range");
        let rsuffix = rfull.suffix_from(p).expect("split point in range");
        prop_assert_eq!(&suffix, &rsuffix, "suffix_from diverged");

        // Rebuild the full value from the base + suffix.
        let mut base: CommandHistory<KeyCmd> =
            full.as_slice()[..p as usize].iter().cloned().collect();
        let mut rbase: RefCommandHistory<KeyCmd> =
            full.as_slice()[..p as usize].iter().cloned().collect();
        let appended = base.apply_suffix(p, &suffix).expect("base covers split");
        let rappended = rbase.apply_suffix(p, &rsuffix).expect("base covers split");
        prop_assert_eq!(appended, rappended, "apply_suffix count diverged");
        prop_assert_eq!(base.as_slice(), full.as_slice(), "full != base + suffix");
        prop_assert_eq!(rbase.as_slice(), rfull.as_slice());

        // Overlapping re-application (a duplicated delta) is a no-op.
        let p2 = p.saturating_sub(overlap);
        let suffix2 = full.suffix_from(p2).expect("in range");
        prop_assert_eq!(base.apply_suffix(p2, &suffix2), Ok(0), "overlap re-added");
        prop_assert_eq!(base.as_slice(), full.as_slice());

        // Past-the-end bases are gaps, for both implementations.
        let beyond = full.total_len() + 1;
        prop_assert!(base.apply_suffix(beyond, &suffix).is_err());
        prop_assert!(rbase.apply_suffix(beyond, &rsuffix).is_none());
        prop_assert!(full.suffix_from(beyond).is_none());
        prop_assert!(rfull.suffix_from(beyond).is_none());
    }

    /// Compaction: truncating a stable segment (a prefix of the pairwise
    /// glb — downward-closed in both operands by construction) agrees
    /// with the oracle, and every operator on the compacted pair gives
    /// the same answer as on the uncompacted pair above the watermark.
    #[test]
    fn truncation_matches_reference_and_preserves_operators(
        a in prop::collection::vec(key_cmd(), 0..12),
        b in prop::collection::vec(key_cmd(), 0..12),
        shared in prop::collection::vec(key_cmd(), 0..8),
        cut in 0usize..9,
    ) {
        let a_cmds: Vec<KeyCmd> = shared.iter().cloned().chain(a).collect();
        let b_cmds: Vec<KeyCmd> = shared.into_iter().chain(b).collect();
        let ia: CommandHistory<KeyCmd> = a_cmds.iter().cloned().collect();
        let ib: CommandHistory<KeyCmd> = b_cmds.iter().cloned().collect();
        let ra: RefCommandHistory<KeyCmd> = a_cmds.iter().cloned().collect();
        let rb: RefCommandHistory<KeyCmd> = b_cmds.iter().cloned().collect();

        // A stable segment: some prefix of the glb's representing
        // sequence (what the deployment's designated learner gossips).
        let glb = ia.glb(&ib);
        let k = cut.min(glb.as_slice().len());
        let seg: Vec<KeyCmd> = glb.as_slice()[..k].to_vec();

        let (mut ta, mut tb, mut sa, mut sb) =
            (ia.clone(), ib.clone(), ra.clone(), rb.clone());
        prop_assert!(ta.truncate_stable(&seg), "indexed truncate A failed");
        prop_assert!(tb.truncate_stable(&seg), "indexed truncate B failed");
        prop_assert!(sa.truncate_stable(&seg), "oracle truncate A failed");
        prop_assert!(sb.truncate_stable(&seg), "oracle truncate B failed");
        prop_assert_eq!(ta.as_slice(), sa.as_slice(), "truncated A diverged");
        prop_assert_eq!(tb.as_slice(), sb.as_slice(), "truncated B diverged");
        prop_assert_eq!(ta.watermark(), k as u64);
        prop_assert_eq!(ta.total_len(), ia.total_len());

        // Compacted ≡ uncompacted above the watermark: relations are
        // unchanged, lattice results equal the uncompacted results with
        // the segment removed.
        prop_assert_eq!(ta.le(&tb), ia.le(&ib), "le changed by truncation");
        prop_assert_eq!(tb.le(&ta), ib.le(&ia));
        prop_assert_eq!(ta == tb, ia == ib, "eq changed by truncation");
        prop_assert_eq!(
            ta.compatible(&tb),
            ia.compatible(&ib),
            "compatible changed by truncation"
        );
        let strip = |cmds: Vec<KeyCmd>| -> Vec<KeyCmd> {
            cmds.into_iter().filter(|c| !seg.contains(c)).collect()
        };
        prop_assert_eq!(
            ta.glb(&tb).commands(),
            strip(ia.glb(&ib).commands()),
            "glb changed by truncation"
        );
        prop_assert_eq!(
            ta.lub(&tb).map(|l| l.commands()),
            ia.lub(&ib).map(|l| strip(l.commands())),
            "lub changed by truncation"
        );

        // The oracle agrees on the truncated pair's operators too.
        prop_assert_eq!(ta.le(&tb), sa.le(&sb));
        prop_assert_eq!(ta.compatible(&tb), sa.compatible(&sb));
        prop_assert_eq!(ta.glb(&tb).commands(), sa.glb(&sb).commands());
        prop_assert_eq!(
            ta.lub(&tb).map(|l| l.commands()),
            sa.lub(&sb).map(|l| l.commands())
        );

        // Strictness agrees: truncating the tail command alone succeeds
        // iff it has no live conflict predecessor (downward-closedness),
        // identically in both implementations; on failure nothing moves.
        if let Some(last) = ta.as_slice().last().cloned() {
            let victim = [last];
            let (mut ca, mut cs) = (ta.clone(), sa.clone());
            let may = ca.truncate_stable(&victim);
            let smay = cs.truncate_stable(&victim);
            prop_assert_eq!(may, smay, "strictness diverged");
            prop_assert_eq!(ca.as_slice(), cs.as_slice());
            if !may {
                prop_assert_eq!(ca.as_slice(), ta.as_slice(), "failed truncate mutated");
            }
        }

        // Wire round-trip preserves the watermark.
        let bytes = mcpaxos_actor::wire::to_bytes(&ta);
        let back: CommandHistory<KeyCmd> = mcpaxos_actor::wire::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back.watermark(), ta.watermark());
        prop_assert_eq!(back.as_slice(), ta.as_slice());
    }
}
