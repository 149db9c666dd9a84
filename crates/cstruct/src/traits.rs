//! The [`CStruct`] trait and lattice helpers.

use crate::history::DetHasher;
use mcpaxos_actor::wire::Wire;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A command that can be appended to a c-struct.
///
/// This is a blanket-implemented alias for the bounds every command type
/// needs: value semantics (`Clone`/`Eq`), hashability (`Hash`, so indexed
/// c-structs such as [`crate::CommandHistory`] can answer membership in
/// O(1)), debuggability, durability ([`Wire`], because acceptors persist
/// accepted c-structs) and `'static` (c-structs travel inside messages
/// owned by the runtime).
pub trait Command: Clone + Eq + Hash + fmt::Debug + Wire + Send + 'static {}

impl<T: Clone + Eq + Hash + fmt::Debug + Wire + Send + 'static> Command for T {}

/// Error returned by [`CStruct::apply_suffix`] when the receiver's copy
/// does not reach the suffix's base — the sender must fall back to
/// shipping the full value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SuffixGap;

impl fmt::Display for SuffixGap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "suffix base not covered by the local value")
    }
}

impl std::error::Error for SuffixGap {}

/// A command structure set, in the sense of Lamport's CS0–CS4 axioms
/// (reproduced in §2.3.1 of the Multicoordinated Paxos paper).
///
/// Implementations define:
///
/// * a bottom element [`CStruct::bottom`] (`⊥`),
/// * the append operator [`CStruct::append`] (`v • C`, axiom CS0),
/// * the extension partial order [`CStruct::le`] (`⊑`, axiom CS2),
/// * greatest lower bounds [`CStruct::glb`] and least upper bounds
///   [`CStruct::lub`] for pairs (axiom CS3 requires these to exist — the
///   lub only for compatible pairs, hence the `Option`), and
/// * command containment [`CStruct::contains`] (axiom CS4 relates it to
///   glbs).
///
/// The protocol layers never construct c-structs except through `bottom`,
/// `append`, `glb` and `lub`, so axiom CS1 (every c-struct is constructible
/// from commands) holds by construction.
pub trait CStruct: Clone + Eq + fmt::Debug + Wire + Send + 'static {
    /// The command type appended to this c-struct.
    type Cmd: Command;

    /// The bottom element `⊥`: the c-struct constructible from no commands.
    fn bottom() -> Self;

    /// An empty value that *extends a truncated stable prefix* of
    /// `watermark` commands — what a checkpoint-restored learner resumes
    /// from. Only meaningful for compactable representations; the default
    /// supports watermark 0 only. The prefix's commands are not known, so
    /// above watermark 0 the value's [`CStruct::digest`] matches no other
    /// agent's: it must never be a delta base.
    ///
    /// # Panics
    ///
    /// The default implementation panics for a non-zero watermark.
    fn bottom_at(watermark: u64) -> Self {
        assert_eq!(
            watermark, 0,
            "this c-struct representation does not support compaction"
        );
        Self::bottom()
    }

    /// Appends a command in place: `self := self • cmd`.
    fn append(&mut self, cmd: Self::Cmd);

    /// Returns `self • cmd` without mutating `self`.
    fn appended(&self, cmd: &Self::Cmd) -> Self {
        let mut v = self.clone();
        v.append(cmd.clone());
        v
    }

    /// Appends a sequence of commands: `self • ⟨c₁, …, cₘ⟩`.
    fn append_all<I: IntoIterator<Item = Self::Cmd>>(&mut self, cmds: I) {
        for c in cmds {
            self.append(c);
        }
    }

    /// The extension relation: `self ⊑ other` (there is a command sequence
    /// `σ` with `other = self • σ`).
    fn le(&self, other: &Self) -> bool;

    /// The greatest lower bound `self ⊓ other`. Always exists (axiom CS3).
    fn glb(&self, other: &Self) -> Self;

    /// The least upper bound `self ⊔ other`, or `None` if `self` and
    /// `other` are incompatible (have no common upper bound).
    fn lub(&self, other: &Self) -> Option<Self>;

    /// Whether `self` and `other` have a common upper bound.
    fn compatible(&self, other: &Self) -> bool {
        self.lub(other).is_some()
    }

    /// Whether `other`'s representation is this value's followed by
    /// appends, command for command. Then `self ⊑ other`, and `other` is
    /// what `self.lub(other)` builds, so an agent whose value only grows
    /// by appends can adopt `other` as it is. The default answers `false`,
    /// which leaves callers to the lub.
    fn is_literal_prefix_of(&self, other: &Self) -> bool {
        let _ = other;
        false
    }

    /// Whether this c-struct contains `cmd`.
    fn contains(&self, cmd: &Self::Cmd) -> bool;

    /// Whether `cmd` leaves this c-struct as it is: the value contains it,
    /// or appending it changes nothing (`v • C = v`, as a decided
    /// consensus c-struct ignores every later proposal). A coordinator
    /// stops tracking a proposal the chosen value absorbs.
    ///
    /// Contract: `absorbs` is upward-closed. If `v ⊑ w` and `v` absorbs
    /// `cmd`, then `w` absorbs `cmd` (`w = v • σ`, and a contained or
    /// absorbed command stays so under appends). The coordinator relies on
    /// it: a glb absorbs only what every operand absorbs, so it skips the
    /// glb when no proposal passes that test. Checked by
    /// [`crate::axioms::check_absorbs_upward_closed`].
    ///
    /// The default tries the append on a clone. Representations that can
    /// answer without one override it: sets, sequences and histories
    /// answer [`CStruct::contains`], a single decree answers "decided".
    fn absorbs(&self, cmd: &Self::Cmd) -> bool {
        self.contains(cmd) || self.appended(cmd) == *self
    }

    /// The set of commands this c-struct is constructible from.
    fn commands(&self) -> Vec<Self::Cmd>;

    /// Number of commands contained.
    fn count(&self) -> usize {
        self.commands().len()
    }

    /// Whether this c-struct equals `⊥`.
    fn is_bottom(&self) -> bool {
        *self == Self::bottom()
    }

    // ----- delta shipping and stable-prefix compaction --------------------
    //
    // A c-struct that grows append-only in its representation can ship
    // *suffixes* instead of whole values, and can *truncate* a prefix that
    // the deployment has agreed is stable, bounding both wire bytes and
    // memory. The defaults implement "no delta support": senders fall back
    // to full values and compaction never advances, which is exactly the
    // behaviour of c-structs without a stable sequence representation
    // (sets, single decrees).

    /// Commands truncated below the stable watermark (0 when the value has
    /// never been compacted). The value logically equals the truncated
    /// stable prefix followed by its live representation.
    fn watermark(&self) -> u64 {
        0
    }

    /// Logical command count including the truncated stable prefix.
    fn total_len(&self) -> u64 {
        self.count() as u64
    }

    /// The commands at logical positions `base_len..total_len()`, if this
    /// c-struct has a stable sequence representation reaching back to
    /// `base_len`; `None` when a delta cannot be produced (unsupported
    /// representation, or `base_len` below the watermark).
    fn suffix_from(&self, base_len: u64) -> Option<Vec<Self::Cmd>> {
        let _ = base_len;
        None
    }

    /// Applies a suffix produced by [`CStruct::suffix_from`] against a
    /// base of length `base_len`, returning how many commands were newly
    /// appended (duplicates are ignored).
    ///
    /// # Errors
    ///
    /// Returns [`SuffixGap`] when this value does not cover `base_len`
    /// (it is shorter than the base, or has truncated past it) — the
    /// caller must request a full resync.
    fn apply_suffix(&mut self, base_len: u64, suffix: &[Self::Cmd]) -> Result<u64, SuffixGap> {
        let _ = (base_len, suffix);
        Err(SuffixGap)
    }

    /// [`CStruct::apply_suffix`], kept only when the result's
    /// [`CStruct::digest`] is `digest`: how a receiver extends its base by
    /// a delta in place. The default, like `apply_suffix`'s, supports no
    /// deltas.
    ///
    /// # Errors
    ///
    /// Returns [`SuffixGap`], leaving the value as it was, when
    /// `apply_suffix` would fail or the digest differs.
    fn apply_suffix_checked(
        &mut self,
        base_len: u64,
        suffix: &[Self::Cmd],
        digest: u64,
    ) -> Result<u64, SuffixGap> {
        let _ = (base_len, suffix, digest);
        Err(SuffixGap)
    }

    /// Truncates the given stable commands out of the live representation,
    /// advancing the watermark by `stable.len()`. Returns `false` (and
    /// changes nothing) when the truncation does not apply: a command is
    /// missing, removal would break the partial order, or the
    /// representation does not support compaction.
    fn truncate_stable(&mut self, stable: &[Self::Cmd]) -> bool {
        let _ = stable;
        false
    }

    /// Content digest of the value, for authenticating a delta's base: it
    /// covers the wire encoding of every command from the logical origin:
    /// the truncated stable segments in their agreed order, then the live
    /// commands in representation order. So it does not depend on where
    /// the value was truncated: truncating a stable segment that is a
    /// literal prefix of the live commands leaves it unchanged, and a
    /// delta checks in the receiver's frame whatever the sender's
    /// watermark.
    ///
    /// Identical representations always digest equally; equal values need
    /// not (a history may order commuting commands differently). Each
    /// [`DetHasher`] step is a bijection of the running state, so two
    /// equal-length representations that differ in one command digest
    /// differently.
    ///
    /// The default, for representations that never truncate (their
    /// watermark is 0), encodes the watermark and the commands into one
    /// buffer and hashes it eight bytes at a time. A value without a
    /// sequence representation ([`CStruct::suffix_from`] returns `None`)
    /// digests its logical length in place of the commands — it never
    /// ships deltas, so the digest is never compared.
    fn digest(&self) -> u64 {
        let wm = self.watermark();
        let mut buf = Vec::new();
        wm.encode(&mut buf);
        match self.suffix_from(wm) {
            Some(cmds) => cmds.iter().for_each(|c| c.encode(&mut buf)),
            None => self.total_len().encode(&mut buf),
        }
        let mut h = DetHasher::default();
        h.write(&buf);
        h.finish()
    }

    /// The next stable segment this value can vouch for: up to `max`
    /// commands starting at logical position `from`, or `None` when
    /// `from` is not this value's watermark or the representation does
    /// not support compaction. Used by learners to propose watermarks.
    fn stable_segment(&self, from: u64, max: usize) -> Option<Vec<Self::Cmd>> {
        let _ = (from, max);
        None
    }
}

/// Greatest lower bound of a non-empty collection of c-structs.
///
/// # Panics
///
/// Panics if `items` is empty: the glb of the empty set would be the top
/// element, which c-struct sets do not have. Protocol call sites always
/// pass quorum-derived non-empty sets.
pub fn glb_all<C: CStruct>(items: impl IntoIterator<Item = C>) -> C {
    let mut it = items.into_iter();
    let first = it.next().expect("glb_all requires a non-empty collection");
    it.fold(first, |acc, x| acc.glb(&x))
}

/// Greatest lower bound of a non-empty collection of c-structs, by
/// reference: no input is cloned (only the fold's intermediate results are
/// allocated, which `glb` does anyway). A singleton collection clones its
/// one element.
///
/// This is the hot-path variant used by the agents, which hold their
/// quorum reports in maps and must not deep-copy every c-struct just to
/// fold them.
///
/// # Panics
///
/// Panics if `items` is empty, as [`glb_all`].
pub fn glb_all_ref<'a, C: CStruct>(items: impl IntoIterator<Item = &'a C>) -> C {
    let mut it = items.into_iter();
    let first = it.next().expect("glb_all requires a non-empty collection");
    let mut acc: Option<C> = None;
    for x in it {
        acc = Some(match acc {
            None => first.glb(x),
            Some(a) => a.glb(x),
        });
    }
    acc.unwrap_or_else(|| first.clone())
}

/// Whether every pair in `items` is compatible, by reference and without
/// allocating: the agents' collision scans over the values they hold per
/// round. Pairs are tried in order, and the first incompatible one ends
/// the scan.
///
/// For general c-struct sets pairwise compatibility of a set is implied
/// by CS3 to give a lub for the whole set; this helper checks the
/// pairwise condition directly.
pub fn compatible_all<'a, C, I>(items: I) -> bool
where
    C: CStruct + 'a,
    I: IntoIterator<Item = &'a C>,
    I::IntoIter: Clone,
{
    let mut rest = items.into_iter();
    while let Some(a) = rest.next() {
        if !rest.clone().all(|b| a.compatible(b)) {
            return false;
        }
    }
    true
}

/// Least upper bound of a non-empty collection of c-structs, or `None` if
/// the collection is not compatible.
///
/// # Panics
///
/// Panics if `items` is empty (the lub of the empty set is `⊥`, but an
/// empty call indicates a protocol bug, so it is rejected loudly).
pub fn lub_all<C: CStruct>(items: impl IntoIterator<Item = C>) -> Option<C> {
    let mut it = items.into_iter();
    let first = it.next().expect("lub_all requires a non-empty collection");
    it.try_fold(first, |acc, x| acc.lub(&x))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CmdSet;

    #[test]
    fn glb_all_folds() {
        let mk = |cmds: &[u32]| {
            let mut s = CmdSet::bottom();
            for &c in cmds {
                s.append(c);
            }
            s
        };
        let g = glb_all(vec![mk(&[1, 2, 3]), mk(&[2, 3, 4]), mk(&[2, 5])]);
        assert_eq!(g, mk(&[2]));
        let items = [mk(&[1, 2, 3]), mk(&[2, 3, 4]), mk(&[2, 5])];
        assert_eq!(glb_all_ref(items.iter()), mk(&[2]));
        assert_eq!(glb_all_ref([mk(&[7])].iter()), mk(&[7]));
        let l = lub_all(vec![mk(&[1]), mk(&[2])]).unwrap();
        assert_eq!(l, mk(&[1, 2]));
        assert!(compatible_all(&[mk(&[1]), mk(&[2]), mk(&[3])]));
        let d = crate::SingleDecree::<u32>::decided;
        assert!(compatible_all(&[d(1), CStruct::bottom(), d(1)]));
        assert!(!compatible_all(&[d(1), d(1), d(2)]));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn glb_all_empty_panics() {
        let _ = glb_all(Vec::<CmdSet<u32>>::new());
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn lub_all_empty_panics() {
        let _ = lub_all(Vec::<CmdSet<u32>>::new());
    }

    #[test]
    fn appended_is_pure() {
        let a = CmdSet::<u32>::bottom();
        let b = a.appended(&7);
        assert!(a.is_bottom());
        assert!(!b.is_bottom());
        assert!(b.contains(&7));
        assert_eq!(b.count(), 1);
    }
}
