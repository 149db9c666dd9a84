//! Command histories: the Generic Broadcast c-struct (§3.3 of the paper).
//!
//! A *command history* is a partially ordered set of commands in which every
//! pair of *conflicting* commands is ordered. Following §3.3.1, a history is
//! represented as a sequence: the partial order is the transitive closure of
//! the edges `a ≺ b` for conflicting `a # b` with `a` occurring before `b`
//! in the sequence. Several sequences may represent the same poset (they
//! differ only in the order of commuting commands); [`CommandHistory`]'s
//! `Eq` implementation compares the *posets*, not the sequences.
//!
//! The lattice operators are the paper's: `Prefix` (pairwise glb),
//! `AreCompatible`, and the compatible-merge lub — but unlike the literal
//! transcription retained as [`crate::RefCommandHistory`], this
//! implementation is *indexed and incrementally maintained*:
//!
//! * a membership index makes `contains`/`index_of`/`append` O(1) amortized
//!   (the reference scans the sequence);
//! * a per-command *conflict adjacency* — each position stores the earlier
//!   positions it conflicts with, discovered through the
//!   [`Conflict::conflict_keys`] locality hint — turns the O(n²) pairwise
//!   checks of `eq`/`le` and the O(n³) clone-and-`remove(0)` loops of
//!   `prefix`/`compatible` into single front-pointer passes costing
//!   O(n + conflict-edges).
//!
//! Histories are *windowed*, not grow-forever: a history is logically a
//! truncated **stable prefix** (identified by its length, the *watermark*,
//! and by its digest chain) followed by the live representation. The
//! deployment's compaction protocol agrees on stable segments (commands
//! learned by a learner quorum); [`CommandHistory::truncate_stable`]
//! removes such a segment from the live window and advances the watermark,
//! and [`CommandHistory::suffix_from`] / [`CommandHistory::apply_suffix`]
//! ship increments instead of whole values. All lattice operators remain
//! correct *above the watermark*: they require both operands to carry the
//! same watermark (the agents normalize values at ingestion) and then
//! operate on the live windows, which is equivalent to operating on the
//! full values because every participant's value extends the same stable
//! prefix. Within one value, positions are stable: the live window only
//! ever grows between truncations, and truncation rebuilds all indexes.
//! Every operator is a behavioural twin of the reference implementation;
//! `tests/prop_history_diff.rs` pins the two against each other on random
//! conflict relations, including across truncation.

use crate::traits::{CStruct, Command, SuffixGap};
use mcpaxos_actor::wire::{Wire, WireError};
use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

/// A deterministic, seed-free hasher for the history's internal indexes,
/// so identical runs build identical tables regardless of `RandomState`'s
/// per-process keys. Word-at-a-time multiply-rotate mixing (the FxHash
/// construction): command lookups sit on the hot path of every lattice
/// operator, so one multiply per integer write matters. The maps are only
/// ever *probed*, never iterated, so hash quality only affects speed, not
/// observable behaviour.
///
/// Each step (rotate, xor in a word, multiply by an odd constant) is a
/// bijection of the running state, so two equal-length inputs that differ
/// in one word always hash differently. Exported for the agents' own
/// probe-only tables and their payload digest.
#[derive(Default)]
pub struct DetHasher(u64);

impl DetHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for DetHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf) | ((rest.len() as u64) << 56));
        }
    }
    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }
    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(u64::from(v));
    }
    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }
    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

type DetState = BuildHasherDefault<DetHasher>;

thread_local! {
    /// Scratch for one command's wire encoding while it is digested.
    static DIGEST_BUF: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// One step of a history's digest chain: the running state absorbs the
/// 64-bit [`DetHasher`] hash of `cmd`'s wire encoding. The chain starts at
/// 0 at the logical origin, before any command, truncated or live.
#[inline(never)]
fn digest_step<C: Wire>(state: u64, cmd: &C) -> u64 {
    let word = DIGEST_BUF.with_borrow_mut(|buf| {
        buf.clear();
        cmd.encode(buf);
        let mut word = DetHasher::default();
        word.write(buf);
        word.finish()
    });
    let mut chain = DetHasher(state);
    chain.add(word);
    chain.0
}

/// Conflict-locality hint: the set of *conflict keys* a command declares
/// (see [`Conflict::conflict_keys`]).
///
/// Two commands may conflict only if their key sets intersect, or if either
/// declares [`ConflictKeys::all`]. At most two keys fit inline (enough for
/// single-key operations and two-account transfers); commands touching more
/// state than that declare `all()` and are checked against everything —
/// always sound, merely unindexed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConflictKeys {
    keys: [u64; 2],
    len: u8,
    all: bool,
}

impl ConflictKeys {
    /// The command may conflict with anything (e.g. an audit or barrier);
    /// also the safe default for relations without a locality structure.
    pub const fn all() -> Self {
        ConflictKeys {
            keys: [0; 2],
            len: 0,
            all: true,
        }
    }

    /// The command conflicts with nothing (fully commuting commands).
    pub const fn none() -> Self {
        ConflictKeys {
            keys: [0; 2],
            len: 0,
            all: false,
        }
    }

    /// The command may conflict only with commands sharing key `k`.
    pub const fn one(k: u64) -> Self {
        ConflictKeys {
            keys: [k, 0],
            len: 1,
            all: false,
        }
    }

    /// The command may conflict only with commands sharing `a` or `b`.
    pub const fn two(a: u64, b: u64) -> Self {
        if a == b {
            Self::one(a)
        } else {
            ConflictKeys {
                keys: [a, b],
                len: 2,
                all: false,
            }
        }
    }

    /// Whether this is the universal hint.
    pub fn is_all(&self) -> bool {
        self.all
    }

    /// The declared keys (empty for `all()` and `none()`).
    pub fn as_slice(&self) -> &[u64] {
        &self.keys[..usize::from(self.len)]
    }
}

/// The conflict relation `#` over commands.
///
/// Two commands conflict when their relative execution order matters (e.g.
/// two writes to the same key). The relation must be symmetric; it need not
/// be reflexive, although in practice a command usually conflicts with
/// itself. Implementors carry whatever data the decision needs (keys,
/// tables, colours, ...).
pub trait Conflict {
    /// Whether `self` and `other` do **not** commute.
    fn conflicts(&self, other: &Self) -> bool;

    /// Conservative locality hint for [`Conflict::conflicts`], used by
    /// [`CommandHistory`] to index the conflict structure.
    ///
    /// The contract: if `a.conflicts(&b)`, then either `a` or `b` declares
    /// [`ConflictKeys::all`], or their key sets intersect. Keys must be a
    /// pure function of the command (equal commands declare equal keys).
    /// Declaring *too many* keys (or `all()`, the default) only costs
    /// speed; declaring too few silently drops conflict edges and breaks
    /// safety, so only override with the exact locality of your relation —
    /// e.g. the touched key for a KV store, the two accounts of a
    /// transfer.
    fn conflict_keys(&self) -> ConflictKeys {
        ConflictKeys::all()
    }
}

/// A key bucket of the conflict index. The overwhelmingly common case —
/// one position per key (cold keys in a keyed workload) — stays inline;
/// only keys actually shared by several commands allocate.
#[derive(Clone, Debug)]
enum Bucket {
    One(u32),
    Many(Vec<u32>),
}

impl Bucket {
    fn push(&mut self, j: u32) {
        match self {
            Bucket::One(a) => *self = Bucket::Many(vec![*a, j]),
            Bucket::Many(v) => v.push(j),
        }
    }

    fn as_slice(&self) -> &[u32] {
        match self {
            Bucket::One(a) => std::slice::from_ref(a),
            Bucket::Many(v) => v,
        }
    }
}

/// A command history: a poset of commands represented as a sequence
/// (§3.3.1), indexed for near-linear lattice operators.
///
/// The conflict adjacency is stored flat (CSR): `pred_edges[.. pred_off[i]]`
/// rather than one heap list per position, so building, cloning and
/// walking a history costs a handful of allocations total, not O(n).
/// Positions are `u32` — a history holding four billion commands has
/// bigger problems than this index.
#[derive(Debug)]
pub struct CommandHistory<C> {
    /// Number of commands truncated below the stable watermark. The
    /// history logically equals `<stable prefix of trunc commands> ++ seq`
    /// but only `seq` is stored; binary operators require equal `trunc`
    /// on both operands (see module docs).
    trunc: u64,
    /// The digest chain through the watermark: its state after the
    /// truncated commands, in the order they were truncated (0 at
    /// watermark 0). `digest` continues it over `seq`, so truncating a
    /// literal prefix leaves a value's digest unchanged.
    stable_digest: u64,
    seq: Vec<C>,
    /// Membership index: command → its position in `seq`.
    pos: HashMap<C, u32, DetState>,
    /// Conflict-key index: key → positions declaring it, ascending.
    by_key: HashMap<u64, Bucket, DetState>,
    /// Positions of commands declaring [`ConflictKeys::all`].
    wild: Vec<u32>,
    /// CSR offsets: position `i`'s conflict predecessors end at
    /// `pred_off[i]` (and start where `i − 1`'s ended).
    pred_off: Vec<u32>,
    /// Flattened adjacency: for each position, the earlier positions it
    /// conflicts with — the generating edges of the partial order. Within
    /// one position's range the entries are unordered (consumers treat
    /// them as a set).
    pred_edges: Vec<u32>,
    /// The [`CStruct::digest`] chain over `seq` from `stable_digest`, or 0
    /// when not known. Appends extend a known chain by one step; every other
    /// construction starts unknown, and the first `digest` call fills it.
    /// Atomic so a value shared across threads can fill it through `&self`.
    digest_memo: AtomicU64,
}

impl<C> Default for CommandHistory<C> {
    fn default() -> Self {
        CommandHistory {
            trunc: 0,
            stable_digest: 0,
            seq: Vec::new(),
            pos: HashMap::default(),
            by_key: HashMap::default(),
            wild: Vec::new(),
            pred_off: Vec::new(),
            pred_edges: Vec::new(),
            digest_memo: AtomicU64::new(0),
        }
    }
}

impl<C: Clone> Clone for CommandHistory<C> {
    #[inline]
    fn clone(&self) -> Self {
        CommandHistory {
            trunc: self.trunc,
            stable_digest: self.stable_digest,
            seq: self.seq.clone(),
            pos: self.pos.clone(),
            by_key: self.by_key.clone(),
            wild: self.wild.clone(),
            pred_off: self.pred_off.clone(),
            pred_edges: self.pred_edges.clone(),
            digest_memo: AtomicU64::new(self.digest_memo.load(Ordering::Relaxed)),
        }
    }
}

impl<C: Conflict + Eq + Hash + Clone> CommandHistory<C> {
    /// Creates the empty history (`⊥`).
    pub fn new() -> Self {
        Self::default()
    }

    /// A linear extension of the history: the representing sequence itself.
    ///
    /// Conflicting commands appear in their partial-order direction;
    /// commuting commands appear in an arbitrary (but deterministic for
    /// this value) order. Replicas executing this sequence apply
    /// conflicting commands in the agreed order, which is all generic
    /// broadcast promises.
    pub fn as_slice(&self) -> &[C] {
        &self.seq
    }

    /// Iterates over a linear extension of the history.
    pub fn iter(&self) -> impl Iterator<Item = &C> {
        self.seq.iter()
    }

    /// Number of conflict edges the index currently stores; exposed for
    /// benchmarks and diagnostics (operator cost is O(n + edges)).
    pub fn conflict_edges(&self) -> usize {
        self.pred_edges.len()
    }

    /// Number of commands in the live window (excluding the truncated
    /// stable prefix); the memory the value actually occupies.
    pub fn live_len(&self) -> usize {
        self.seq.len()
    }

    /// Binary operators are only defined above a *common* watermark: both
    /// operands must extend the same truncated stable prefix. The agents
    /// maintain this invariant by normalizing every ingested value; a
    /// violation here is a protocol-layer bug, so fail loudly.
    #[track_caller]
    fn assert_aligned(&self, other: &Self, op: &str) {
        assert_eq!(
            self.trunc, other.trunc,
            "CommandHistory::{op} on values with different watermarks \
             ({} vs {}): normalize to a common watermark before combining",
            self.trunc, other.trunc
        );
    }

    /// Position `i`'s conflict predecessors (unordered).
    #[inline]
    fn preds_of(&self, i: usize) -> &[u32] {
        let start = if i == 0 {
            0
        } else {
            self.pred_off[i - 1] as usize
        };
        &self.pred_edges[start..self.pred_off[i] as usize]
    }

    /// Whether `a` precedes `b` in the history's partial order, i.e.
    /// whether there is a chain of conflicting commands from `a` to `b`
    /// with increasing sequence positions. Only positions in `(ia..=ib]`
    /// are visited, through the conflict adjacency.
    pub fn orders_before(&self, a: &C, b: &C) -> bool {
        let (ia, ib) = match (self.index_of(a), self.index_of(b)) {
            (Some(x), Some(y)) => (x, y),
            _ => return false,
        };
        if ia >= ib {
            return false;
        }
        // Transitive closure over the window: reached[k - ia] is true if
        // seq[k] is ordered after seq[ia].
        let mut reached = vec![false; ib - ia + 1];
        reached[0] = true;
        for k in ia + 1..=ib {
            if self
                .preds_of(k)
                .iter()
                .any(|&j| j as usize >= ia && reached[j as usize - ia])
            {
                reached[k - ia] = true;
            }
        }
        reached[ib - ia]
    }

    fn index_of(&self, c: &C) -> Option<usize> {
        self.pos.get(c).map(|&j| j as usize)
    }

    /// Whether any position satisfying `keep` both *may* conflict with
    /// `cmd` per the key hint and actually conflicts. Probes the key
    /// buckets and the wildcard list without materializing a candidate
    /// set (or every position, if `cmd` itself is a wildcard).
    fn conflicts_any(&self, cmd: &C, mut keep: impl FnMut(usize) -> bool) -> bool {
        let ck = cmd.conflict_keys();
        if ck.is_all() {
            return (0..self.seq.len()).any(|j| keep(j) && self.seq[j].conflicts(cmd));
        }
        for k in ck.as_slice() {
            if let Some(bucket) = self.by_key.get(k) {
                if bucket
                    .as_slice()
                    .iter()
                    .any(|&j| keep(j as usize) && self.seq[j as usize].conflicts(cmd))
                {
                    return true;
                }
            }
        }
        self.wild
            .iter()
            .any(|&j| keep(j as usize) && self.seq[j as usize].conflicts(cmd))
    }

    /// Appends `cmd` unconditionally (caller has checked membership),
    /// maintaining all indexes: O(candidate positions) ≈ O(conflict
    /// degree). Leaves the digest memo alone, so only a history whose memo
    /// is unknown may call it directly; the others go through
    /// `push_digested`.
    ///
    /// `preds` entries are not ordered; every consumer treats the list as
    /// a set. The only possible duplicates — a predecessor sharing both
    /// keys of a two-key command — are filtered so `conflict_edges` stays
    /// exact.
    fn push_new(&mut self, cmd: C) {
        let idx = self.seq.len() as u32;
        let ck = cmd.conflict_keys();
        let edge_start = self.pred_edges.len();
        if ck.is_all() {
            for (j, x) in self.seq.iter().enumerate() {
                if x.conflicts(&cmd) {
                    self.pred_edges.push(j as u32);
                }
            }
        } else {
            for (ki, k) in ck.as_slice().iter().enumerate() {
                if let Some(bucket) = self.by_key.get(k) {
                    for &j in bucket.as_slice() {
                        // Only a second key bucket can repeat a position.
                        let dup = ki > 0 && self.pred_edges[edge_start..].contains(&j);
                        if !dup && self.seq[j as usize].conflicts(&cmd) {
                            self.pred_edges.push(j);
                        }
                    }
                }
            }
            // Wildcard commands live only in `wild`: never a duplicate.
            for &j in &self.wild {
                if self.seq[j as usize].conflicts(&cmd) {
                    self.pred_edges.push(j);
                }
            }
        }
        self.pred_off.push(self.pred_edges.len() as u32);
        if ck.is_all() {
            self.wild.push(idx);
        } else {
            for &k in ck.as_slice() {
                match self.by_key.entry(k) {
                    std::collections::hash_map::Entry::Occupied(mut e) => e.get_mut().push(idx),
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(Bucket::One(idx));
                    }
                }
            }
        }
        self.pos.insert(cmd.clone(), idx);
        self.seq.push(cmd);
    }

    /// Builds the history whose sequence is `src`'s restricted to the
    /// ascending positions `kept`, reusing `src`'s conflict adjacency
    /// (the conflict relation is pairwise, so the kept pairs' edges are
    /// exactly `src`'s edges among kept positions) — no conflict checks,
    /// no candidate scans.
    fn from_subsequence(src: &Self, kept: &[usize]) -> Self {
        let mut renumber = vec![u32::MAX; src.seq.len()];
        for (ni, &oj) in kept.iter().enumerate() {
            renumber[oj] = ni as u32;
        }
        let mut out = Self {
            trunc: src.trunc,
            stable_digest: src.stable_digest,
            ..Self::default()
        };
        out.seq.reserve(kept.len());
        out.pred_off.reserve(kept.len());
        out.pos = HashMap::with_capacity_and_hasher(kept.len(), DetState::default());
        out.by_key = HashMap::with_capacity_and_hasher(kept.len(), DetState::default());
        for &oj in kept {
            let ni = out.seq.len() as u32;
            let cmd = src.seq[oj].clone();
            let ck = cmd.conflict_keys();
            if ck.is_all() {
                out.wild.push(ni);
            } else {
                for &k in ck.as_slice() {
                    match out.by_key.entry(k) {
                        std::collections::hash_map::Entry::Occupied(mut e) => e.get_mut().push(ni),
                        std::collections::hash_map::Entry::Vacant(e) => {
                            e.insert(Bucket::One(ni));
                        }
                    }
                }
            }
            out.pred_edges.extend(
                src.preds_of(oj)
                    .iter()
                    .filter(|&&p| renumber[p as usize] != u32::MAX)
                    .map(|&p| renumber[p as usize]),
            );
            out.pred_off.push(out.pred_edges.len() as u32);
            out.pos.insert(cmd.clone(), ni);
            out.seq.push(cmd);
        }
        out
    }

    /// Scans `i` for `head` among its non-removed positions, mirroring the
    /// reference `scan_for`: `Ok(j)` if `head` occurs (at `j`) with no
    /// remaining conflicting command before it, `Err(true)` if a remaining
    /// conflicting command shields it (or `head` does not occur but
    /// conflicts with something remaining), `Err(false)` if `head` neither
    /// occurs nor conflicts.
    fn scan_for(head: &C, i: &Self, removed_i: &[bool]) -> Result<usize, bool> {
        if let Some(&j) = i.pos.get(head) {
            let j = j as usize;
            if !removed_i[j] {
                return if i.preds_of(j).iter().any(|&p| !removed_i[p as usize]) {
                    Err(true)
                } else {
                    Ok(j)
                };
            }
        }
        // Head is not in the remaining i: does anything remaining
        // conflict with it?
        Err(i.conflicts_any(head, |j| !removed_i[j]))
    }

    /// The paper's `Prefix(H, I)` operator: the glb of two histories.
    ///
    /// Single forward pass over `h` with tombstones instead of the
    /// reference's clone-and-`remove(0)` loops. A failed head "dies", and
    /// death propagates forward through conflict edges — equivalent to the
    /// reference's repeated `Descendants` stripping, because an element
    /// conflicting with a dead predecessor was necessarily still present
    /// when that predecessor died (consumption only happens at the front,
    /// at positions before the dead element).
    fn prefix(h: &Self, i: &Self) -> Vec<usize> {
        let mut kept = Vec::new();
        let mut dead_h = vec![false; h.seq.len()];
        let mut removed_i = vec![false; i.seq.len()];
        let mut remaining_i = i.seq.len();
        for ph in 0..h.seq.len() {
            if remaining_i == 0 {
                break;
            }
            if h.preds_of(ph).iter().any(|&q| dead_h[q as usize]) {
                dead_h[ph] = true; // transitively ordered after a dead head
                continue;
            }
            let head = &h.seq[ph];
            match Self::scan_for(head, i, &removed_i) {
                Ok(j) => {
                    // Head is in the common prefix.
                    kept.push(ph);
                    removed_i[j] = true;
                    remaining_i -= 1;
                }
                Err(_) => {
                    // Head (and everything ordered after it) is not common.
                    dead_h[ph] = true;
                }
            }
        }
        kept
    }

    /// The paper's `AreCompatible(H, I, A)` operator, with the skipped-set
    /// accumulator `A` realised as a bitmap over `h`'s positions and the
    /// "conflicts with a skipped command" test answered by the adjacency.
    fn compatible_impl(h: &Self, i: &Self) -> bool {
        let mut removed_i = vec![false; i.seq.len()];
        let mut remaining_i = i.seq.len();
        let mut skipped_h = vec![false; h.seq.len()];
        for ph in 0..h.seq.len() {
            if remaining_i == 0 {
                break;
            }
            let head = &h.seq[ph];
            match Self::scan_for(head, i, &removed_i) {
                Err(true) => return false, // ordered differently in h and i
                Ok(j) => {
                    // Common command: it must not conflict with an h-only
                    // command that precedes it in h (that command would
                    // have to both precede and follow it in any upper
                    // bound).
                    if h.preds_of(ph).iter().any(|&q| skipped_h[q as usize]) {
                        return false;
                    }
                    removed_i[j] = true;
                    remaining_i -= 1;
                }
                Err(false) => skipped_h[ph] = true,
            }
        }
        true
    }
}

impl<C: Conflict + Eq + Hash + Clone> PartialEq for CommandHistory<C> {
    /// Poset equality: same command set and the same orientation for every
    /// conflicting pair. (The partial order is generated by conflict edges,
    /// so agreeing on edge orientations implies equal transitive closures.)
    /// O(n + conflict-edges) through the indexes.
    fn eq(&self, other: &Self) -> bool {
        self.assert_aligned(other, "eq");
        if self.seq.len() != other.seq.len() {
            return false;
        }
        // Same elements, noting where each of ours sits in `other`.
        let mut other_pos = vec![0u32; self.seq.len()];
        for (idx, x) in self.seq.iter().enumerate() {
            match other.pos.get(x) {
                Some(&j) => other_pos[idx] = j,
                None => return false,
            }
        }
        // Same orientation for every conflicting pair: the pairs are
        // exactly our adjacency edges (equal command sets have equal edge
        // sets).
        for ib in 0..self.seq.len() {
            for &ia in self.preds_of(ib) {
                if other_pos[ia as usize] > other_pos[ib] {
                    return false;
                }
            }
        }
        true
    }
}

impl<C: Conflict + Eq + Hash + Clone> Eq for CommandHistory<C> {}

impl<C: Conflict + Eq + Hash + Clone> FromIterator<C> for CommandHistory<C> {
    fn from_iter<I: IntoIterator<Item = C>>(iter: I) -> Self {
        let mut h = CommandHistory::new();
        for c in iter {
            if !h.pos.contains_key(&c) {
                h.push_new(c);
            }
        }
        h
    }
}

impl<C: Command + Conflict> CommandHistory<C> {
    /// [`Self::push_new`], extending a known digest memo by `cmd`'s step.
    #[inline]
    fn push_digested(&mut self, cmd: C) {
        let memo = self.digest_memo.get_mut();
        if *memo != 0 {
            *memo = digest_step(*memo, &cmd);
        }
        self.push_new(cmd);
    }
}

impl<C: Command + Conflict> CStruct for CommandHistory<C> {
    type Cmd = C;

    fn bottom() -> Self {
        Self::new()
    }

    /// The chain through `watermark` is not known here; it starts at 0.
    fn bottom_at(watermark: u64) -> Self {
        let mut h = Self::new();
        h.trunc = watermark;
        h
    }

    fn append(&mut self, cmd: C) {
        if !self.pos.contains_key(&cmd) {
            self.push_digested(cmd);
        }
    }

    fn append_all<I: IntoIterator<Item = C>>(&mut self, cmds: I) {
        // Batched 2a waves land here k commands at a time: reserve the
        // sequence/offset tables once instead of growing per command. The
        // per-command path is unchanged, so the result is identical to k
        // sequential appends.
        let it = cmds.into_iter();
        let (lo, _) = it.size_hint();
        self.seq.reserve(lo);
        self.pred_off.reserve(lo);
        for c in it {
            self.append(c);
        }
    }

    fn le(&self, other: &Self) -> bool {
        self.assert_aligned(other, "le");
        // No hashing, no allocation for the shape most chains of agents'
        // values take.
        if self.is_literal_prefix_of(other) {
            return true;
        }
        // self ⊑ other iff other = self • σ for some σ, i.e.:
        // (1) every command of self occurs in other;
        // (2) conflicting pairs within self keep their orientation in other;
        // (3) every other-only command conflicting with a self command is
        //     ordered after it in other (appends go at the end).
        let mut other_pos = vec![0u32; self.seq.len()];
        for (idx, x) in self.seq.iter().enumerate() {
            match other.pos.get(x) {
                Some(&j) => other_pos[idx] = j,
                None => return false,
            }
        }
        for ib in 0..self.seq.len() {
            for &ia in self.preds_of(ib) {
                if other_pos[ia as usize] > other_pos[ib] {
                    return false;
                }
            }
        }
        // (3), read from the self side: a violation is an other-only
        // command x preceding some y ∈ self in other with x # y — i.e. a
        // conflict-predecessor of y (in other) that self does not contain.
        for &jy in &other_pos {
            for &p in other.preds_of(jy as usize) {
                if !self.pos.contains_key(&other.seq[p as usize]) {
                    return false;
                }
            }
        }
        true
    }

    fn glb(&self, other: &Self) -> Self {
        self.assert_aligned(other, "glb");
        Self::from_subsequence(self, &Self::prefix(self, other))
    }

    fn lub(&self, other: &Self) -> Option<Self> {
        self.assert_aligned(other, "lub");
        if Self::compatible_impl(self, other) {
            // h's sequence followed by the commands of `other` not in h,
            // in `other`'s order; self's indexes are reused wholesale.
            let mut out = self.clone();
            for x in &other.seq {
                if !out.pos.contains_key(x) {
                    out.push_digested(x.clone());
                }
            }
            Some(out)
        } else {
            None
        }
    }

    fn compatible(&self, other: &Self) -> bool {
        self.assert_aligned(other, "compatible");
        Self::compatible_impl(self, other)
    }

    fn is_literal_prefix_of(&self, other: &Self) -> bool {
        self.trunc == other.trunc && other.seq.starts_with(&self.seq)
    }

    fn contains(&self, cmd: &C) -> bool {
        self.pos.contains_key(cmd)
    }

    fn absorbs(&self, cmd: &C) -> bool {
        self.contains(cmd)
    }

    fn commands(&self) -> Vec<C> {
        self.seq.clone()
    }

    fn count(&self) -> usize {
        self.seq.len()
    }

    fn is_bottom(&self) -> bool {
        // A truncated-empty history is not ⊥: it still extends the stable
        // prefix below its watermark.
        self.seq.is_empty() && self.trunc == 0
    }

    fn watermark(&self) -> u64 {
        self.trunc
    }

    fn total_len(&self) -> u64 {
        self.trunc + self.seq.len() as u64
    }

    fn suffix_from(&self, base_len: u64) -> Option<Vec<C>> {
        if base_len < self.trunc || base_len > CStruct::total_len(self) {
            return None;
        }
        Some(self.seq[(base_len - self.trunc) as usize..].to_vec())
    }

    fn apply_suffix(&mut self, base_len: u64, suffix: &[C]) -> Result<u64, SuffixGap> {
        if base_len < self.trunc || base_len > CStruct::total_len(self) {
            return Err(SuffixGap);
        }
        // Plain deduplicating appends: the overlap (positions the receiver
        // already holds, common under duplicated delivery) is skipped by
        // the membership index, commands beyond the local tail extend it.
        let mut appended = 0u64;
        for c in suffix {
            if !self.pos.contains_key(c) {
                self.push_digested(c.clone());
                appended += 1;
            }
        }
        Ok(appended)
    }

    /// Digests the commands the suffix would append before appending
    /// them, so a rejected suffix costs no copy and leaves `self` as it
    /// was.
    fn apply_suffix_checked(
        &mut self,
        base_len: u64,
        suffix: &[C],
        digest: u64,
    ) -> Result<u64, SuffixGap> {
        if base_len < self.trunc || base_len > CStruct::total_len(self) {
            return Err(SuffixGap);
        }
        let fresh = suffix.iter().filter(|c| !self.pos.contains_key(*c));
        if fresh.fold(self.digest(), digest_step) != digest {
            return Err(SuffixGap);
        }
        let mut appended = 0u64;
        for c in suffix {
            if !self.pos.contains_key(c) {
                self.push_new(c.clone());
                appended += 1;
            }
        }
        // The check above stepped the chain over what was appended.
        *self.digest_memo.get_mut() = digest;
        Ok(appended)
    }

    fn truncate_stable(&mut self, stable: &[C]) -> bool {
        if stable.is_empty() {
            return true;
        }
        // Every stable command must be present, exactly once.
        let mut is_stable = vec![false; self.seq.len()];
        for c in stable {
            match self.pos.get(c) {
                Some(&j) if !is_stable[j as usize] => is_stable[j as usize] = true,
                _ => return false,
            }
        }
        // Removal must preserve the partial order above the watermark: the
        // stable set has to be downward-closed under conflict edges (a kept
        // command ordered *before* a removed one would lose its
        // orientation; stable prefixes, being glbs every value extends,
        // always satisfy this).
        for i in 0..self.seq.len() {
            if is_stable[i] && self.preds_of(i).iter().any(|&p| !is_stable[p as usize]) {
                return false;
            }
        }
        let kept: Vec<usize> = (0..self.seq.len()).filter(|&i| !is_stable[i]).collect();
        let mut out = Self::from_subsequence(self, &kept);
        out.trunc = self.trunc + stable.len() as u64;
        out.stable_digest = stable.iter().fold(self.stable_digest, digest_step);
        *self = out;
        true
    }

    fn stable_segment(&self, from: u64, max: usize) -> Option<Vec<C>> {
        if from != self.trunc {
            return None;
        }
        let k = max.min(self.seq.len());
        if k == 0 {
            return None;
        }
        Some(self.seq[..k].to_vec())
    }

    /// The chain from the logical origin (see [`CStruct::digest`] for what
    /// it guarantees): the stable prefix's chain, carried through the
    /// watermark, then one step per live command absorbing the 64-bit
    /// `DetHasher` hash of its wire encoding. Memoized, so after a
    /// k-command append to a value whose digest was known it costs k
    /// steps, not the window.
    fn digest(&self) -> u64 {
        let memo = self.digest_memo.load(Ordering::Relaxed);
        if memo != 0 {
            return memo;
        }
        let d = self.seq.iter().fold(self.stable_digest, digest_step);
        self.digest_memo.store(d, Ordering::Relaxed);
        d
    }
}

impl<C: Wire + Conflict + Eq + Hash + Clone> Wire for CommandHistory<C> {
    /// The watermark, then the stable prefix's chain unless the watermark
    /// is 0 (where it is 0), then the live commands.
    fn encode(&self, out: &mut Vec<u8>) {
        self.trunc.encode(out);
        if self.trunc != 0 {
            self.stable_digest.encode(out);
        }
        self.seq.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        // Rebuild the indexes from the decoded sequence (deduplicating, as
        // `append` would); the watermark and its chain travel with the
        // value so a receiver knows which stable prefix it extends.
        let trunc = u64::decode(input)?;
        let stable_digest = if trunc == 0 { 0 } else { u64::decode(input)? };
        let mut h: Self = Vec::<C>::decode(input)?.into_iter().collect();
        if trunc.checked_add(h.seq.len() as u64).is_none() {
            return Err(WireError {
                what: "history longer than u64",
            });
        }
        h.trunc = trunc;
        h.stable_digest = stable_digest;
        Ok(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcpaxos_actor::wire::{from_bytes, to_bytes};

    /// Test command: conflicts iff same key; payload distinguishes them.
    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    struct K(u32, u32); // (key, uid)

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
            Ok(K(u32::decode(input)?, u32::decode(input)?))
        }
    }

    fn h(cmds: &[K]) -> CommandHistory<K> {
        cmds.iter().cloned().collect()
    }

    #[test]
    fn poset_equality_ignores_commuting_order() {
        // Keys 1 and 2 commute, so <a,b> == <b,a>.
        let a = K(1, 0);
        let b = K(2, 0);
        assert_eq!(h(&[a.clone(), b.clone()]), h(&[b.clone(), a.clone()]));
        // Same key: order matters.
        let c = K(1, 1);
        assert_ne!(h(&[a.clone(), c.clone()]), h(&[c, a]));
    }

    #[test]
    fn le_matches_append_semantics() {
        let a = K(1, 0);
        let b = K(2, 0);
        let c = K(1, 1); // conflicts with a
        let base = h(std::slice::from_ref(&a));
        // base • b and base • c both extend base.
        assert!(base.le(&h(&[a.clone(), b.clone()])));
        assert!(base.le(&h(&[a.clone(), c.clone()])));
        // <c, a> does not extend <a>: c precedes the conflicting a.
        assert!(!base.le(&h(&[c.clone(), a.clone()])));
        // Commuting reorder still extends: <b, a> extends <a>.
        assert!(base.le(&h(&[b, a.clone()])));
        // Missing element: <c> does not extend <a>.
        assert!(!base.le(&h(&[c])));
    }

    #[test]
    fn glb_of_diverging_histories() {
        let a = K(1, 0);
        let x = K(1, 1);
        let y = K(1, 2);
        // Both histories start with a, then order x and y differently.
        let h1 = h(&[a.clone(), x.clone(), y.clone()]);
        let h2 = h(&[a.clone(), y.clone(), x.clone()]);
        assert_eq!(h1.glb(&h2), h(std::slice::from_ref(&a)));
        assert!(!h1.compatible(&h2));
        assert_eq!(h1.lub(&h2), None);
        // Diverging on commuting commands: fully compatible.
        let b = K(2, 0);
        let h3 = h(&[a.clone(), b.clone()]);
        let h4 = h(&[b.clone(), a.clone()]);
        assert!(h3.compatible(&h4));
        assert_eq!(h3.lub(&h4).unwrap(), h3);
        assert_eq!(h3.glb(&h4), h3);
    }

    #[test]
    fn glb_is_lower_bound() {
        let a = K(1, 0);
        let b = K(2, 0);
        let x = K(1, 1);
        let h1 = h(&[a.clone(), b.clone(), x.clone()]);
        let h2 = h(&[b.clone(), a.clone()]);
        let g = h1.glb(&h2);
        assert!(g.le(&h1));
        assert!(g.le(&h2));
        assert_eq!(g, h(&[a, b]));
    }

    #[test]
    fn lub_is_upper_bound_of_compatible() {
        let a = K(1, 0);
        let b = K(2, 0);
        let c = K(3, 0);
        let h1 = h(&[a.clone(), b.clone()]);
        let h2 = h(&[a.clone(), c.clone()]);
        let l = h1.lub(&h2).unwrap();
        assert!(h1.le(&l));
        assert!(h2.le(&l));
        assert_eq!(l.count(), 3);
    }

    #[test]
    fn incompatibility_via_skipped_ancestor() {
        // h1 = <x, c> where x # c; h2 = <c>. Any upper bound of h1 orders
        // x before c, but extending h2 with x puts x after c.
        let x = K(5, 0);
        let c = K(5, 1);
        let h1 = h(&[x.clone(), c.clone()]);
        let h2 = h(std::slice::from_ref(&c));
        assert!(!h1.compatible(&h2));
        assert!(!h2.compatible(&h1));
        assert_eq!(h1.glb(&h2), CommandHistory::bottom());
    }

    #[test]
    fn orders_before_is_transitive_closure() {
        // a(k1) # b(k1), b conflicts c? b is k1, c is k2 — no. Chain via
        // same-key conflicts: a(1) -> x(1) -> nothing.
        let a = K(1, 0);
        let x = K(1, 1);
        let b = K(2, 0);
        let hist = h(&[a.clone(), x.clone(), b.clone()]);
        assert!(hist.orders_before(&a, &x));
        assert!(!hist.orders_before(&x, &a));
        assert!(!hist.orders_before(&a, &b)); // commuting: unordered

        // Transitivity through a middle command conflicting with both.
        #[derive(Clone, Debug, PartialEq, Eq, Hash)]
        struct Chain(u32);
        impl Conflict for Chain {
            fn conflicts(&self, other: &Self) -> bool {
                self.0.abs_diff(other.0) <= 1
            }
            fn conflict_keys(&self) -> ConflictKeys {
                // |a − b| ≤ 1 ⟹ {a, a+1} ∩ {b, b+1} ≠ ∅.
                ConflictKeys::two(u64::from(self.0), u64::from(self.0) + 1)
            }
        }
        impl Wire for Chain {
            fn encode(&self, out: &mut Vec<u8>) {
                self.0.encode(out);
            }
            fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
                Ok(Chain(u32::decode(input)?))
            }
        }
        let hist: CommandHistory<Chain> = [Chain(0), Chain(1), Chain(2)].into_iter().collect();
        // 0 # 1, 1 # 2, but 0 and 2 do not conflict directly: still ordered
        // through 1.
        assert!(hist.orders_before(&Chain(0), &Chain(2)));
        assert_eq!(hist.conflict_edges(), 2);
    }

    #[test]
    fn append_dedups() {
        let mut hist = h(&[K(1, 0)]);
        hist.append(K(1, 0));
        assert_eq!(hist.count(), 1);
    }

    #[test]
    fn wire_roundtrip() {
        let hist = h(&[K(1, 0), K(2, 0), K(1, 1)]);
        let back: CommandHistory<K> = from_bytes(&to_bytes(&hist)).unwrap();
        assert_eq!(back, hist);
        assert_eq!(back.as_slice(), hist.as_slice());
    }

    #[test]
    fn bottom_relates_to_everything() {
        let bot = CommandHistory::<K>::bottom();
        let hist = h(&[K(1, 0), K(1, 1)]);
        assert!(bot.le(&hist));
        assert!(bot.compatible(&hist));
        assert_eq!(bot.lub(&hist).unwrap(), hist);
        assert_eq!(bot.glb(&hist), bot);
        assert!(bot.is_bottom());
    }

    #[test]
    fn conflict_keys_inline_sets() {
        assert!(ConflictKeys::all().is_all());
        assert!(ConflictKeys::all().as_slice().is_empty());
        assert!(!ConflictKeys::none().is_all());
        assert!(ConflictKeys::none().as_slice().is_empty());
        assert_eq!(ConflictKeys::one(7).as_slice(), &[7]);
        assert_eq!(ConflictKeys::two(7, 9).as_slice(), &[7, 9]);
        assert_eq!(ConflictKeys::two(7, 7).as_slice(), &[7]);
    }

    /// A command with the *default* (universal) key hint: the index must
    /// degrade to checking every pair, never to missing an edge.
    #[test]
    fn default_hint_is_sound() {
        #[derive(Clone, Debug, PartialEq, Eq, Hash)]
        struct Blunt(u32, u32);
        impl Conflict for Blunt {
            fn conflicts(&self, other: &Self) -> bool {
                self.0 == other.0
            }
        }
        impl Wire for Blunt {
            fn encode(&self, out: &mut Vec<u8>) {
                self.0.encode(out);
                self.1.encode(out);
            }
            fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
                Ok(Blunt(u32::decode(input)?, u32::decode(input)?))
            }
        }
        let a = Blunt(1, 0);
        let x = Blunt(1, 1);
        let b = Blunt(2, 0);
        let hist: CommandHistory<Blunt> = [a.clone(), b.clone(), x.clone()].into_iter().collect();
        assert!(hist.orders_before(&a, &x));
        assert_eq!(hist.conflict_edges(), 1);
        let h2: CommandHistory<Blunt> = [x, a].into_iter().collect();
        assert!(!hist.compatible(&h2));
    }
}
