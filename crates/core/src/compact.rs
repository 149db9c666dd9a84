//! Stable-prefix compaction bookkeeping shared by the agents.
//!
//! The deployment agrees on *stable segments*: slices of the designated
//! learner's learned sequence that a learner quorum has learned (gossiped
//! as [`crate::Msg::Stable`]). Every agent tracks the resulting global
//! watermark with a [`Compactor`]:
//!
//! * segments arrive out of band and are buffered in `pending` until the
//!   agent's *primary* value (an acceptor's `vval`, a learner's
//!   `learned`, a coordinator's `cval`) covers them, at which point they
//!   are truncated out and the watermark advances;
//! * the last few applied segments are retained in `recent`, so values
//!   ingested from peers that have not truncated as far can be
//!   *normalized* — stripped up to the local watermark — before being
//!   combined with local state (all lattice operators require operands
//!   with equal watermarks);
//! * values from peers *ahead* of the local watermark cannot be
//!   normalized (their basement contents are unknown); callers drop such
//!   messages and rely on retransmission after the local watermark
//!   catches up. A quorum of up-to-date processes keeps the deployment
//!   live while a straggler catches up;
//! * a delta checks against the receiver's base whatever the sender's
//!   watermark was when it shipped: its digest covers the value from the
//!   logical origin ([`CStruct::digest`]), and it extends that base in
//!   place ([`Compactor::apply_delta`]).
//!
//! The compactor knows nothing of senders or rounds: the values received
//! from peers, and the ones kept aside because they could not follow a
//! truncation, live in each agent's [`crate::ship::Inbox`]es.

use mcpaxos_cstruct::{CStruct, DetHasher};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hash::BuildHasherDefault;
use std::sync::Arc;

/// Applied stable segments each agent keeps for normalizing values from
/// peers that have not yet truncated as far (and, doubled, the bound on
/// buffered not-yet-applied segments).
pub(crate) const STABLE_KEEP: usize = 8;

/// Per-agent compaction state: the watermark and the pending and recent
/// segments.
#[derive(Debug)]
pub(crate) struct Compactor<C: CStruct> {
    watermark: u64,
    /// Segments announced stable but not yet applied, keyed by their
    /// starting position.
    pending: BTreeMap<u64, Vec<C::Cmd>>,
    /// Applied segments kept for normalizing lagging peers' values,
    /// oldest first.
    recent: VecDeque<(u64, Vec<C::Cmd>)>,
    /// The commands of `recent`, each with the number of retained segments
    /// holding it: membership without scanning the window.
    recent_cmds: HashMap<C::Cmd, u32, BuildHasherDefault<DetHasher>>,
}

impl<C: CStruct> Default for Compactor<C> {
    /// A compactor at watermark 0 with nothing pending or retained.
    fn default() -> Self {
        Compactor {
            watermark: 0,
            pending: BTreeMap::new(),
            recent: VecDeque::new(),
            recent_cmds: HashMap::default(),
        }
    }
}

impl<C: CStruct> Compactor<C> {
    /// The agreed prefix length truncated so far.
    pub fn watermark(&self) -> u64 {
        self.watermark
    }

    /// Resumes at (at least) `w` after a recovery: the agent's persisted
    /// primary value already carries this watermark. The normalization
    /// window starts empty; lagging peers' values are dropped until fresh
    /// segments arrive.
    pub fn resume(&mut self, w: u64) {
        self.watermark = self.watermark.max(w);
    }

    /// Applies pending segments *without* a primary value to truncate
    /// (used by coordinators while they hold no `cval`): the watermark
    /// advances and the segments enter the normalization window.
    pub fn advance_free(&mut self, mut on_applied: impl FnMut(&[C::Cmd])) -> u64 {
        let mut applied = 0;
        while let Some((from, cmds)) = self.pending.remove_entry(&self.watermark) {
            on_applied(&cmds);
            self.retain_applied(from, cmds);
            applied += 1;
        }
        applied
    }

    /// Moves the watermark past the applied segment `cmds` at `from` and
    /// keeps it in `recent`, evicting the oldest beyond [`STABLE_KEEP`];
    /// `recent_cmds` follows both.
    fn retain_applied(&mut self, from: u64, cmds: Vec<C::Cmd>) {
        self.watermark = from + cmds.len() as u64;
        for c in &cmds {
            *self.recent_cmds.entry(c.clone()).or_default() += 1;
        }
        self.recent.push_back((from, cmds));
        while self.recent.len() > STABLE_KEEP {
            let (_, old) = self.recent.pop_front().expect("over capacity");
            for c in &old {
                let n = self.recent_cmds.get_mut(c).expect("counted on entry");
                *n -= 1;
                if *n == 0 {
                    self.recent_cmds.remove(c);
                }
            }
        }
    }

    /// Buffers a stable segment starting at `from` (idempotent; segments
    /// below the watermark or absurdly far ahead are ignored).
    pub fn offer(&mut self, from: u64, cmds: Vec<C::Cmd>) {
        if cmds.is_empty() || from < self.watermark || self.pending.contains_key(&from) {
            return;
        }
        self.pending.insert(from, cmds);
        // Bound the buffer: a malicious or wildly ahead stream of segments
        // must not grow memory; keep the nearest few.
        while self.pending.len() > 2 * STABLE_KEEP {
            let last = *self.pending.keys().next_back().expect("non-empty");
            self.pending.remove(&last);
        }
    }

    /// Applies every pending segment the primary value covers, in order,
    /// advancing the watermark. `on_applied` runs once per applied
    /// segment (for metric emission and pruning of side state).
    pub fn advance(&mut self, primary: &mut C, mut on_applied: impl FnMut(&[C::Cmd])) -> u64 {
        let mut applied = 0;
        while let Some(cmds) = self.pending.get(&self.watermark) {
            if !primary.truncate_stable(cmds) {
                break; // primary not caught up yet; retry after it grows
            }
            let (from, cmds) = self
                .pending
                .remove_entry(&self.watermark)
                .expect("just probed");
            on_applied(&cmds);
            self.retain_applied(from, cmds);
            applied += 1;
        }
        // Anything below the watermark can never apply again.
        while let Some((&k, _)) = self.pending.iter().next() {
            if k >= self.watermark {
                break;
            }
            self.pending.remove(&k);
        }
        applied
    }

    /// Whether the segment that would advance the watermark is missing
    /// entirely (as opposed to buffered but not yet covered by the
    /// primary value): the condition under which a gap resync request
    /// ([`crate::Msg::NeedStable`]) is useful.
    pub fn gap_at_watermark(&self) -> bool {
        !self.pending.contains_key(&self.watermark)
    }

    /// The retained stable segments from the one that starts at `from` on,
    /// for answering a lagging peer's [`crate::Msg::NeedStable`] resync
    /// request. Empty when no retained segment starts there: later ones
    /// could not connect to the peer's watermark.
    pub fn recent_from(&self, from: u64) -> Vec<(u64, Vec<C::Cmd>)> {
        let run = self.recent.iter().skip_while(|(f, _)| *f != from);
        run.cloned().collect()
    }

    /// Restart path for learners: a primary that sits *exactly empty at
    /// the watermark* (a checkpoint-restored learner whose history below
    /// the watermark no longer exists anywhere) may *adopt* the pending
    /// segment at the watermark as learned — it is quorum-learned by
    /// definition. The segment enters the live window (so a host can
    /// drain it) and is truncated by a later [`Compactor::advance`].
    /// Returns whether anything was adopted.
    pub fn adopt_into(&self, primary: &mut C) -> bool {
        if primary.watermark() != self.watermark || primary.total_len() != self.watermark {
            return false;
        }
        match self.pending.get(&self.watermark) {
            Some(cmds) => primary
                .apply_suffix(self.watermark, cmds)
                .map(|n| n > 0)
                .unwrap_or(false),
            None => false,
        }
    }

    /// Whether `c` was truncated by one of the retained recent segments.
    /// Used to drop re-deliveries and re-proposals of already-stable
    /// commands, which would otherwise re-enter live windows (their
    /// membership entries are gone after truncation). One probe of a
    /// hashed multiset kept beside the segments, not a scan of them.
    pub fn contains_recent(&self, c: &C::Cmd) -> bool {
        self.recent_cmds.contains_key(c)
    }

    /// Strips applied segments out of `v` until it reaches the local
    /// watermark. Returns `false` (leaving `v` in a partially normalized
    /// but self-consistent state) when `v` is ahead of the watermark, or
    /// so far behind that the needed segments have left `recent`, or a
    /// strip fails.
    pub fn normalize(&self, v: &mut C) -> bool {
        while v.watermark() < self.watermark {
            let seg = self.recent.iter().find(|(from, _)| *from == v.watermark());
            if !seg.is_some_and(|(_, cmds)| v.truncate_stable(cmds)) {
                return false;
            }
        }
        v.watermark() == self.watermark
    }

    /// Applies a delta to `base` in place (copying it first only when
    /// something else shares it) and reports whether the value changed.
    /// `None` is a gap: a base ahead of the watermark, one the suffix does
    /// not reach, a reconstruction the digest rejects, or one behind the
    /// watermark that still cannot follow it. A gap leaves a base at the
    /// watermark as it was: the digest is checked before the suffix is
    /// appended ([`CStruct::apply_suffix_checked`]).
    pub(crate) fn apply_delta(
        &self,
        base_len: u64,
        digest: u64,
        suffix: &[C::Cmd],
        base: &mut Arc<C>,
    ) -> Option<bool> {
        if base.watermark() > self.watermark {
            return None;
        }
        let behind = base.watermark() < self.watermark;
        // A re-delivered stale delta may carry commands that were
        // truncated (as stable) since: they must not re-enter the live
        // window. A base behind the watermark needs them to follow it.
        let suffix: Cow<[C::Cmd]> = if !behind && suffix.iter().any(|c| self.contains_recent(c)) {
            let fresh = suffix.iter().filter(|c| !self.contains_recent(c));
            Cow::Owned(fresh.cloned().collect())
        } else {
            Cow::Borrowed(suffix)
        };
        if !behind && suffix.is_empty() && base_len <= base.total_len() {
            // Pure keep-alive: the sender claims our base IS its value. A
            // digest mismatch means the base diverged (e.g. rolled back by
            // a crash) — resync.
            return (base.digest() == digest).then_some(false);
        }
        // The suffix applies positionally, but `base_len` alone cannot
        // authenticate the base: the digest of the reconstruction must be
        // the sender's, else divergence is treated exactly like a gap.
        let v = Arc::make_mut(base);
        let appended = v.apply_suffix_checked(base_len, &suffix, digest).ok()?;
        self.normalize(v).then_some(appended > 0 || behind)
    }

    /// Normalizes a stored value in place, copying it first only when
    /// something else shares it; `false` means it cannot reach the
    /// watermark (caller should drop it). An unshared value that fails may
    /// be left partly truncated: the same value, nearer the watermark.
    pub fn normalize_arc(&self, v: &mut Arc<C>) -> bool {
        if v.watermark() == self.watermark {
            return true;
        }
        if v.watermark() > self.watermark {
            return false;
        }
        if let Some(v) = Arc::get_mut(v) {
            return self.normalize(v);
        }
        let mut owned = (**v).clone();
        if !self.normalize(&mut owned) {
            return false;
        }
        *v = Arc::new(owned);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testctx::{h, H, K};

    #[test]
    fn advance_waits_for_primary_coverage() {
        let mut c: Compactor<H> = Compactor::default();
        let seg: Vec<K> = (0..4).map(|i| K(i % 4, i)).collect();
        c.offer(0, seg);
        let mut small = h(2); // does not contain K(2,2), K(3,3) yet
        assert_eq!(c.advance(&mut small, |_| {}), 0);
        assert_eq!(c.watermark(), 0);
        let mut big = h(6);
        assert_eq!(c.advance(&mut big, |_| {}), 1);
        assert_eq!(c.watermark(), 4);
        assert_eq!(big.watermark(), 4);
        assert_eq!(big.live_len(), 2);
    }

    #[test]
    fn contains_recent_matches_a_scan_of_the_retained_segments() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let mut c: Compactor<H> = Compactor::default();
        // Commands drawn from a small pool, so retained segments share
        // commands and evicting one must keep what another still holds.
        let pool: Vec<K> = (0..40).map(|i| K(i % 4, i)).collect();
        for _ in 0..4 * STABLE_KEEP {
            let len = rng.gen_range(1..6);
            let seg = (0..len).map(|_| pool[rng.gen_range(0..pool.len())].clone());
            c.offer(c.watermark(), seg.collect());
            assert_eq!(c.advance_free(|_| {}), 1);
            for k in &pool {
                let scan = c.recent.iter().any(|(_, seg)| seg.contains(k));
                assert_eq!(c.contains_recent(k), scan, "{k:?}");
            }
        }
        assert_eq!(c.recent.len(), STABLE_KEEP);
    }

    #[test]
    fn normalize_strips_recent_segments() {
        let mut c: Compactor<H> = Compactor::default();
        c.offer(0, (0..4).map(|i| K(i % 4, i)).collect());
        let mut primary = h(8);
        c.advance(&mut primary, |_| {});
        // A peer value that has not truncated yet.
        let mut lagging = h(8);
        assert!(c.normalize(&mut lagging));
        assert_eq!(lagging.watermark(), 4);
        assert_eq!(lagging, primary);
        // A value ahead of us cannot be normalized.
        let c2: Compactor<H> = Compactor::default();
        let mut ahead = h(8);
        c.normalize(&mut ahead);
        assert!(!c2.normalize(&mut ahead));
    }

    #[test]
    fn normalize_arc_truncates_an_unshared_value_in_place() {
        let mut c: Compactor<H> = Compactor::default();
        c.offer(0, (0..4).map(|i| K(i % 4, i)).collect());
        c.advance(&mut h(8), |_| {});
        let mut v = Arc::new(h(8));
        let at = Arc::as_ptr(&v);
        assert!(c.normalize_arc(&mut v));
        assert_eq!((Arc::as_ptr(&v), v.watermark()), (at, 4));
        // A shared value is copied: its other holder keeps watermark 0.
        let mut v = Arc::new(h(8));
        let held = v.clone();
        assert!(c.normalize_arc(&mut v));
        assert_eq!((held.watermark(), v.watermark()), (0, 4));
    }

    #[test]
    fn resolve_applies_deltas_and_flags_gaps() {
        let c: Compactor<H> = Compactor::default();
        let mut base = Arc::new(h(4));
        // Suffix extending the base, digested as the sender would.
        let suffix: Vec<K> = (4..6).map(|i| K(i % 4, i)).collect();
        assert_eq!(
            c.apply_delta(4, h(6).digest(), &suffix, &mut base),
            Some(true)
        );
        assert_eq!(*base, h(6));
        // Delta past the base: gap, and the base stays.
        let far = [K(1, 9)];
        assert_eq!(c.apply_delta(9, h(10).digest(), &far, &mut base), None);
        assert_eq!(*base, h(6));
        // A shared base is copied, not changed under its other holder.
        let held = base.clone();
        let next = [K(2, 6)];
        assert_eq!(
            c.apply_delta(6, h(7).digest(), &next, &mut base),
            Some(true)
        );
        assert_eq!((&*held, &*base), (&h(6), &h(7)));
    }

    #[test]
    fn resolve_rejects_equal_length_divergent_base() {
        let c: Compactor<H> = Compactor::default();
        // The sender extends ITS history 0..4 by 4..6 and digests the
        // result; the receiver's stored base has the same LENGTH but a
        // divergent command at position 3 (the post-crash rollback
        // scenario). Length-only matching would silently misapply.
        let mut divergent = h(3);
        divergent.append(K(0, 99));
        let mut base = Arc::new(divergent.clone());
        assert_eq!(base.total_len(), 4);
        let suffix: Vec<K> = (4..6).map(|i| K(i % 4, i)).collect();
        assert_eq!(
            c.apply_delta(4, h(6).digest(), &suffix, &mut base),
            None,
            "divergent base of equal length must force a full resync"
        );
        assert_eq!(*base, divergent, "a rejected delta leaves the base");
        // Keep-alive against a divergent base is rejected too.
        assert_eq!(c.apply_delta(4, h(4).digest(), &[], &mut base), None);
    }
}
