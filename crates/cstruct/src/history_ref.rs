//! The literal §3.3.1 transcription of command histories, retained as a
//! differential-testing oracle for the indexed [`crate::CommandHistory`].
//!
//! This is the seed implementation verbatim: `contains`/`index_of` are
//! linear scans, `eq`/`le` are O(n²) conflict-pair checks, and
//! `prefix`/`compatible` are the paper's clone-and-`remove(0)` loops —
//! O(n³) with allocations, but a direct image of the pseudo-TLA, which is
//! what makes it a trustworthy oracle. It mirrors the
//! `proved_safe` / `proved_safe_exact` split in `mcpaxos-core`: the fast
//! version runs in production, the transcription stands behind it in
//! the differential tests (`tests/prop_history_diff.rs`).
//!
//! Only the `Conflict::conflicts` relation is consulted — the oracle
//! deliberately ignores the `conflict_keys` locality hint, so a wrong
//! hint in a command type shows up as a divergence from the oracle.

use crate::history::Conflict;

/// A command history represented exactly as in the paper: a bare
/// sequence, every operator recomputed from scratch. Carries the same
/// stable-prefix watermark as the indexed implementation so it can serve
/// as the differential oracle for delta shipping and compaction too.
#[derive(Clone, Debug, Default)]
pub struct RefCommandHistory<C> {
    trunc: u64,
    seq: Vec<C>,
}

impl<C: Conflict + Eq + Clone> RefCommandHistory<C> {
    /// Creates the empty history (`⊥`).
    pub fn new() -> Self {
        RefCommandHistory {
            trunc: 0,
            seq: Vec::new(),
        }
    }

    /// The representing sequence.
    pub fn as_slice(&self) -> &[C] {
        &self.seq
    }

    /// Appends a command, ignoring duplicates (linear scan).
    pub fn append(&mut self, cmd: C) {
        if !self.seq.contains(&cmd) {
            self.seq.push(cmd);
        }
    }

    /// Whether the history contains `cmd` (linear scan).
    pub fn contains(&self, cmd: &C) -> bool {
        self.seq.contains(cmd)
    }

    /// Number of commands contained.
    pub fn count(&self) -> usize {
        self.seq.len()
    }

    /// The commands, in representation order.
    pub fn commands(&self) -> Vec<C> {
        self.seq.clone()
    }

    /// Whether `a` precedes `b` in the history's partial order.
    pub fn orders_before(&self, a: &C, b: &C) -> bool {
        let (ia, ib) = match (self.index_of(a), self.index_of(b)) {
            (Some(x), Some(y)) => (x, y),
            _ => return false,
        };
        if ia >= ib {
            return false;
        }
        // Transitive closure over positions in (ia..=ib]: reached[k] is true
        // if seq[k] is ordered after seq[ia].
        let mut reached = vec![false; self.seq.len()];
        reached[ia] = true;
        for k in ia + 1..=ib {
            if (ia..k).any(|j| reached[j] && self.seq[j].conflicts(&self.seq[k])) {
                reached[k] = true;
            }
        }
        reached[ib]
    }

    fn index_of(&self, c: &C) -> Option<usize> {
        self.seq.iter().position(|x| x == c)
    }

    /// `Descendants(head, tail)` from §3.3.1: removes from `tail` every
    /// command transitively ordered after `head`, returning the remainder.
    fn strip_descendants(tail: &[C], head: &C) -> Vec<C> {
        let mut ancestors: Vec<&C> = vec![head];
        let mut out = Vec::new();
        for x in tail {
            if ancestors.iter().any(|a| x.conflicts(a)) {
                ancestors.push(x);
            } else {
                out.push(x.clone());
            }
        }
        out
    }

    /// Scans `i` for `head`: `Ok(j)` if `i[j] == head` and no conflicting
    /// command precedes it, `Err(true)` if a conflicting command is found
    /// first, `Err(false)` if `head` does not occur.
    fn scan_for(head: &C, i: &[C]) -> Result<usize, bool> {
        for (j, x) in i.iter().enumerate() {
            if x == head {
                return Ok(j);
            }
            if head.conflicts(x) {
                return Err(true);
            }
        }
        Err(false)
    }

    /// Watermark and delta API, transcribed naively (linear scans, no
    /// indexes) so `tests/prop_history_diff.rs` can pin the indexed
    /// implementation's compaction against an independent oracle.
    ///
    /// Commands truncated below the stable watermark.
    pub fn watermark(&self) -> u64 {
        self.trunc
    }

    /// Logical command count including the truncated prefix.
    pub fn total_len(&self) -> u64 {
        self.trunc + self.seq.len() as u64
    }

    /// The commands at logical positions `base_len..total_len()`.
    pub fn suffix_from(&self, base_len: u64) -> Option<Vec<C>> {
        if base_len < self.trunc || base_len > self.total_len() {
            return None;
        }
        Some(self.seq[(base_len - self.trunc) as usize..].to_vec())
    }

    /// Applies a suffix against a base of `base_len` commands; returns the
    /// number newly appended, or `None` on a gap.
    pub fn apply_suffix(&mut self, base_len: u64, suffix: &[C]) -> Option<u64> {
        if base_len < self.trunc || base_len > self.total_len() {
            return None;
        }
        let mut appended = 0;
        for c in suffix {
            if !self.seq.contains(c) {
                self.seq.push(c.clone());
                appended += 1;
            }
        }
        Some(appended)
    }

    /// Truncates the given stable commands, advancing the watermark; the
    /// O(n²) transcription of the downward-closed check.
    pub fn truncate_stable(&mut self, stable: &[C]) -> bool {
        if stable.is_empty() {
            return true;
        }
        let is_stable: Vec<bool> = self.seq.iter().map(|x| stable.contains(x)).collect();
        if is_stable.iter().filter(|&&b| b).count() != stable.len() {
            return false; // missing or duplicated stable command
        }
        for (j, x) in self.seq.iter().enumerate() {
            if !is_stable[j] {
                continue;
            }
            if self.seq[..j]
                .iter()
                .enumerate()
                .any(|(i, y)| !is_stable[i] && y.conflicts(x))
            {
                return false; // a kept command is ordered before a removed one
            }
        }
        self.seq = self
            .seq
            .iter()
            .zip(&is_stable)
            .filter(|(_, &s)| !s)
            .map(|(x, _)| x.clone())
            .collect();
        self.trunc += stable.len() as u64;
        true
    }

    /// The next stable segment: a prefix of the live sequence.
    pub fn stable_segment(&self, from: u64, max: usize) -> Option<Vec<C>> {
        if from != self.trunc {
            return None;
        }
        let k = max.min(self.seq.len());
        if k == 0 {
            return None;
        }
        Some(self.seq[..k].to_vec())
    }

    /// The paper's `Prefix(H, I)` operator: the glb of two histories.
    pub fn glb(&self, other: &Self) -> Self {
        assert_eq!(self.trunc, other.trunc, "oracle glb across watermarks");
        let mut h = self.seq.to_vec();
        let mut i = other.seq.to_vec();
        let mut out = Vec::new();
        while !h.is_empty() && !i.is_empty() {
            let head = h[0].clone();
            match Self::scan_for(&head, &i) {
                Ok(j) => {
                    // Head is in the common prefix.
                    out.push(head);
                    h.remove(0);
                    i.remove(j);
                }
                _ => {
                    // Head (and everything ordered after it) is not common.
                    h = Self::strip_descendants(&h[1..], &head);
                }
            }
        }
        self.with_seq(out)
    }

    /// The paper's `AreCompatible(H, I, A)` operator.
    pub fn compatible(&self, other: &Self) -> bool {
        assert_eq!(
            self.trunc, other.trunc,
            "oracle compatible across watermarks"
        );
        let mut h = self.seq.to_vec();
        let mut i = other.seq.to_vec();
        let mut skipped: Vec<C> = Vec::new(); // the accumulator A
        while !h.is_empty() && !i.is_empty() {
            let head = h.remove(0);
            match Self::scan_for(&head, &i) {
                Err(true) => return false, // ordered differently in h and i
                Ok(j) => {
                    // Common command: it must not conflict with an h-only
                    // command that precedes it in h (that command would have
                    // to both precede and follow it in any upper bound).
                    if skipped.iter().any(|f| head.conflicts(f)) {
                        return false;
                    }
                    i.remove(j);
                }
                Err(false) => skipped.push(head),
            }
        }
        true
    }

    fn with_seq(&self, seq: Vec<C>) -> Self {
        RefCommandHistory {
            trunc: self.trunc,
            seq,
        }
    }

    /// The paper's lub of two *compatible* histories, or `None`: `self`'s
    /// sequence followed by the commands of `other` not in it, in
    /// `other`'s order.
    pub fn lub(&self, other: &Self) -> Option<Self> {
        if !self.compatible(other) {
            return None;
        }
        let mut out = self.seq.to_vec();
        for x in &other.seq {
            if !out.contains(x) {
                out.push(x.clone());
            }
        }
        Some(self.with_seq(out))
    }

    /// The extension relation `self ⊑ other`.
    pub fn le(&self, other: &Self) -> bool {
        assert_eq!(self.trunc, other.trunc, "oracle le across watermarks");
        // self ⊑ other iff other = self • σ for some σ, i.e.:
        // (1) every command of self occurs in other;
        // (2) conflicting pairs within self keep their orientation in other;
        // (3) every other-only command conflicting with a self command is
        //     ordered after it in other (appends go at the end).
        for x in &self.seq {
            if !other.seq.contains(x) {
                return false;
            }
        }
        for (ia, a) in self.seq.iter().enumerate() {
            for b in &self.seq[ia + 1..] {
                if a.conflicts(b) {
                    let ja = other.index_of(a).expect("checked above");
                    let jb = other.index_of(b).expect("checked above");
                    if ja > jb {
                        return false;
                    }
                }
            }
        }
        for (jx, x) in other.seq.iter().enumerate() {
            if self.seq.contains(x) {
                continue;
            }
            for y in &self.seq {
                if x.conflicts(y) {
                    let jy = other.index_of(y).expect("y is in other");
                    if jx < jy {
                        return false;
                    }
                }
            }
        }
        true
    }
}

impl<C: Conflict + Eq + Clone> PartialEq for RefCommandHistory<C> {
    /// Poset equality, by the O(n²) pairwise check of the seed.
    fn eq(&self, other: &Self) -> bool {
        assert_eq!(self.trunc, other.trunc, "oracle eq across watermarks");
        if self.seq.len() != other.seq.len() {
            return false;
        }
        for x in &self.seq {
            if !other.seq.contains(x) {
                return false;
            }
        }
        for (ia, a) in self.seq.iter().enumerate() {
            for b in &self.seq[ia + 1..] {
                if a.conflicts(b) {
                    let ja = other.index_of(a).expect("checked above");
                    let jb = other.index_of(b).expect("checked above");
                    if ja > jb {
                        return false;
                    }
                }
            }
        }
        true
    }
}

impl<C: Conflict + Eq + Clone> Eq for RefCommandHistory<C> {}

impl<C: Conflict + Eq + Clone> FromIterator<C> for RefCommandHistory<C> {
    fn from_iter<I: IntoIterator<Item = C>>(iter: I) -> Self {
        let mut h = RefCommandHistory::new();
        for c in iter {
            h.append(c);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq, Eq)]
    struct K(u32, u32);

    impl Conflict for K {
        fn conflicts(&self, other: &Self) -> bool {
            self.0 == other.0
        }
    }

    fn h(cmds: &[K]) -> RefCommandHistory<K> {
        cmds.iter().cloned().collect()
    }

    #[test]
    fn oracle_basics() {
        let a = K(1, 0);
        let b = K(2, 0);
        let x = K(1, 1);
        let h1 = h(&[a.clone(), b.clone(), x.clone()]);
        let h2 = h(&[b.clone(), a.clone()]);
        assert_eq!(h1.glb(&h2), h(&[a.clone(), b.clone()]));
        assert!(h2.le(&h1));
        assert!(!h1.le(&h2));
        assert!(h1.compatible(&h2));
        assert_eq!(h1.lub(&h2).unwrap(), h1);
        assert!(h1.orders_before(&a, &x));
        assert!(h1.contains(&x) && !h2.contains(&x));
    }
}
