//! Acceptor quorum arithmetic: Assumptions 1 and 2 of the paper.
//!
//! Quorums are cardinality-based, as in §3.3: with `n` acceptors, any set
//! of `n − F` acceptors is a *classic* quorum and any set of `n − E` a
//! *fast* quorum, where `F` (resp. `E`) is the number of acceptor failures
//! tolerated by classic (resp. fast) rounds. The Fast Quorum Requirement
//! (Assumption 2) holds iff `2E + F < n` (which also implies the simple
//! requirement `2F < n`).

use crate::round::Round;
use crate::schedule::RoundKind;
use mcpaxos_cstruct::{glb_all_ref, CStruct};

/// Cardinality-based acceptor quorum specification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QuorumSpec {
    n: usize,
    f: usize,
    e: usize,
}

impl QuorumSpec {
    /// Creates a quorum spec for `n` acceptors tolerating `f` failures in
    /// classic rounds and `e` in fast rounds.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint if the spec does
    /// not satisfy the Fast Quorum Requirement (`2e + f < n`, `2f < n`)
    /// or is degenerate (`n == 0`).
    pub fn new(n: usize, f: usize, e: usize) -> Result<Self, String> {
        if n == 0 {
            return Err("no acceptors".to_owned());
        }
        if 2 * f >= n {
            return Err(format!(
                "classic quorum requirement violated: 2F >= n (F={f}, n={n})"
            ));
        }
        if 2 * e + f >= n {
            return Err(format!(
                "fast quorum requirement violated: 2E + F >= n (E={e}, F={f}, n={n})"
            ));
        }
        Ok(QuorumSpec { n, f, e })
    }

    /// The configuration maximizing classic fault-tolerance: classic
    /// quorums are majorities (`F = ⌈n/2⌉ − 1`) and fast quorums have
    /// `⌈3n/4⌉` acceptors (`E = ⌊(n−1)/4⌋`... the largest `E` with
    /// `2E + F < n`).
    pub fn majority(n: usize) -> Result<Self, String> {
        if n == 0 {
            return Err("no acceptors".to_owned());
        }
        let f = n.div_ceil(2) - 1; // ⌊(n-1)/2⌋
        let e = (n - f - 1) / 2; // largest e with 2e + f < n
        QuorumSpec::new(n, f, e)
    }

    /// The configuration equalizing classic and fast quorums: every set of
    /// `⌈(2n+1)/3⌉` acceptors is both a classic and a fast quorum
    /// (`E = F = ⌊(n−1)/3⌋`, §2.2).
    pub fn uniform(n: usize) -> Result<Self, String> {
        if n == 0 {
            return Err("no acceptors".to_owned());
        }
        let ef = (n.saturating_sub(1)) / 3;
        QuorumSpec::new(n, ef, ef)
    }

    /// Number of acceptors.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Failures tolerated by classic rounds.
    pub fn f(&self) -> usize {
        self.f
    }

    /// Failures tolerated by fast rounds.
    pub fn e(&self) -> usize {
        self.e
    }

    /// Size of a classic quorum (`n − F`).
    pub fn classic_size(&self) -> usize {
        self.n - self.f
    }

    /// Size of a fast quorum (`n − E`).
    pub fn fast_size(&self) -> usize {
        self.n - self.e
    }

    /// Quorum size for a round of the given kind.
    pub fn size_for(&self, kind: RoundKind) -> usize {
        match kind {
            RoundKind::Classic => self.classic_size(),
            RoundKind::Fast => self.fast_size(),
        }
    }

    /// Minimum possible size of `Q ∩ R` where `Q` is a classic quorum and
    /// `R` a quorum of a round of kind `kind` — the §3.3.2 shortcut used by
    /// `ProvedSafe` (`n − 2F` for classic `k`, `n − 2E − F`... precisely:
    /// `|Q| + |R| − n`).
    pub fn min_intersection(&self, k_kind: RoundKind) -> usize {
        // |Q| = n - F (the phase-1 quorum), |R| = size_for(k_kind).
        self.classic_size() + self.size_for(k_kind) - self.n
    }

    /// Whether `count` acceptors form a quorum for a `kind` round.
    pub fn is_quorum(&self, kind: RoundKind, count: usize) -> bool {
        count >= self.size_for(kind)
    }
}

/// Coordinator quorum arithmetic: Assumption 3.
///
/// For a classic round with coordinator set of size `nc`, any
/// `⌊nc/2⌋ + 1` coordinators form a quorum (majorities intersect). A
/// single-coordinated round is the degenerate case `nc = 1`. Fast rounds
/// place no constraint; their single quorum is the round owner.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoordQuorum {
    nc: usize,
}

impl CoordQuorum {
    /// Quorum rule over `nc` coordinators.
    ///
    /// # Panics
    ///
    /// Panics if `nc == 0`.
    pub fn majority_of(nc: usize) -> Self {
        assert!(nc > 0, "a round needs at least one coordinator");
        CoordQuorum { nc }
    }

    /// Number of coordinators of the round.
    pub fn count(&self) -> usize {
        self.nc
    }

    /// Size of a coordinator quorum (`⌊nc/2⌋ + 1`).
    pub fn quorum_size(&self) -> usize {
        self.nc / 2 + 1
    }

    /// Coordinator crash-failures the round survives without a round
    /// change (`⌈nc/2⌉ − 1`).
    pub fn failures_tolerated(&self) -> usize {
        self.nc - self.quorum_size()
    }

    /// Whether `count` coordinators form a quorum.
    pub fn is_quorum(&self, count: usize) -> bool {
        count >= self.quorum_size()
    }
}

/// `Phase2bClassic`'s bound read off a ⊑-chain: the position in `vals` of
/// their `q`-th longest member (the shortest when there are fewer than
/// `q`), or `None` when `vals` are not a ⊑-chain at one watermark.
///
/// On a chain the glb of a subset is its shortest member, so the lub of
/// every `q`-subset's glb is the `q`-th longest value: the multi-Paxos
/// commit index. Sorting by `total_len` and testing neighbours with `le`
/// decides it, as `⊑` is transitive and equal-length values on a chain
/// are equal. A chain is also pairwise compatible, so no §4.2 collision
/// hides in it.
pub(crate) fn chain_read<C: CStruct>(vals: &[&C], q: usize) -> Option<usize> {
    let wm = vals.first()?.watermark();
    if vals.iter().any(|v| v.watermark() != wm) {
        return None;
    }
    let mut order: Vec<usize> = (0..vals.len()).collect();
    order.sort_by_key(|&i| vals[i].total_len());
    if !order.windows(2).all(|w| vals[w[0]].le(vals[w[1]])) {
        return None;
    }
    Some(order[vals.len().saturating_sub(q)])
}

/// `Phase2bClassic`'s bound by brute force: the lub of the glbs of every
/// `q`-subset of `vals`. Those glbs are always compatible: two
/// coordinator quorums share a member (Assumption 3), and both glbs are
/// lower bounds of its value.
///
/// # Panics
///
/// Panics if `q` is 0 or exceeds `vals.len()`, or if two glbs are
/// incompatible.
pub(crate) fn fold_quorums<C: CStruct>(vals: &[&C], q: usize) -> C {
    let mut u: Option<C> = None;
    for_each_combination(vals.len(), q, |idx| {
        let g = glb_all_ref(idx.iter().map(|&i| vals[i]));
        u = Some(match u.take() {
            None => g,
            Some(u) => u
                .lub(&g)
                .expect("coordinator-quorum glbs must be compatible (Assumption 3 violated?)"),
        });
        true
    });
    u.expect("at least one quorum combination")
}

/// Enumerates all size-`k` subsets of `0..n` (as index vectors), calling
/// `f` for each. Used by the exact `ProvedSafe`, the learner's quorum
/// search and the acceptor's fold when its reports are not a chain
/// ([`fold_quorums`]). Returns early if `f` returns `false`.
pub(crate) fn for_each_combination(n: usize, k: usize, mut f: impl FnMut(&[usize]) -> bool) {
    if k > n {
        return;
    }
    let mut idx: Vec<usize> = (0..k).collect();
    loop {
        if !f(&idx) {
            return;
        }
        // advance
        let mut i = k;
        loop {
            if i == 0 {
                return;
            }
            i -= 1;
            if idx[i] != i + n - k {
                break;
            }
            if i == 0 {
                return;
            }
        }
        idx[i] += 1;
        for j in i + 1..k {
            idx[j] = idx[j - 1] + 1;
        }
    }
}

/// Number of size-`k` subsets of an `n`-set, saturating.
pub(crate) fn combination_count(n: usize, k: usize) -> u64 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut acc: u64 = 1;
    for i in 0..k {
        acc = acc.saturating_mul((n - i) as u64) / (i as u64 + 1);
    }
    acc
}

/// Asserts the quorum-intersection identities for a spec; used in tests
/// and by `DeployConfig::validate`.
pub fn check_intersections(q: &QuorumSpec) -> Result<(), String> {
    // Assumption 1 / first clause of Assumption 2: any two quorums meet.
    let worst = q.classic_size().min(q.fast_size());
    if 2 * worst <= q.n() {
        // two disjoint quorums would fit
        if q.classic_size() + q.fast_size() <= q.n() {
            return Err("classic and fast quorums can be disjoint".into());
        }
        if 2 * q.classic_size() <= q.n() {
            return Err("two classic quorums can be disjoint".into());
        }
    }
    // Second clause: a classic quorum and two fast quorums share an
    // acceptor: |Q| + |R1| + |R2| - 2n >= 1.
    if q.classic_size() + 2 * q.fast_size() < 2 * q.n() + 1 {
        return Err("Q ∩ R1 ∩ R2 can be empty for fast R1, R2".into());
    }
    Ok(())
}

/// Reference to a round paired with its kind; small convenience used in
/// protocol bookkeeping.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RoundInfo {
    /// The round id.
    pub round: Round,
    /// Its kind under the deployment schedule.
    pub kind: RoundKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn majority_spec_matches_paper() {
        // n = 5: classic quorums of 3 (F = 2), fast quorums of ⌈(3·5+1)/4⌉ = 4.
        let q = QuorumSpec::majority(5).unwrap();
        assert_eq!(q.classic_size(), 3);
        assert_eq!(q.fast_size(), 4);
        assert_eq!(q.f(), 2);
        assert_eq!(q.e(), 1);
        check_intersections(&q).unwrap();

        // n = 7: classic 4 (F=3), fast quorums: E max with 2E+3<7 → E=1 → 6.
        let q = QuorumSpec::majority(7).unwrap();
        assert_eq!(q.classic_size(), 4);
        assert_eq!(q.fast_size(), 6);
        check_intersections(&q).unwrap();
    }

    #[test]
    fn uniform_spec_matches_paper() {
        // Every set of ⌈(2n+1)/3⌉ acceptors is both kinds of quorum.
        for n in 1..=13usize {
            let q = QuorumSpec::uniform(n).unwrap();
            assert_eq!(q.classic_size(), q.fast_size());
            assert_eq!(q.classic_size(), (2 * n + 1).div_ceil(3), "n={n}");
            check_intersections(&q).unwrap();
        }
    }

    #[test]
    fn invalid_specs_rejected() {
        assert!(QuorumSpec::new(0, 0, 0).is_err());
        assert!(QuorumSpec::new(3, 2, 0).is_err()); // 2F >= n
        assert!(QuorumSpec::new(5, 2, 2).is_err()); // 2E + F >= n
        assert!(QuorumSpec::new(5, 2, 1).is_ok());
    }

    #[test]
    fn min_intersection_shortcut() {
        let q = QuorumSpec::majority(5).unwrap();
        // classic k: |Q ∩ R| >= (n-F) + (n-F) - n = n - 2F = 1.
        assert_eq!(q.min_intersection(RoundKind::Classic), 1);
        // fast k: (n-F) + (n-E) - n = 5 - 2 - 1 = 2.
        assert_eq!(q.min_intersection(RoundKind::Fast), 2);
    }

    #[test]
    fn coord_quorum_majorities() {
        let c = CoordQuorum::majority_of(3);
        assert_eq!(c.quorum_size(), 2);
        assert_eq!(c.failures_tolerated(), 1);
        assert!(c.is_quorum(2));
        assert!(!c.is_quorum(1));
        let single = CoordQuorum::majority_of(1);
        assert_eq!(single.quorum_size(), 1);
        assert_eq!(single.failures_tolerated(), 0);
        let five = CoordQuorum::majority_of(5);
        assert_eq!(five.quorum_size(), 3);
        assert_eq!(five.failures_tolerated(), 2);
    }

    #[test]
    fn combination_enumeration() {
        let mut seen = Vec::new();
        for_each_combination(4, 2, |c| {
            seen.push(c.to_vec());
            true
        });
        assert_eq!(
            seen,
            vec![
                vec![0, 1],
                vec![0, 2],
                vec![0, 3],
                vec![1, 2],
                vec![1, 3],
                vec![2, 3]
            ]
        );
        assert_eq!(combination_count(4, 2), 6);
        assert_eq!(combination_count(7, 3), 35);
        assert_eq!(combination_count(3, 5), 0);
        // k = 0: one empty combination
        let mut count = 0;
        for_each_combination(3, 0, |c| {
            assert!(c.is_empty());
            count += 1;
            true
        });
        assert_eq!(count, 1);
        // early exit
        let mut count = 0;
        for_each_combination(5, 2, |_| {
            count += 1;
            count < 3
        });
        assert_eq!(count, 3);
    }

    /// `chain_read`'s pick, as a value.
    fn read<C: CStruct>(vals: &[C], q: usize) -> Option<&C> {
        let refs: Vec<&C> = vals.iter().collect();
        chain_read(&refs, q).map(|i| &vals[i])
    }

    fn fold<C: CStruct>(vals: &[C], q: usize) -> C {
        fold_quorums(&vals.iter().collect::<Vec<_>>(), q)
    }

    #[test]
    fn chain_read_takes_the_qth_longest() {
        use crate::testctx::h;
        // Out of length order, so the read has to sort.
        let vals = [h(5), h(9), h(2)];
        assert_eq!(read(&vals, 2), Some(&h(5)), "q = 2: the middle value");
        assert_eq!(read(&vals, 1), Some(&h(9)), "q = 1: the longest");
        assert_eq!(read(&vals, 3), Some(&h(2)), "q = n: the shortest");
        assert_eq!(read(&vals, 4), Some(&h(2)), "below q: the shortest");
        for q in 1..=3 {
            assert_eq!(read(&vals, q), Some(&fold(&vals, q)), "q = {q}");
        }
    }

    #[test]
    fn chain_read_takes_equal_values() {
        use crate::testctx::{h, H, K};
        // K(0,4) and K(1,5) commute: swapped, the value is still h(6),
        // but not a literal extension of h(4).
        let swapped: H = [0, 1, 2, 3, 5, 4]
            .into_iter()
            .map(|i| K(i % 4, i))
            .collect();
        assert_eq!(swapped, h(6));
        for vals in [
            [h(6), h(6), h(6)],
            [h(4), swapped.clone(), h(6)],
            [swapped.clone(), h(4), h(4)],
        ] {
            for q in 1..=3 {
                assert_eq!(read(&vals, q), Some(&fold(&vals, q)), "{vals:?}, q = {q}");
            }
        }
    }

    #[test]
    fn chain_read_leaves_non_chains_to_the_fold() {
        use crate::testctx::{h, mk, H, K};
        // Equal-length divergent sets: no member is the bound.
        let sets = [mk(&[1, 2, 3]), mk(&[1, 2, 4]), mk(&[1, 2, 3, 4])];
        assert_eq!(read(&sets, 2), None);
        let by_hand = sets[0]
            .glb(&sets[1])
            .lub(&sets[0].glb(&sets[2]))
            .and_then(|u| u.lub(&sets[1].glb(&sets[2])))
            .unwrap();
        assert_eq!(fold(&sets, 2), by_hand);
        assert_eq!(by_hand, mk(&[1, 2, 3, 4]));
        // A conflicting reorder: K(0,0) and K(0,4) share a key.
        let reordered: H = [4, 1, 2, 3, 0].into_iter().map(|i| K(i % 4, i)).collect();
        assert_eq!(read(&[h(5), reordered.clone(), h(5)], 2), None);
        assert_eq!(fold(&[h(5), reordered, h(5)], 2), h(5));
        // Mixed watermarks: values of two frames are not compared.
        let mut cut = h(8);
        assert!(cut.truncate_stable(&h(2).commands()));
        assert_eq!(read(&[h(8), cut], 1), None);
    }

    #[test]
    fn quorum_size_for_kind() {
        let q = QuorumSpec::majority(5).unwrap();
        assert_eq!(q.size_for(RoundKind::Classic), 3);
        assert_eq!(q.size_for(RoundKind::Fast), 4);
        assert!(q.is_quorum(RoundKind::Classic, 3));
        assert!(!q.is_quorum(RoundKind::Fast, 3));
    }
}
