//! Differential test: the coordinator's `outstanding` proposals after every
//! message must equal what the full "2b" fold leaves.
//!
//! The oracle below folds on every "2b": once the round's reports hold an
//! acceptor quorum, it takes the glb of every report and drops each
//! outstanding command that glb absorbs. The coordinator folds only when
//! some outstanding command is absorbed by every report (the glb absorbs
//! nothing else, because `absorbs` is upward-closed); after every single
//! message the two must agree, and the coordinator must not have folded
//! when the oracle's test says nothing could retire.
//!
//! The fold's cost is observed through [`Counted`], a c-struct that
//! forwards every operation to its inner value and counts `glb` calls.

mod common;

use common::{needs_full, Deltas, K};
use mcpaxos_actor::host::Recorder;
use mcpaxos_actor::wire::{Wire, WireError};
use mcpaxos_actor::{Actor, ProcessId};
use mcpaxos_core::{Coordinator, DeployConfig, Msg, Policy, Round, RTYPE_MULTI, RTYPE_SINGLE};
use mcpaxos_cstruct::{
    glb_all_ref, CStruct, CmdSet, CommandHistory, Conflict, SingleDecree, SuffixGap,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::Arc;

thread_local! {
    /// `glb` calls made on this thread by [`Counted`] values.
    static GLBS: Cell<u64> = const { Cell::new(0) };
}

fn glbs() -> u64 {
    GLBS.with(Cell::get)
}

/// `C` with every operation forwarded, counting `glb` calls.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Counted<C>(C);

impl<C: Wire> Wire for Counted<C> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        C::decode(input).map(Counted)
    }
}

impl<C: CStruct> CStruct for Counted<C> {
    type Cmd = C::Cmd;

    fn bottom() -> Self {
        Counted(C::bottom())
    }
    fn bottom_at(watermark: u64) -> Self {
        Counted(C::bottom_at(watermark))
    }
    fn append(&mut self, cmd: C::Cmd) {
        self.0.append(cmd);
    }
    fn append_all<I: IntoIterator<Item = C::Cmd>>(&mut self, cmds: I) {
        self.0.append_all(cmds);
    }
    fn le(&self, other: &Self) -> bool {
        self.0.le(&other.0)
    }
    fn glb(&self, other: &Self) -> Self {
        GLBS.with(|n| n.set(n.get() + 1));
        Counted(self.0.glb(&other.0))
    }
    fn lub(&self, other: &Self) -> Option<Self> {
        self.0.lub(&other.0).map(Counted)
    }
    fn compatible(&self, other: &Self) -> bool {
        self.0.compatible(&other.0)
    }
    fn contains(&self, cmd: &C::Cmd) -> bool {
        self.0.contains(cmd)
    }
    fn absorbs(&self, cmd: &C::Cmd) -> bool {
        self.0.absorbs(cmd)
    }
    fn commands(&self) -> Vec<C::Cmd> {
        self.0.commands()
    }
    fn count(&self) -> usize {
        self.0.count()
    }
    fn is_bottom(&self) -> bool {
        self.0.is_bottom()
    }
    fn watermark(&self) -> u64 {
        self.0.watermark()
    }
    fn total_len(&self) -> u64 {
        self.0.total_len()
    }
    fn suffix_from(&self, base_len: u64) -> Option<Vec<C::Cmd>> {
        self.0.suffix_from(base_len)
    }
    fn is_literal_prefix_of(&self, other: &Self) -> bool {
        self.0.is_literal_prefix_of(&other.0)
    }
    fn apply_suffix(&mut self, base_len: u64, suffix: &[C::Cmd]) -> Result<u64, SuffixGap> {
        self.0.apply_suffix(base_len, suffix)
    }
    fn apply_suffix_checked(
        &mut self,
        base_len: u64,
        suffix: &[C::Cmd],
        digest: u64,
    ) -> Result<u64, SuffixGap> {
        self.0.apply_suffix_checked(base_len, suffix, digest)
    }
    fn truncate_stable(&mut self, stable: &[C::Cmd]) -> bool {
        self.0.truncate_stable(stable)
    }
    fn digest(&self) -> u64 {
        self.0.digest()
    }
    fn stable_segment(&self, from: u64, max: usize) -> Option<Vec<C::Cmd>> {
        self.0.stable_segment(from, max)
    }
}

/// The full fold: `outstanding` and the per-round reports.
struct Oracle<C: CStruct> {
    outstanding: Vec<C::Cmd>,
    reports: BTreeMap<Round, BTreeMap<ProcessId, C>>,
}

impl<C: CStruct> Oracle<C> {
    fn propose(&mut self, cmd: C::Cmd) {
        if !self.outstanding.contains(&cmd) {
            self.outstanding.push(cmd);
        }
    }

    /// Records `from`'s "2b" of `val` for `round` and folds. `None` when
    /// there is nothing to fold (fewer than `qsize` reports, or nothing
    /// outstanding); otherwise whether some outstanding command is
    /// absorbed by every report (the only case where the fold can retire
    /// one), and whether "every report absorbs" would retire a command the
    /// glb keeps.
    fn report(
        &mut self,
        from: ProcessId,
        round: Round,
        val: C,
        qsize: usize,
    ) -> Option<(bool, bool)> {
        let reports = self.reports.entry(round).or_default();
        reports.insert(from, val);
        if reports.len() < qsize || self.outstanding.is_empty() {
            return None;
        }
        let by_all = |c: &C::Cmd| reports.values().all(|v| v.absorbs(c));
        let g = glb_all_ref(reports.values());
        let retirable = self.outstanding.iter().any(by_all);
        let collided = self.outstanding.iter().any(|c| by_all(c) && !g.absorbs(c));
        self.outstanding.retain(|c| !g.absorbs(c));
        Some((retirable, collided))
    }
}

/// What one stream exercised.
#[derive(Default, Debug)]
struct Seen {
    /// "2b"s on a quorum-sized round with outstanding work, where nothing
    /// could retire (the fold the coordinator skips).
    skipped: usize,
    /// "2b"s where some outstanding command is absorbed by every report
    /// but not by their glb (incompatible reports).
    collided: usize,
    /// Commands retired.
    retired: usize,
}

/// Drives a coordinator and the oracle with the same random stream of
/// `Propose`s (fresh commands and re-proposals) and "2b"s from five
/// acceptors in two interleaved classic rounds. Each acceptor's report in
/// a round grows (`value_at(round, acceptor, progress)`); a fifth of the
/// deliveries re-send the current report or an older, smaller one.
fn drive<C, F>(seed: u64, steps: usize, universe: &[C::Cmd], value_at: F) -> Seen
where
    C: CStruct,
    F: Fn(usize, usize, usize) -> C,
{
    let cfg = Arc::new(DeployConfig::simple(1, 3, 5, 1, Policy::MultiCoordinated));
    let qsize = cfg.quorums.classic_size();
    let acceptors = cfg.roles.acceptors().to_vec();
    let me = cfg.roles.coordinators()[0];
    let proposer = cfg.roles.proposers()[0];
    let mut coord: Coordinator<Counted<C>> = Coordinator::new(cfg, me);
    // The test only inspects `outstanding`; what the coordinator sends is
    // ignored.
    let mut ctx = Recorder::new(me.raw());
    coord.on_start(&mut ctx);
    let mut oracle = Oracle::<C> {
        outstanding: Vec::new(),
        reports: BTreeMap::new(),
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let rounds = [
        Round::new(0, 1, 0, RTYPE_MULTI),
        Round::new(0, 2, 1, RTYPE_SINGLE),
    ];
    let mut next = 0;
    let mut progress: BTreeMap<(usize, usize), usize> = BTreeMap::new();
    let mut deltas = Deltas::new();
    let mut seen = Seen::default();
    for step in 0..steps {
        let before = glbs();
        let could_retire = if rng.gen_range(0..10) < 3 {
            // A fresh command, or a re-proposal of an earlier one (a
            // retransmission, or a command already retired).
            let cmd = if next == 0 || next < universe.len() && rng.gen_range(0..4) > 0 {
                next += 1;
                universe[next - 1].clone()
            } else {
                universe[rng.gen_range(0..next)].clone()
            };
            coord.on_message(
                proposer,
                Msg::Propose {
                    cmd: cmd.clone(),
                    acc_quorum: None,
                },
                &mut ctx,
            );
            oracle.propose(cmd);
            false
        } else {
            let ri = rng.gen_range(0..rounds.len());
            let ai = rng.gen_range(0..acceptors.len());
            let at = progress.entry((ri, ai)).or_insert(0);
            let k = match rng.gen_range(0..10) {
                0 => *at,                          // duplicate
                1 => *at - rng.gen_range(0..=*at), // stale, possibly smaller
                _ => {
                    *at += rng.gen_range(1..4usize);
                    *at
                }
            };
            let val = value_at(ri, ai, k);
            let payload = deltas.ship(rounds[ri], acceptors[ai], &Counted(val.clone()));
            let msg = Msg::P2b {
                round: rounds[ri],
                val: payload,
            };
            coord.on_message(acceptors[ai], msg, &mut ctx);
            let had = oracle.outstanding.len();
            let fold = oracle.report(acceptors[ai], rounds[ri], val, qsize);
            seen.retired += had - oracle.outstanding.len();
            seen.skipped += usize::from(fold.is_some_and(|(retirable, _)| !retirable));
            seen.collided += usize::from(fold.is_some_and(|(_, collided)| collided));
            fold.is_some_and(|(retirable, _)| retirable)
        };
        assert_eq!(
            coord.outstanding(),
            &oracle.outstanding[..],
            "step {step}: outstanding diverged from the full fold"
        );
        assert!(
            could_retire || glbs() == before,
            "step {step}: folded the reports although no outstanding command \
             was absorbed by every one"
        );
    }
    assert!(!needs_full(&ctx), "a delta did not resolve");
    seen
}

/// The first `k` commands of `order`.
fn take<C: CStruct>(order: &[C::Cmd], k: usize) -> C {
    let mut v = C::bottom();
    v.append_all(order.iter().take(k).cloned());
    v
}

#[test]
fn skipped_folds_leave_outstanding_of_the_full_fold_on_sets() {
    // Each acceptor adds the commands in its own order, so the glb of the
    // reports is a proper intersection.
    let universe: Vec<u32> = (0..60).collect();
    let mut total = Seen::default();
    for seed in 0..6 {
        let mut rng = StdRng::seed_from_u64(seed + 50);
        let orders: Vec<Vec<u32>> = (0..10)
            .map(|_| {
                let mut o = universe.clone();
                for i in (1..o.len()).rev() {
                    o.swap(i, rng.gen_range(0..=i));
                }
                o
            })
            .collect();
        let seen = drive::<CmdSet<u32>, _>(seed, 300, &universe, |ri, ai, k| {
            take(&orders[ri * 5 + ai], k)
        });
        total.skipped += seen.skipped;
        total.retired += seen.retired;
    }
    assert!(total.skipped > 0, "no fold was skippable: {total:?}");
    assert!(total.retired > 0, "nothing retired: {total:?}");
}

#[test]
fn skipped_folds_leave_outstanding_of_the_full_fold_on_histories() {
    // In the multicoordinated round every acceptor swaps random pairs of
    // the master sequence one or five apart: a swapped commuting pair
    // (neighbours, other keys) keeps the poset, a swapped conflicting pair
    // (same key) makes the reports incompatible, so their glb excludes
    // commands every report holds. In the single-coordinated round the
    // reports are prefixes of the master.
    let universe: Vec<K> = (0..60u16).map(|i| K(i % 5, i)).collect();
    let mut total = Seen::default();
    for seed in 0..6 {
        let mut rng = StdRng::seed_from_u64(seed + 150);
        let orders: Vec<Vec<K>> = (0..10)
            .map(|i| {
                let mut o = universe.clone();
                if i < 5 {
                    for _ in 0..4 {
                        let d = if rng.gen_range(0..2) == 0 { 1 } else { 5 };
                        let j = rng.gen_range(0..o.len() - d);
                        o.swap(j, j + d);
                    }
                }
                o
            })
            .collect();
        let seen = drive::<CommandHistory<K>, _>(seed + 100, 300, &universe, |ri, ai, k| {
            take(&orders[ri * 5 + ai], k)
        });
        total.skipped += seen.skipped;
        total.collided += seen.collided;
        total.retired += seen.retired;
    }
    assert!(universe[0].conflicts(&universe[5]));
    assert!(total.skipped > 0, "no fold was skippable: {total:?}");
    assert!(total.collided > 0, "no incompatible reports: {total:?}");
    assert!(total.retired > 0, "nothing retired: {total:?}");
}

#[test]
fn skipped_folds_leave_outstanding_of_the_full_fold_on_single_decrees() {
    // A decided report absorbs every proposal. In the multicoordinated
    // round acceptors decide different values (a collision: their glb is
    // ⊥ and retires nothing); in the single-coordinated one they agree.
    let universe: Vec<u32> = (0..40).collect();
    let mut total = Seen::default();
    for seed in 0..6 {
        let seen =
            drive::<SingleDecree<u32>, _>(seed + 200, 300, &universe, |ri, ai, k| match (ri, k) {
                (_, 0) => SingleDecree::bottom(),
                (0, _) => SingleDecree::decided(100 + ai as u32 % 2),
                _ => SingleDecree::decided(100),
            });
        total.skipped += seen.skipped;
        total.collided += seen.collided;
        total.retired += seen.retired;
    }
    assert!(total.skipped > 0, "no fold was skippable: {total:?}");
    assert!(total.collided > 0, "no incompatible reports: {total:?}");
    assert!(total.retired > 0, "nothing retired: {total:?}");
}
