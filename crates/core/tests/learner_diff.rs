//! Differential test: the learner's *incremental* per-round quorum-glb
//! cache must learn exactly what the seed's enumerate-from-scratch rule
//! learned.
//!
//! The oracle below is the seed implementation verbatim: on every "2b" it
//! re-enumerates every quorum-sized subset of the round's reporters,
//! recomputes each subset's glb from scratch, and folds every glb into the
//! learned value. The production learner updates only the subsets
//! containing the sender and skips unchanged glbs; after every single
//! message the two must agree (poset equality).
//!
//! A report that literally extends its sender's last one in the round
//! travels as a delta, as acceptors ship them, and one in ten such
//! deltas that appends is lost: the sender's next delta must then be
//! answered with `NeedFull`, and the full value it re-ships resolves.

mod common;

use common::{combinations, Deltas, K};
use mcpaxos_actor::host::Recorder;
use mcpaxos_actor::{Actor, ProcessId};
use mcpaxos_core::{DeployConfig, Learner, Msg, Payload, Policy, Round, RTYPE_MULTI, RTYPE_SINGLE};
use mcpaxos_cstruct::{glb_all, CStruct, CmdSet, CommandHistory, Conflict};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The seed's `try_learn`, from scratch over full clones.
fn oracle_learn<C: CStruct>(learned: &mut C, reports: &BTreeMap<ProcessId, C>, qsize: usize) {
    if reports.len() < qsize {
        return;
    }
    let vals: Vec<&C> = reports.values().collect();
    for idx in combinations(vals.len(), qsize) {
        let g = glb_all(idx.iter().map(|&i| vals[i].clone()));
        *learned = learned
            .lub(&g)
            .expect("oracle: chosen values must be compatible");
    }
}

/// Drives a learner and the oracle with the same randomized "2b" stream
/// (growing values, duplicate deliveries, stale re-deliveries, multiple
/// interleaved rounds, lost deltas) and checks agreement after every
/// message.
/// `value_at(acceptor, progress)` is the report; the result lists each
/// report the learned value covered on arrival, beside that value.
fn drive<C, F>(seed: u64, steps: usize, mut value_at: F) -> Vec<(C, C)>
where
    C: CStruct,
    F: FnMut(u32, usize) -> C,
{
    let cfg = Arc::new(DeployConfig::simple(1, 3, 5, 1, Policy::MultiCoordinated));
    let qsize = cfg.quorums.classic_size();
    let mut learner: Learner<C> = Learner::new(cfg);
    // The test inspects `learned` and the learner's `NeedFull`s.
    let mut ctx = Recorder::new(9);
    let mut rng = StdRng::seed_from_u64(seed);
    let rounds = [
        Round::new(0, 1, 0, RTYPE_MULTI),
        Round::new(0, 2, 1, RTYPE_SINGLE),
    ];
    // Oracle state: learned value + blind per-round report maps.
    let mut oracle_learned = C::bottom();
    let mut oracle_reports: BTreeMap<Round, BTreeMap<ProcessId, C>> = BTreeMap::new();
    // Per (round, acceptor): how much of the round's master sequence the
    // acceptor has reported (grows, occasionally re-sent stale).
    let mut progress: BTreeMap<(usize, u32), usize> = BTreeMap::new();
    let mut covered = Vec::new();
    let mut deltas = Deltas::new();
    // The (round, acceptor) pairs whose last delta was lost.
    let mut lost = BTreeSet::new();

    for _ in 0..steps {
        let ri = rng.gen_range(0..rounds.len());
        let acc = 4 + rng.gen_range(0..5u32); // acceptors a4..a8
        let entry = progress.entry((ri, acc)).or_insert(0);
        // 20%: duplicate/stale re-delivery of the current snapshot;
        // otherwise grow by 0..3 commands first.
        if rng.gen_range(0..10) >= 2 {
            *entry += rng.gen_range(0..3usize);
        }
        let val = value_at(acc, *entry);
        let (round, from) = (rounds[ri], ProcessId(acc));
        let payload = deltas.ship(round, from, &val);
        let appends = matches!(&payload, Payload::Delta { suffix, .. } if !suffix.is_empty());
        if appends && !lost.contains(&(ri, acc)) && rng.gen_range(0..10) == 0 {
            lost.insert((ri, acc));
            continue;
        }
        if val.le(learner.learned()) {
            covered.push((val.clone(), learner.learned().clone()));
        }

        let gap = lost.remove(&(ri, acc)) && payload.is_delta();
        ctx.sent.clear();
        learner.on_message(
            from,
            Msg::P2b {
                round,
                val: payload,
            },
            &mut ctx,
        );
        let need_full = Msg::NeedFull { round };
        assert_eq!(ctx.sent.contains(&(from, need_full)), gap);
        if gap {
            let val = Payload::full(val.clone());
            learner.on_message(from, Msg::P2b { round, val }, &mut ctx);
        }
        let reports = oracle_reports.entry(rounds[ri]).or_default();
        reports.insert(ProcessId(acc), val);
        oracle_learn(&mut oracle_learned, reports, qsize);

        assert_eq!(
            learner.learned(),
            &oracle_learned,
            "incremental learner diverged from enumerate-from-scratch oracle"
        );
        assert_eq!(learner.learned().count(), oracle_learned.count());
    }
    covered
}

#[test]
fn incremental_matches_oracle_on_sets() {
    // Fully commuting commands: every subset glb is an intersection.
    for seed in 0..6 {
        drive::<CmdSet<u32>, _>(seed, 120, |_, k| (0..k as u32).collect());
    }
}

#[test]
fn incremental_matches_oracle_on_histories() {
    // Command histories over a master sequence with a mix of conflicting
    // (same-key) and commuting commands; acceptors report prefixes of the
    // master, as accepting quorums do.
    let master: Vec<K> = (0..64u16).map(|i| K(i % 5, i)).collect();
    for seed in 0..6 {
        let m = master.clone();
        drive::<CommandHistory<K>, _>(seed + 100, 120, move |_, k| {
            m.iter().take(k).cloned().collect()
        });
    }
}

#[test]
fn incremental_matches_oracle_under_heavy_duplication() {
    // Every value re-delivered many times: exercises the unchanged-report
    // fast path against the oracle's blind recomputation.
    let master: Vec<K> = (0..32u16).map(|i| K(i % 3, i)).collect();
    let m = master.clone();
    drive::<CommandHistory<K>, _>(7777, 300, move |_, k| {
        m.iter().take(k.min(8)).cloned().collect()
    });
}

#[test]
fn incremental_matches_oracle_on_commuting_reorders() {
    // Each acceptor reports a prefix of the master in its own sequence:
    // commuting neighbours swapped at random, so the poset is the prefix's
    // but the representation is not. Whether the learned value covers a
    // report is then the general `le`, not a literal-prefix test.
    let master: Vec<K> = (0..64u16).map(|i| K(i % 5, i)).collect();
    let mut general = 0;
    for seed in 0..6 {
        let m = master.clone();
        let mut rng = StdRng::seed_from_u64(seed + 300);
        let covered = drive::<CommandHistory<K>, _>(seed + 200, 120, move |_, k| {
            let mut seq: Vec<K> = m.iter().take(k).cloned().collect();
            for _ in 0..k {
                let i = rng.gen_range(0..seq.len().max(2) - 1);
                if i + 1 < seq.len() && !seq[i].conflicts(&seq[i + 1]) {
                    seq.swap(i, i + 1);
                }
            }
            seq.into_iter().collect()
        });
        general += covered
            .iter()
            .filter(|(v, learned)| !learned.as_slice().starts_with(v.as_slice()))
            .count();
    }
    assert!(
        general > 0,
        "no covered report that is not a literal prefix"
    );
}
