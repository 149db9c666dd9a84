//! Differential test: the acceptor's vote after every "2a" must equal what
//! `Phase2bClassic`'s full quorum fold makes it.
//!
//! The oracle below folds on every "2a" it does not reject: once the
//! round's reports hold a coordinator quorum, `u` is the lub of every
//! quorum's glb, and the vote becomes `lub(vval, u)` — or `u` alone for the
//! round's first accept. A report incompatible with another of its round
//! is a §4.2 collision instead: the acceptor moves to the successor round
//! and accepts nothing. The acceptor reads `u` off a ⊑-chain when the
//! reports form one; after every single message the two must agree.
//!
//! The streams cover every shape that read branches on: literal prefixes,
//! commuting swaps (⊑ but not a prefix), exact duplicates, equal-length
//! divergent sets, and conflicting reorders that collide.

mod common;

use common::{combinations, needs_full, Deltas, K};
use mcpaxos_actor::host::Recorder;
use mcpaxos_actor::{Actor, ProcessId};
use mcpaxos_core::{Acceptor, DeployConfig, Msg, Policy, Round, RTYPE_MULTI, RTYPE_SINGLE};
use mcpaxos_cstruct::{glb_all, CStruct, CmdSet, CommandHistory};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The acceptor's `(rnd, vrnd, vval)` under the full fold, plus how many
/// accepted "2a"s its vote already covered and how many collided.
struct Oracle<C> {
    rnd: Round,
    vrnd: Round,
    vval: C,
    reports: BTreeMap<Round, BTreeMap<ProcessId, C>>,
    covered: usize,
    collisions: usize,
}

impl<C: CStruct> Oracle<C> {
    fn new() -> Self {
        Oracle {
            rnd: Round::ZERO,
            vrnd: Round::ZERO,
            vval: C::bottom(),
            reports: BTreeMap::new(),
            covered: 0,
            collisions: 0,
        }
    }

    /// `Phase2bClassic` on `from`'s "2a" of `val` for `round`, whose
    /// coordinator quorums have `qsize` members and whose collisions are
    /// recovered in `next`.
    fn deliver(&mut self, from: ProcessId, round: Round, val: C, qsize: usize, next: Round) {
        if round < self.rnd {
            return; // nacked
        }
        let reports = self.reports.entry(round).or_default();
        reports.insert(from, val.clone());
        if reports
            .iter()
            .any(|(&c, v)| c != from && !v.compatible(&val))
        {
            self.collide(next);
            return;
        }
        if reports.len() < qsize {
            return;
        }
        if self.vrnd == round && val.le(&self.vval) {
            self.covered += 1;
        }
        let vals: Vec<&C> = reports.values().collect();
        let u = combinations(vals.len(), qsize)
            .into_iter()
            .map(|idx| glb_all(idx.iter().map(|&i| vals[i].clone())))
            .reduce(|u, g| u.lub(&g).expect("oracle: quorum glbs are compatible"))
            .expect("a quorum");
        self.vval = if self.vrnd == round {
            match self.vval.lub(&u) {
                Some(v) => v,
                None => return self.collide(next),
            }
        } else {
            u
        };
        self.vrnd = round;
        self.rnd = round;
    }

    /// `handle_mc_collision`: behave as if a "1a" for `next` had arrived.
    fn collide(&mut self, next: Round) {
        self.collisions += 1;
        self.rnd = self.rnd.max(next);
    }
}

/// Drives one acceptor and the oracle with the same random "2a" stream:
/// three coordinators in a multicoordinated round, then its owner alone in
/// a higher single-coordinated one. Each coordinator's value grows
/// (`value_at(coordinator, progress)`); a fifth of the deliveries re-send
/// the current value or an older one, and once the single-coordinated
/// round has started some stale multicoordinated "2a"s still arrive.
/// Returns the oracle, for what it counted.
fn drive<C, F>(seed: u64, steps: usize, value_at: F) -> Oracle<C>
where
    C: CStruct,
    F: Fn(usize, usize) -> C,
{
    let cfg = Arc::new(DeployConfig::simple(1, 3, 5, 1, Policy::MultiCoordinated));
    let coords = cfg.roles.coordinators().to_vec();
    let mut acceptor: Acceptor<C> = Acceptor::new(cfg.clone());
    let mut ctx = Recorder::new(cfg.roles.acceptors()[0].raw());
    acceptor.on_start(&mut ctx);
    let mut oracle = Oracle::<C>::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let multi = Round::new(0, 1, 0, RTYPE_MULTI);
    let single = Round::new(0, 2, 1, RTYPE_SINGLE);
    let switch = rng.gen_range(steps / 3..2 * steps / 3);
    let mut progress: BTreeMap<(Round, usize), usize> = BTreeMap::new();
    let mut deltas = Deltas::new();
    for step in 0..steps {
        let (round, ci) = if step < switch || rng.gen_range(0..10) == 0 {
            (multi, rng.gen_range(0..coords.len()))
        } else {
            (single, 1) // the round's owner
        };
        let at = progress.entry((round, ci)).or_insert(0);
        let k = match rng.gen_range(0..10) {
            0 => *at,                          // duplicate
            1 => *at - rng.gen_range(0..=*at), // stale
            _ => {
                *at += rng.gen_range(1..4usize);
                *at
            }
        };
        let val = value_at(ci, k);
        let qsize = cfg.schedule.coord_quorum(round).quorum_size();
        let (vrnd, vote) = (acceptor.vrnd(), acceptor.vval().suffix_from(0));
        let payload = deltas.ship(round, coords[ci], &val);
        acceptor.on_message(
            coords[ci],
            Msg::P2a {
                round,
                val: payload,
            },
            &mut ctx,
        );
        oracle.deliver(coords[ci], round, val, qsize, cfg.schedule.next(round));
        assert_eq!(acceptor.rnd(), oracle.rnd, "step {step}");
        assert_eq!(acceptor.vrnd(), oracle.vrnd, "step {step}");
        assert_eq!(
            acceptor.vval(),
            &oracle.vval,
            "step {step}: the vote diverged from the full fold"
        );
        // Within a round a sequence-shaped vote grows by appends: the
        // "2b" delta bases rely on it.
        if let (Some(old), Some(new)) = (vote, acceptor.vval().suffix_from(0)) {
            if acceptor.vrnd() == vrnd {
                assert!(new.starts_with(&old), "step {step}: the vote was reordered");
            }
        }
    }
    assert!(!needs_full(&ctx), "a delta did not resolve");
    oracle
}

#[test]
fn covered_reports_leave_the_vote_of_the_full_fold_on_sets() {
    // Each coordinator adds the commands in its own order, so quorum glbs
    // are proper intersections.
    let mut covered = 0;
    for seed in 0..6 {
        let mut rng = StdRng::seed_from_u64(seed + 50);
        let orders: Vec<Vec<u32>> = (0..3)
            .map(|_| {
                let mut o: Vec<u32> = (0..200).collect();
                for i in (1..o.len()).rev() {
                    o.swap(i, rng.gen_range(0..=i));
                }
                o
            })
            .collect();
        covered += drive::<CmdSet<u32>, _>(seed, 150, |ci, k| {
            orders[ci].iter().take(k).copied().collect()
        })
        .covered;
    }
    assert!(covered > 0, "no covered report was exercised");
}

#[test]
fn covered_reports_leave_the_vote_of_the_full_fold_on_histories() {
    // Coordinators report prefixes of one master sequence of conflicting
    // (same-key) and commuting commands, as compatible "2a"s do.
    let master: Vec<K> = (0..400u16).map(|i| K(i % 5, i)).collect();
    let mut covered = 0;
    for seed in 0..6 {
        covered += drive::<CommandHistory<K>, _>(seed + 100, 150, |_, k| {
            master.iter().take(k).cloned().collect()
        })
        .covered;
    }
    assert!(covered > 0, "no covered report was exercised");
}

#[test]
fn commuting_swaps_leave_the_vote_of_the_full_fold() {
    // Coordinator 1 orders each commuting pair (3j+1, 3j+2) the other way:
    // its reports are ⊑-related to the others, but no literal prefix.
    let master: Vec<K> = (0..400u16).map(|i| K(i % 5, i)).collect();
    for seed in 0..6 {
        let oracle = drive::<CommandHistory<K>, _>(seed + 200, 150, |ci, k| {
            let mut cmds = master[..k].to_vec();
            if ci == 1 {
                for j in (1..k.saturating_sub(1)).step_by(3) {
                    cmds.swap(j, j + 1);
                }
            }
            cmds.into_iter().collect()
        });
        assert_eq!(oracle.collisions, 0, "commuting swaps never collide");
    }
}

#[test]
fn duplicates_and_equal_length_divergence_leave_the_vote_of_the_full_fold() {
    // Reports in steps of four: coordinators often send equal values.
    let master: Vec<K> = (0..400u16).map(|i| K(i % 5, i)).collect();
    for seed in 0..6 {
        drive::<CommandHistory<K>, _>(seed + 300, 150, |_, k| {
            master.iter().take(k / 4 * 4).cloned().collect()
        });
    }
    // Every coordinator also holds one command of its own: reports of
    // equal length, common in steps of four, differ, and no two reports
    // of distinct coordinators form a chain.
    for seed in 0..6 {
        drive::<CmdSet<u32>, _>(seed + 400, 150, |ci, k| {
            (0..(k / 4 * 4) as u32).chain([1_000 + ci as u32]).collect()
        });
    }
}

#[test]
fn conflicting_reorders_collide_as_the_oracle_does() {
    // Coordinator 2 swaps a same-key pair at a seed-dependent depth: its
    // reports turn incompatible with the others' once both are in.
    let master: Vec<K> = (0..400u16).map(|i| K(i % 5, i)).collect();
    let mut collisions = 0;
    for seed in 0..8 {
        let at = 5 * (seed as usize % 4);
        let oracle = drive::<CommandHistory<K>, _>(seed + 500, 150, |ci, k| {
            let mut cmds = master[..k].to_vec();
            if ci == 2 && at + 5 < k {
                cmds.swap(at, at + 5);
            }
            cmds.into_iter().collect()
        });
        collisions += oracle.collisions;
    }
    assert!(collisions > 0, "no collision was exercised");
}
