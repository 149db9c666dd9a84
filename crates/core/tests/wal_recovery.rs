//! Crash-recovery soundness over durable WAL stores.
//!
//! Two layers of coverage:
//!
//! 1. **Property tests** — seeded simnet runs with acceptors crashed and
//!    recovered at random points, under both [`Durability`] modes and
//!    both flush disciplines (per-vote sync, group commit). At the crash
//!    the store drops its unflushed buffer; recovery must resume from
//!    exactly the flushed state — the vote never regresses, safety holds
//!    end to end, and a ProvedSafe pick over the final acceptor states is
//!    an upper bound of everything learned.
//!
//! 2. **Corruption-path unit tests** — an acceptor recovering over a
//!    store whose records are corrupt or missing must *not* crash-loop
//!    (the seed behavior was `expect("corrupt vote…")`): it falls back to
//!    the strongest surviving evidence and surfaces the damage through
//!    the `corrupt_records` / `lost_records` metrics.

mod common;

use common::{assert_safety, deploy, learned, propose_at};
use mcpaxos_actor::host::Recorder;
use mcpaxos_actor::wire::{from_bytes, to_bytes};
use mcpaxos_actor::{Actor, MemStore, ProcessId, SimDuration, SimTime, StableStore, WalStore};
use mcpaxos_core::agents::metrics::{CORRUPT_RECORDS, LOST_RECORDS};
use mcpaxos_core::{
    pick, proved_safe, Acceptor, DeployConfig, Durability, Msg, OneB, Policy, Round,
};
use mcpaxos_cstruct::{CStruct, CmdSet};
use mcpaxos_simnet::{DelayDist, NetConfig, Sim};
use proptest::prelude::*;
use std::sync::Arc;

type C = CmdSet<u32>;

const PROPOSED: [u32; 6] = [0, 1, 2, 3, 4, 5];

/// A 1/2/3/2 cluster on buffering WAL stores; the agents flush what they
/// rely on, with or without a group-commit window.
fn wal_sim(
    seed: u64,
    durability: Durability,
    group_commit: u64,
) -> (Arc<DeployConfig>, Sim<Msg<C>>) {
    let cfg = Arc::new(
        DeployConfig::simple(1, 2, 3, 2, Policy::MultiCoordinated)
            .with_durability(durability)
            .with_group_commit(SimDuration(group_commit)),
    );
    let net = NetConfig::lockstep().with_delay(DelayDist::Uniform(1, 4));
    let mut sim: Sim<Msg<C>> = Sim::new(seed, net);
    sim.set_storage_factory(|_| Box::new(WalStore::new()));
    deploy(&mut sim, &cfg);
    (cfg, sim)
}

/// Decodes the flushed (crash-surviving) vote of acceptor `a`.
fn durable_vote(sim: &Sim<Msg<C>>, a: ProcessId) -> Option<(Round, C)> {
    let bytes = sim.storage(a)?.flushed_read("vote")?;
    Some(from_bytes(bytes).expect("flushed vote record must decode"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Crash an acceptor at a random point, recover it later: its vote
    /// resumes from the flushed state and never regresses below it, the
    /// run stays safe, and the final ProvedSafe pick dominates every
    /// learned value.
    #[test]
    fn crash_recovery_never_regresses_votes(
        seed in 0u64..10_000,
        victim in 0usize..3,
        t_crash in 150u64..900,
        dt_recover in 50u64..500,
        naive in any::<bool>(),
        group_commit in prop_oneof![Just(0u64), Just(3u64)],
    ) {
        let durability = if naive { Durability::Naive } else { Durability::Reduced };
        let (cfg, mut sim) = wal_sim(seed, durability, group_commit);
        for (i, &cmd) in PROPOSED.iter().enumerate() {
            propose_at(&mut sim, &cfg, SimTime(100 + 60 * i as u64), 0, cmd);
        }
        let a = cfg.roles.acceptors()[victim];
        sim.crash_at(SimTime(t_crash), a);
        let t_rec = t_crash + dt_recover;
        sim.recover_at(SimTime(t_rec), a);

        // At the crash the store has dropped its unflushed buffer: what
        // `flushed_read` returns now is the durable truth.
        sim.run_until(SimTime(t_crash));
        let snap = durable_vote(&sim, a);

        // Just after recovery the acceptor must have resumed from at
        // least that state (commuting commands: the vote only grows).
        sim.run_until(SimTime(t_rec));
        let acc = sim.actor::<Acceptor<C>>(a).expect("recovered acceptor");
        if let Some((vrnd, vval)) = &snap {
            prop_assert!(
                acc.vrnd() >= *vrnd,
                "vote round regressed: flushed {vrnd:?}, recovered {:?}",
                acc.vrnd()
            );
            prop_assert!(
                vval.le(acc.vval()),
                "vote value regressed: flushed {vval:?}, recovered {:?}",
                acc.vval()
            );
        }

        // Run to quiescence: full safety, and liveness (a majority of
        // acceptors never crashed and the network is lossless).
        sim.run_until(SimTime(12_000));
        assert_safety(&sim, &cfg, &PROPOSED);
        let l: C = learned(&sim, &cfg, 0);
        prop_assert_eq!(l.count(), PROPOSED.len(), "liveness after recovery");

        // Every acceptor's durable vote still decodes, and a ProvedSafe
        // pick over the live reports upper-bounds everything learned.
        let reports: Vec<OneB<C>> = cfg
            .roles
            .acceptors()
            .iter()
            .map(|&p| {
                let acc = sim.actor::<Acceptor<C>>(p).expect("acceptor up");
                prop_assert!(durable_vote(&sim, p).is_some(), "no durable vote at {p}");
                Ok(OneB {
                    from: p,
                    vrnd: acc.vrnd(),
                    vval: Arc::new(acc.vval().clone()),
                })
            })
            .collect::<Result<_, _>>()?;
        let sched = cfg.schedule.clone();
        let safe = pick(proved_safe(&reports, &cfg.quorums, |r| sched.kind(r)));
        for li in 0..cfg.roles.learners().len() {
            let lv: C = learned(&sim, &cfg, li);
            prop_assert!(
                lv.le(&safe),
                "ProvedSafe pick {safe:?} does not dominate learned {lv:?}"
            );
        }
    }

    /// Two acceptors crashing at staggered points (never losing a
    /// majority simultaneously for long) still converge safely.
    #[test]
    fn staggered_double_crash_stays_safe(
        seed in 0u64..10_000,
        t1 in 150u64..500,
        t2 in 600u64..1_000,
        group_commit in prop_oneof![Just(0u64), Just(3u64)],
    ) {
        let (cfg, mut sim) = wal_sim(seed, Durability::Reduced, group_commit);
        for (i, &cmd) in PROPOSED.iter().enumerate() {
            propose_at(&mut sim, &cfg, SimTime(100 + 80 * i as u64), 0, cmd);
        }
        let accs = cfg.roles.acceptors().to_vec();
        sim.crash_at(SimTime(t1), accs[0]);
        sim.recover_at(SimTime(t1 + 120), accs[0]);
        sim.crash_at(SimTime(t2), accs[1]);
        sim.recover_at(SimTime(t2 + 120), accs[1]);
        sim.run_until(SimTime(15_000));
        assert_safety(&sim, &cfg, &PROPOSED);
        let l: C = learned(&sim, &cfg, 0);
        prop_assert_eq!(l.count(), PROPOSED.len(), "liveness after double crash");
    }
}

// ----- corruption-path unit coverage (satellites: no more crash loops) ----

fn cluster(durability: Durability) -> Arc<DeployConfig> {
    Arc::new(DeployConfig::simple(1, 3, 5, 1, Policy::MultiCoordinated).with_durability(durability))
}

/// A recorder for acceptor a4 of the 1/3/5/1 layout over `store`.
fn rec_ctx(store: Box<dyn StableStore>) -> Recorder<Msg<C>> {
    let mut ctx = Recorder::new(4);
    ctx.store = store;
    ctx
}

/// Encodes a `(vrnd, vval)` vote record as the acceptor persists it.
fn vote_bytes(vrnd: Round, cmds: &[u32]) -> Vec<u8> {
    let vval: C = cmds.iter().copied().collect();
    to_bytes(&(vrnd, vval))
}

#[test]
fn corrupt_vote_record_recovers_from_bottom() {
    let mut store = MemStore::new();
    store.write("vote", vec![0xFF, 0x13, 0x37]); // garbage
    let mut ctx = rec_ctx(Box::new(store));
    let mut a: Acceptor<C> = Acceptor::new(cluster(Durability::Reduced));
    a.on_recover(&mut ctx); // seed behavior: panicked here
    assert!(a.vval().is_bottom(), "corrupt vote falls back to bottom");
    assert_eq!(a.vrnd(), Round::ZERO);
    assert_eq!(ctx.metric_total(CORRUPT_RECORDS), 1);
}

#[test]
fn corrupt_major_record_falls_back_to_vote_round() {
    let vrnd = Round::new(3, 7, 0, mcpaxos_core::RTYPE_SINGLE);
    let mut store = MemStore::new();
    store.write("vote", vote_bytes(vrnd, &[5]));
    store.write("major", vec![0xEE]); // undecodable MCount
    let mut ctx = rec_ctx(Box::new(store));
    let mut a: Acceptor<C> = Acceptor::new(cluster(Durability::Reduced));
    a.on_recover(&mut ctx);
    assert_eq!(a.vrnd(), vrnd, "vote survives");
    assert_eq!(
        a.rnd().major,
        vrnd.major + 1,
        "recovery resumes one major above the strongest surviving evidence"
    );
    assert_eq!(ctx.metric_total(CORRUPT_RECORDS), 1);
}

#[test]
fn lost_major_record_is_surfaced_not_silently_zeroed() {
    let vrnd = Round::new(2, 4, 0, mcpaxos_core::RTYPE_SINGLE);
    let mut store = MemStore::new();
    store.write("vote", vote_bytes(vrnd, &[9])); // vote flushed, MCount lost
    let mut ctx = rec_ctx(Box::new(store));
    let mut a: Acceptor<C> = Acceptor::new(cluster(Durability::Reduced));
    a.on_recover(&mut ctx);
    assert_eq!(a.rnd().major, vrnd.major + 1, "floor derived from the vote");
    assert_eq!(ctx.metric_total(LOST_RECORDS), 1);
    assert_eq!(ctx.metric_total(CORRUPT_RECORDS), 0);
}

#[test]
fn naive_lost_promise_record_does_not_repromise_from_zero() {
    // The seed's `unwrap_or(Round::ZERO)` re-promised from scratch when
    // the rnd record was missing, letting the acceptor answer "1a"s it
    // had already promised past. Naive mode writes rnd at startup, so a
    // surviving vote without it means the record was lost.
    let vrnd = Round::new(0, 6, 0, mcpaxos_core::RTYPE_SINGLE);
    let mut store = MemStore::new();
    store.write("vote", vote_bytes(vrnd, &[3]));
    let mut ctx = rec_ctx(Box::new(store));
    let mut a: Acceptor<C> = Acceptor::new(cluster(Durability::Naive));
    a.on_recover(&mut ctx);
    assert_eq!(a.rnd(), vrnd, "promise floored at the surviving vote round");
    assert_eq!(ctx.metric_total(LOST_RECORDS), 1);
}

#[test]
fn naive_genuinely_fresh_store_starts_from_zero() {
    let mut ctx = rec_ctx(Box::new(MemStore::new()));
    let mut a: Acceptor<C> = Acceptor::new(cluster(Durability::Naive));
    a.on_recover(&mut ctx);
    assert_eq!(a.rnd(), Round::ZERO, "nothing stored: a true cold start");
    assert_eq!(ctx.metric_total(LOST_RECORDS), 0);
    assert_eq!(ctx.metric_total(CORRUPT_RECORDS), 0);
}

#[test]
fn corrupt_wal_tail_truncates_and_reports_through_recovery() {
    // End to end through a WalStore: persist two votes, corrupt the log
    // tail, recover. The store truncates to the last good record; the
    // acceptor resumes from it and reports the repair.
    let cfg = cluster(Durability::Reduced);
    let mut wal = WalStore::new();
    let r1 = Round::new(0, 1, 0, mcpaxos_core::RTYPE_SINGLE);
    let r2 = Round::new(0, 2, 0, mcpaxos_core::RTYPE_SINGLE);
    wal.write("major", to_bytes(&0u32));
    wal.write("vote", vote_bytes(r1, &[1]));
    wal.flush();
    wal.write("vote", vote_bytes(r2, &[1, 2]));
    wal.flush();
    wal.corrupt_tail(4); // clobber the CRC of the last record
    wal.lose_unflushed(); // models re-opening the damaged log
    let mut ctx = rec_ctx(Box::new(wal));
    let mut a: Acceptor<C> = Acceptor::new(cfg);
    a.on_recover(&mut ctx);
    assert_eq!(a.vrnd(), r1, "resumed from the last good vote record");
    assert_eq!(a.vval(), &[1u32].iter().copied().collect::<C>());
    assert!(
        ctx.metric_total(CORRUPT_RECORDS) >= 1,
        "log repair surfaced: {:?}",
        ctx.metrics
    );
}
