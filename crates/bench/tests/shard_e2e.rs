//! End-to-end sharding tests: full consensus (proposers, coordinators,
//! acceptors, learners) on every shard, driven through the
//! [`ShardedHarness`].
//!
//! The differential test pins sharded semantics against an unsharded run:
//! seed deposits land first (driven to completion), then a mixed wave of
//! deposits, cross-shard transfers and one universal-key audit. Because
//! every account is seeded far above the total transfer volume, no guarded
//! operation can fail in any legal order, so the final bank state is
//! order-independent — 1-, 2- and 3-shard runs must agree exactly, and so
//! must a 2-shard run whose shards batch and pipeline their waves.

use mcpaxos_actor::{SimDuration, WalStore};
use mcpaxos_bench::ShardedHarness;
use mcpaxos_core::{BatchConfig, DeployConfig, Policy, WireConfig};
use mcpaxos_cstruct::CStruct;
use mcpaxos_simnet::{NetConfig, Sim};
use mcpaxos_smr::{Bank, BankCmd, BankOp, CmdId, Workload};

const ACCOUNTS: u16 = 16;
const SEED_AMOUNT: u32 = 1_000_000;
const WAVE: usize = 60;

/// Runs the two-wave workload on `shards` consensus instances, each shard's
/// configuration adjusted by `tune`, and returns the merged bank state.
fn run_sharded(shards: u16, tune: impl Fn(DeployConfig) -> DeployConfig) -> Bank {
    let sim = Sim::new(11, NetConfig::lockstep());
    let mut h = ShardedHarness::new(shards, Policy::MultiCoordinated, sim, tune);

    // Wave 1: seed every account, and let the cluster finish learning the
    // seeds before any guarded command is proposed.
    let mut t = 100;
    for a in 0..ACCOUNTS {
        h.submit_at(
            t,
            BankCmd {
                id: CmdId {
                    client: 8,
                    seq: u32::from(a),
                },
                op: BankOp::Deposit {
                    account: a,
                    amount: SEED_AMOUNT,
                },
            },
        );
        t += 2;
    }
    t = h.drive_until_done(100_000);
    assert!(h.done(), "{shards}-shard seed wave stalled at t={t}");

    // Wave 2: deposits + transfers (cross-shard when the accounts hash to
    // different shards), closed by a universal-key audit that involves
    // every shard.
    let mut w = Workload::new(11, 0, 0.0)
        .with_cold_keys(ACCOUNTS)
        .with_transfer_fraction(0.25);
    for _ in 0..WAVE {
        t += 2;
        let cmd = w.next_sharded_bank();
        h.submit_at(t, cmd);
    }
    t += 2;
    h.submit_at(
        t,
        BankCmd {
            id: CmdId { client: 9, seq: 0 },
            op: BankOp::Audit,
        },
    );
    let end = h.drive_until_done(t + 400_000);
    assert!(h.done(), "{shards}-shard main wave stalled at t={end}");

    let rep = h.merged();
    let total = usize::from(ACCOUNTS) + WAVE + 1;
    assert_eq!(
        rep.applied_count(),
        total as u64,
        "{shards}-shard run must apply every command exactly once"
    );
    assert_eq!(
        rep.pending(),
        0,
        "{shards}-shard merge left commands stranded"
    );
    rep.machine().clone()
}

#[test]
fn sharded_runs_match_unsharded_differential() {
    let unsharded = run_sharded(1, |c| c);
    assert_eq!(
        unsharded.rejected(),
        0,
        "seeding must make every transfer succeed"
    );
    assert_eq!(unsharded.audits(), 1);
    for shards in [2u16, 3] {
        let sharded = run_sharded(shards, |c| c);
        assert_eq!(
            sharded, unsharded,
            "{shards}-shard final state diverged from the unsharded run"
        );
    }
    let batched = run_sharded(2, |c| {
        c.with_batching(BatchConfig {
            queue_cap: 0,
            ..BatchConfig::pipelined(8, 4)
        })
    });
    assert_eq!(
        batched, unsharded,
        "2-shard batched (8/4) final state diverged from the unsharded run"
    );
}

/// Each shard runs its own durability and compaction machinery: WAL-backed
/// acceptors accumulate writes per shard, and the stable-prefix watermark
/// advances only on shards with enough learned traffic.
#[test]
fn per_shard_wal_and_watermarks_are_independent() {
    let mut sim = Sim::new(17, NetConfig::lockstep());
    sim.set_storage_factory(|_| Box::new(WalStore::new()));
    let mut h = ShardedHarness::new(2, Policy::MultiCoordinated, sim, |c| {
        c.with_wire(WireConfig::bounded(8))
            .with_group_commit(SimDuration(4))
    });

    // Unbalanced single-account load: plenty of commands for shard 0,
    // fewer than one compaction segment for shard 1.
    let router = h.router();
    let shard0_account = (0..ACCOUNTS)
        .find(|&a| router.shard_of_key(u64::from(a)) == 0)
        .expect("some account hashes to shard 0");
    let shard1_account = (0..ACCOUNTS)
        .find(|&a| router.shard_of_key(u64::from(a)) == 1)
        .expect("some account hashes to shard 1");
    let mut t = 100;
    let mut seq = 0u32;
    let mut deposit = |h: &mut ShardedHarness, t: u64, account: u16| {
        h.submit_at(
            t,
            BankCmd {
                id: CmdId {
                    client: 1,
                    seq: {
                        seq += 1;
                        seq
                    },
                },
                op: BankOp::Deposit {
                    account,
                    amount: 10,
                },
            },
        );
    };
    for _ in 0..40 {
        deposit(&mut h, t, shard0_account);
        t += 2;
    }
    for _ in 0..3 {
        deposit(&mut h, t, shard1_account);
        t += 2;
    }
    let end = h.drive_until_done(200_000);
    assert!(h.done(), "unbalanced run stalled at t={end}");
    // (No end-time merge here: shard 0's learned prefix has been
    // compacted away, so completeness is checked via logical lengths —
    // a late-joining replica would restore from a checkpoint instead.)
    assert_eq!(h.learned(0).total_len(), 40);
    assert_eq!(h.learned(1).total_len(), 3);

    // Compaction advanced on the busy shard only: per-shard watermarks
    // are independent, not a cluster-wide property.
    assert!(
        h.learned(0).watermark() >= 8,
        "busy shard never compacted: watermark {}",
        h.learned(0).watermark()
    );
    assert_eq!(
        h.learned(1).watermark(),
        0,
        "idle shard compacted despite being under one segment"
    );

    // Both shards' acceptors persisted votes to their own WALs, and the
    // busy shard wrote more: durability is per shard, not shared.
    let w0 = h.acceptor_writes(0);
    let w1 = h.acceptor_writes(1);
    assert!(
        w0.iter().all(|&w| w > 0),
        "shard-0 acceptor never synced: {w0:?}"
    );
    assert!(
        w1.iter().all(|&w| w > 0),
        "shard-1 acceptor never synced: {w1:?}"
    );
    assert!(
        w0.iter().sum::<u64>() > w1.iter().sum::<u64>(),
        "busy shard should sync more than the idle one ({w0:?} vs {w1:?})"
    );
}
