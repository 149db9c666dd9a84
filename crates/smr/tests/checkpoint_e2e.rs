//! Replica checkpoints under delta shipping and stable-prefix compaction:
//! a crashed replica must resume from its persisted checkpoint and catch
//! up, even though the history below the watermark no longer exists
//! anywhere in the deployment.

use mcpaxos_actor::{ProcessId, SimDuration, SimTime, StableStore, WalStore};
use mcpaxos_core::{agent, DeployConfig, Msg, Policy, WireConfig};
use mcpaxos_cstruct::CommandHistory;
use mcpaxos_simnet::{NetConfig, Sim};
use mcpaxos_smr::{CmdId, KvCmd, KvOp, KvStore, Replica};
use std::sync::Arc;

const CLIENT: ProcessId = ProcessId(9_999);

type H = CommandHistory<KvCmd>;

fn deploy(sim: &mut Sim<Msg<H>>, cfg: &Arc<DeployConfig>) {
    for p in cfg.roles.all() {
        let cfg = cfg.clone();
        sim.add_process(p, move || {
            if cfg.roles.is_learner(p) {
                Box::new(Replica::<KvStore>::new(cfg.clone()))
            } else {
                agent!(H, cfg, p)
            }
        });
    }
}

fn put(i: u32) -> KvCmd {
    KvCmd {
        id: CmdId { client: 1, seq: i },
        op: KvOp::Put((i % 16) as u16, u64::from(i) * 10),
    }
}

#[test]
fn restarted_replica_resumes_from_checkpoint_under_compaction() {
    let n: u32 = 150;
    // Bounded mode: deltas, compaction every 16, checkpoints every 64.
    let cfg = Arc::new(
        DeployConfig::simple(1, 3, 5, 1, Policy::MultiCoordinated)
            .with_wire(WireConfig::bounded(16)),
    );
    cfg.validate().expect("valid config");
    let mut sim: Sim<Msg<H>> = Sim::new(41, NetConfig::lockstep());
    deploy(&mut sim, &cfg);
    let replica_pid = cfg.roles.learners()[0];
    for i in 0..n {
        sim.inject_at(
            SimTime(100 + 20 * u64::from(i)),
            cfg.roles.proposers()[0],
            CLIENT,
            Msg::Propose {
                cmd: put(i),
                acc_quorum: None,
            },
        );
    }
    // Crash the replica mid-stream, recover it shortly after. By then the
    // deployment has truncated below the watermark, so a full replay is
    // impossible — only the persisted checkpoint can bridge the gap.
    sim.crash_at(SimTime(1_600), replica_pid);
    sim.recover_at(SimTime(1_900), replica_pid);
    sim.run_until(SimTime(20_000));

    let ckpt_bytes = sim
        .storage(replica_pid)
        .and_then(|s| s.read("ckpt"))
        .expect("replica persisted a checkpoint before the crash");
    assert!(!ckpt_bytes.is_empty());

    let r = sim
        .actor::<Replica<KvStore>>(replica_pid)
        .expect("replica exists");
    assert_eq!(
        r.applied_count(),
        u64::from(n),
        "restored replica must reach all {n} commands"
    );
    // The machine state reflects every write: each key holds the value of
    // the *last* write to it in the agreed order; with one client the
    // per-key order is the proposal order, so key k holds the largest
    // i*10 with i % 16 == k.
    let m = r.machine();
    for k in 0..16u16 {
        let last = (0..n).rev().find(|i| i % 16 == u32::from(k)).unwrap();
        assert_eq!(
            m.get(k),
            Some(u64::from(last) * 10),
            "key {k} diverged after checkpoint restore"
        );
    }
    // Compaction really was active (the replay path really was gone).
    assert!(sim.metrics().total("truncations") > 0);
    let learner = r.learner();
    assert!(learner.watermark() > 0, "replica learner never truncated");
    assert!(
        learner.learned().live_len() < (n as usize),
        "live window should be smaller than the full history"
    );
}

/// Runs 400 commands through three replicas on group-commit storage of
/// kind `store`, crashing one replica mid-stream; returns the commands
/// each replica applied.
fn group_commit_run(store: fn() -> Box<dyn StableStore + Send>) -> Vec<u64> {
    let n: u32 = 400;
    let cfg = Arc::new(
        DeployConfig::simple(1, 3, 3, 3, Policy::MultiCoordinated)
            .with_wire(WireConfig::bounded(16))
            .with_group_commit(SimDuration(2)),
    );
    cfg.validate().expect("valid config");
    let mut sim: Sim<Msg<H>> = Sim::new(7, NetConfig::lockstep());
    sim.set_storage_factory(move |_| store());
    deploy(&mut sim, &cfg);
    for i in 0..n {
        sim.inject_at(
            SimTime(100 + 20 * u64::from(i)),
            cfg.roles.proposers()[0],
            CLIENT,
            Msg::Propose {
                cmd: put(i),
                acc_quorum: None,
            },
        );
    }
    let crashed = cfg.roles.learners()[1];
    sim.crash_at(SimTime(4_000), crashed);
    sim.recover_at(SimTime(4_100), crashed);
    sim.run_until(SimTime(30_000));
    cfg.roles
        .learners()
        .iter()
        .map(|&p| {
            let r = sim.actor::<Replica<KvStore>>(p).expect("replica exists");
            r.applied_count()
        })
        .collect()
}

#[test]
fn restarted_replica_on_group_commit_storage_resumes_from_a_flushed_checkpoint() {
    // A checkpoint left pending in a write-ahead log dies with the crash:
    // the replica would restart at watermark 0, below what its peers
    // still retain. Each checkpoint is flushed as it is written, so on
    // either store the restarted replica catches up.
    let mem = group_commit_run(|| Box::new(mcpaxos_actor::MemStore::new()));
    let wal = group_commit_run(|| Box::new(WalStore::new()));
    assert_eq!(mem, vec![400; 3]);
    assert_eq!(wal, vec![400; 3]);
}
