//! Deterministic wire chaos over real sockets: every process on its own
//! [`TcpNode`] so all consensus traffic crosses the wire, with a seeded
//! [`FaultConfig::chaos`] engine on every outbound link injecting
//! drops, duplicates, corruptions, stalls (reordering) and deliberate
//! disconnects. The protocol's resend/`NeedFull` machinery plus the
//! transport's CRC-teardown-and-reconnect supervision must ride through
//! all of it: every command is learned, corrupt frames are caught at
//! the framing layer (never delivered to an agent), and the connections
//! demonstrably died and came back.

mod common;

use common::{cmd, delta_cfg, of, settle, total, H, K, M};
use mcpaxos_actor::ProcessId;
use mcpaxos_core::{agent, Learner, Msg};
use mcpaxos_cstruct::CStruct;
use mcpaxos_runtime::{FaultConfig, PeerTable, TcpConfig, TcpNode};
use std::collections::HashSet;

const N_CMDS: u32 = 40;

fn run_chaos(seed: u64) -> (i64, i64) {
    let peers = PeerTable::shared();
    // Harsher than `FaultConfig::chaos`: a short CI run only pushes a
    // few hundred frames per link group, so the rare faults (corrupt,
    // disconnect) need rates that make their expected count ≫ 1.
    let faults = FaultConfig {
        corrupt_per_mille: 30,
        disconnect_per_mille: 10,
        drop_per_mille: 25,
        dup_per_mille: 20,
        stall_per_mille: 20,
        ..FaultConfig::chaos(seed)
    };
    let tcp = TcpConfig::default().with_faults(faults);
    let cfg = delta_cfg(1, 2, 3, 2);
    cfg.validate().unwrap();

    // One node per process: every message between agents is a framed
    // TCP send through the fault engine.
    let mut nodes: Vec<TcpNode<M>> = Vec::new();
    for _ in cfg.roles.all() {
        nodes.push(TcpNode::bind(peers.clone(), tcp.clone()).unwrap());
    }
    let mut it = nodes.iter_mut();
    let proposer = cfg.roles.proposers()[0];
    it.next().unwrap().spawn(proposer, agent!(H, cfg, proposer));
    for &c in cfg.roles.coordinators() {
        it.next().unwrap().spawn(c, agent!(H, cfg, c));
    }
    for &a in cfg.roles.acceptors() {
        it.next().unwrap().spawn(a, agent!(H, cfg, a));
    }
    for &l in cfg.roles.learners() {
        it.next().unwrap().spawn(l, agent!(H, cfg, l));
    }

    let client = ProcessId(9_999);
    for i in 0..N_CMDS {
        nodes[0].send(
            proposer,
            client,
            Msg::Propose {
                cmd: cmd(i),
                acc_quorum: None,
            },
        );
    }

    let refs: Vec<&TcpNode<M>> = nodes.iter().collect();
    settle(&refs, &cfg, i64::from(N_CMDS));

    let frame_errors = total(&refs, "tcp_frame_errors");
    let reconnects = total(&refs, "tcp_reconnects");
    eprintln!(
        "chaos run: frames={} frame_errors={frame_errors} reconnects={reconnects} drops={}",
        total(&refs, "tcp_frames"),
        total(&refs, "tcp_queue_drops"),
    );
    // Per-learner cumulative check already ran inside settle; now the
    // authoritative one: stop everything and inspect the learners.
    for &l in cfg.roles.learners() {
        assert!(of(&refs, l, "learned") >= i64::from(N_CMDS));
    }
    drop(refs);

    let expected: HashSet<K> = (0..N_CMDS).map(cmd).collect();
    for node in nodes {
        for (pid, actor) in node.stop() {
            if let Some(learner) = actor.as_any().downcast_ref::<Learner<H>>() {
                let got: HashSet<K> = learner.learned().commands().into_iter().collect();
                assert_eq!(
                    learner.learned().total_len(),
                    u64::from(N_CMDS),
                    "learner {pid} must learn every command under chaos"
                );
                assert_eq!(got, expected, "learner {pid} learned the wrong set");
            }
        }
    }
    (frame_errors, reconnects)
}

#[test]
fn chaos_cluster_converges_and_corrupt_frames_never_reach_agents() {
    let (frame_errors, reconnects) = run_chaos(0xC4A0_5EED);
    // The chaos mix corrupts ~0.5% of frames; each corruption must have
    // been caught by the CRC check and torn the connection down. If
    // this is zero the corruption path was never exercised and the test
    // proves nothing — fail loudly rather than pass silently.
    assert!(
        frame_errors > 0,
        "no corrupt frame was detected at the framing layer; \
         the chaos run did not exercise the corruption path"
    );
    // Teardowns (corruption or deliberate disconnect) must have been
    // followed by supervised reconnects for the run to have converged.
    assert!(reconnects > 0, "no supervised reconnect happened");
}
