//! The acceptance scenario for the TCP backend: a full Multicoordinated
//! Paxos deployment (1 proposer / 2 coordinators / 3 acceptors / 2
//! learners) spread over four [`TcpNode`]s on loopback, with delta
//! shipping on, learns every command while one acceptor is killed and
//! restarted mid-run — and the restart costs **zero** `NeedFull`
//! round-trips, because the transport's link-reset upcall and the
//! protocol's recovery `Hello` both downgrade the restarted peer to full
//! payloads proactively, over the real wire.
//!
//! `full_resyncs` is incremented only in the `NeedFull` handlers of the
//! acceptor and the coordinator, so `total("full_resyncs") == 0` is a
//! precise "no NeedFull round-trip happened" probe.

mod common;

use common::{cmd, delta_cfg, of, settle, total, H, K, M};
use mcpaxos_actor::frame::FRAME_OVERHEAD;
use mcpaxos_actor::{wire, FileWal, ProcessId};
use mcpaxos_core::{agent, Learner, Msg};
use mcpaxos_cstruct::CStruct;
use mcpaxos_runtime::{LiveByteMeter, PeerTable, TcpConfig, TcpNode, DATA_HEADER_BYTES};
use std::collections::HashSet;
use std::time::{Duration, Instant};

#[test]
fn acceptor_kill_and_restart_over_tcp_learns_all_with_zero_needfull() {
    let peers = PeerTable::shared();
    let tcp = TcpConfig::default();
    let cfg = delta_cfg(1, 2, 3, 2);
    cfg.validate().unwrap();

    let mut front: TcpNode<M> = TcpNode::bind(peers.clone(), tcp.clone()).unwrap();
    let mut accs: TcpNode<M> = TcpNode::bind(peers.clone(), tcp.clone()).unwrap();
    let mut victim: TcpNode<M> = TcpNode::bind(peers.clone(), tcp.clone()).unwrap();
    let mut learn: TcpNode<M> = TcpNode::bind(peers.clone(), tcp.clone()).unwrap();

    let proposer = cfg.roles.proposers()[0];
    front.spawn(proposer, agent!(H, cfg, proposer));
    for &c in cfg.roles.coordinators() {
        front.spawn(c, agent!(H, cfg, c));
    }
    for &a in &cfg.roles.acceptors()[..2] {
        accs.spawn(a, agent!(H, cfg, a));
    }
    // The kill target runs on its own node over a file-backed WAL, so
    // its durable acceptor state survives the node exactly as it would
    // survive an OS-process kill.
    let a_kill = cfg.roles.acceptors()[2];
    let wal =
        std::env::temp_dir().join(format!("mcpaxos_tcp_consensus_{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&wal);
    victim.spawn_with_storage(
        a_kill,
        agent!(H, cfg, a_kill),
        Box::new(FileWal::open(&wal).unwrap()),
    );
    for &l in cfg.roles.learners() {
        learn.spawn(l, agent!(H, cfg, l));
    }

    let client = ProcessId(9_999);
    let propose = |range: std::ops::Range<u32>| {
        for i in range {
            front.send(
                proposer,
                client,
                Msg::Propose {
                    cmd: cmd(i),
                    acc_quorum: None,
                },
            );
        }
    };

    // Phase 1: a healthy cluster, deltas flowing to all three acceptors.
    propose(0..10);
    settle(&[&front, &accs, &victim, &learn], &cfg, 10);

    // Phase 2: kill the acceptor's node mid-run. The remaining majority
    // keeps learning; the coordinators' per-peer delta bases for the
    // dead acceptor silently advance with every queued send.
    victim.kill();
    propose(10..20);
    settle(&[&front, &accs, &learn], &cfg, 20);

    // Phase 3: restart it on a *fresh* node (new port) over the same
    // WAL. Its supervisors and its peers' supervisors re-resolve and
    // reconnect; the transport fires `on_link_reset` and the recovered
    // acceptor multicasts the protocol-level `Hello`.
    let mut revived: TcpNode<M> = TcpNode::bind(peers.clone(), tcp.clone()).unwrap();
    revived.spawn_recovered(
        a_kill,
        agent!(H, cfg, a_kill),
        Box::new(FileWal::open(&wal).unwrap()),
    );

    // Wait until the downgrade demonstrably happened over the wire: a
    // coordinator processed the link reset / Hello and dropped its base
    // (base_resets), and the transport really reconnected.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let nodes: [&TcpNode<M>; 4] = [&front, &accs, &revived, &learn];
        if total(&nodes, "base_resets") > 0 && total(&nodes, "tcp_reconnects") > 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "reconnect + proactive base downgrade never happened"
        );
        std::thread::sleep(Duration::from_millis(25));
    }

    // Phase 4: more commands — the restarted acceptor participates
    // again, fed full payloads first, deltas after.
    propose(20..30);
    settle(&[&front, &accs, &revived, &learn], &cfg, 30);

    let nodes: [&TcpNode<M>; 4] = [&front, &accs, &revived, &learn];
    assert_eq!(
        total(&nodes, "full_resyncs"),
        0,
        "a NeedFull round-trip fired: some sender shipped a delta \
         against a base the restarted acceptor did not hold"
    );
    assert!(
        total(&nodes, "base_resets") > 0,
        "the proactive downgrade must fire over the real wire"
    );
    assert!(
        total(&nodes, "delta_sends") > 0,
        "delta shipping must actually have been exercised"
    );
    assert!(
        total(&nodes, "tcp_link_resets") > 0,
        "the transport must deliver on_link_reset upcalls"
    );

    let learners = learn.stop();
    let expected: HashSet<K> = (0..30).map(cmd).collect();
    for &l in cfg.roles.learners() {
        let learner = learners[&l]
            .as_any()
            .downcast_ref::<Learner<H>>()
            .expect("learner type");
        let got: HashSet<K> = learner.learned().commands().into_iter().collect();
        assert_eq!(
            learner.learned().total_len(),
            30,
            "learner {l} must learn every command across the kill+restart"
        );
        assert_eq!(got, expected, "learner {l} learned the wrong set");
    }
    front.stop();
    accs.stop();
    revived.stop();
    let _ = std::fs::remove_file(&wal);
}

/// Wire-byte accounting parity: with **every process on its own node**
/// each protocol message is framed onto a real socket, and the live byte
/// meter (`wire_msgs`/`wire_bytes`, recorded at hand-off to the transport
/// — the accounting the simulator's E10 tables use) must agree exactly,
/// per agent, with the transport's independent frame ledger
/// (`tcp_frames`/`tcp_frame_bytes`, recorded at socket-write time): one
/// frame per metered send, and a fixed 13-byte envelope (packet tag +
/// sender id + length prefix + CRC) per message. That is what lets the
/// simulator's wire tables transfer to the socket backend up to a
/// constant.
#[test]
fn wire_meter_and_frame_ledger_agree_per_agent() {
    const N_CMDS: u32 = 60;
    const ENVELOPE: i64 = (DATA_HEADER_BYTES + FRAME_OVERHEAD) as i64;

    let peers = PeerTable::shared();
    let cfg = delta_cfg(1, 2, 3, 2);
    cfg.validate().unwrap();
    let meter: LiveByteMeter<M> =
        std::sync::Arc::new(|m| (m.tag(), wire::to_bytes(m).len() as u64));

    let proposer = cfg.roles.proposers()[0];
    let all = cfg.roles.all();
    let mut nodes: Vec<TcpNode<M>> = Vec::new();
    for &p in &all {
        let mut n = TcpNode::bind(peers.clone(), TcpConfig::default()).unwrap();
        n.set_byte_meter(meter.clone());
        n.spawn(p, agent!(H, cfg, p));
        nodes.push(n);
    }
    // Inject at the proposer's own node, so the client's `Propose` never
    // crosses a socket and both ledgers see agent traffic only.
    let front = &nodes[all.iter().position(|&p| p == proposer).unwrap()];
    for i in 0..N_CMDS {
        front.send(
            proposer,
            ProcessId(9_999),
            Msg::Propose {
                cmd: cmd(i),
                acc_quorum: None,
            },
        );
    }
    let refs: Vec<&TcpNode<M>> = nodes.iter().collect();
    settle(&refs, &cfg, i64::from(N_CMDS));

    // Snapshot the two ledgers while the cluster is quiescent (settle's
    // stability window guarantees the outbound queues have drained).
    for &p in &all {
        let (msgs, bytes) = (of(&refs, p, "wire_msgs"), of(&refs, p, "wire_bytes"));
        assert!(
            msgs > 0,
            "process {p} sent nothing: the meter is not installed"
        );
        assert_eq!(
            of(&refs, p, "tcp_frames"),
            msgs,
            "process {p}: a metered send did not become exactly one frame"
        );
        assert_eq!(
            of(&refs, p, "tcp_frame_bytes"),
            bytes + ENVELOPE * msgs,
            "process {p}: framed size is not wire size + {ENVELOPE} per message"
        );
    }
    for lossy in ["tcp_queue_drops", "send_failures", "tcp_frame_errors"] {
        assert_eq!(total(&refs, lossy), 0, "faultless run counted {lossy}");
    }

    let expected: HashSet<K> = (0..N_CMDS).map(cmd).collect();
    for node in nodes {
        for (pid, actor) in node.stop() {
            if let Some(learner) = actor.as_any().downcast_ref::<Learner<H>>() {
                let got: HashSet<K> = learner.learned().commands().into_iter().collect();
                assert_eq!(learner.learned().total_len(), u64::from(N_CMDS));
                assert_eq!(got, expected, "learner {pid} learned the wrong set");
            }
        }
    }
}

/// One node hosting every role is the in-process mode: co-located
/// processes reach each other by a mailbox push, so the byte meter sees
/// every protocol message while no frame is ever written to a socket.
#[test]
fn all_roles_on_one_node_learn_everything_without_touching_a_socket() {
    const N_CMDS: u32 = 40;

    let cfg = delta_cfg(1, 2, 3, 2);
    cfg.validate().unwrap();
    let mut node: TcpNode<M> = TcpNode::bind(PeerTable::shared(), TcpConfig::default()).unwrap();
    node.set_byte_meter(std::sync::Arc::new(|m: &M| {
        (m.tag(), wire::to_bytes(m).len() as u64)
    }));
    for p in cfg.roles.all() {
        node.spawn(p, agent!(H, cfg, p));
    }
    for i in 0..N_CMDS {
        node.send(
            cfg.roles.proposers()[0],
            ProcessId(9_999),
            Msg::Propose {
                cmd: cmd(i),
                acc_quorum: None,
            },
        );
    }
    settle(&[&node], &cfg, i64::from(N_CMDS));

    assert!(total(&[&node], "wire_msgs") > 0, "the agents did talk");
    for socket in ["tcp_frames", "tcp_frame_bytes", "tcp_queue_depth"] {
        assert_eq!(
            total(&[&node], socket),
            0,
            "co-located run counted {socket}"
        );
    }
    assert_eq!(total(&[&node], "send_failures"), 0);

    let expected: HashSet<K> = (0..N_CMDS).map(cmd).collect();
    let actors = node.stop();
    for &l in cfg.roles.learners() {
        let learner: &Learner<H> = actors[&l].as_any().downcast_ref().expect("learner type");
        let got: HashSet<K> = learner.learned().commands().into_iter().collect();
        assert_eq!(learner.learned().total_len(), u64::from(N_CMDS));
        assert_eq!(got, expected, "learner {l} learned the wrong set");
    }
}
