//! Multi-process Multicoordinated Paxos over loopback TCP.
//!
//! The parent process re-executes itself into four child OS processes —
//! `front` (1 proposer + 2 coordinators), `acc` (2 acceptors), `victim`
//! (1 acceptor on a file-backed WAL) and `learn` (2 learners) — each
//! hosting its agents on a [`TcpNode`] with a directory-backed
//! [`PeerTable`], so every protocol message crosses a real socket
//! between real OS processes.
//!
//! Mid-run the parent SIGKILLs the `victim` child, keeps proposing
//! against the surviving majority, then respawns it with `--recover`:
//! the child reopens the same WAL, the transport supervisors re-resolve
//! its fresh port and reconnect, `on_link_reset` / the recovery `Hello`
//! proactively downgrade its peers' delta bases, and the cluster
//! converges on all 30 commands with **zero** `NeedFull` round-trips.
//!
//! Children export their runtime metrics to `<role>.metrics` files
//! (written via temp file + atomic rename); the parent merges them to
//! drive phase transitions and the final assertions.
//!
//! Usage: `cargo run --release --example tcp_cluster`

use mcpaxos_suite::actor::wire::{Wire, WireError};
use mcpaxos_suite::actor::{FileWal, ProcessId};
use mcpaxos_suite::core::{agent, DeployConfig, Learner, Msg, Policy, WireConfig};
use mcpaxos_suite::cstruct::{CStruct, CommandHistory, Conflict, ConflictKeys};
use mcpaxos_suite::runtime::{PeerTable, TcpConfig, TcpNode};
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ----- Shared between parent and children -----------------------------------

/// Keyed command: ~10% of pairs conflict (same key of 10).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct K(u16, u32);

impl Conflict for K {
    fn conflicts(&self, other: &Self) -> bool {
        self.0 == other.0
    }
    fn conflict_keys(&self) -> ConflictKeys {
        ConflictKeys::one(u64::from(self.0))
    }
}

impl Wire for K {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(i: &mut &[u8]) -> Result<Self, WireError> {
        Ok(K(u16::decode(i)?, u32::decode(i)?))
    }
}

type H = CommandHistory<K>;
type M = Msg<H>;

const N_CMDS: u32 = 30;
const ROLES: [&str; 4] = ["front", "acc", "victim", "learn"];

fn cmd(i: u32) -> K {
    K((i % 10) as u16, i)
}

fn cluster_cfg() -> Arc<DeployConfig> {
    Arc::new(
        DeployConfig::simple(1, 2, 3, 2, Policy::MultiCoordinated).with_wire(WireConfig {
            delta_ship: true,
            ..WireConfig::default()
        }),
    )
}

fn peers_of(dir: &Path) -> PeerTable {
    PeerTable::dir(dir.join("peers")).expect("peer table dir")
}

// ----- Child ----------------------------------------------------------------

/// Dumps the node's full metric table as `<pid> <name> <value>` lines,
/// atomically (temp file + rename), so the parent never reads a torn file.
fn dump_metrics(node: &TcpNode<M>, path: &Path) {
    let mut out = String::new();
    let m = node.metrics();
    for name in m.names() {
        for (pid, v) in m.per_process(name) {
            out.push_str(&format!("{} {} {}\n", pid.raw(), name, v));
        }
    }
    let tmp = path.with_extension("tmp");
    if std::fs::write(&tmp, out).is_ok() {
        let _ = std::fs::rename(&tmp, path);
    }
}

fn run_child(role: &str, dir: &Path, recover: bool) -> i32 {
    let cfg = cluster_cfg();
    let mut node: TcpNode<M> =
        TcpNode::bind(peers_of(dir), TcpConfig::default()).expect("bind child node");

    let roles = &cfg.roles;
    let hosted: Vec<ProcessId> = match role {
        "front" => [roles.proposers(), roles.coordinators()].concat(),
        "acc" => roles.acceptors()[..2].to_vec(),
        "victim" => vec![roles.acceptors()[2]],
        "learn" => roles.learners().to_vec(),
        other => {
            eprintln!("unknown child role {other:?}");
            return 2;
        }
    };
    for p in hosted {
        if role == "victim" {
            // The kill target persists its votes in a file WAL, flushed
            // before each "2b": whatever it acknowledged before the SIGKILL
            // survives into the `--recover` incarnation, exactly like a
            // real crash.
            let wal = FileWal::open(dir.join("victim.wal")).expect("open victim wal");
            if recover {
                node.spawn_recovered(p, agent!(H, cfg, p), Box::new(wal));
            } else {
                node.spawn_with_storage(p, agent!(H, cfg, p), Box::new(wal));
            }
        } else {
            node.spawn(p, agent!(H, cfg, p));
        }
    }

    // Export metrics until the parent raises the stop flag.
    let metrics_path = dir.join(format!("{role}.metrics"));
    let stop_path = dir.join("stop");
    while !stop_path.exists() {
        dump_metrics(&node, &metrics_path);
        std::thread::sleep(Duration::from_millis(50));
    }
    dump_metrics(&node, &metrics_path);

    let actors = node.stop();
    if role == "learn" {
        // Authoritative check, inside the OS process that hosts the
        // learners: every command, exactly once, in every learner.
        let expected: HashSet<K> = (0..N_CMDS).map(cmd).collect();
        for &l in cfg.roles.learners() {
            let learner = actors[&l]
                .as_any()
                .downcast_ref::<Learner<H>>()
                .expect("learner type");
            let got: HashSet<K> = learner.learned().commands().into_iter().collect();
            if learner.learned().total_len() != u64::from(N_CMDS) || got != expected {
                eprintln!(
                    "learner {l} diverged: {} learned (want {N_CMDS})",
                    learner.learned().total_len()
                );
                return 3;
            }
        }
        println!("learn: both learners hold all {N_CMDS} commands");
    }
    0
}

// ----- Parent ---------------------------------------------------------------

/// Merges every `<role>.metrics` file into `(pid, name) -> value`,
/// summing across files (transport metrics for one pid are recorded by
/// every node that talks to it).
fn merged_metrics(dir: &Path) -> HashMap<(u32, String), i64> {
    let mut out = HashMap::new();
    for role in ROLES {
        let Ok(text) = std::fs::read_to_string(dir.join(format!("{role}.metrics"))) else {
            continue;
        };
        for line in text.lines() {
            let mut it = line.split_whitespace();
            if let (Some(pid), Some(name), Some(v)) = (it.next(), it.next(), it.next()) {
                if let (Ok(pid), Ok(v)) = (pid.parse::<u32>(), v.parse::<i64>()) {
                    *out.entry((pid, name.to_string())).or_insert(0) += v;
                }
            }
        }
    }
    out
}

fn total(m: &HashMap<(u32, String), i64>, name: &str) -> i64 {
    m.iter()
        .filter(|((_, n), _)| n == name)
        .map(|(_, v)| *v)
        .sum()
}

fn of(m: &HashMap<(u32, String), i64>, pid: ProcessId, name: &str) -> i64 {
    m.get(&(pid.raw(), name.to_string())).copied().unwrap_or(0)
}

/// Waits until every learner's cumulative `learned` metric reaches
/// `want` and the cluster goes quiet (no learner growth, no proposer
/// resends) for a sustained window.
fn settle(dir: &Path, cfg: &DeployConfig, want: i64) {
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut last_snap = (-1i64, -1i64);
    let mut stable_since = Instant::now();
    loop {
        let m = merged_metrics(dir);
        assert!(
            Instant::now() < deadline,
            "cluster failed to settle at {want} learned commands (learned: {:?})",
            cfg.roles
                .learners()
                .iter()
                .map(|&l| of(&m, l, "learned"))
                .collect::<Vec<_>>()
        );
        let reached = cfg
            .roles
            .learners()
            .iter()
            .all(|&l| of(&m, l, "learned") >= want);
        let snap = (total(&m, "learned"), total(&m, "resends"));
        if snap != last_snap {
            last_snap = snap;
            stable_since = Instant::now();
        }
        if reached && stable_since.elapsed() >= Duration::from_millis(800) {
            return;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

fn spawn_child(exe: &Path, role: &str, dir: &Path, recover: bool) -> Child {
    let mut c = Command::new(exe);
    c.arg("__child").arg(role).arg(dir);
    if recover {
        c.arg("--recover");
    }
    c.spawn()
        .unwrap_or_else(|e| panic!("spawn {role} child: {e}"))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.len() >= 4 && args[1] == "__child" {
        let code = run_child(
            &args[2],
            Path::new(&args[3]),
            args.iter().any(|a| a == "--recover"),
        );
        std::process::exit(code);
    }

    let exe = std::env::current_exe().expect("current_exe");
    let dir: PathBuf =
        std::env::temp_dir().join(format!("mcpaxos_tcp_cluster_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create run dir");

    let cfg = cluster_cfg();
    cfg.validate().expect("config");
    let proposer = cfg.roles.proposers()[0];
    let a_kill = cfg.roles.acceptors()[2];

    println!(
        "== spawning 4 child processes over loopback TCP (dir {}) ==",
        dir.display()
    );
    let mut front = spawn_child(&exe, "front", &dir, false);
    let mut acc = spawn_child(&exe, "acc", &dir, false);
    let mut victim = spawn_child(&exe, "victim", &dir, false);
    let mut learn = spawn_child(&exe, "learn", &dir, false);

    // The parent is the client: its own (agent-less) node frames
    // proposals onto the same wire. Queued sends survive until the
    // proposer's child publishes its address.
    let client_node: TcpNode<M> =
        TcpNode::bind(peers_of(&dir), TcpConfig::default()).expect("bind client node");
    let client = ProcessId(9_999);
    let propose = |range: std::ops::Range<u32>| {
        for i in range {
            client_node.send(
                proposer,
                client,
                Msg::Propose {
                    cmd: cmd(i),
                    acc_quorum: None,
                },
            );
        }
    };

    println!("== phase 1: 10 commands through the healthy cluster ==");
    propose(0..10);
    settle(&dir, &cfg, 10);

    println!("== phase 2: SIGKILL acceptor {a_kill}'s process, keep proposing ==");
    victim.kill().expect("kill victim");
    let _ = victim.wait();
    propose(10..20);
    settle(&dir, &cfg, 20);

    println!("== phase 3: respawn acceptor {a_kill} with --recover ==");
    let mut revived = spawn_child(&exe, "victim", &dir, true);
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let m = merged_metrics(&dir);
        if total(&m, "base_resets") > 0 && total(&m, "tcp_reconnects") > 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "reconnect + proactive base downgrade never happened"
        );
        std::thread::sleep(Duration::from_millis(25));
    }

    println!("== phase 4: 10 more commands through the healed cluster ==");
    propose(20..30);
    settle(&dir, &cfg, 30);

    let m = merged_metrics(&dir);
    let full_resyncs = total(&m, "full_resyncs");
    println!(
        "converged: learned(cum)={} delta_sends={} base_resets={} \
         full_resyncs={full_resyncs} tcp_reconnects={} tcp_link_resets={} tcp_frames={}",
        total(&m, "learned"),
        total(&m, "delta_sends"),
        total(&m, "base_resets"),
        total(&m, "tcp_reconnects"),
        total(&m, "tcp_link_resets"),
        total(&m, "tcp_frames"),
    );
    assert_eq!(
        full_resyncs, 0,
        "a NeedFull round-trip fired: a delta was shipped against a base \
         the restarted acceptor did not hold"
    );
    assert!(
        total(&m, "delta_sends") > 0,
        "delta shipping never exercised"
    );
    assert!(
        total(&m, "base_resets") > 0,
        "proactive downgrade never fired"
    );

    // Stop the children; the learn child verifies the learned sets and
    // exits non-zero on divergence.
    std::fs::write(dir.join("stop"), b"").expect("write stop flag");
    for (name, child) in [
        ("front", &mut front),
        ("acc", &mut acc),
        ("victim", &mut revived),
        ("learn", &mut learn),
    ] {
        let status = child.wait().expect("wait child");
        assert!(status.success(), "{name} child exited with {status}");
    }
    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "OK: {N_CMDS} commands learned across a kill + recover of acceptor \
         {a_kill}, zero NeedFull round-trips"
    );
}
