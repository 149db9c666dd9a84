//! Shared scaffolding for the TCP backend integration tests: a keyed
//! command type, a delta-shipping deployment config, and metric/settle
//! helpers over a set of [`TcpNode`]s.

use mcpaxos_actor::wire::{Wire, WireError};
use mcpaxos_actor::ProcessId;
use mcpaxos_core::{DeployConfig, Msg, Policy, WireConfig};
use mcpaxos_cstruct::{CommandHistory, Conflict, ConflictKeys};
use mcpaxos_runtime::TcpNode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Keyed test command: ~10% of pairs conflict (same key of 10).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct K(pub u16, pub u32);

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

pub type H = CommandHistory<K>;
pub type M = Msg<H>;

pub fn cmd(i: u32) -> K {
    K((i % 10) as u16, i)
}

/// Delta shipping on, compaction off: a stale base can only be cleared
/// by the proactive downgrade the TCP tests exercise.
pub fn delta_cfg(n_prop: usize, n_coord: usize, n_acc: usize, n_learn: usize) -> Arc<DeployConfig> {
    Arc::new(
        DeployConfig::simple(n_prop, n_coord, n_acc, n_learn, Policy::MultiCoordinated).with_wire(
            WireConfig {
                delta_ship: true,
                ..WireConfig::default()
            },
        ),
    )
}

/// Sums `name` across every node's metrics.
pub fn total(nodes: &[&TcpNode<M>], name: &str) -> i64 {
    nodes.iter().map(|n| n.metrics().total(name)).sum()
}

/// Sums process `p`'s metric `name` across every node (only its host
/// node records anything for it, so this is a cross-node lookup).
pub fn of(nodes: &[&TcpNode<M>], p: ProcessId, name: &str) -> i64 {
    nodes.iter().map(|n| n.metrics().of(p, name)).sum()
}

/// Waits until every learner's cumulative `learned` metric reaches
/// `want` *and* the cluster goes quiet (no learner growth, no proposer
/// resends for a sustained window) — i.e. the proposer's pending set
/// emptied and learning settled, not merely passed a loose threshold.
pub fn settle(nodes: &[&TcpNode<M>], cfg: &DeployConfig, want: i64) {
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut last_snap = (-1i64, -1i64);
    let mut stable_since = Instant::now();
    loop {
        assert!(
            Instant::now() < deadline,
            "cluster failed to settle at {want} learned commands \
             (learned metric: {:?})",
            cfg.roles
                .learners()
                .iter()
                .map(|&l| of(nodes, l, "learned"))
                .collect::<Vec<_>>()
        );
        let reached = cfg
            .roles
            .learners()
            .iter()
            .all(|&l| of(nodes, l, "learned") >= want);
        let snap = (total(nodes, "learned"), total(nodes, "resends"));
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
