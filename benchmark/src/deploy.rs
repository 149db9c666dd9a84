//! The benchmark's only contact with the program: presets, cluster
//! construction over the simulator and over loopback TCP, the wrappers
//! that observe each layer from outside, and the operator/codec timings
//! taken on values snapshotted from a finished run. A refactor of the
//! program's APIs needs a change to this file and no other.

use crate::measure::Commit;
use crate::trace::{now_ns, Span, SpanBuf};
use mcpaxos_actor::frame::{encode_frame, FrameDecoder};
use mcpaxos_actor::wire::{self, Wire, WireError};
use mcpaxos_actor::{
    Actor, Context, FileWal, MemStore, Metric, ProcessId, SimDuration, SimTime, StableStore,
    TimerToken, WalStore,
};
use mcpaxos_core::agents::metrics as counters;
use mcpaxos_core::{
    Acceptor, BatchConfig, Coordinator, DeployConfig, Msg, Policy, Proposer, Timing, WireConfig,
};
use mcpaxos_cstruct::{CStruct, CommandHistory};
use mcpaxos_runtime::{
    PeerTable, TcpConfig, TcpNode, METRIC_TCP_FRAMES, METRIC_TCP_FRAME_BYTES,
    METRIC_TCP_QUEUE_DEPTH, METRIC_TCP_QUEUE_DROPS, METRIC_TCP_RECONNECTS,
};
use mcpaxos_simnet::{DelayDist, NetConfig, Sim, Topology};
use mcpaxos_smr::{KvCmd, KvOp, KvStore, Replica, StateMachine, Workload};
use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The command every workload proposes.
pub type Cmd = KvCmd;
type H = CommandHistory<KvCmd>;
type M = Msg<H>;

const CLIENT: ProcessId = ProcessId(9_999);

// ----- commands ---------------------------------------------------------------

/// `n` seeded kv-puts of client `client`; a share `rho` hits one hot key
/// and so conflicts pairwise.
pub fn commands(seed: u64, client: u32, rho: f64, n: usize) -> Vec<Cmd> {
    let mut w = Workload::new(seed, client, rho);
    (0..n).map(|_| w.next_kv_put()).collect()
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Content hash of one command, without allocating (the audit runs on
/// the measured path and must not disturb the allocation count).
fn mix(cmd: &Cmd) -> u64 {
    let id = (u64::from(cmd.id.client) << 32) | u64::from(cmd.id.seq);
    let (tag, key, value) = match cmd.op {
        KvOp::Put(k, v) => (0u64, k, v),
        KvOp::Del(k) => (1, k, 0),
        KvOp::Get(k) => (2, k, 0),
    };
    splitmix(splitmix(id) ^ splitmix((tag << 16 | u64::from(key)) ^ value.rotate_left(24)))
}

/// Order-independent hash of a set of commands: equal sums mean, up to
/// hash collisions, equal multisets.
pub fn multiset<'a>(cmds: impl IntoIterator<Item = &'a Cmd>) -> u64 {
    cmds.into_iter().fold(0, |h, c| h.wrapping_add(mix(c)))
}

// ----- presets ------------------------------------------------------------------

/// Which kind of round the deployment starts in and falls back to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rounds {
    /// The system under test.
    Multi,
    /// Classic Paxos: one coordinator per round (availability baseline).
    Single,
    /// Fast rounds with classic recovery (collision baseline).
    Fast,
}

/// A named deployment. No preset adds a knob to the program; each only
/// combines builders that already exist.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Preset {
    /// Everything default: full payloads, per-write-sync `MemStore`,
    /// 3 coordinators, 5 acceptors, 1 replica.
    Paper { proposers: usize },
    /// Bounded windows, delta shipping, batching 16×8, group commit
    /// every 2 ticks over a WAL; 1 proposer, 3 coordinators,
    /// 5 acceptors, 2 replicas.
    Prod,
    /// `Prod` plus the failure detector and proposer backoff.
    ProdFailover,
    /// `Prod` as 1 proposer, 3 coordinators, 3 acceptors, 3 replicas —
    /// one of each per TCP node.
    ProdTcp,
}

fn prod(cfg: DeployConfig) -> DeployConfig {
    cfg.with_wire(WireConfig::bounded(64))
        .with_batching(BatchConfig::pipelined(16, 8))
        .with_group_commit(SimDuration(2))
}

impl Preset {
    fn config(self, rounds: Rounds) -> DeployConfig {
        let policy = match rounds {
            Rounds::Multi => Policy::MultiCoordinated,
            Rounds::Single => Policy::SingleCoordinated,
            Rounds::Fast => Policy::FastThenClassic,
        };
        let cfg = match self {
            Preset::Paper { proposers } => DeployConfig::simple(proposers, 3, 5, 1, policy),
            Preset::Prod => prod(DeployConfig::simple(1, 3, 5, 2, policy)),
            Preset::ProdFailover => prod(DeployConfig::simple(1, 3, 5, 2, policy)).with_timing(
                Timing {
                    leader_timeout: SimDuration(400),
                    stall_timeout: SimDuration(300),
                    proposer_resend: SimDuration(300),
                    ..Timing::default()
                }
                .with_failure_detector(SimDuration(200))
                .with_proposer_backoff(SimDuration(900), SimDuration(25)),
            ),
            Preset::ProdTcp => prod(DeployConfig::simple(1, 3, 3, 3, policy)),
        };
        cfg.validate().expect("preset is a valid deployment");
        cfg
    }

    /// Proposers the preset deploys; commands are dealt to them in turn.
    pub fn proposers(self) -> usize {
        match self {
            Preset::Paper { proposers } => proposers,
            _ => 1,
        }
    }

    fn buffered_storage(self) -> bool {
        !matches!(self, Preset::Paper { .. })
    }
}

// ----- the audited state machine ------------------------------------------------

/// Turns on timing inside [`Audited`] (traced runs only). One process
/// runs one workload, so a process-wide switch is enough; it publishes
/// no other data.
static SM_TIMING: AtomicBool = AtomicBool::new(false);

#[derive(Debug)]
struct AuditLog {
    applied: u64,
    multiset: u64,
    /// Per key, a hash chain over the ids of the commands applied to
    /// it: two replicas agree on the order of every conflicting pair
    /// exactly when their chains agree key by key.
    per_key: Vec<u64>,
}

#[derive(Debug)]
struct Audit {
    log: Mutex<AuditLog>,
    busy_ns: AtomicU64,
}

impl Default for Audit {
    fn default() -> Self {
        Audit {
            log: Mutex::new(AuditLog {
                applied: 0,
                multiset: 0,
                per_key: vec![0; usize::from(u16::MAX) + 1],
            }),
            busy_ns: AtomicU64::new(0),
        }
    }
}

/// `KvStore` plus a record of what was applied in which order. It
/// encodes exactly as the `KvStore` inside it, so checkpoints cost what
/// they cost without the audit; the record is shared by clones and does
/// not survive a restore (no workload restarts a replica).
#[derive(Debug, Default)]
struct Audited {
    kv: KvStore,
    audit: Arc<Audit>,
}

impl Audited {
    fn timed<R>(&self, f: impl FnOnce() -> R) -> R {
        if !SM_TIMING.load(Ordering::Relaxed) {
            return f();
        }
        let t0 = now_ns();
        let r = f();
        self.audit
            .busy_ns
            .fetch_add(now_ns() - t0, Ordering::Relaxed);
        r
    }
}

impl Clone for Audited {
    fn clone(&self) -> Self {
        Audited {
            kv: self.timed(|| self.kv.clone()),
            audit: self.audit.clone(),
        }
    }
}

impl Wire for Audited {
    fn encode(&self, out: &mut Vec<u8>) {
        self.timed(|| self.kv.encode(out));
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(Audited {
            kv: KvStore::decode(input)?,
            audit: Arc::default(),
        })
    }
}

impl StateMachine for Audited {
    type Cmd = KvCmd;

    fn apply(&mut self, cmd: &KvCmd) {
        let Audited { kv, audit } = self;
        if SM_TIMING.load(Ordering::Relaxed) {
            let t0 = now_ns();
            kv.apply(cmd);
            audit.busy_ns.fetch_add(now_ns() - t0, Ordering::Relaxed);
        } else {
            kv.apply(cmd);
        }
        let mut log = audit.log.lock().expect("audit lock never poisoned");
        log.applied += 1;
        log.multiset = log.multiset.wrapping_add(mix(cmd));
        let chain = &mut log.per_key[usize::from(cmd.op.key())];
        *chain = splitmix(*chain ^ mix(cmd));
    }
}

/// What a replica looks like after a run, reduced to comparable hashes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplicaView {
    pub applied: u64,
    /// [`multiset`] of everything applied.
    pub multiset: u64,
    /// Hash of the key-value state.
    pub state: u64,
    /// Hash of the per-key application order.
    pub order: u64,
    /// Commands in the learner's live window.
    pub window: Vec<Cmd>,
}

fn view(r: &Replica<Audited>) -> ReplicaView {
    let m = r.machine();
    let log = m.audit.log.lock().expect("audit lock never poisoned");
    let state =
        m.kv.snapshot()
            .iter()
            .fold(0u64, |h, (&k, &v)| splitmix(h ^ splitmix(u64::from(k)) ^ v));
    let order = log.per_key.iter().fold(0u64, |h, &c| splitmix(h ^ c));
    ReplicaView {
        applied: log.applied,
        multiset: log.multiset,
        state,
        order,
        window: r.learner().learned().as_slice().to_vec(),
    }
}

// ----- storage wrapper -----------------------------------------------------------

/// What the storage wrapper of one process has seen.
#[derive(Debug)]
struct StoreStats {
    /// Mirror of the wrapped store's `write_count()`.
    syncs: AtomicU64,
    /// `write` calls (logical records).
    records: AtomicU64,
    /// Nanoseconds inside the store (traced runs only).
    busy_ns: AtomicU64,
    /// Id of the upcall span currently running on the owning process.
    parent: AtomicU64,
    timed: Mutex<StoreTimed>,
}

#[derive(Debug)]
struct StoreTimed {
    /// Durations of the calls that synced, in µs.
    sync_us: Vec<f64>,
    spans: SpanBuf,
}

impl StoreStats {
    fn new(pid: ProcessId) -> Arc<Self> {
        Arc::new(StoreStats {
            syncs: AtomicU64::new(0),
            records: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            parent: AtomicU64::new(0),
            // Bit 31 keeps storage span ids apart from the upcall span
            // ids of the same process.
            timed: Mutex::new(StoreTimed {
                sync_us: Vec::new(),
                spans: SpanBuf::new(pid.raw() | 1 << 31),
            }),
        })
    }
}

struct ProbeStore<S> {
    inner: S,
    stats: Arc<StoreStats>,
    pid: u32,
    timing: bool,
}

impl<S: StableStore> ProbeStore<S> {
    fn new(inner: S, pid: ProcessId, stats: Arc<StoreStats>, timing: bool) -> Self {
        ProbeStore {
            inner,
            stats,
            pid: pid.raw(),
            timing,
        }
    }

    fn call(&mut self, name: &'static str, f: impl FnOnce(&mut S)) {
        if !self.timing {
            f(&mut self.inner);
            self.stats
                .syncs
                .store(self.inner.write_count(), Ordering::SeqCst);
            return;
        }
        let before = self.inner.write_count();
        let start_ns = now_ns();
        f(&mut self.inner);
        let end_ns = now_ns();
        let after = self.inner.write_count();
        self.stats.syncs.store(after, Ordering::SeqCst);
        self.stats
            .busy_ns
            .fetch_add(end_ns - start_ns, Ordering::SeqCst);
        let mut t = self.stats.timed.lock().expect("store stats lock");
        if after > before {
            t.sync_us.push((end_ns - start_ns) as f64 / 1e3);
        }
        let id = t.spans.next_id();
        t.spans.push(Span {
            id,
            parent: self.stats.parent.load(Ordering::SeqCst),
            layer: "actor.storage",
            name,
            pid: self.pid,
            start_ns,
            end_ns,
        });
    }
}

impl<S: StableStore> StableStore for ProbeStore<S> {
    fn write(&mut self, key: &str, value: Vec<u8>) {
        self.stats.records.fetch_add(1, Ordering::SeqCst);
        self.call("write", |s| s.write(key, value));
    }
    fn read(&self, key: &str) -> Option<&[u8]> {
        self.inner.read(key)
    }
    fn write_count(&self) -> u64 {
        self.inner.write_count()
    }
    fn flush(&mut self) {
        self.call("flush", |s| s.flush());
    }
    fn lose_unflushed(&mut self) {
        self.inner.lose_unflushed();
    }
    fn compact(&mut self) {
        self.call("compact", |s| s.compact());
    }
    fn corrupt_records(&self) -> u64 {
        self.inner.corrupt_records()
    }
    fn flushed_read(&self, key: &str) -> Option<&[u8]> {
        self.inner.flushed_read(key)
    }
}

// ----- actor wrapper ---------------------------------------------------------------

/// Commit records of the reference replica, readable while it runs.
type CommitLog = Mutex<Vec<Commit>>;

/// The four agent kinds a cluster is made of, as the wrapper sees them.
trait Agent: Actor<Msg = M> {
    const LAYER: &'static str;
    /// Commands applied so far (replicas only).
    fn applied(&self) -> u64 {
        0
    }
    /// Nanoseconds spent below this agent in wrappers of its own.
    fn below_ns(&self) -> u64 {
        0
    }
}

impl Agent for Proposer<H> {
    const LAYER: &'static str = "core.proposer";
}
impl Agent for Coordinator<H> {
    const LAYER: &'static str = "core.coordinator";
}
impl Agent for Acceptor<H> {
    const LAYER: &'static str = "core.acceptor";
}
impl Agent for Replica<Audited> {
    const LAYER: &'static str = "core.learner";
    fn applied(&self) -> u64 {
        self.applied_count()
    }
    fn below_ns(&self) -> u64 {
        self.machine().audit.busy_ns.load(Ordering::Relaxed)
    }
}

/// What the wrapper of one process accumulated over a traced run. It
/// outlives the actor, so a crash loses none of it.
#[derive(Debug)]
struct Traced {
    layer: &'static str,
    spans: SpanBuf,
    upcalls: u64,
    /// Upcall time not spent in storage, sends or the state machine.
    self_ns: u64,
    /// Upcall time, children included.
    total_ns: u64,
    send_ns: u64,
    sends: u64,
    /// Sends that carry a c-struct: 1b, 2a and 2b.
    payload_sends: u64,
    seen: u64,
    samples: Vec<M>,
}

impl Traced {
    fn new(layer: &'static str, pid: ProcessId) -> Self {
        Traced {
            layer,
            spans: SpanBuf::new(pid.raw()),
            upcalls: 0,
            self_ns: 0,
            total_ns: 0,
            send_ns: 0,
            sends: 0,
            payload_sends: 0,
            seen: 0,
            samples: Vec::new(),
        }
    }
}

/// Every 64th message a wrapper sees is kept for the codec timings.
const SAMPLE_EVERY: u64 = 64;
const SAMPLES_PER_WRAPPER: usize = 512;

/// Delegates every upcall to `inner`. Untraced it only watches the
/// applied count of a replica; traced it also times the upcall and what
/// the upcall did to its context.
struct Probe<A> {
    inner: A,
    /// Published applied count (replicas only).
    applied: Option<Arc<AtomicU64>>,
    /// Commit records (the reference replica only).
    commits: Option<Arc<CommitLog>>,
    last_applied: u64,
    /// Over TCP a commit is stamped with the wall clock, in the
    /// simulator with the simulated one.
    wall_clock: bool,
    trace: Option<(Arc<Mutex<Traced>>, Arc<StoreStats>)>,
}

struct TraceCtx<'a> {
    inner: &'a mut dyn Context<M>,
    traced: &'a mut Traced,
    parent: u64,
    send_ns: u64,
}

impl Context<M> for TraceCtx<'_> {
    fn me(&self) -> ProcessId {
        self.inner.me()
    }
    fn now(&self) -> SimTime {
        self.inner.now()
    }
    fn send(&mut self, to: ProcessId, msg: M) {
        let name = msg.tag();
        let start_ns = now_ns();
        self.inner.send(to, msg);
        let end_ns = now_ns();
        self.send_ns += end_ns - start_ns;
        self.traced.sends += 1;
        if matches!(name, "1b" | "2a" | "2b") {
            self.traced.payload_sends += 1;
        }
        let id = self.traced.spans.next_id();
        self.traced.spans.push(Span {
            id,
            parent: self.parent,
            layer: "runtime.send",
            name,
            pid: self.inner.me().raw(),
            start_ns,
            end_ns,
        });
    }
    fn set_timer(&mut self, after: SimDuration, token: TimerToken) {
        self.inner.set_timer(after, token);
    }
    fn cancel_timer(&mut self, token: TimerToken) {
        self.inner.cancel_timer(token);
    }
    fn storage(&mut self) -> &mut dyn StableStore {
        self.inner.storage()
    }
    fn metric(&mut self, metric: Metric) {
        self.inner.metric(metric);
    }
    fn random(&mut self) -> u64 {
        self.inner.random()
    }
}

impl<A: Agent> Probe<A> {
    fn upcall(
        &mut self,
        name: &'static str,
        ctx: &mut dyn Context<M>,
        f: impl FnOnce(&mut A, &mut dyn Context<M>),
    ) {
        match &self.trace {
            None => f(&mut self.inner, ctx),
            Some((traced, store)) => {
                let mut traced = traced.lock().expect("trace lock");
                let id = traced.spans.next_id();
                store.parent.store(id, Ordering::SeqCst);
                let below0 = store.busy_ns.load(Ordering::SeqCst) + self.inner.below_ns();
                let pid = ctx.me().raw();
                let start_ns = now_ns();
                let mut tctx = TraceCtx {
                    inner: ctx,
                    traced: &mut traced,
                    parent: id,
                    send_ns: 0,
                };
                f(&mut self.inner, &mut tctx);
                let send_ns = tctx.send_ns;
                let end_ns = now_ns();
                let below = store.busy_ns.load(Ordering::SeqCst) + self.inner.below_ns() - below0;
                let total = end_ns - start_ns;
                traced.upcalls += 1;
                traced.total_ns += total;
                traced.send_ns += send_ns;
                traced.self_ns += total.saturating_sub(below + send_ns);
                traced.spans.push(Span {
                    id,
                    parent: 0,
                    layer: A::LAYER,
                    name,
                    pid,
                    start_ns,
                    end_ns,
                });
            }
        }
        if let Some(published) = &self.applied {
            let applied = self.inner.applied();
            if applied > self.last_applied {
                self.last_applied = applied;
                published.store(applied, Ordering::SeqCst);
                if let Some(log) = &self.commits {
                    let wall_ns = now_ns();
                    let clock = if self.wall_clock {
                        wall_ns
                    } else {
                        ctx.now().ticks()
                    };
                    log.lock().expect("commit lock").push(Commit {
                        clock,
                        count: applied,
                        wall_ns,
                    });
                }
            }
        }
    }
}

impl<A: Agent> Actor for Probe<A> {
    type Msg = M;

    fn on_start(&mut self, ctx: &mut dyn Context<M>) {
        self.upcall("on_start", ctx, |a, c| a.on_start(c));
    }
    fn on_recover(&mut self, ctx: &mut dyn Context<M>) {
        self.upcall("on_recover", ctx, |a, c| a.on_recover(c));
    }
    fn on_message(&mut self, from: ProcessId, msg: M, ctx: &mut dyn Context<M>) {
        if let Some((traced, _)) = &self.trace {
            let mut t = traced.lock().expect("trace lock");
            t.seen += 1;
            if t.seen % SAMPLE_EVERY == 0 && t.samples.len() < SAMPLES_PER_WRAPPER {
                t.samples.push(msg.clone());
            }
        }
        self.upcall(msg.tag(), ctx, |a, c| a.on_message(from, msg, c));
    }
    fn on_timer(&mut self, token: TimerToken, ctx: &mut dyn Context<M>) {
        self.upcall("on_timer", ctx, |a, c| a.on_timer(token, c));
    }
    fn on_link_reset(&mut self, peer: ProcessId, ctx: &mut dyn Context<M>) {
        self.upcall("on_link_reset", ctx, |a, c| a.on_link_reset(peer, c));
    }
}

/// Everything a cluster shares with the wrappers it deploys.
struct Hooks {
    cfg: Arc<DeployConfig>,
    wall_clock: bool,
    commits: Arc<CommitLog>,
    /// Published applied count per replica, in role order.
    applied: Vec<Arc<AtomicU64>>,
    stores: HashMap<ProcessId, Arc<StoreStats>>,
    /// Present on traced runs only.
    traced: HashMap<ProcessId, Arc<Mutex<Traced>>>,
}

impl Hooks {
    fn new(cfg: DeployConfig, trace: bool, wall_clock: bool) -> Self {
        let cfg = Arc::new(cfg);
        SM_TIMING.store(trace, Ordering::Relaxed);
        let mut traced = HashMap::new();
        if trace {
            let roles = [
                (cfg.roles.proposers(), <Proposer<H> as Agent>::LAYER),
                (cfg.roles.coordinators(), <Coordinator<H> as Agent>::LAYER),
                (cfg.roles.acceptors(), <Acceptor<H> as Agent>::LAYER),
                (cfg.roles.learners(), <Replica<Audited> as Agent>::LAYER),
            ];
            for (pids, layer) in roles {
                for &p in pids {
                    traced.insert(p, Arc::new(Mutex::new(Traced::new(layer, p))));
                }
            }
        }
        Hooks {
            wall_clock,
            commits: Arc::default(),
            applied: cfg
                .roles
                .learners()
                .iter()
                .map(|_| Arc::default())
                .collect(),
            stores: cfg
                .roles
                .all()
                .iter()
                .map(|&p| (p, StoreStats::new(p)))
                .collect(),
            traced,
            cfg,
        }
    }

    fn tracing(&self) -> bool {
        !self.traced.is_empty()
    }

    /// A process restarted by the host gets a fresh probe that carries
    /// on with the process's trace and counters.
    fn probe<A: Agent>(&self, pid: ProcessId, inner: A) -> Probe<A> {
        let replica = self.cfg.roles.learners().iter().position(|&l| l == pid);
        Probe {
            inner,
            applied: replica.map(|i| self.applied[i].clone()),
            commits: (replica == Some(0)).then(|| self.commits.clone()),
            last_applied: 0,
            wall_clock: self.wall_clock,
            trace: self
                .traced
                .get(&pid)
                .map(|t| (t.clone(), self.stores[&pid].clone())),
        }
    }

    fn commits(&self) -> Vec<Commit> {
        self.commits.lock().expect("commit lock").clone()
    }

    fn applied(&self) -> Vec<u64> {
        self.applied
            .iter()
            .map(|a| a.load(Ordering::SeqCst))
            .collect()
    }

    fn fsyncs(&self) -> u64 {
        self.stores
            .values()
            .map(|s| s.syncs.load(Ordering::SeqCst))
            .sum()
    }

    /// Adds up the wrappers of a traced run; `machine_ns` is what the
    /// replicas' state machines reported.
    fn trace_report(&self, machine_ns: u64) -> Option<TraceReport> {
        if !self.tracing() {
            return None;
        }
        let mut r = TraceReport {
            machine_ns,
            ..TraceReport::default()
        };
        let mut samples: Vec<M> = Vec::new();
        let mut pids: Vec<&ProcessId> = self.traced.keys().collect();
        pids.sort();
        for pid in pids {
            let mut t = self.traced[pid].lock().expect("trace lock");
            let slot = match t.layer {
                "core.proposer" => &mut r.proposer_ns,
                "core.coordinator" => &mut r.coordinator_ns,
                "core.acceptor" => &mut r.acceptor_ns,
                _ => &mut r.learner_ns,
            };
            *slot += t.self_ns;
            r.upcalls += t.upcalls;
            r.upcall_ns += t.total_ns;
            r.sends += t.sends;
            r.payload_sends += t.payload_sends;
            r.send_ns += t.send_ns;
            r.spans_dropped += t.spans.dropped;
            r.spans.append(&mut t.spans.spans);
            samples.append(&mut t.samples);
        }
        let mut sync_us = Vec::new();
        let mut pids: Vec<&ProcessId> = self.stores.keys().collect();
        pids.sort();
        for pid in pids {
            let s = &self.stores[pid];
            r.store_ns += s.busy_ns.load(Ordering::SeqCst);
            r.store_records += s.records.load(Ordering::SeqCst);
            r.store_syncs += s.syncs.load(Ordering::SeqCst);
            let mut t = s.timed.lock().expect("store stats lock");
            sync_us.append(&mut t.sync_us);
            r.spans_dropped += t.spans.dropped;
            r.spans.append(&mut t.spans.spans);
        }
        r.sync_us_p50 = crate::measure::percentile(&mut sync_us, 50.0);
        r.sync_us_p99 = crate::measure::percentile_sorted(&sync_us, 99.0);
        r.codec = time_codec(&samples);
        Some(r)
    }
}

/// What the wrappers of one traced run add up to.
#[derive(Clone, Debug, Default)]
pub struct TraceReport {
    pub proposer_ns: u64,
    pub coordinator_ns: u64,
    pub acceptor_ns: u64,
    /// Replica upcalls minus the state machine: the learner and the
    /// delivery cursor.
    pub learner_ns: u64,
    /// `apply`, `clone` and `encode` of the replicas' state machines.
    pub machine_ns: u64,
    pub store_ns: u64,
    pub send_ns: u64,
    pub upcalls: u64,
    /// Upcall time with children: what the host spends inside actors.
    pub upcall_ns: u64,
    pub sends: u64,
    /// Sends that carry a c-struct: 1b, 2a and 2b.
    pub payload_sends: u64,
    pub store_records: u64,
    pub store_syncs: u64,
    pub sync_us_p50: f64,
    pub sync_us_p99: f64,
    pub codec: CodecTimes,
    pub spans: Vec<Span>,
    pub spans_dropped: u64,
}

/// Protocol counters the agents report through `Context::metric`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub batches: u64,
    pub batched_cmds: u64,
    pub resends: u64,
    pub full_resyncs: u64,
    pub delta_sends: u64,
    pub rounds_started: u64,
    pub collisions: u64,
    pub failovers: u64,
    pub false_suspicions: u64,
    pub checkpoints: u64,
}

impl Counters {
    /// What was counted after `earlier` was read.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            batches: self.batches - earlier.batches,
            batched_cmds: self.batched_cmds - earlier.batched_cmds,
            resends: self.resends - earlier.resends,
            full_resyncs: self.full_resyncs - earlier.full_resyncs,
            delta_sends: self.delta_sends - earlier.delta_sends,
            rounds_started: self.rounds_started - earlier.rounds_started,
            collisions: self.collisions - earlier.collisions,
            failovers: self.failovers - earlier.failovers,
            false_suspicions: self.false_suspicions - earlier.false_suspicions,
            checkpoints: self.checkpoints - earlier.checkpoints,
        }
    }
}

fn counters(total: impl Fn(&str) -> i64) -> Counters {
    let n = |name: &str| total(name).max(0) as u64;
    Counters {
        batches: n(counters::BATCHES),
        batched_cmds: n(counters::BATCHED_CMDS),
        resends: n(counters::RESENDS),
        full_resyncs: n(counters::FULL_RESYNCS),
        delta_sends: n(counters::DELTA_SENDS),
        rounds_started: n(counters::ROUNDS_STARTED),
        collisions: n(counters::COLLISION_MC) + n(counters::COLLISION_FAST),
        failovers: n(counters::FAILOVERS),
        false_suspicions: n(counters::FALSE_SUSPICIONS),
        ..Counters::default()
    }
}

// ----- simulated cluster ---------------------------------------------------------

/// How to build a simulated cluster.
#[derive(Clone, Copy, Debug)]
pub struct SimSpec {
    pub preset: Preset,
    pub rounds: Rounds,
    pub seed: u64,
    /// One-way link delay in ticks, `(lo, hi)` inclusive; `(1, 1)` is
    /// the lockstep network.
    pub delay: (u64, u64),
    /// Spread the processes over three datacenters 20–40 ticks apart
    /// (the E13 layout) instead of one flat network.
    pub wan: bool,
    /// Encode every message sent and count its bytes.
    pub byte_meter: bool,
    pub trace: bool,
}

/// Datacenter 0 holds the proposers, the replicas and the last
/// acceptor; 1 the first coordinator and two acceptors; 2 the other
/// coordinators and two acceptors.
fn three_datacenters(cfg: &DeployConfig) -> Topology {
    let (coords, accs) = (cfg.roles.coordinators(), cfg.roles.acceptors());
    let dc0 = [cfg.roles.proposers(), cfg.roles.learners(), &accs[4..]].concat();
    let dc1 = [&coords[..1], &accs[..2]].concat();
    let dc2 = [&coords[1..], &accs[2..4]].concat();
    Topology::datacenters(
        &[dc0, dc1, dc2],
        DelayDist::Fixed(1),
        &[
            (0, 1, DelayDist::Uniform(20, 30)),
            (0, 2, DelayDist::Uniform(25, 35)),
            (1, 2, DelayDist::Uniform(30, 40)),
        ],
    )
}

/// A cluster on the simulated clock (1 tick ≡ 1 ms).
pub struct SimCluster {
    sim: Sim<M>,
    hooks: std::rc::Rc<Hooks>,
}

impl SimCluster {
    pub fn new(spec: SimSpec) -> Self {
        let hooks = std::rc::Rc::new(Hooks::new(
            spec.preset.config(spec.rounds),
            spec.trace,
            false,
        ));
        let cfg = hooks.cfg.clone();
        let delay = if spec.delay.0 == spec.delay.1 {
            DelayDist::Fixed(spec.delay.0)
        } else {
            DelayDist::Uniform(spec.delay.0, spec.delay.1)
        };
        let mut sim: Sim<M> = Sim::new(spec.seed, NetConfig::lockstep().with_delay(delay));
        if spec.wan {
            sim.set_topology(three_datacenters(&cfg));
        }
        let (h, buffered, timing) = (hooks.clone(), spec.preset.buffered_storage(), spec.trace);
        sim.set_storage_factory(move |p| {
            let stats = h.stores[&p].clone();
            if buffered {
                Box::new(ProbeStore::new(WalStore::new(), p, stats, timing))
            } else {
                Box::new(ProbeStore::new(MemStore::new(), p, stats, timing))
            }
        });
        if spec.byte_meter {
            sim.enable_byte_meter(Box::new(|m: &M| (m.tag(), wire::to_bytes(m).len() as u64)));
        }
        for &p in cfg.roles.proposers() {
            let (h, c) = (hooks.clone(), cfg.clone());
            sim.add_process(p, move || {
                Box::new(h.probe(p, Proposer::<H>::new(c.clone())))
            });
        }
        for &p in cfg.roles.coordinators() {
            let (h, c) = (hooks.clone(), cfg.clone());
            sim.add_process(p, move || {
                Box::new(h.probe(p, Coordinator::<H>::new(c.clone(), p)))
            });
        }
        for &p in cfg.roles.acceptors() {
            let (h, c) = (hooks.clone(), cfg.clone());
            sim.add_process(p, move || {
                Box::new(h.probe(p, Acceptor::<H>::new(c.clone())))
            });
        }
        for &p in cfg.roles.learners() {
            let (h, c) = (hooks.clone(), cfg.clone());
            sim.add_process(p, move || {
                Box::new(h.probe(p, Replica::<Audited>::new(c.clone())))
            });
        }
        SimCluster { sim, hooks }
    }

    /// Schedules `cmd` to reach proposer `proposer` at tick `t`.
    pub fn propose_at(&mut self, t: u64, proposer: usize, cmd: Cmd) {
        let p = self.hooks.cfg.roles.proposers()[proposer];
        let msg = Msg::Propose {
            cmd,
            acc_quorum: None,
        };
        self.sim.inject_at(SimTime(t), p, CLIENT, msg);
    }

    /// Runs every event up to and including tick `t`.
    pub fn run_until(&mut self, t: u64) {
        self.sim.run_until(SimTime(t));
    }

    pub fn now(&self) -> u64 {
        self.sim.now().ticks()
    }

    /// Crashes coordinator `idx` at `t`; `down_for` ticks later it
    /// recovers, `None` keeps it down.
    pub fn crash_coordinator(&mut self, t: u64, idx: usize, down_for: Option<u64>) {
        let p = self.hooks.cfg.roles.coordinators()[idx];
        self.crash(t, p, down_for);
    }

    /// Crashes acceptor `idx` at `t` (its unflushed WAL tail is lost and
    /// the log replays on recovery).
    pub fn crash_acceptor(&mut self, t: u64, idx: usize, down_for: Option<u64>) {
        let p = self.hooks.cfg.roles.acceptors()[idx];
        self.crash(t, p, down_for);
    }

    fn crash(&mut self, t: u64, p: ProcessId, down_for: Option<u64>) {
        self.sim.crash_at(SimTime(t), p);
        if let Some(d) = down_for {
            self.sim.recover_at(SimTime(t + d), p);
        }
    }

    /// Cuts coordinator `idx` off from every other process for `ticks`.
    pub fn isolate_coordinator(&mut self, t: u64, idx: usize, ticks: u64) {
        let p = self.hooks.cfg.roles.coordinators()[idx];
        self.isolate(t, p, ticks);
    }

    /// Cuts replica `idx` off from every other process for `ticks`.
    pub fn isolate_replica(&mut self, t: u64, idx: usize, ticks: u64) {
        let p = self.hooks.cfg.roles.learners()[idx];
        self.isolate(t, p, ticks);
    }

    fn isolate(&mut self, t: u64, p: ProcessId, ticks: u64) {
        let rest = self
            .hooks
            .cfg
            .roles
            .all()
            .into_iter()
            .filter(|&q| q != p)
            .collect();
        self.sim.partition_at(SimTime(t), vec![p], rest);
        self.sim.heal_at(SimTime(t + ticks));
    }

    /// Commands applied so far, per replica (index 0 is the reference).
    pub fn applied(&self) -> Vec<u64> {
        self.hooks.applied()
    }

    /// Commands the reference replica has applied, without allocating.
    pub fn reference_applied(&self) -> u64 {
        self.hooks.applied[0].load(Ordering::SeqCst)
    }

    pub fn commits(&self) -> Vec<Commit> {
        self.hooks.commits()
    }

    /// Synchronous disk writes of every process so far.
    pub fn fsyncs(&self) -> u64 {
        self.hooks.fsyncs()
    }

    /// `(messages, bytes)` sent so far; zero without the byte meter.
    pub fn wire(&self) -> (u64, u64) {
        self.sim
            .wire_totals()
            .values()
            .fold((0, 0), |(c, b), t| (c + t.count, b + t.bytes))
    }

    pub fn events(&self) -> u64 {
        self.sim.events_processed()
    }

    pub fn counters(&self) -> Counters {
        let mut c = counters(|name| self.sim.metrics().total(name));
        c.checkpoints = self
            .hooks
            .cfg
            .roles
            .learners()
            .iter()
            .map(|p| self.hooks.stores[p].records.load(Ordering::SeqCst))
            .sum();
        c
    }

    fn replicas(&self) -> impl Iterator<Item = &Replica<Audited>> {
        self.hooks
            .cfg
            .roles
            .learners()
            .iter()
            .filter_map(|&p| self.sim.actor::<Probe<Replica<Audited>>>(p))
            .map(|p| &p.inner)
    }

    pub fn replica_views(&self) -> Vec<ReplicaView> {
        self.replicas().map(view).collect()
    }

    /// The c-structs the live agents hold right now: every acceptor's
    /// vote and every learner's learned value.
    pub fn cstruct_times(&self) -> CStructTimes {
        let mut values: Vec<H> = self
            .hooks
            .cfg
            .roles
            .acceptors()
            .iter()
            .filter_map(|&p| self.sim.actor::<Probe<Acceptor<H>>>(p))
            .map(|p| p.inner.vval().clone())
            .collect();
        values.extend(self.replicas().map(|r| r.learner().learned().clone()));
        time_cstruct(&values)
    }

    pub fn trace_report(&self) -> Option<TraceReport> {
        let machine_ns = self.replicas().map(|r| r.below_ns()).sum();
        self.hooks.trace_report(machine_ns)
    }
}

// ----- TCP cluster ---------------------------------------------------------------

/// Three in-process nodes over loopback: node i hosts coordinator i,
/// acceptor i (on a `FileWal` under `dir`) and replica i; node 0 also
/// hosts the proposer.
pub struct TcpCluster {
    nodes: Vec<TcpNode<M>>,
    hooks: Hooks,
}

/// What is left of a TCP cluster once its threads have been joined.
pub struct TcpStopped {
    pub replicas: Vec<ReplicaView>,
    pub cstruct: CStructTimes,
    pub trace: Option<TraceReport>,
}

/// Transport counters summed over the nodes.
#[derive(Clone, Copy, Debug, Default)]
pub struct TransportCounters {
    pub frames: u64,
    pub frame_bytes: u64,
    /// Sum of the queue depths sampled at every remote enqueue.
    pub queue_depth_sum: u64,
    pub queue_samples: u64,
    pub queue_drops: u64,
    pub reconnects: u64,
}

impl TcpCluster {
    pub fn start(dir: &Path, trace: bool) -> std::io::Result<Self> {
        let hooks = Hooks::new(Preset::ProdTcp.config(Rounds::Multi), trace, true);
        let cfg = hooks.cfg.clone();
        std::fs::create_dir_all(dir)?;
        let peers = PeerTable::shared();
        let mut nodes = Vec::new();
        for _ in 0..3 {
            nodes.push(TcpNode::bind(peers.clone(), TcpConfig::default())?);
        }
        let mem = |p: ProcessId| -> Box<dyn StableStore + Send> {
            Box::new(ProbeStore::new(
                MemStore::new(),
                p,
                hooks.stores[&p].clone(),
                trace,
            ))
        };
        // Acceptors and replicas first, so the first 1a finds them.
        for (i, node) in nodes.iter_mut().enumerate() {
            let a = cfg.roles.acceptors()[i];
            let wal = FileWal::open(dir.join(format!("acceptor-{i}.wal")))?;
            node.spawn_with_storage(
                a,
                Box::new(hooks.probe(a, Acceptor::<H>::new(cfg.clone()))),
                Box::new(ProbeStore::new(wal, a, hooks.stores[&a].clone(), trace)),
            );
            let l = cfg.roles.learners()[i];
            node.spawn_with_storage(
                l,
                Box::new(hooks.probe(l, Replica::<Audited>::new(cfg.clone()))),
                mem(l),
            );
        }
        for (i, node) in nodes.iter_mut().enumerate() {
            let c = cfg.roles.coordinators()[i];
            node.spawn_with_storage(
                c,
                Box::new(hooks.probe(c, Coordinator::<H>::new(cfg.clone(), c))),
                mem(c),
            );
        }
        let p = cfg.roles.proposers()[0];
        nodes[0].spawn_with_storage(
            p,
            Box::new(hooks.probe(p, Proposer::<H>::new(cfg.clone()))),
            mem(p),
        );
        Ok(TcpCluster { nodes, hooks })
    }

    /// Hands `cmd` to the proposer, as a client co-located with node 0.
    pub fn propose(&self, cmd: Cmd) {
        let p = self.hooks.cfg.roles.proposers()[0];
        let msg = Msg::Propose {
            cmd,
            acc_quorum: None,
        };
        self.nodes[0].send(p, CLIENT, msg);
    }

    pub fn applied(&self) -> Vec<u64> {
        self.hooks.applied()
    }

    pub fn commits(&self) -> Vec<Commit> {
        self.hooks.commits()
    }

    pub fn fsyncs(&self) -> u64 {
        self.hooks.fsyncs()
    }

    /// Reads every node's metrics once (each read clones the node's
    /// whole table under its lock, so call it outside timed windows).
    pub fn counters(&self) -> (Counters, TransportCounters) {
        let tables: Vec<_> = self.nodes.iter().map(|n| n.metrics()).collect();
        let total = |name: &str| tables.iter().map(|m| m.total(name)).sum::<i64>();
        let mut c = counters(total);
        let n = |name: &str| total(name).max(0) as u64;
        let t = TransportCounters {
            frames: n(METRIC_TCP_FRAMES),
            frame_bytes: n(METRIC_TCP_FRAME_BYTES),
            queue_depth_sum: n(METRIC_TCP_QUEUE_DEPTH),
            queue_samples: tables
                .iter()
                .flat_map(|m| {
                    m.per_process(METRIC_TCP_QUEUE_DEPTH)
                        .into_iter()
                        .map(|(p, _)| m.count_of(p, METRIC_TCP_QUEUE_DEPTH))
                })
                .sum(),
            queue_drops: n(METRIC_TCP_QUEUE_DROPS),
            reconnects: n(METRIC_TCP_RECONNECTS),
        };
        c.checkpoints = self
            .hooks
            .cfg
            .roles
            .learners()
            .iter()
            .map(|p| self.hooks.stores[p].records.load(Ordering::SeqCst))
            .sum();
        (c, t)
    }

    /// Stops every node, joins its threads and reads the final state.
    pub fn stop(self) -> TcpStopped {
        let TcpCluster { nodes, hooks } = self;
        let mut actors = HashMap::new();
        for node in nodes {
            actors.extend(node.stop());
        }
        let replicas: Vec<&Replica<Audited>> = hooks
            .cfg
            .roles
            .learners()
            .iter()
            .filter_map(|p| actors.get(p))
            .filter_map(|a| a.as_any().downcast_ref::<Probe<Replica<Audited>>>())
            .map(|p| &p.inner)
            .collect();
        let mut values: Vec<H> = hooks
            .cfg
            .roles
            .acceptors()
            .iter()
            .filter_map(|p| actors.get(p))
            .filter_map(|a| a.as_any().downcast_ref::<Probe<Acceptor<H>>>())
            .map(|p| p.inner.vval().clone())
            .collect();
        values.extend(replicas.iter().map(|r| r.learner().learned().clone()));
        TcpStopped {
            replicas: replicas.iter().map(|r| view(r)).collect(),
            cstruct: time_cstruct(&values),
            trace: hooks.trace_report(replicas.iter().map(|r| r.below_ns()).sum()),
        }
    }
}

// ----- timings on snapshotted values ------------------------------------------------

/// Nanoseconds per c-struct operator call, on the values a run ended
/// with.
#[derive(Clone, Copy, Debug, Default)]
pub struct CStructTimes {
    pub live_len_max: u64,
    pub append_ns: f64,
    pub glb_ns: f64,
    pub lub_ns: f64,
    pub compatible_ns: f64,
    pub suffix_apply_ns: f64,
}

/// Mean nanoseconds of `f` over enough calls to fill ~2 ms, after one
/// untimed call.
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    f();
    let mut calls = 0u64;
    let start = now_ns();
    loop {
        f();
        calls += 1;
        let spent = now_ns() - start;
        if spent >= 2_000_000 || calls >= 10_000 {
            return spent as f64 / calls as f64;
        }
    }
}

fn time_cstruct(values: &[H]) -> CStructTimes {
    let Some(longest) = values.iter().max_by_key(|v| v.live_len()) else {
        return CStructTimes::default();
    };
    // Binary operators need operands above one watermark; a lagging
    // agent's value is left out.
    let aligned: Vec<&H> = values
        .iter()
        .filter(|v| v.watermark() == longest.watermark())
        .collect();
    let other = aligned
        .iter()
        .copied()
        .find(|v| !std::ptr::eq(*v, longest))
        .unwrap_or(longest);
    let fresh = commands(0xC5, 7_777, 0.1, 64);
    let mut grown = longest.clone();
    let mut next = fresh.iter().cycle();
    let append_ns = ns_per_call(|| {
        // Re-appending a command already present is the cheap path, so
        // start over from the snapshot once the fresh ones are used up.
        if grown.live_len() >= longest.live_len() + fresh.len() {
            grown = longest.clone();
        }
        grown.append(next.next().expect("cycle never ends").clone());
    });
    let base = longest
        .total_len()
        .saturating_sub(16)
        .max(longest.watermark());
    CStructTimes {
        live_len_max: longest.live_len() as u64,
        append_ns,
        glb_ns: ns_per_call(|| {
            black_box(black_box(longest).glb(black_box(other)));
        }),
        lub_ns: ns_per_call(|| {
            black_box(black_box(longest).lub(black_box(other)));
        }),
        compatible_ns: ns_per_call(|| {
            black_box(black_box(longest).compatible(black_box(other)));
        }),
        suffix_apply_ns: time_suffix_apply(longest, base),
    }
}

/// Ships the last commands of `full` above `base` as a delta to a
/// receiver that holds everything below: `suffix_from` at the sender
/// plus `apply_suffix` at the receiver. The receiver has to be copied
/// afresh for every call, so the copy is timed alone and subtracted.
fn time_suffix_apply(full: &H, base: u64) -> f64 {
    let Some(suffix) = full.suffix_from(base) else {
        return 0.0;
    };
    let keep = full.live_len() - suffix.len();
    let mut receiver = H::bottom_at(full.watermark());
    receiver.append_all(full.as_slice()[..keep].iter().cloned());
    let copy_ns = ns_per_call(|| {
        black_box(black_box(&receiver).clone());
    });
    let both_ns = ns_per_call(|| {
        let mut r = black_box(&receiver).clone();
        let suffix = black_box(full).suffix_from(base).expect("base is live");
        black_box(r.apply_suffix(base, &suffix)).ok();
        black_box(r);
    });
    (both_ns - copy_ns).max(0.0)
}

/// Nanoseconds per message through each codec, on messages sampled
/// from a run.
#[derive(Clone, Copy, Debug, Default)]
pub struct CodecTimes {
    pub samples: u64,
    pub wire_bytes_per_msg: f64,
    pub wire_encode_ns: f64,
    pub wire_decode_ns: f64,
    pub frame_encode_ns: f64,
    pub frame_decode_ns: f64,
}

fn time_codec(samples: &[M]) -> CodecTimes {
    if samples.is_empty() {
        return CodecTimes::default();
    }
    let n = samples.len() as f64;
    let encoded: Vec<Vec<u8>> = samples.iter().map(wire::to_bytes).collect();
    let framed: Vec<Vec<u8>> = encoded
        .iter()
        .map(|p| {
            let mut out = Vec::new();
            encode_frame(p, &mut out).expect("sampled message fits a frame");
            out
        })
        .collect();
    CodecTimes {
        samples: samples.len() as u64,
        wire_bytes_per_msg: encoded.iter().map(Vec::len).sum::<usize>() as f64 / n,
        wire_encode_ns: ns_per_call(|| {
            for m in samples {
                black_box(wire::to_bytes(black_box(m)));
            }
        }) / n,
        wire_decode_ns: ns_per_call(|| {
            for b in &encoded {
                black_box(wire::from_bytes::<M>(black_box(b)).expect("round trip"));
            }
        }) / n,
        frame_encode_ns: ns_per_call(|| {
            for p in &encoded {
                let mut out = Vec::with_capacity(p.len() + 8);
                encode_frame(black_box(p), &mut out).expect("fits a frame");
                black_box(out);
            }
        }) / n,
        frame_decode_ns: ns_per_call(|| {
            let mut dec = FrameDecoder::new();
            for f in &framed {
                dec.push(black_box(f));
                black_box(dec.next_frame().expect("valid frame"));
            }
        }) / n,
    }
}
