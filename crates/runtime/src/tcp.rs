//! The loopback/LAN TCP backend: the same actors, a real wire.
//!
//! A [`TcpNode`] hosts any number of local actor processes behind one
//! `std::net::TcpListener`. Messages between co-located processes are
//! delivered directly; messages to remote processes travel as
//! [`mcpaxos_actor::wire`]-encoded payloads inside length-prefixed,
//! CRC-trailed frames ([`mcpaxos_actor::frame`]). The pieces:
//!
//! * **Peer table** ([`PeerTable`]) — maps process ids to socket
//!   addresses. Nodes bind port 0 and *publish* their address, so a
//!   restarted node never fights `TIME_WAIT` for its old port; senders
//!   re-resolve on every reconnect attempt and simply find the new
//!   address. The shared-map flavour serves in-process tests, the
//!   directory flavour coordinates separate OS processes through
//!   atomically renamed address files.
//! * **Supervised outbound links** — one connection per remote process,
//!   owned by a supervisor thread: resolve → connect → handshake →
//!   drain the per-peer send queue. Any error tears the connection down
//!   and the supervisor reconnects under the shared
//!   [`mcpaxos_actor::Backoff`] policy (jittered exponential, ticks are
//!   milliseconds). The send queue is bounded: when full the *oldest*
//!   message is dropped (the protocol resends; the freshest traffic is
//!   the most useful) and counted.
//! * **Link-reset wiring** — after a reconnect, every local process
//!   receives `on_link_reset(peer)`; an inbound connection that
//!   *replaces* an earlier one from the same sender triggers the same
//!   upcall on the destination. This is what lets PR 6's proactive
//!   delta-base downgrade (demote the peer to full payloads) fire over
//!   the real wire, avoiding `NeedFull` round-trips after a peer
//!   restart.
//! * **Teardown on garbage** — a torn or CRC-failing frame, or an
//!   undecodable payload, closes the connection instead of delivering
//!   anything; corrupt bytes never reach an agent.
//! * **Fault injection** — an optional [`FaultConfig`] interposes a
//!   seeded [`crate::FaultyTransport`] engine on every outbound link.

use crate::fault::{FaultAction, FaultConfig, FaultyTransport};
use crate::process::{
    rand_like::SplitMix64, run_process, Event, LiveByteMeter, ProcessSpec, Router, SendActor,
    METRIC_SEND_FAILURES,
};
use crossbeam::channel::{unbounded, Sender};
use mcpaxos_actor::frame::{encode_frame, FrameDecoder, FRAME_OVERHEAD};
use mcpaxos_actor::wire::{Wire, WireError};
use mcpaxos_actor::{
    Backoff, MemStore, Metric, MetricSink, Metrics, ProcessId, SimDuration, SimTime, StableStore,
};
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Serialized bytes of the per-frame `Data` envelope around a message:
/// a 1-byte packet tag plus the 4-byte sender id. A TCP frame carrying
/// message `m` is exactly `wire_size(m) + DATA_HEADER_BYTES +
/// FRAME_OVERHEAD` bytes — the parity the bench suite checks against
/// the simulator's `wire_bytes` accounting.
pub const DATA_HEADER_BYTES: u64 = 5;

/// Metric name for cumulative framed bytes written to TCP sockets
/// (recorded per sending process at socket write time).
pub const METRIC_TCP_FRAME_BYTES: &str = "tcp_frame_bytes";
/// Metric name for frames written to TCP sockets.
pub const METRIC_TCP_FRAMES: &str = "tcp_frames";
/// Metric name for inbound framing/decoding failures, each of which
/// tears down the offending connection.
pub const METRIC_TCP_FRAME_ERRORS: &str = "tcp_frame_errors";
/// Metric name for messages evicted from a full per-peer send queue
/// (drop-oldest policy).
pub const METRIC_TCP_QUEUE_DROPS: &str = "tcp_queue_drops";
/// Metric name sampling the send-queue depth at every enqueue; with
/// [`Metrics::count_of`] this yields the average backlog per sender.
pub const METRIC_TCP_QUEUE_DEPTH: &str = "tcp_queue_depth";
/// Metric name counting re-established outbound connections (the first
/// connect is not a reconnect).
pub const METRIC_TCP_RECONNECTS: &str = "tcp_reconnects";
/// Metric name counting `on_link_reset` deliveries triggered by the
/// transport (both directions).
pub const METRIC_TCP_LINK_RESETS: &str = "tcp_link_resets";

/// Exact framed size, in bytes, of message `msg` on the TCP wire.
/// Computed by really encoding the envelope, so it cannot drift from
/// the send path.
pub fn framed_size_of<M: Wire>(from: ProcessId, msg: &M) -> u64 {
    let payload = to_bytes(&Packet::Data { from, msg });
    payload.len() as u64 + FRAME_OVERHEAD
}

// ----- Peer table -----------------------------------------------------------

/// Name resolution for processes: where does `pid` listen *right now*?
///
/// Addresses are re-resolved on every reconnect attempt, which is the
/// whole crash-tolerance story: a restarted node binds a fresh port
/// (never fighting `TIME_WAIT`), publishes it, and its peers' supervisors
/// find it on their next attempt.
#[derive(Clone)]
pub enum PeerTable {
    /// An in-process shared map — for tests and single-process demos
    /// hosting several [`TcpNode`]s over loopback.
    Shared(Arc<RwLock<HashMap<ProcessId, SocketAddr>>>),
    /// A directory of `<pid>.addr` files, each written via temp file +
    /// atomic rename — for clusters of separate OS processes.
    Dir(PathBuf),
}

impl PeerTable {
    /// An empty in-process table.
    pub fn shared() -> Self {
        PeerTable::Shared(Arc::new(RwLock::new(HashMap::new())))
    }

    /// A directory-backed table rooted at `dir` (created if missing).
    pub fn dir(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(PeerTable::Dir(dir))
    }

    /// Announces that `pid` listens at `addr`, replacing any previous
    /// address.
    pub fn publish(&self, pid: ProcessId, addr: SocketAddr) -> std::io::Result<()> {
        match self {
            PeerTable::Shared(map) => {
                map.write().insert(pid, addr);
                Ok(())
            }
            PeerTable::Dir(dir) => {
                let tmp = dir.join(format!("{}.addr.tmp", pid.raw()));
                std::fs::write(&tmp, addr.to_string())?;
                std::fs::rename(&tmp, dir.join(format!("{}.addr", pid.raw())))
            }
        }
    }

    /// Looks up the current address of `pid`, if published.
    pub fn resolve(&self, pid: ProcessId) -> Option<SocketAddr> {
        match self {
            PeerTable::Shared(map) => map.read().get(&pid).copied(),
            PeerTable::Dir(dir) => {
                let s = std::fs::read_to_string(dir.join(format!("{}.addr", pid.raw()))).ok()?;
                s.trim().parse().ok()
            }
        }
    }
}

// ----- Wire envelope --------------------------------------------------------

/// What one frame's payload decodes to.
pub(crate) enum Packet<'a, M> {
    /// Connection handshake, first frame on every outbound connection:
    /// which processes live on the initiating node, and which single
    /// remote process this connection will carry traffic to.
    Hello {
        senders: Vec<ProcessId>,
        dest: ProcessId,
    },
    /// One actor message. Borrowed on encode (the send path should not
    /// clone the message just to serialize it) — decode always produces
    /// owned data, so the lifetime is `'static` on the receive side.
    Data { from: ProcessId, msg: &'a M },
}

/// Owned decode-side counterpart of [`Packet`].
enum OwnedPacket<M> {
    Hello {
        senders: Vec<ProcessId>,
        dest: ProcessId,
    },
    Data {
        from: ProcessId,
        msg: M,
    },
}

impl<M: Wire> Packet<'_, M> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Packet::Hello { senders, dest } => {
                out.push(0);
                senders.encode(out);
                dest.encode(out);
            }
            Packet::Data { from, msg } => {
                out.push(1);
                from.encode(out);
                msg.encode(out);
            }
        }
    }
}

impl<M: Wire> OwnedPacket<M> {
    fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let mut input = bytes;
        let tag = u8::decode(&mut input)?;
        let pkt = match tag {
            0 => OwnedPacket::Hello {
                senders: Wire::decode(&mut input)?,
                dest: Wire::decode(&mut input)?,
            },
            1 => OwnedPacket::Data {
                from: Wire::decode(&mut input)?,
                msg: Wire::decode(&mut input)?,
            },
            _ => {
                return Err(WireError {
                    what: "unknown packet tag",
                })
            }
        };
        if !input.is_empty() {
            return Err(WireError {
                what: "trailing bytes",
            });
        }
        Ok(pkt)
    }
}

/// Encodes one packet into a fresh payload buffer; `framed_size_of` and
/// the send path share this, so sizing cannot drift from reality.
fn to_bytes<M: Wire>(p: &Packet<'_, M>) -> Vec<u8> {
    let mut out = Vec::new();
    p.encode(&mut out);
    out
}

// ----- Node configuration ---------------------------------------------------

/// Knobs for a [`TcpNode`].
#[derive(Clone)]
pub struct TcpConfig {
    /// Reconnect policy for outbound links (ticks are milliseconds).
    pub reconnect: Backoff,
    /// Per-peer send queue bound; the oldest message is evicted (and
    /// counted) when an enqueue would exceed it. 0 means unbounded.
    pub queue_cap: usize,
    /// Optional deterministic wire-fault injection on outbound links.
    pub faults: Option<FaultConfig>,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            reconnect: Backoff::new(SimDuration(10), SimDuration(500), SimDuration(20)),
            queue_cap: 1024,
            faults: None,
        }
    }
}

impl TcpConfig {
    /// This configuration with fault injection enabled.
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = Some(faults);
        self
    }
}

// ----- The node -------------------------------------------------------------

/// One network node: a listener, the actor processes it hosts, and a
/// supervised outbound connection per remote peer it talks to.
pub struct TcpNode<M: Wire + Send + 'static> {
    shared: Arc<NodeShared<M>>,
    addr: SocketAddr,
    start: Instant,
    meter: Option<LiveByteMeter<M>>,
    handles: Vec<(ProcessId, JoinHandle<SendActor<M>>)>,
    accept_handle: Option<JoinHandle<()>>,
}

struct NodeShared<M> {
    /// Local mailboxes by process id.
    local: RwLock<HashMap<ProcessId, Sender<Event<M>>>>,
    /// Outbound links by remote process id.
    links: Mutex<HashMap<ProcessId, Arc<PeerLink<M>>>>,
    /// Transport threads (supervisors + connection readers), joined on
    /// stop.
    threads: Mutex<Vec<JoinHandle<()>>>,
    /// Inbound `(sender, dest)` pairs already seen; a repeat means the
    /// new connection *replaces* a dead one and must fire a link reset.
    seen_inbound: Mutex<HashSet<(ProcessId, ProcessId)>>,
    peers: PeerTable,
    cfg: TcpConfig,
    metrics: Arc<Mutex<Metrics>>,
    shutdown: AtomicBool,
}

/// The bounded send queue feeding one outbound connection. Plain
/// `std::sync` here: the supervisor blocks on the condvar between
/// messages, which the `parking_lot` facade does not expose.
struct PeerLink<M> {
    q: std::sync::Mutex<VecDeque<(ProcessId, M)>>,
    cv: std::sync::Condvar,
}

impl<M> Default for PeerLink<M> {
    fn default() -> Self {
        PeerLink {
            q: std::sync::Mutex::new(VecDeque::new()),
            cv: std::sync::Condvar::new(),
        }
    }
}

impl<M> PeerLink<M> {
    /// Enqueues under the drop-oldest policy; returns `(depth, dropped)`.
    fn push(&self, from: ProcessId, msg: M, cap: usize) -> (usize, bool) {
        let mut q = self.q.lock().unwrap_or_else(|e| e.into_inner());
        let mut dropped = false;
        if cap > 0 && q.len() >= cap {
            q.pop_front();
            dropped = true;
        }
        q.push_back((from, msg));
        let depth = q.len();
        drop(q);
        self.cv.notify_one();
        (depth, dropped)
    }

    /// Dequeues the next message, waiting at most `timeout`.
    fn pop(&self, timeout: Duration) -> Option<(ProcessId, M)> {
        let mut q = self.q.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(item) = q.pop_front() {
            return Some(item);
        }
        let (mut q, _) = self
            .cv
            .wait_timeout(q, timeout)
            .unwrap_or_else(|e| e.into_inner());
        q.pop_front()
    }
}

impl<M: Wire + Send + 'static> TcpNode<M> {
    /// Binds a fresh loopback listener (port 0 — the OS picks; see
    /// [`PeerTable`] for why) and starts accepting connections. Processes
    /// spawned on this node publish this address.
    pub fn bind(peers: PeerTable, cfg: TcpConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(NodeShared {
            local: RwLock::new(HashMap::new()),
            links: Mutex::new(HashMap::new()),
            threads: Mutex::new(Vec::new()),
            seen_inbound: Mutex::new(HashSet::new()),
            peers,
            cfg,
            metrics: Arc::new(Mutex::new(Metrics::new())),
            shutdown: AtomicBool::new(false),
        });
        let accept_shared = shared.clone();
        let accept_handle = std::thread::Builder::new()
            .name(format!("mcpaxos-tcp-accept-{}", addr.port()))
            .spawn(move || accept_loop(accept_shared, listener))
            .expect("spawn accept thread");
        Ok(TcpNode {
            shared,
            addr,
            start: Instant::now(),
            meter: None,
            handles: Vec::new(),
            accept_handle: Some(accept_handle),
        })
    }

    /// The address this node's listener is bound to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Installs a byte meter: every message a process sends from now on
    /// is sized and recorded as the [`crate::METRIC_WIRE_BYTES`] /
    /// [`crate::METRIC_WIRE_MSGS`] metrics of the sender, co-located
    /// destinations included. Install *before* spawning the processes
    /// whose traffic should be measured.
    pub fn set_byte_meter(&mut self, meter: LiveByteMeter<M>) {
        self.meter = Some(meter);
    }

    /// Spawns `actor` as process `pid` on this node and publishes
    /// `pid → self.addr()` in the peer table.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is already hosted here, or if publishing the
    /// address fails.
    pub fn spawn(&mut self, pid: ProcessId, actor: SendActor<M>) {
        self.spawn_inner(pid, actor, Box::new(MemStore::new()), false);
    }

    /// Spawns a process over injected `storage` (e.g. a fresh
    /// [`mcpaxos_actor::FileWal`] so its state survives a kill); the
    /// actor enters via [`mcpaxos_actor::Actor::on_start`].
    pub fn spawn_with_storage(
        &mut self,
        pid: ProcessId,
        actor: SendActor<M>,
        storage: Box<dyn StableStore + Send>,
    ) {
        self.spawn_inner(pid, actor, storage, false);
    }

    /// Spawns a recovering process over pre-existing `storage` (e.g. a
    /// re-opened [`mcpaxos_actor::FileWal`]); the actor enters via
    /// [`mcpaxos_actor::Actor::on_recover`].
    pub fn spawn_recovered(
        &mut self,
        pid: ProcessId,
        actor: SendActor<M>,
        storage: Box<dyn StableStore + Send>,
    ) {
        self.spawn_inner(pid, actor, storage, true);
    }

    fn spawn_inner(
        &mut self,
        pid: ProcessId,
        actor: SendActor<M>,
        storage: Box<dyn StableStore + Send>,
        recovered: bool,
    ) {
        let (tx, rx) = unbounded();
        {
            let mut local = self.shared.local.write();
            assert!(
                local.insert(pid, tx).is_none(),
                "process {pid} spawned twice on this node"
            );
        }
        self.shared
            .peers
            .publish(pid, self.addr)
            .expect("publish peer address");
        let route_shared = self.shared.clone();
        let router: Router<M> = Arc::new(move |from, to, msg| route_shared.route(from, to, msg));
        let spec = ProcessSpec {
            pid,
            actor,
            rx,
            router,
            metrics: self.shared.metrics.clone(),
            start: self.start,
            meter: self.meter.clone(),
            storage,
            recovered,
        };
        let handle = std::thread::Builder::new()
            .name(format!("mcpaxos-{pid}"))
            .spawn(move || run_process(spec))
            .expect("spawn thread");
        self.handles.push((pid, handle));
    }

    /// Injects `msg` into `to`'s mailbox (local or remote) as if sent by
    /// `from`.
    pub fn send(&self, to: ProcessId, from: ProcessId, msg: M) {
        self.shared.route(from, to, msg);
    }

    /// Snapshot of the metrics recorded so far.
    pub fn metrics(&self) -> Metrics {
        self.shared.metrics.lock().clone()
    }

    /// Elapsed logical time (ticks = milliseconds since node start).
    pub fn now(&self) -> SimTime {
        SimTime(self.start.elapsed().as_millis() as u64)
    }

    /// Stops the node: actors return for inspection, all transport
    /// threads are joined, sockets close. The published addresses are
    /// *not* withdrawn — peers keep trying them and find either nothing
    /// (down) or a successor that re-published (restarted).
    pub fn stop(mut self) -> HashMap<ProcessId, SendActor<M>> {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        {
            let local = self.shared.local.read();
            for tx in local.values() {
                let _ = tx.send(Event::Stop);
            }
        }
        let mut out = HashMap::new();
        for (pid, handle) in self.handles.drain(..) {
            out.insert(pid, handle.join().expect("actor thread panicked"));
        }
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        // Readers may still be registering handles while we drain; loop
        // until the set is stable (the accept loop is already gone, so
        // no *new* readers appear).
        loop {
            let hs: Vec<JoinHandle<()>> = std::mem::take(&mut *self.shared.threads.lock());
            if hs.is_empty() {
                break;
            }
            for h in hs {
                let _ = h.join();
            }
        }
        out
    }

    /// Abrupt shutdown, discarding the actors: the in-process analogue
    /// of killing the OS process. Connections die mid-stream; anything
    /// an actor had not flushed to its stable storage is gone (a
    /// file-backed WAL only ever persists flushed bytes, so recovery
    /// semantics match a real kill).
    pub fn kill(self) {
        let _ = self.stop();
    }
}

impl<M: Wire + Send + 'static> NodeShared<M> {
    fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Routes one message: locally by direct mailbox push, remotely via
    /// the peer's supervised link queue.
    fn route(self: &Arc<Self>, from: ProcessId, to: ProcessId, msg: M) {
        if let Some(tx) = self.local.read().get(&to) {
            if tx.send(Event::Msg { from, msg }).is_err() {
                self.metrics
                    .lock()
                    .record(from, Metric::incr(METRIC_SEND_FAILURES));
            }
            return;
        }
        let link = self.ensure_link(to);
        let (depth, dropped) = link.push(from, msg, self.cfg.queue_cap);
        let mut m = self.metrics.lock();
        m.record(from, Metric::add(METRIC_TCP_QUEUE_DEPTH, depth as i64));
        if dropped {
            m.record(from, Metric::incr(METRIC_TCP_QUEUE_DROPS));
        }
    }

    /// Returns the outbound link to `to`, starting its supervisor on
    /// first use.
    fn ensure_link(self: &Arc<Self>, to: ProcessId) -> Arc<PeerLink<M>> {
        let mut links = self.links.lock();
        if let Some(l) = links.get(&to) {
            return l.clone();
        }
        let link: Arc<PeerLink<M>> = Arc::new(PeerLink::default());
        links.insert(to, link.clone());
        let shared = self.clone();
        let sup_link = link.clone();
        let h = std::thread::Builder::new()
            .name(format!("mcpaxos-tcp-out-{to}"))
            .spawn(move || supervise_link(shared, to, sup_link))
            .expect("spawn link supervisor");
        self.threads.lock().push(h);
        link
    }

    /// Delivers `on_link_reset(peer)` to local process(es) and counts it.
    fn fire_link_reset(&self, peer: ProcessId, only: Option<ProcessId>) {
        let local = self.local.read();
        let mut fired = 0i64;
        match only {
            Some(pid) => {
                if let Some(tx) = local.get(&pid) {
                    if tx.send(Event::LinkReset(peer)).is_ok() {
                        fired += 1;
                    }
                }
            }
            None => {
                for tx in local.values() {
                    if tx.send(Event::LinkReset(peer)).is_ok() {
                        fired += 1;
                    }
                }
            }
        }
        if fired > 0 {
            self.metrics
                .lock()
                .record(peer, Metric::add(METRIC_TCP_LINK_RESETS, fired));
        }
    }
}

/// Sleeps for `d`, polling the shutdown flag; returns false if shutdown
/// was requested during the sleep.
fn sleep_unless_shutdown(flag: &AtomicBool, d: Duration) -> bool {
    let deadline = Instant::now() + d;
    while Instant::now() < deadline {
        if flag.load(Ordering::SeqCst) {
            return false;
        }
        std::thread::sleep(Duration::from_millis(5).min(deadline - Instant::now()));
    }
    !flag.load(Ordering::SeqCst)
}

/// The outbound supervisor for one remote process: connect, handshake,
/// drain the queue; on any error, back off and start over.
fn supervise_link<M: Wire + Send + 'static>(
    shared: Arc<NodeShared<M>>,
    to: ProcessId,
    link: Arc<PeerLink<M>>,
) {
    let mut rng = SplitMix64::new(0xC0FF_EE00 ^ u64::from(to.raw()));
    let mut attempt: u32 = 0;
    let mut ever_connected = false;
    'reconnect: loop {
        if shared.is_shutdown() {
            return;
        }
        // Resolve-then-connect, re-resolving every attempt: a restarted
        // peer listens on a fresh port under the same id.
        let stream = shared
            .peers
            .resolve(to)
            .and_then(|addr| TcpStream::connect(addr).ok());
        let mut stream = match stream {
            Some(s) => s,
            None => {
                let d = shared.cfg.reconnect.delay(attempt, || rng.next());
                attempt = attempt.saturating_add(1);
                if !sleep_unless_shutdown(&shared.shutdown, Duration::from_millis(d.ticks())) {
                    return;
                }
                continue;
            }
        };
        let _ = stream.set_nodelay(true);

        // Handshake: declare who we host and whom this connection feeds.
        let senders: Vec<ProcessId> = {
            let mut v: Vec<ProcessId> = shared.local.read().keys().copied().collect();
            v.sort_unstable();
            v
        };
        let hello = to_bytes::<M>(&Packet::Hello { senders, dest: to });
        let mut first = Vec::with_capacity(hello.len() + FRAME_OVERHEAD as usize);
        encode_frame(&hello, &mut first).expect("hello frame fits");
        if stream.write_all(&first).is_err() {
            let d = shared.cfg.reconnect.delay(attempt, || rng.next());
            attempt = attempt.saturating_add(1);
            if !sleep_unless_shutdown(&shared.shutdown, Duration::from_millis(d.ticks())) {
                return;
            }
            continue;
        }

        attempt = 0;
        if ever_connected {
            // Messages queued during the outage may be delta-encoded
            // against a base the restarted peer no longer holds; the
            // link is fair-lossy, so drop them (counted) rather than
            // provoke a NeedFull storm — the protocol resends against
            // the fresh post-reset base.
            let flushed = {
                let mut q = link.q.lock().unwrap_or_else(|e| e.into_inner());
                let n = q.len();
                q.clear();
                n
            };
            {
                let mut m = shared.metrics.lock();
                m.record(to, Metric::incr(METRIC_TCP_RECONNECTS));
                if flushed > 0 {
                    m.record(to, Metric::add(METRIC_TCP_QUEUE_DROPS, flushed as i64));
                }
            }
            // The link died and came back: everything sent in between
            // may be lost, so every local process resets its per-peer
            // incremental state toward `to`.
            shared.fire_link_reset(to, None);
        }
        ever_connected = true;

        let mut faults = shared.cfg.faults.map(|cfg| FaultyTransport::link(cfg, to));

        // Drain the queue until the connection breaks.
        loop {
            if shared.is_shutdown() {
                return;
            }
            let Some((from, msg)) = link.pop(Duration::from_millis(25)) else {
                continue;
            };
            let payload = to_bytes(&Packet::Data { from, msg: &msg });
            let mut frame = Vec::with_capacity(payload.len() + FRAME_OVERHEAD as usize);
            if encode_frame(&payload, &mut frame).is_err() {
                // Message too large to frame: dropping is the only safe
                // move (the decoder would reject it anyway).
                shared
                    .metrics
                    .lock()
                    .record(from, Metric::incr(METRIC_SEND_FAILURES));
                continue;
            }
            {
                let mut m = shared.metrics.lock();
                m.record(
                    from,
                    Metric::add(METRIC_TCP_FRAME_BYTES, frame.len() as i64),
                );
                m.record(from, Metric::incr(METRIC_TCP_FRAMES));
            }
            let action = match faults.as_mut() {
                Some(f) => f.apply(frame),
                None => FaultAction::Write(vec![frame]),
            };
            match action {
                FaultAction::Write(blobs) => {
                    for blob in blobs {
                        if stream.write_all(&blob).is_err() {
                            // Connection broke; whatever was in flight is
                            // lost (fair-lossy) and the protocol resends.
                            continue 'reconnect;
                        }
                    }
                }
                FaultAction::Disconnect => continue 'reconnect,
            }
        }
    }
}

/// Accepts inbound connections until shutdown, one reader thread each.
fn accept_loop<M: Wire + Send + 'static>(shared: Arc<NodeShared<M>>, listener: TcpListener) {
    let _ = listener.set_nonblocking(true);
    loop {
        if shared.is_shutdown() {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nonblocking(false);
                let _ = stream.set_read_timeout(Some(Duration::from_millis(25)));
                let reader_shared = shared.clone();
                let h = std::thread::Builder::new()
                    .name("mcpaxos-tcp-read".into())
                    .spawn(move || read_connection(reader_shared, stream))
                    .expect("spawn reader");
                shared.threads.lock().push(h);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => return,
        }
    }
}

/// Reads one inbound connection: deframe, decode, deliver — and tear the
/// whole connection down on the first malformed byte.
fn read_connection<M: Wire + Send + 'static>(shared: Arc<NodeShared<M>>, mut stream: TcpStream) {
    let mut dec = FrameDecoder::new();
    let mut dest: Option<ProcessId> = None;
    let mut buf = [0u8; 16 * 1024];
    loop {
        if shared.is_shutdown() {
            return;
        }
        let n = match stream.read(&mut buf) {
            Ok(0) => return, // peer closed cleanly
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                continue; // read timeout: poll shutdown and retry
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return,
        };
        dec.push(&buf[..n]);
        loop {
            let payload = match dec.next_frame() {
                Ok(Some(p)) => p,
                Ok(None) => break, // torn tail: wait for more bytes
                Err(_) => {
                    // CRC mismatch or hostile length prefix: the stream
                    // is garbage from here on. Count and tear down — the
                    // sender's supervisor will reconnect.
                    let pid = dest.unwrap_or(ProcessId(u32::MAX));
                    shared
                        .metrics
                        .lock()
                        .record(pid, Metric::incr(METRIC_TCP_FRAME_ERRORS));
                    return;
                }
            };
            match OwnedPacket::<M>::decode(&payload) {
                Ok(OwnedPacket::Hello { senders, dest: d }) => {
                    dest = Some(d);
                    let mut seen = shared.seen_inbound.lock();
                    for s in senders {
                        if !seen.insert((s, d)) {
                            // This connection replaces one we already
                            // had from `s` to `d`: the gap may have
                            // eaten messages, reset the delta base.
                            shared.fire_link_reset(s, Some(d));
                        }
                    }
                }
                Ok(OwnedPacket::Data { from, msg }) => {
                    let Some(d) = dest else {
                        // Data before Hello: protocol violation.
                        shared
                            .metrics
                            .lock()
                            .record(from, Metric::incr(METRIC_TCP_FRAME_ERRORS));
                        return;
                    };
                    let delivered = match shared.local.read().get(&d) {
                        Some(tx) => tx.send(Event::Msg { from, msg }).is_ok(),
                        None => false,
                    };
                    if !delivered {
                        shared
                            .metrics
                            .lock()
                            .record(from, Metric::incr(METRIC_SEND_FAILURES));
                    }
                }
                Err(_) => {
                    // Framing held but the payload is not a packet we
                    // understand: same remedy, never deliver garbage.
                    let pid = dest.unwrap_or(ProcessId(u32::MAX));
                    shared
                        .metrics
                        .lock()
                        .record(pid, Metric::incr(METRIC_TCP_FRAME_ERRORS));
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_roundtrip() {
        let senders = vec![ProcessId(1), ProcessId(2)];
        let hello = to_bytes::<u32>(&Packet::Hello {
            senders: senders.clone(),
            dest: ProcessId(9),
        });
        match OwnedPacket::<u32>::decode(&hello).unwrap() {
            OwnedPacket::Hello { senders: s, dest } => {
                assert_eq!(s, senders);
                assert_eq!(dest, ProcessId(9));
            }
            _ => panic!("wrong variant"),
        }

        let msg = 0xDEAD_BEEFu32;
        let data = to_bytes(&Packet::Data {
            from: ProcessId(3),
            msg: &msg,
        });
        match OwnedPacket::<u32>::decode(&data).unwrap() {
            OwnedPacket::Data { from, msg } => {
                assert_eq!(from, ProcessId(3));
                assert_eq!(msg, 0xDEAD_BEEF);
            }
            _ => panic!("wrong variant"),
        }
        assert!(OwnedPacket::<u32>::decode(&[7, 0, 0]).is_err());
    }

    #[test]
    fn data_header_constant_matches_encoding() {
        let msg = 7u64;
        let data = to_bytes(&Packet::Data {
            from: ProcessId(1),
            msg: &msg,
        });
        let msg_alone = mcpaxos_actor::wire::to_bytes(&msg);
        assert_eq!(
            data.len() as u64,
            msg_alone.len() as u64 + DATA_HEADER_BYTES
        );
        assert_eq!(
            framed_size_of(ProcessId(1), &msg),
            msg_alone.len() as u64 + DATA_HEADER_BYTES + FRAME_OVERHEAD
        );
    }

    #[test]
    fn peer_table_dir_publishes_atomically_and_reresolves() {
        let dir = std::env::temp_dir().join(format!("mcpaxos_peers_{}", std::process::id()));
        let table = PeerTable::dir(&dir).unwrap();
        let pid = ProcessId(5);
        assert_eq!(table.resolve(pid), None);
        let a1: SocketAddr = "127.0.0.1:4001".parse().unwrap();
        let a2: SocketAddr = "127.0.0.1:4002".parse().unwrap();
        table.publish(pid, a1).unwrap();
        assert_eq!(table.resolve(pid), Some(a1));
        // Republishing (the restarted node's new port) replaces.
        table.publish(pid, a2).unwrap();
        assert_eq!(table.resolve(pid), Some(a2));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
