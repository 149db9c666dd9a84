//! The simulator core: event heap, process table, fault injection.

use crate::procs::{ActorBox, ProcTable};
use crate::{DelayDist, NetConfig, Topology, TraceEntry, TraceKind};
use mcpaxos_actor::host::{Effects, Upcall};
use mcpaxos_actor::{
    Actor, MetricSink, Metrics, ProcessId, SimDuration, SimTime, StableStore, TimerToken,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BinaryHeap};
use std::fmt::Debug;

/// Per-process message counters, used by the load-balance experiment (E4).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProcessStats {
    /// Messages this process handed to the network.
    pub sent: u64,
    /// Messages delivered to this process.
    pub delivered: u64,
    /// Timer upcalls executed at this process.
    pub timers_fired: u64,
    /// Serialized bytes this process handed to the network (0 unless
    /// byte accounting is enabled).
    pub bytes_sent: u64,
}

/// Cumulative wire accounting for one message tag.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireTotal {
    /// Messages handed to the network.
    pub count: u64,
    /// Their cumulative serialized size in bytes.
    pub bytes: u64,
}

/// Classifies and sizes a message for wire accounting: returns a static
/// tag (e.g. the protocol message kind) and the serialized byte size.
pub type ByteMeter<M> = Box<dyn Fn(&M) -> (&'static str, u64)>;

enum Event<M> {
    Deliver {
        to: ProcessId,
        from: ProcessId,
        msg: M,
    },
    Timer {
        at: ProcessId,
        token: TimerToken,
        arm: u64,
        /// Crash epoch at arm time — see the assertion in `dispatch`.
        epoch: u64,
    },
    Crash(ProcessId),
    Recover(ProcessId),
    Partition(Vec<ProcessId>, Vec<ProcessId>),
    Heal,
    Reconfig(NetConfig),
}

struct Scheduled<M> {
    /// (time, sequence) — the total order of the run.
    key: (u64, u64),
    event: Event<M>,
}

impl<M> PartialEq for Scheduled<M> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<M> Eq for Scheduled<M> {}
impl<M> PartialOrd for Scheduled<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Scheduled<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first.
        other.key.cmp(&self.key)
    }
}

/// What the simulator keeps per process beside the shared table's node.
#[derive(Default)]
struct SimProc {
    /// Monotonic arm counter: a timer event fires only if it carries the
    /// latest arm id for its token (cancel/re-arm/crash invalidate).
    next_arm: u64,
    timers: BTreeMap<TimerToken, u64>,
    /// Bumped on every crash; timer events stamped with an older epoch
    /// must never validate (the `timers` map was cleared at the crash).
    epoch: u64,
    stats: ProcessStats,
}

/// The deterministic discrete-event simulator.
///
/// All nondeterminism (delays, loss, duplication, tie-breaking randomness
/// requested by actors) is drawn from a single seeded RNG, so a `(seed,
/// scenario)` pair fully determines the execution.
pub struct Sim<M> {
    now: SimTime,
    seq: u64,
    heap: BinaryHeap<Scheduled<M>>,
    rng: StdRng,
    config: NetConfig,
    topology: Option<Topology>,
    procs: ProcTable<M, SimProc>,
    partitions: Vec<(Vec<ProcessId>, Vec<ProcessId>)>,
    metrics: Metrics,
    trace: Vec<TraceEntry>,
    trace_cap: usize,
    events_processed: u64,
    byte_meter: Option<ByteMeter<M>>,
    wire: BTreeMap<&'static str, WireTotal>,
    /// The effects buffer, reused across upcalls.
    fx: Effects<M>,
}

impl<M: Clone + Debug + 'static> Sim<M> {
    /// Creates a simulator with the given RNG seed and network config.
    pub fn new(seed: u64, config: NetConfig) -> Self {
        Sim {
            now: SimTime::ZERO,
            seq: 0,
            heap: BinaryHeap::new(),
            rng: StdRng::seed_from_u64(seed),
            config,
            topology: None,
            procs: ProcTable::new(),
            partitions: Vec::new(),
            metrics: Metrics::new(),
            trace: Vec::new(),
            trace_cap: 0,
            events_processed: 0,
            byte_meter: None,
            wire: BTreeMap::new(),
            fx: Effects::default(),
        }
    }

    /// Installs the storage factory consulted by every subsequent
    /// [`Sim::add_process`] call (already-registered processes keep their
    /// existing storage). Use this to back processes with a
    /// [`mcpaxos_actor::WalStore`] instead of the default
    /// [`mcpaxos_actor::MemStore`].
    pub fn set_storage_factory<F>(&mut self, factory: F)
    where
        F: FnMut(ProcessId) -> Box<dyn StableStore> + 'static,
    {
        self.procs.set_storage_factory(factory);
    }

    /// Registers a process and immediately runs its `on_start`.
    ///
    /// The factory is re-invoked on every recovery, modelling the loss of
    /// all volatile state; only [`Sim::storage`] survives.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is already registered.
    pub fn add_process<F>(&mut self, pid: ProcessId, factory: F)
    where
        F: FnMut() -> ActorBox<M> + 'static,
    {
        self.procs.add_process(pid, factory);
        self.upcall(pid, Upcall::Start);
    }

    // ----- time and execution -------------------------------------------

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Processes a single event, returning its timestamp, or `None` if the
    /// event queue is empty.
    pub fn step(&mut self) -> Option<SimTime> {
        let Scheduled { key, event } = self.heap.pop()?;
        self.now = SimTime(key.0);
        self.events_processed += 1;
        self.dispatch(event);
        Some(self.now)
    }

    /// Runs every event scheduled up to and including time `t`, then
    /// advances the clock to `t`.
    pub fn run_until(&mut self, t: SimTime) {
        while let Some(s) = self.heap.peek() {
            if s.key.0 > t.0 {
                break;
            }
            self.step();
        }
        if t > self.now {
            self.now = t;
        }
    }

    /// Runs until no events remain or `max_events` have been processed.
    /// Returns the number of events processed by this call.
    ///
    /// Protocols with periodic timers never quiesce; use [`Sim::run_until`]
    /// for those.
    pub fn run_to_quiescence(&mut self, max_events: u64) -> u64 {
        let mut n = 0;
        while n < max_events && self.step().is_some() {
            n += 1;
        }
        n
    }

    // ----- fault & scenario injection ------------------------------------

    /// Delivers `msg` to `to`, appearing to come from `from`, after one
    /// sampled link delay. Never lost or duplicated — used by harnesses to
    /// feed client traffic.
    pub fn inject(&mut self, to: ProcessId, from: ProcessId, msg: M) {
        let d = self.pair_delay(from, to).sample(&mut self.rng);
        let at = self.now + SimDuration(d);
        self.schedule(at, Event::Deliver { to, from, msg });
    }

    /// Delivers `msg` to `to` at exactly time `t` (which must not be in
    /// the past).
    ///
    /// # Panics
    ///
    /// Panics if `t` is earlier than the current time.
    pub fn inject_at(&mut self, t: SimTime, to: ProcessId, from: ProcessId, msg: M) {
        assert!(t >= self.now, "inject_at into the past");
        self.schedule(t, Event::Deliver { to, from, msg });
    }

    /// Crashes `p` at time `t`: volatile state and pending timers are lost;
    /// in-flight messages to `p` will be dropped.
    pub fn crash_at(&mut self, t: SimTime, p: ProcessId) {
        self.schedule(t, Event::Crash(p));
    }

    /// Recovers `p` at time `t`: a fresh actor is built by the factory and
    /// `on_recover` runs with the surviving stable storage.
    pub fn recover_at(&mut self, t: SimTime, p: ProcessId) {
        self.schedule(t, Event::Recover(p));
    }

    /// From time `t`, blocks all messages between group `a` and group `b`.
    pub fn partition_at(&mut self, t: SimTime, a: Vec<ProcessId>, b: Vec<ProcessId>) {
        self.schedule(t, Event::Partition(a, b));
    }

    /// Removes all partitions at time `t`. Every process that was cut
    /// off from a peer gets an [`Actor::on_link_reset`] upcall for that
    /// peer — the simulated analogue of a transport reconnect
    /// notification, letting senders drop per-peer incremental state.
    pub fn heal_at(&mut self, t: SimTime) {
        self.schedule(t, Event::Heal);
    }

    /// Replaces the network configuration at time `t` (e.g. a scheduled
    /// link-degradation burst). The change is ordered into the event
    /// stream, so a `(seed, schedule)` pair stays deterministic.
    pub fn set_config_at(&mut self, t: SimTime, config: NetConfig) {
        self.schedule(t, Event::Reconfig(config));
    }

    // ----- inspection -----------------------------------------------------

    /// Whether `p` is currently up.
    pub fn is_up(&self, p: ProcessId) -> bool {
        self.procs.is_up(p)
    }

    /// Immutable access to `p`'s actor, downcast to its concrete type.
    pub fn actor<A: Actor<Msg = M>>(&self, p: ProcessId) -> Option<&A> {
        self.procs.actor(p)
    }

    /// The stable storage of `p` (survives crashes).
    pub fn storage(&self, p: ProcessId) -> Option<&(dyn StableStore + '_)> {
        self.procs.storage(p)
    }

    /// Message counters for `p`.
    pub fn stats(&self, p: ProcessId) -> ProcessStats {
        self.procs.host(p).map(|h| h.stats).unwrap_or_default()
    }

    /// Aggregated metrics recorded by all actors.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The network configuration.
    pub fn config(&self) -> &NetConfig {
        &self.config
    }

    /// Installs a per-pair latency matrix. Pairs with an entry sample
    /// their own delay distribution; all other pairs keep sampling the
    /// global [`NetConfig::delay`] exactly as before.
    pub fn set_topology(&mut self, topology: Topology) {
        self.topology = Some(topology);
    }

    /// All registered process ids.
    pub fn processes(&self) -> Vec<ProcessId> {
        self.procs.processes()
    }

    /// Enables event tracing, keeping at most `cap` entries.
    pub fn enable_trace(&mut self, cap: usize) {
        self.trace_cap = cap;
    }

    /// The recorded trace.
    pub fn trace(&self) -> &[TraceEntry] {
        &self.trace
    }

    /// Enables per-message byte accounting: every message handed to the
    /// network is classified and sized by `meter`, feeding per-tag
    /// [`Sim::wire_totals`], per-process [`ProcessStats::bytes_sent`] and
    /// the `bytes` field of trace entries.
    pub fn enable_byte_meter(&mut self, meter: ByteMeter<M>) {
        self.byte_meter = Some(meter);
    }

    /// Cumulative wire accounting per message tag (empty unless a byte
    /// meter is enabled).
    pub fn wire_totals(&self) -> &BTreeMap<&'static str, WireTotal> {
        &self.wire
    }

    /// Cumulative wire accounting for one tag.
    pub fn wire_total(&self, tag: &str) -> WireTotal {
        self.wire.get(tag).copied().unwrap_or_default()
    }

    // ----- internals ------------------------------------------------------

    fn schedule(&mut self, at: SimTime, event: Event<M>) {
        let key = (at.0, self.seq);
        self.seq += 1;
        self.heap.push(Scheduled { key, event });
    }

    /// Appends a trace entry; `detail` is rendered only when the entry is
    /// actually kept, so an untraced run never formats a message.
    fn record(
        &mut self,
        kind: TraceKind,
        process: ProcessId,
        from: Option<ProcessId>,
        detail: impl FnOnce() -> String,
        bytes: u64,
    ) {
        if self.trace_cap == 0 || self.trace.len() >= self.trace_cap {
            return;
        }
        self.trace.push(TraceEntry {
            at: self.now,
            kind,
            process,
            from,
            detail: detail(),
            bytes,
        });
    }

    /// Sizes `msg` for a trace entry: only when both tracing and byte
    /// accounting are active (metering is pure, so re-invoking it here is
    /// just a second measurement).
    fn trace_bytes(&self, msg: &M) -> u64 {
        if self.trace_cap == 0 || self.trace.len() >= self.trace_cap {
            return 0;
        }
        self.byte_meter.as_ref().map(|m| m(msg).1).unwrap_or(0)
    }

    /// The delay distribution for one transmission: the topology entry
    /// for the pair if present, the global delay otherwise.
    fn pair_delay(&self, from: ProcessId, to: ProcessId) -> DelayDist {
        self.topology
            .as_ref()
            .and_then(|t| t.delay_between(from, to))
            .unwrap_or(self.config.delay)
    }

    fn is_blocked(&self, a: ProcessId, b: ProcessId) -> bool {
        self.partitions.iter().any(|(ga, gb)| {
            (ga.contains(&a) && gb.contains(&b)) || (ga.contains(&b) && gb.contains(&a))
        })
    }

    fn dispatch(&mut self, event: Event<M>) {
        match event {
            Event::Deliver { to, from, msg } => {
                let bytes = self.trace_bytes(&msg);
                if !self.procs.is_up(to) || self.is_blocked(from, to) {
                    self.record(
                        TraceKind::Drop,
                        to,
                        Some(from),
                        || format!("{msg:?}"),
                        bytes,
                    );
                    return;
                }
                self.record(
                    TraceKind::Deliver,
                    to,
                    Some(from),
                    || format!("{msg:?}"),
                    bytes,
                );
                if let Some(h) = self.procs.host_mut(to) {
                    h.stats.delivered += 1;
                }
                self.upcall(to, Upcall::Msg(from, msg));
            }
            Event::Timer {
                at,
                token,
                arm,
                epoch,
            } => {
                let up = self.procs.is_up(at);
                let armed = |h: &&mut SimProc| up && h.timers.get(&token) == Some(&arm);
                let Some(h) = self.procs.host_mut(at).filter(armed) else {
                    return;
                };
                // A timer armed before a crash must never validate after
                // the matching recover: the crash cleared `timers` and
                // `next_arm` only moves forward, so an arm match implies
                // the arm happened in the current crash epoch.
                assert_eq!(
                    epoch, h.epoch,
                    "stale pre-crash timer {token:?} fired across a recover at {at}"
                );
                h.timers.remove(&token);
                h.stats.timers_fired += 1;
                self.record(TraceKind::Timer, at, None, || format!("{token:?}"), 0);
                self.upcall(at, Upcall::Timer(token));
            }
            Event::Crash(p) => {
                if let Some(h) = self.procs.crash(p) {
                    h.timers.clear();
                    h.epoch += 1;
                    self.record(TraceKind::Crash, p, None, String::new, 0);
                }
            }
            Event::Recover(p) => {
                if self.procs.recover(p) {
                    self.record(TraceKind::Recover, p, None, String::new, 0);
                    self.upcall(p, Upcall::Recover);
                }
            }
            Event::Partition(a, b) => {
                self.partitions.push((a, b));
            }
            Event::Heal => {
                // Collect the pairs that were cut off before clearing,
                // then notify both endpoints of each severed link. Pairs
                // are deduplicated and iterated in sorted order, so heal
                // notifications are deterministic.
                let mut pairs: std::collections::BTreeSet<(ProcessId, ProcessId)> =
                    std::collections::BTreeSet::new();
                for (ga, gb) in &self.partitions {
                    for &a in ga {
                        for &b in gb {
                            if a != b {
                                pairs.insert((a, b));
                                pairs.insert((b, a));
                            }
                        }
                    }
                }
                self.partitions.clear();
                for (p, peer) in pairs {
                    // `upcall` skips processes that are down or absent.
                    self.upcall(p, Upcall::LinkReset(peer));
                }
            }
            Event::Reconfig(config) => {
                self.config = config;
            }
        }
    }

    fn upcall(&mut self, pid: ProcessId, kind: Upcall<M>) {
        let mut fx = std::mem::take(&mut self.fx);
        let rng = &mut self.rng;
        let ran = self
            .procs
            .upcall(pid, kind, self.now, &mut || rng.gen(), &mut fx);
        // A process that is down or absent ran nothing.
        if ran {
            self.apply(pid, &mut fx);
        }
        self.fx = fx;
    }

    /// Turns what an upcall at `pid` buffered into heap events.
    fn apply(&mut self, pid: ProcessId, fx: &mut Effects<M>) {
        for m in fx.metrics.drain(..) {
            self.metrics.record(pid, m);
        }
        let host = self.procs.host_mut(pid).expect("the upcall ran here");
        for token in fx.timer_cancels.drain(..) {
            host.timers.remove(&token);
        }
        for (after, token) in fx.timer_sets.drain(..) {
            let host = self.procs.host_mut(pid).expect("the upcall ran here");
            host.next_arm += 1;
            let (arm, epoch) = (host.next_arm, host.epoch);
            host.timers.insert(token, arm);
            self.schedule(
                self.now + after,
                Event::Timer {
                    at: pid,
                    token,
                    arm,
                    epoch,
                },
            );
        }
        for (to, msg) in fx.sends.drain(..) {
            self.transmit(pid, to, msg);
        }
    }

    fn transmit(&mut self, from: ProcessId, to: ProcessId, msg: M) {
        // Wire accounting happens at hand-off to the network: lost
        // messages cost the sender bytes too, duplicates injected by the
        // network do not.
        let metered = self.byte_meter.as_ref().map(|m| m(&msg));
        if let Some((tag, bytes)) = metered {
            let t = self.wire.entry(tag).or_default();
            t.count += 1;
            t.bytes += bytes;
        }
        if let Some(h) = self.procs.host_mut(from) {
            h.stats.sent += 1;
            if let Some((_, bytes)) = metered {
                h.stats.bytes_sent += bytes;
            }
        }
        let trace_bytes = metered.map(|(_, b)| b).unwrap_or(0);
        if self.is_blocked(from, to) {
            self.record(
                TraceKind::Drop,
                to,
                Some(from),
                || format!("{msg:?}"),
                trace_bytes,
            );
            return;
        }
        if self.config.loss > 0.0 && self.rng.gen_bool(self.config.loss) {
            self.record(
                TraceKind::Drop,
                to,
                Some(from),
                || format!("{msg:?}"),
                trace_bytes,
            );
            return;
        }
        let copies = if self.config.duplicate > 0.0 && self.rng.gen_bool(self.config.duplicate) {
            2
        } else {
            1
        };
        let dist = self.pair_delay(from, to);
        for _ in 0..copies {
            let d = dist.sample(&mut self.rng);
            self.schedule(
                self.now + SimDuration(d),
                Event::Deliver {
                    to,
                    from,
                    msg: msg.clone(),
                },
            );
        }
    }
}

impl<M: 'static> std::fmt::Debug for Sim<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sim")
            .field("now", &self.now)
            .field("processes", &self.procs.len())
            .field("pending_events", &self.heap.len())
            .field("events_processed", &self.events_processed)
            .finish()
    }
}
