//! The event loop of one live process.
//!
//! A live process is one OS thread running one actor: it owns a mailbox,
//! local timers, local stable storage and a PRNG, and it interacts with
//! the rest of the deployment only through a [`Router`] — the function
//! that carries an outgoing message toward its destination, which
//! [`crate::TcpNode`] implements as a mailbox push for a co-located
//! process and a supervised TCP link otherwise. Upcalls run through
//! [`mcpaxos_actor::host`], exactly as they do under the simulator.

use crossbeam::channel::{Receiver, RecvTimeoutError};
use mcpaxos_actor::host::{Effects, HostCtx, Upcall};
use mcpaxos_actor::{
    Actor, Metric, MetricSink, Metrics, ProcessId, SimTime, StableStore, TimerToken,
};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A boxed actor that can move to its hosting thread.
pub type SendActor<M> = Box<dyn SendableActor<M>>;

/// `Actor<Msg = M> + Send` as one object-safe trait.
pub trait SendableActor<M>: Actor<Msg = M> + Send {
    /// Upcast for post-run inspection.
    fn as_any(&self) -> &dyn std::any::Any;
}

impl<M, A: Actor<Msg = M> + Send> SendableActor<M> for A {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Mailbox events delivered to a process thread.
pub(crate) enum Event<M> {
    /// A message from `from` (another actor, or an external client).
    Msg { from: ProcessId, msg: M },
    /// The link to `peer` was severed and re-established; per-peer
    /// incremental state toward it must be reset.
    LinkReset(ProcessId),
    /// Graceful shutdown: the thread returns its actor for inspection.
    Stop,
}

/// Carries an outgoing message `(from, to, msg)` toward its destination:
/// a mailbox push, or an enqueue onto a supervised TCP link.
pub(crate) type Router<M> = Arc<dyn Fn(ProcessId, ProcessId, M) + Send + Sync>;

/// Sizes a message for live wire accounting: returns a static tag and the
/// serialized byte size. Shared by every process thread.
pub type LiveByteMeter<M> = Arc<dyn Fn(&M) -> (&'static str, u64) + Send + Sync>;

/// Metric name for cumulative serialized bytes handed to the transport
/// (recorded per sending process when a byte meter is installed).
pub const METRIC_WIRE_BYTES: &str = "wire_bytes";
/// Metric name for messages handed to the transport under byte
/// accounting.
pub const METRIC_WIRE_MSGS: &str = "wire_msgs";
/// Metric name counting sends that could not be handed to a live
/// destination: the mailbox of a stopped/crashed process, or a message
/// too large to frame. Recorded per *sender* — it is the sender's view
/// of the fair-lossy link.
pub const METRIC_SEND_FAILURES: &str = "send_failures";

/// Everything a process thread needs to run.
pub(crate) struct ProcessSpec<M> {
    pub pid: ProcessId,
    pub actor: SendActor<M>,
    pub rx: Receiver<Event<M>>,
    pub router: Router<M>,
    pub metrics: Arc<Mutex<Metrics>>,
    pub start: Instant,
    pub meter: Option<LiveByteMeter<M>>,
    /// The process's stable storage. In-memory by default; the TCP
    /// multi-process example injects a file-backed WAL so state survives
    /// an OS-process kill.
    pub storage: Box<dyn StableStore + Send>,
    /// When true the actor is entering via [`Actor::on_recover`] (a
    /// restart over pre-existing storage) instead of [`Actor::on_start`].
    pub recovered: bool,
}

pub(crate) fn run_process<M: Send + 'static>(mut spec: ProcessSpec<M>) -> SendActor<M> {
    let pid = spec.pid;
    let mut timers: BTreeMap<TimerToken, Instant> = BTreeMap::new();
    let mut rng = rand_like::SplitMix64::new(0x5EED ^ u64::from(pid.raw()));
    let mut fx = Effects::default();
    // Runs one upcall, then applies what it buffered: metrics to the
    // shared table, timers to wall-clock deadlines (one tick = one
    // millisecond), sends to the router.
    let mut upcall = |kind: Upcall<M>, timers: &mut BTreeMap<TimerToken, Instant>| {
        let now = SimTime(spec.start.elapsed().as_millis() as u64);
        let mut random = || rng.next();
        let mut ctx = HostCtx::new(pid, now, &mut *spec.storage, &mut random, &mut fx);
        kind.run(&mut *spec.actor, &mut ctx);
        if !fx.metrics.is_empty() {
            let mut m = spec.metrics.lock();
            for metric in fx.metrics.drain(..) {
                m.record(pid, metric);
            }
        }
        for token in fx.timer_cancels.drain(..) {
            timers.remove(&token);
        }
        let armed_at = Instant::now();
        for (after, token) in fx.timer_sets.drain(..) {
            timers.insert(token, armed_at + Duration::from_millis(after.ticks()));
        }
        if fx.sends.is_empty() {
            return;
        }
        // Wire accounting at hand-off to the transport, mirroring the
        // simulator's per-send byte metering.
        if let Some(meter) = &spec.meter {
            let total: u64 = fx.sends.iter().map(|(_, msg)| meter(msg).1).sum();
            let mut m = spec.metrics.lock();
            m.record(pid, Metric::add(METRIC_WIRE_BYTES, total as i64));
            m.record(pid, Metric::add(METRIC_WIRE_MSGS, fx.sends.len() as i64));
        }
        for (to, msg) in fx.sends.drain(..) {
            (spec.router)(pid, to, msg);
        }
    };

    let first = if spec.recovered {
        Upcall::Recover
    } else {
        Upcall::Start
    };
    upcall(first, &mut timers);

    loop {
        // Fire due timers first.
        let now = Instant::now();
        let due: Vec<TimerToken> = timers
            .iter()
            .filter(|(_, &at)| at <= now)
            .map(|(&t, _)| t)
            .collect();
        for token in due {
            timers.remove(&token);
            upcall(Upcall::Timer(token), &mut timers);
        }
        // Wait for the next message or timer deadline.
        let next_deadline = timers.values().min().copied();
        let wait = match next_deadline {
            Some(at) => at.saturating_duration_since(Instant::now()),
            None => Duration::from_millis(50),
        };
        match spec.rx.recv_timeout(wait) {
            Ok(Event::Msg { from, msg }) => upcall(Upcall::Msg(from, msg), &mut timers),
            Ok(Event::LinkReset(peer)) => upcall(Upcall::LinkReset(peer), &mut timers),
            Ok(Event::Stop) | Err(RecvTimeoutError::Disconnected) => return spec.actor,
            Err(RecvTimeoutError::Timeout) => {}
        }
    }
}

/// Tiny allocation-free PRNG (SplitMix64) so the runtime does not need a
/// full RNG dependency; actors use randomness only for tie-breaking, and
/// the fault injector uses it for its seeded per-link decision stream.
pub(crate) mod rand_like {
    /// SplitMix64 state.
    pub struct SplitMix64(u64);

    impl SplitMix64 {
        /// Seeds the generator.
        pub fn new(seed: u64) -> Self {
            SplitMix64(seed)
        }

        /// Next pseudo-random value.
        pub fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rand_like::SplitMix64;
    use crate::{PeerTable, TcpConfig, TcpNode};
    use mcpaxos_actor::{
        Actor, Context, MemStore, Metric, ProcessId, SimDuration, StableStore, TimerToken,
    };
    use std::time::{Duration, Instant};

    #[test]
    fn splitmix_is_deterministic_and_nonconstant() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(1);
        let xs: Vec<u64> = (0..5).map(|_| a.next()).collect();
        let ys: Vec<u64> = (0..5).map(|_| b.next()).collect();
        assert_eq!(xs, ys);
        assert!(xs.windows(2).any(|w| w[0] != w[1]));
    }

    fn node() -> TcpNode<u32> {
        TcpNode::bind(PeerTable::shared(), TcpConfig::default()).expect("bind loopback")
    }

    /// Polls until metric `name` totals `want`, at most two seconds.
    fn await_total(node: &TcpNode<u32>, name: &str, want: i64) {
        let deadline = Instant::now() + Duration::from_secs(2);
        while node.metrics().total(name) < want && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(node.metrics().total(name), want);
    }

    struct Counter {
        seen: u32,
    }
    impl Actor for Counter {
        type Msg = u32;
        fn on_message(&mut self, from: ProcessId, msg: u32, ctx: &mut dyn Context<u32>) {
            self.seen += 1;
            ctx.metric(Metric::incr("seen"));
            if msg > 0 {
                ctx.send(from, msg - 1);
            }
        }
        fn on_timer(&mut self, _t: TimerToken, _c: &mut dyn Context<u32>) {}
    }

    #[test]
    fn ping_pong_live() {
        let mut node = node();
        node.spawn(ProcessId(0), Box::new(Counter { seen: 0 }));
        node.spawn(ProcessId(1), Box::new(Counter { seen: 0 }));
        node.send(ProcessId(0), ProcessId(1), 9);
        await_total(&node, "seen", 10);
        let actors = node.stop();
        let seen = |p| {
            let a: &Counter = actors[&ProcessId(p)].as_any().downcast_ref().unwrap();
            a.seen
        };
        assert_eq!(seen(0) + seen(1), 10);
    }

    struct TimerBeat {
        beats: u32,
    }
    impl Actor for TimerBeat {
        type Msg = u32;
        fn on_start(&mut self, ctx: &mut dyn Context<u32>) {
            ctx.set_timer(SimDuration(10), TimerToken(1));
        }
        fn on_message(&mut self, _f: ProcessId, _m: u32, _c: &mut dyn Context<u32>) {}
        fn on_timer(&mut self, token: TimerToken, ctx: &mut dyn Context<u32>) {
            self.beats += 1;
            ctx.metric(Metric::incr("beat"));
            if self.beats < 5 {
                ctx.set_timer(SimDuration(10), token);
            }
        }
    }

    #[test]
    fn timers_fire_live() {
        let mut node = node();
        node.spawn(ProcessId(0), Box::new(TimerBeat { beats: 0 }));
        await_total(&node, "beat", 5);
        node.stop();
    }

    struct Recovers;
    impl Actor for Recovers {
        type Msg = u32;
        fn on_start(&mut self, ctx: &mut dyn Context<u32>) {
            ctx.metric(Metric::incr("started"));
            ctx.storage().write("mark", vec![42]);
        }
        fn on_recover(&mut self, ctx: &mut dyn Context<u32>) {
            let seen = ctx.storage().read("mark").map(<[u8]>::to_vec);
            if seen == Some(vec![42]) {
                ctx.metric(Metric::incr("recovered_with_state"));
            }
        }
        fn on_message(&mut self, _f: ProcessId, _m: u32, _c: &mut dyn Context<u32>) {}
        fn on_timer(&mut self, _t: TimerToken, _c: &mut dyn Context<u32>) {}
    }

    #[test]
    fn spawn_recovered_enters_via_on_recover_with_carried_storage() {
        let mut node = node();
        // Seed storage the way a pre-crash incarnation would have.
        let mut store = MemStore::new();
        store.write("mark", vec![42]);

        node.spawn_recovered(ProcessId(3), Box::new(Recovers), Box::new(store));
        await_total(&node, "recovered_with_state", 1);
        assert_eq!(
            node.metrics().total("started"),
            0,
            "on_start must not run on recovery"
        );
        node.stop();
    }
}
