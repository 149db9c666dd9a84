//! Hosting an actor: how an upcall runs.
//!
//! Every host — the seeded simulator, the schedule explorer, the live
//! thread runtime — runs an upcall the same way: pick the [`Upcall`],
//! hand the actor a [`HostCtx`] that buffers what it does into
//! [`Effects`], then apply the buffer. Only that last step differs per
//! host (an event heap, a pending list, wall-clock deadlines and a
//! router), so only that step lives outside this module.
//!
//! [`Recorder`] is the test-side counterpart: a [`Context`] that keeps
//! every effect for inspection instead of applying it.

use crate::{
    Actor, Context, MemStore, Metric, ProcessId, SimDuration, SimTime, StableStore, TimerToken,
};

/// What one upcall asked of the world, in call order per kind.
#[derive(Debug)]
pub struct Effects<M> {
    /// Messages sent, as `(to, msg)`.
    pub sends: Vec<(ProcessId, M)>,
    /// Timers armed, as `(after, token)`.
    pub timer_sets: Vec<(SimDuration, TimerToken)>,
    /// Timers cancelled.
    pub timer_cancels: Vec<TimerToken>,
    /// Metrics emitted.
    pub metrics: Vec<Metric>,
}

impl<M> Default for Effects<M> {
    fn default() -> Self {
        Effects {
            sends: Vec::new(),
            timer_sets: Vec::new(),
            timer_cancels: Vec::new(),
            metrics: Vec::new(),
        }
    }
}

/// The entry points of an [`Actor`], as data.
#[derive(Debug)]
pub enum Upcall<M> {
    /// [`Actor::on_start`].
    Start,
    /// [`Actor::on_recover`].
    Recover,
    /// [`Actor::on_message`] from the given sender.
    Msg(ProcessId, M),
    /// [`Actor::on_timer`].
    Timer(TimerToken),
    /// [`Actor::on_link_reset`] toward the given peer.
    LinkReset(ProcessId),
}

impl<M: 'static> Upcall<M> {
    /// Runs this upcall on `actor`.
    pub fn run(self, actor: &mut dyn Actor<Msg = M>, ctx: &mut dyn Context<M>) {
        match self {
            Upcall::Start => actor.on_start(ctx),
            Upcall::Recover => actor.on_recover(ctx),
            Upcall::Msg(from, msg) => actor.on_message(from, msg, ctx),
            Upcall::Timer(token) => actor.on_timer(token, ctx),
            Upcall::LinkReset(peer) => actor.on_link_reset(peer, ctx),
        }
    }
}

/// The production [`Context`]: `now` is sampled once per upcall, storage
/// and randomness are the host's, everything else lands in [`Effects`].
pub struct HostCtx<'a, M> {
    me: ProcessId,
    now: SimTime,
    storage: &'a mut dyn StableStore,
    random: &'a mut dyn FnMut() -> u64,
    fx: &'a mut Effects<M>,
}

impl<'a, M> HostCtx<'a, M> {
    /// A context for one upcall of process `me` at time `now`.
    pub fn new(
        me: ProcessId,
        now: SimTime,
        storage: &'a mut dyn StableStore,
        random: &'a mut dyn FnMut() -> u64,
        fx: &'a mut Effects<M>,
    ) -> Self {
        HostCtx {
            me,
            now,
            storage,
            random,
            fx,
        }
    }
}

impl<M> Context<M> for HostCtx<'_, M> {
    fn me(&self) -> ProcessId {
        self.me
    }
    fn now(&self) -> SimTime {
        self.now
    }
    fn send(&mut self, to: ProcessId, msg: M) {
        self.fx.sends.push((to, msg));
    }
    fn set_timer(&mut self, after: SimDuration, token: TimerToken) {
        self.fx.timer_sets.push((after, token));
    }
    fn cancel_timer(&mut self, token: TimerToken) {
        self.fx.timer_cancels.push(token);
    }
    fn storage(&mut self) -> &mut dyn StableStore {
        self.storage
    }
    fn metric(&mut self, metric: Metric) {
        self.fx.metrics.push(metric);
    }
    fn random(&mut self) -> u64 {
        (self.random)()
    }
}

/// A [`Context`] that records every effect of an upcall for inspection:
/// the fixture for testing an actor without a host.
pub struct Recorder<M> {
    /// The process the actor believes it runs as.
    pub me: ProcessId,
    /// The time the actor sees; tests advance it by hand.
    pub now: SimTime,
    /// Messages sent, in order.
    pub sent: Vec<(ProcessId, M)>,
    /// The timers armed, as `(after, token)`, in order.
    pub timers: Vec<(SimDuration, TimerToken)>,
    /// Metrics emitted, in order.
    pub metrics: Vec<Metric>,
    /// The stable storage; a [`MemStore`] unless replaced.
    pub store: Box<dyn StableStore>,
    rnd: u64,
}

impl<M> Recorder<M> {
    /// A recorder for process `me` at time zero over an empty
    /// [`MemStore`].
    pub fn new(me: u32) -> Self {
        Recorder {
            me: ProcessId(me),
            now: SimTime::ZERO,
            sent: Vec::new(),
            timers: Vec::new(),
            metrics: Vec::new(),
            store: Box::new(MemStore::new()),
            rnd: 0,
        }
    }

    /// How many times metric `name` was emitted.
    pub fn metric_count(&self, name: &str) -> usize {
        self.metrics.iter().filter(|m| m.name == name).count()
    }

    /// The sum of the values emitted under metric `name`.
    pub fn metric_total(&self, name: &str) -> i64 {
        self.metrics
            .iter()
            .filter(|m| m.name == name)
            .map(|m| m.value)
            .sum()
    }
}

impl<M> Context<M> for Recorder<M> {
    fn me(&self) -> ProcessId {
        self.me
    }
    fn now(&self) -> SimTime {
        self.now
    }
    fn send(&mut self, to: ProcessId, msg: M) {
        self.sent.push((to, msg));
    }
    fn set_timer(&mut self, after: SimDuration, token: TimerToken) {
        self.timers.push((after, token));
    }
    fn cancel_timer(&mut self, _token: TimerToken) {}
    fn storage(&mut self) -> &mut dyn StableStore {
        self.store.as_mut()
    }
    fn metric(&mut self, metric: Metric) {
        self.metrics.push(metric);
    }
    fn random(&mut self) -> u64 {
        self.rnd = self.rnd.wrapping_add(0x9E37_79B9_7F4A_7C15);
        self.rnd
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Logs which entry point ran and exercises every effect kind.
    #[derive(Default)]
    struct Probe {
        calls: Vec<String>,
    }

    impl Actor for Probe {
        type Msg = u32;
        fn on_start(&mut self, _ctx: &mut dyn Context<u32>) {
            self.calls.push("start".into());
        }
        fn on_recover(&mut self, _ctx: &mut dyn Context<u32>) {
            self.calls.push("recover".into());
        }
        fn on_message(&mut self, from: ProcessId, msg: u32, ctx: &mut dyn Context<u32>) {
            self.calls.push(format!("msg {from} {msg}"));
            ctx.send(from, msg + 1);
            ctx.set_timer(SimDuration(5), TimerToken(1));
            let (me, now) = (ctx.me(), ctx.now());
            ctx.send(me, now.ticks() as u32);
            ctx.cancel_timer(TimerToken(2));
            ctx.set_timer(SimDuration(3), TimerToken(2));
            ctx.metric(Metric::incr("seen"));
            let drawn = ctx.random();
            ctx.metric(Metric::add("rnd", drawn as i64));
            ctx.storage().write("last", vec![msg as u8]);
        }
        fn on_timer(&mut self, token: TimerToken, _ctx: &mut dyn Context<u32>) {
            self.calls.push(format!("timer {}", token.0));
        }
        fn on_link_reset(&mut self, peer: ProcessId, _ctx: &mut dyn Context<u32>) {
            self.calls.push(format!("reset {peer}"));
        }
    }

    #[test]
    fn each_upcall_reaches_its_method_and_effects_keep_call_order() {
        let mut probe = Probe::default();
        let mut store = MemStore::new();
        let mut fx = Effects::default();
        let mut draws = 0u64;
        let mut random = || {
            draws += 1;
            40 + draws
        };
        for up in [
            Upcall::Start,
            Upcall::Recover,
            Upcall::Msg(ProcessId(1), 10),
            Upcall::Timer(TimerToken(7)),
            Upcall::LinkReset(ProcessId(3)),
        ] {
            let mut ctx = HostCtx::new(ProcessId(9), SimTime(42), &mut store, &mut random, &mut fx);
            up.run(&mut probe, &mut ctx);
        }
        assert_eq!(
            probe.calls,
            ["start", "recover", "msg p1 10", "timer 7", "reset p3"]
        );
        assert_eq!(fx.sends, [(ProcessId(1), 11), (ProcessId(9), 42)]);
        assert_eq!(
            fx.timer_sets,
            [
                (SimDuration(5), TimerToken(1)),
                (SimDuration(3), TimerToken(2))
            ]
        );
        assert_eq!(fx.timer_cancels, [TimerToken(2)]);
        assert_eq!(fx.metrics, [Metric::incr("seen"), Metric::add("rnd", 41)]);
        assert_eq!(store.read("last"), Some(&[10u8][..]));
    }
}
