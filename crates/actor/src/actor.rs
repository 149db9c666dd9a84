//! The [`Actor`] trait and its execution [`Context`].

use crate::{Metric, ProcessId, SimDuration, SimTime, StableStore};
use std::any::Any;

/// Opaque handle identifying a pending timer, paired with the actor-chosen
/// token that is delivered when the timer fires.
///
/// Actors namespace their timers with small integer tokens (e.g. "resend",
/// "heartbeat", "suspect leader"); the runtime guarantees that a timer set
/// before a crash never fires after recovery.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TimerToken(pub u64);

/// Execution context handed to an actor on every upcall.
///
/// All effects an actor can have on the world go through its context, which
/// is what makes the same agent code runnable under the deterministic
/// simulator and the threaded live runtime.
pub trait Context<M> {
    /// The id of the process running this actor.
    fn me(&self) -> ProcessId;

    /// Current logical time.
    fn now(&self) -> SimTime;

    /// Sends `msg` to `to`. Delivery is asynchronous and unreliable:
    /// messages may be delayed arbitrarily, duplicated or lost (per the
    /// paper's system model), but are never corrupted.
    fn send(&mut self, to: ProcessId, msg: M);

    /// Sends `msg` to every process in `to`.
    ///
    /// Clones for all recipients but the last, which receives the
    /// original by move — with `Arc`-shared payloads (the protocol's
    /// c-struct messages) every copy is a pointer bump, so an n-way
    /// fan-out costs O(n) pointer clones instead of n deep copies of the
    /// payload. Delivery semantics are exactly those of `n` individual
    /// [`Context::send`] calls, in `to`'s order: each copy is
    /// independently subject to delay, duplication and loss
    /// (`simnet::tests` pins this equivalence under a lossy network).
    fn multicast(&mut self, to: &[ProcessId], msg: M)
    where
        M: Clone,
    {
        if let Some((&last, rest)) = to.split_last() {
            for &p in rest {
                self.send(p, msg.clone());
            }
            self.send(last, msg);
        }
    }

    /// Arms a timer that fires `after` ticks from now, delivering `token`
    /// to [`Actor::on_timer`]. Re-arming the same token replaces the
    /// previous deadline.
    fn set_timer(&mut self, after: SimDuration, token: TimerToken);

    /// Cancels the pending timer with `token`, if any.
    fn cancel_timer(&mut self, token: TimerToken);

    /// The process-local stable storage. Writes performed here survive
    /// crashes and are counted — they are the "disk writes" whose cost §4.4
    /// of the paper analyses.
    fn storage(&mut self) -> &mut dyn StableStore;

    /// Records an observation for the experiment harness (counters such as
    /// "collision detected" or "value learned"). Metrics are *not* part of
    /// the protocol; they exist so experiments can measure behaviour without
    /// instrumenting agent internals.
    fn metric(&mut self, metric: Metric);

    /// A pseudo-random 64-bit value. Under the simulator this is drawn from
    /// the seeded run RNG, keeping executions reproducible; agents use it
    /// only for tie-breaking and load-balancing choices, never for safety.
    fn random(&mut self) -> u64;
}

/// A deterministic event-driven process.
///
/// Actors hold volatile state only. On a crash the runtime drops the actor;
/// on recovery it constructs a fresh one (via the deployment's factory) and
/// calls [`Actor::on_recover`], whose default implementation delegates to
/// [`Actor::on_start`]. Anything that must survive the crash has to live in
/// [`Context::storage`].
pub trait Actor: Any {
    /// The message type this actor exchanges.
    type Msg;

    /// Called once when the process (re)starts, before any message delivery.
    fn on_start(&mut self, ctx: &mut dyn Context<Self::Msg>) {
        let _ = ctx;
    }

    /// Called when the process restarts after a crash. Defaults to
    /// [`Actor::on_start`]; agents with recovery-specific behaviour (e.g.
    /// the acceptor's `MCount` bump of §4.4) override it.
    fn on_recover(&mut self, ctx: &mut dyn Context<Self::Msg>) {
        self.on_start(ctx);
    }

    /// Called for every delivered message.
    fn on_message(&mut self, from: ProcessId, msg: Self::Msg, ctx: &mut dyn Context<Self::Msg>);

    /// Called when a timer armed through [`Context::set_timer`] fires.
    fn on_timer(&mut self, token: TimerToken, ctx: &mut dyn Context<Self::Msg>);

    /// Called when the link to `peer` was severed and re-established
    /// (a partition healed, or a transport reconnected): messages sent to
    /// `peer` in the interim may all have been lost, so any per-peer
    /// incremental state — such as a delta-shipping base — must be reset.
    /// The default ignores the notification, which is always safe: the
    /// protocol already tolerates fair-lossy links, a reset merely skips
    /// the `NeedFull` resync round-trip.
    fn on_link_reset(&mut self, peer: ProcessId, ctx: &mut dyn Context<Self::Msg>) {
        let _ = (peer, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::Recorder;

    struct Probe {
        seen: Vec<(ProcessId, u32)>,
        fired: Vec<TimerToken>,
    }

    impl Actor for Probe {
        type Msg = u32;
        fn on_message(&mut self, from: ProcessId, msg: u32, ctx: &mut dyn Context<u32>) {
            self.seen.push((from, msg));
            ctx.send(from, msg + 1);
        }
        fn on_timer(&mut self, token: TimerToken, _ctx: &mut dyn Context<u32>) {
            self.fired.push(token);
        }
    }

    #[test]
    fn actor_reacts_through_context() {
        let mut a = Probe {
            seen: vec![],
            fired: vec![],
        };
        let mut ctx = Recorder::new(9);
        a.on_message(ProcessId(1), 10, &mut ctx);
        a.on_timer(TimerToken(3), &mut ctx);
        assert_eq!(a.seen, vec![(ProcessId(1), 10)]);
        assert_eq!(a.fired, vec![TimerToken(3)]);
        assert_eq!(ctx.sent, vec![(ProcessId(1), 11)]);
    }

    #[test]
    fn multicast_default_clones_to_all() {
        struct Fanout;
        impl Actor for Fanout {
            type Msg = u32;
            fn on_message(&mut self, _f: ProcessId, m: u32, ctx: &mut dyn Context<u32>) {
                ctx.multicast(&[ProcessId(1), ProcessId(2)], m);
            }
            fn on_timer(&mut self, _t: TimerToken, _c: &mut dyn Context<u32>) {}
        }
        let mut ctx = Recorder::new(0);
        Fanout.on_message(ProcessId(5), 7, &mut ctx);
        assert_eq!(ctx.sent, vec![(ProcessId(1), 7), (ProcessId(2), 7)]);
    }

    /// Hosts inspect a boxed actor by upcasting to `dyn Any`; this is
    /// what `Actor: Any` is for.
    #[test]
    fn downcast_via_any_actor() {
        let boxed: Box<dyn Actor<Msg = u32>> = Box::new(Probe {
            seen: vec![],
            fired: vec![TimerToken(1)],
        });
        let any: &dyn Any = boxed.as_ref();
        let probe = any.downcast_ref::<Probe>().expect("concrete type");
        assert_eq!(probe.fired, vec![TimerToken(1)]);
    }
}
