//! Depth-bounded exhaustive interleaving exploration.
//!
//! The seeded simulator ([`crate::Sim`]) samples *one* schedule per seed;
//! this module instead enumerates **every** schedule of a small
//! configuration up to a depth bound — the "small-scope" model-checking
//! discipline: most protocol bugs already manifest in tiny configurations
//! (two coordinators, three acceptors, one crash), so exhaustively
//! checking those catches interleavings that random seeds practically
//! never hit, such as a crash landing exactly between a vote being
//! buffered and the group-commit flush that would have made it durable.
//!
//! The state space is explored by stateless depth-first search: actors are
//! not cloneable, so instead of snapshotting states the explorer re-executes
//! the choice prefix from a fresh [`ExploreNet`] at every tree node. All
//! sources of nondeterminism other than the schedule are pinned (no message
//! loss, unit conceptual delay, a constant for [`mcpaxos_actor::Context::random`]),
//! so a choice sequence determines the reached state exactly.
//!
//! At every node the caller's invariant runs against the full network
//! state; per-path observer state (e.g. "the learner's value only grows")
//! is threaded through an accumulator that is recomputed during each
//! replay.

use crate::procs::{ActorBox, ProcTable};
use mcpaxos_actor::host::{Effects, Upcall};
use mcpaxos_actor::{Actor, ProcessId, SimDuration, SimTime, StableStore, TimerToken};
use std::collections::BTreeSet;
use std::fmt::Debug;

/// One scheduling decision of the explorer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Choice {
    /// Deliver the in-flight message at this index of the pending queue.
    Deliver(usize),
    /// Fire an armed timer at a process.
    Fire(ProcessId, TimerToken),
    /// Crash a process (volatile state and unflushed storage writes die).
    Crash(ProcessId),
    /// Recover a crashed process (fresh actor + `on_recover` replay).
    Recover(ProcessId),
}

/// Bounds on the exploration. The defaults are deliberately tiny; every
/// increment of `max_depth` multiplies the tree by the branching factor.
#[derive(Clone, Debug)]
pub struct ExploreConfig {
    /// Maximum choices per path (tree depth).
    pub max_depth: usize,
    /// Maximum `Crash` choices per path.
    pub max_crashes: usize,
    /// Maximum `Fire` choices per path (timers re-arm, so unbounded
    /// firing makes the tree infinite).
    pub max_timer_fires: usize,
    /// Hard cap on explored paths; hitting it sets
    /// [`ExploreStats::truncated`] instead of looping forever.
    pub max_paths: u64,
    /// Processes the explorer may crash and recover. Keep this small —
    /// each candidate adds crash/recover branches at every level.
    pub crash_candidates: Vec<ProcessId>,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            max_depth: 6,
            max_crashes: 1,
            max_timer_fires: 2,
            max_paths: 2_000_000,
            crash_candidates: Vec::new(),
        }
    }
}

/// Outcome counters of an exploration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExploreStats {
    /// Complete paths explored (leaves of the choice tree).
    pub paths: u64,
    /// Tree nodes visited (states checked against the invariant).
    pub states: u64,
    /// Largest branching factor seen at any node.
    pub max_branch: usize,
    /// Whether `max_paths` cut the exploration short.
    pub truncated: bool,
}

/// A failed invariant, with the choice path that reproduces it.
#[derive(Clone, Debug)]
pub struct Violation {
    /// The choice sequence from the initial state to the violation.
    pub path: Vec<Choice>,
    /// The invariant's error message.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "invariant violated: {}", self.message)?;
        writeln!(f, "reproducing schedule ({} choices):", self.path.len())?;
        for (i, c) in self.path.iter().enumerate() {
            writeln!(f, "  {i:3}: {c:?}")?;
        }
        Ok(())
    }
}

/// The explorable network: a process table plus a queue of in-flight
/// messages, with *no* clock-driven event heap — when things happen is
/// entirely up to the sequence of [`Choice`]s applied.
pub struct ExploreNet<M> {
    /// Each process with its armed timer tokens.
    procs: ProcTable<M, BTreeSet<TimerToken>>,
    /// In-flight messages as `(to, from, msg)`, in send order.
    pending: Vec<(ProcessId, ProcessId, M)>,
    now: SimTime,
}

impl<M: Clone + Debug + 'static> Default for ExploreNet<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: Clone + Debug + 'static> ExploreNet<M> {
    /// An empty network.
    pub fn new() -> Self {
        ExploreNet {
            procs: ProcTable::new(),
            pending: Vec::new(),
            now: SimTime::ZERO,
        }
    }

    /// Installs the storage factory consulted by subsequent
    /// [`ExploreNet::add_process`] calls (mirrors
    /// [`crate::Sim::set_storage_factory`]).
    pub fn set_storage_factory<F>(&mut self, factory: F)
    where
        F: FnMut(ProcessId) -> Box<dyn StableStore> + 'static,
    {
        self.procs.set_storage_factory(factory);
    }

    /// Registers a process and runs its `on_start`. Sends performed during
    /// start-up join the pending queue like any others.
    pub fn add_process<F>(&mut self, pid: ProcessId, factory: F)
    where
        F: FnMut() -> ActorBox<M> + 'static,
    {
        self.procs.add_process(pid, factory);
        self.upcall(pid, Upcall::Start);
    }

    /// Adds `msg` to the in-flight queue (client traffic, scripted
    /// prefixes).
    pub fn inject(&mut self, to: ProcessId, from: ProcessId, msg: M) {
        self.pending.push((to, from, msg));
    }

    /// The in-flight messages, in queue order.
    pub fn pending(&self) -> &[(ProcessId, ProcessId, M)] {
        &self.pending
    }

    /// Whether `p` is currently up.
    pub fn is_up(&self, p: ProcessId) -> bool {
        self.procs.is_up(p)
    }

    /// The logical clock: one tick per applied [`Choice`]. Invariant
    /// checks that consult time-dependent actor views (leader election,
    /// failure detection) need the same `now` the actors last saw.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// All registered process ids.
    pub fn processes(&self) -> Vec<ProcessId> {
        self.procs.processes()
    }

    /// Immutable access to `p`'s actor, downcast to its concrete type.
    pub fn actor<A: Actor<Msg = M>>(&self, p: ProcessId) -> Option<&A> {
        self.procs.actor(p)
    }

    /// The stable storage of `p`.
    pub fn storage(&self, p: ProcessId) -> Option<&(dyn StableStore + '_)> {
        self.procs.storage(p)
    }

    /// Enumerates every choice enabled in the current state, in a
    /// deterministic order. Identical in-flight messages (same recipient,
    /// sender and `Debug` rendering) yield a single `Deliver` choice:
    /// delivering either copy reaches the same state, so exploring both
    /// only inflates the tree (partial-order reduction in its simplest
    /// form). Budgets (`max_crashes`, `max_timer_fires`) are enforced by
    /// the [`explore`] driver, not here.
    pub fn choices(&self, cfg: &ExploreConfig) -> Vec<Choice> {
        let mut out = Vec::new();
        let mut seen = BTreeSet::new();
        for (i, (to, from, msg)) in self.pending.iter().enumerate() {
            if !self.is_up(*to) {
                continue; // delivering to a down process is a no-op state
            }
            if seen.insert((*to, *from, format!("{msg:?}"))) {
                out.push(Choice::Deliver(i));
            }
        }
        for (p, timers) in self.procs.up_hosts() {
            out.extend(timers.iter().map(|&t| Choice::Fire(p, t)));
        }
        for &p in &cfg.crash_candidates {
            if self.is_up(p) {
                out.push(Choice::Crash(p));
            } else if self.procs.host(p).is_some() {
                out.push(Choice::Recover(p));
            }
        }
        out
    }

    /// Applies one choice. Panics on structurally invalid choices (bad
    /// index, unarmed timer) — replayed paths are always valid because
    /// execution is deterministic.
    pub fn apply(&mut self, choice: &Choice) {
        self.now += SimDuration(1);
        match choice {
            Choice::Deliver(i) => {
                let (to, from, msg) = self.pending.remove(*i);
                self.upcall(to, Upcall::Msg(from, msg));
            }
            Choice::Fire(p, t) => {
                let armed = self.is_up(*p)
                    && self
                        .procs
                        .host_mut(*p)
                        .is_some_and(|timers| timers.remove(t));
                assert!(armed, "Fire({p}, {t:?}) on unarmed timer");
                self.upcall(*p, Upcall::Timer(*t));
            }
            Choice::Crash(p) => {
                let timers = self.procs.crash(*p);
                timers.expect("Crash of a process that is not up").clear();
            }
            Choice::Recover(p) => {
                assert!(self.procs.recover(*p), "Recover({p}) while not down");
                self.upcall(*p, Upcall::Recover);
            }
        }
    }

    /// Runs one upcall (a no-op at a down process) and applies what it
    /// buffered: metrics are dropped, sends join the pending queue.
    fn upcall(&mut self, pid: ProcessId, kind: Upcall<M>) {
        let mut fx = Effects::default();
        // Schedules are the only nondeterminism the explorer branches
        // over; actor-requested randomness is pinned to a constant so a
        // choice path fully determines the state.
        let mut pinned = || 0x9E37_79B9_7F4A_7C15;
        if !self.procs.upcall(pid, kind, self.now, &mut pinned, &mut fx) {
            return;
        }
        let timers = self.procs.host_mut(pid).expect("the upcall ran here");
        for t in fx.timer_cancels {
            timers.remove(&t);
        }
        // Timer *durations* are irrelevant here: firing order is a
        // scheduling choice, which is exactly what the explorer branches
        // over. A zero-tick timer is the exception: it is a yield, letting
        // whatever else is due at this instant run first. Every such
        // delivery the explorer already schedules before this step, so the
        // yield fires within it instead of costing a choice. (An actor
        // yielding from every yield would never finish this step.)
        let (yields, armed): (Vec<_>, Vec<_>) = fx
            .timer_sets
            .into_iter()
            .partition(|(after, _)| *after == SimDuration::ZERO);
        timers.extend(armed.into_iter().map(|(_after, t)| t));
        let sends = fx.sends.into_iter();
        self.pending.extend(sends.map(|(to, msg)| (to, pid, msg)));
        for (_, t) in yields {
            self.upcall(pid, Upcall::Timer(t));
        }
    }
}

fn count_kind(path: &[Choice], want_crash: bool) -> usize {
    path.iter()
        .filter(|c| match c {
            Choice::Crash(_) => want_crash,
            Choice::Fire(..) => !want_crash,
            _ => false,
        })
        .count()
}

/// Exhaustively explores every schedule of the network produced by
/// `build`, up to the bounds in `cfg`, checking `invariant` at every
/// reached state (including the initial one).
///
/// `build` constructs the network and may run a *scripted prefix*
/// (deterministic [`ExploreNet::apply`]/[`ExploreNet::inject`] calls) to
/// steer the system into an interesting region before branching begins.
/// `invariant` receives the network and a per-path accumulator of type
/// `S` (fresh at the path root), letting it assert path properties such
/// as monotonic learner growth in addition to state properties.
///
/// Returns the exploration counters, or the first violation found with
/// its reproducing schedule.
pub fn explore<M, S, B, I>(
    cfg: &ExploreConfig,
    build: B,
    invariant: I,
) -> Result<ExploreStats, Box<Violation>>
where
    M: Clone + Debug + 'static,
    S: Default,
    B: Fn(&mut ExploreNet<M>),
    I: Fn(&ExploreNet<M>, &mut S) -> Result<(), String>,
{
    let mut stats = ExploreStats::default();
    let mut path = Vec::new();
    dfs(cfg, &build, &invariant, &mut path, &mut stats)?;
    Ok(stats)
}

/// One DFS node: replays `path` from scratch (checking the invariant at
/// every step — replays are cheap at small depths and re-checking keeps
/// the accumulator honest), then branches over the enabled choices.
fn dfs<M, S, B, I>(
    cfg: &ExploreConfig,
    build: &B,
    invariant: &I,
    path: &mut Vec<Choice>,
    stats: &mut ExploreStats,
) -> Result<(), Box<Violation>>
where
    M: Clone + Debug + 'static,
    S: Default,
    B: Fn(&mut ExploreNet<M>),
    I: Fn(&ExploreNet<M>, &mut S) -> Result<(), String>,
{
    let violate = |at: usize, message: String| {
        Box::new(Violation {
            path: path[..at].to_vec(),
            message,
        })
    };

    let mut net = ExploreNet::new();
    build(&mut net);
    let mut acc = S::default();
    invariant(&net, &mut acc).map_err(|m| violate(0, m))?;
    for (i, c) in path.iter().enumerate() {
        net.apply(c);
        invariant(&net, &mut acc).map_err(|m| violate(i + 1, m))?;
    }
    stats.states += 1;

    if path.len() >= cfg.max_depth || stats.paths >= cfg.max_paths {
        stats.truncated |= stats.paths >= cfg.max_paths;
        stats.paths += 1;
        return Ok(());
    }

    let crashes = count_kind(path, true);
    let fires = count_kind(path, false);
    let choices: Vec<Choice> = net
        .choices(cfg)
        .into_iter()
        .filter(|c| match c {
            Choice::Crash(_) => crashes < cfg.max_crashes,
            Choice::Fire(..) => fires < cfg.max_timer_fires,
            _ => true,
        })
        .collect();
    drop(net);

    if choices.is_empty() {
        stats.paths += 1; // quiescent leaf
        return Ok(());
    }
    stats.max_branch = stats.max_branch.max(choices.len());
    for c in choices {
        path.push(c);
        dfs(cfg, build, invariant, path, stats)?;
        path.pop();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcpaxos_actor::{Context, WalStore};

    const P0: ProcessId = ProcessId(0);
    const P1: ProcessId = ProcessId(1);

    /// Counts received messages; forwards the first one to the peer.
    struct Relay {
        peer: ProcessId,
        got: Vec<u32>,
    }

    impl Actor for Relay {
        type Msg = u32;
        fn on_message(&mut self, _from: ProcessId, msg: u32, ctx: &mut dyn Context<u32>) {
            if self.got.is_empty() {
                ctx.send(self.peer, msg + 1);
            }
            self.got.push(msg);
            ctx.storage().write("last", msg.to_le_bytes().to_vec());
        }
        fn on_timer(&mut self, _t: TimerToken, _c: &mut dyn Context<u32>) {}
    }

    fn build_pair(net: &mut ExploreNet<u32>) {
        net.add_process(P0, || {
            Box::new(Relay {
                peer: P1,
                got: vec![],
            })
        });
        net.add_process(P1, || {
            Box::new(Relay {
                peer: P0,
                got: vec![],
            })
        });
        net.inject(P0, P1, 10);
        net.inject(P0, P1, 20);
    }

    #[test]
    fn explores_all_interleavings_of_two_messages() {
        let cfg = ExploreConfig {
            max_depth: 4,
            ..ExploreConfig::default()
        };
        let stats = explore(&cfg, build_pair, |_net: &ExploreNet<u32>, _s: &mut ()| {
            Ok(())
        })
        .expect("no violations");
        // Two initial deliveries in either order, each spawning a relay
        // message: more than one path, bounded branching.
        assert!(stats.paths > 1, "expected multiple schedules: {stats:?}");
        assert!(stats.max_branch >= 2);
        assert!(!stats.truncated);
    }

    #[test]
    fn violation_reports_reproducing_path() {
        let cfg = ExploreConfig {
            max_depth: 3,
            ..ExploreConfig::default()
        };
        let v = explore(&cfg, build_pair, |net: &ExploreNet<u32>, _s: &mut ()| {
            let got = &net.actor::<Relay>(P0).unwrap().got;
            if got.len() >= 2 {
                Err(format!("P0 saw two messages: {got:?}"))
            } else {
                Ok(())
            }
        })
        .expect_err("invariant must eventually fail");
        assert!(v.message.contains("two messages"));
        assert!(!v.path.is_empty());
        // The path must replay to the same violation.
        let mut net = ExploreNet::new();
        build_pair(&mut net);
        for c in &v.path {
            net.apply(c);
        }
        assert_eq!(net.actor::<Relay>(P0).unwrap().got.len(), 2);
    }

    #[test]
    fn crash_drops_unflushed_writes_and_recover_replays() {
        let cfg = ExploreConfig {
            max_depth: 3,
            max_crashes: 1,
            crash_candidates: vec![P0],
            ..ExploreConfig::default()
        };
        // With a WAL store and no flush, a crash after delivery must lose
        // the buffered write; the accumulator remembers whether P0 ever
        // wrote, so the invariant can distinguish the two orders.
        let stats = explore(
            &cfg,
            |net: &mut ExploreNet<u32>| {
                net.set_storage_factory(|_| Box::new(WalStore::new()));
                net.add_process(P0, || {
                    Box::new(Relay {
                        peer: P1,
                        got: vec![],
                    })
                });
                net.add_process(P1, || {
                    Box::new(Relay {
                        peer: P0,
                        got: vec![],
                    })
                });
                net.inject(P0, P1, 7);
            },
            |net: &ExploreNet<u32>, _s: &mut ()| {
                if !net.is_up(P0) {
                    return Ok(());
                }
                let st = net.storage(P0).unwrap();
                // Flushed state is only ever empty here: nothing flushes.
                if st.write_count() != 0 {
                    return Err("unexpected flush".into());
                }
                Ok(())
            },
        )
        .expect("no violations");
        assert!(stats.paths >= 2, "crash/recover branches expected");
    }

    /// Arms `T_WAIT` at start; firing it yields once before writing.
    struct Yielder {
        yielded: bool,
    }

    const T_WAIT: TimerToken = TimerToken(1);

    impl Actor for Yielder {
        type Msg = u32;
        fn on_start(&mut self, ctx: &mut dyn Context<u32>) {
            ctx.set_timer(SimDuration(5), T_WAIT);
        }
        fn on_message(&mut self, _from: ProcessId, _msg: u32, _ctx: &mut dyn Context<u32>) {}
        fn on_timer(&mut self, _t: TimerToken, ctx: &mut dyn Context<u32>) {
            if !std::mem::replace(&mut self.yielded, true) {
                ctx.set_timer(SimDuration::ZERO, T_WAIT);
                return;
            }
            ctx.storage().write("done", vec![1]);
        }
    }

    #[test]
    fn a_zero_tick_timer_fires_within_the_step_that_set_it() {
        let cfg = ExploreConfig::default();
        let mut net: ExploreNet<u32> = ExploreNet::new();
        net.add_process(P0, || Box::new(Yielder { yielded: false }));
        assert_eq!(net.choices(&cfg), [Choice::Fire(P0, T_WAIT)]);
        net.apply(&Choice::Fire(P0, T_WAIT));
        assert!(net.storage(P0).unwrap().read("done").is_some());
        assert!(net.choices(&cfg).is_empty(), "the yield is no choice");
    }

    #[test]
    fn max_paths_truncates() {
        let cfg = ExploreConfig {
            max_depth: 4,
            max_paths: 2,
            ..ExploreConfig::default()
        };
        let stats = explore(&cfg, build_pair, |_net: &ExploreNet<u32>, _s: &mut ()| {
            Ok(())
        })
        .expect("no violations");
        assert!(stats.truncated);
    }
}
