//! The four protocol agents: proposer, coordinator, acceptor, learner.
//!
//! Each agent implements [`mcpaxos_actor::Actor`] over [`crate::Msg`] and
//! is driven by whichever runtime hosts it. Agents share a deployment
//! [`crate::DeployConfig`] via `Arc` and communicate only through
//! messages; all protocol state is private to the agent that owns it.

mod acceptor;
mod coordinator;
mod learner;
mod proposer;

pub use acceptor::Acceptor;
pub use coordinator::Coordinator;
pub use learner::Learner;
pub use proposer::Proposer;

use crate::config::BatchConfig;
use mcpaxos_actor::{Context, TimerToken};

/// The fresh agent for the role `p` holds in `cfg`, boxed for whichever
/// host the call site names: `agent!(C, cfg, p)` over c-struct `C`, with
/// `cfg` an `Arc<DeployConfig>` (or a reference to one).
///
/// Standing a cluster up is one loop over `cfg.roles.all()`, which for
/// every `RoleMap::disjoint*` deployment lists proposers, coordinators,
/// acceptors and learners in that order. A process holding several roles
/// gets the first of them in that order — every host runs one actor per
/// process. An optional fourth argument is applied to the agent before
/// boxing (`|a| Sharded::new(s, a)`).
///
/// A macro rather than a function because `Sim`, `ExploreNet` and
/// `TcpNode` box different trait objects: each arm is a `Box::new(..)`
/// the call site's expected type coerces.
///
/// # Panics
///
/// Panics if `p` holds no role in `cfg`.
#[macro_export]
macro_rules! agent {
    ($C:ty, $cfg:expr, $p:expr) => {
        $crate::agent!($C, $cfg, $p, ::std::convert::identity)
    };
    ($C:ty, $cfg:expr, $p:expr, $wrap:expr) => {{
        let cfg: &::std::sync::Arc<$crate::DeployConfig> = &$cfg;
        let p = $p;
        if cfg.roles.is_proposer(p) {
            Box::new(($wrap)($crate::Proposer::<$C>::new(cfg.clone())))
        } else if cfg.roles.is_coordinator(p) {
            Box::new(($wrap)($crate::Coordinator::<$C>::new(cfg.clone(), p)))
        } else if cfg.roles.is_acceptor(p) {
            Box::new(($wrap)($crate::Acceptor::<$C>::new(cfg.clone())))
        } else if cfg.roles.is_learner(p) {
            Box::new(($wrap)($crate::Learner::<$C>::new(cfg.clone())))
        } else {
            panic!("{p} holds no role in this deployment")
        }
    }};
}

/// Coordinator heartbeat / leadership tick.
pub const TOK_TICK: TimerToken = TimerToken(1);
/// Proposer retransmission tick.
pub const TOK_RESEND: TimerToken = TimerToken(2);
/// Acceptor "2b" rebroadcast tick.
pub const TOK_A_RESEND: TimerToken = TimerToken(3);
/// Designated-learner stable-segment re-gossip tick (compaction
/// liveness under message loss).
pub const TOK_STABLE_GOSSIP: TimerToken = TimerToken(4);
/// Acceptor group-commit flush tick: buffered vote writes are synced and
/// the deferred "2b" broadcast goes out (§4.4 disk-write amortization).
pub const TOK_FLUSH: TimerToken = TimerToken(5);
/// Batch linger tick: a partial batch (proposer outbox or coordinator
/// batch queue) has waited `batch_ticks` and is flushed as-is.
pub const TOK_BATCH: TimerToken = TimerToken(6);

/// When a batch leaves: the linger rule the proposer's outbox and the
/// coordinator's wave queue share. A full batch goes at once. A partial
/// batch waits up to `batch_ticks` for more commands, with the
/// [`TOK_BATCH`] timer armed once per wait (so admissions do not push it
/// back); with `batch_ticks == 0` every partial batch goes at once.
#[derive(Debug, Default)]
pub(crate) struct Linger {
    /// Whether the [`TOK_BATCH`] timer is armed.
    armed: bool,
}

impl Linger {
    /// Whether the next batch leaves now; `full` says it cannot grow. One
    /// flush of a queue calls this per batch, with `expired` set when the
    /// timer fired: that allowance lets one partial batch go, and the
    /// first batch to leave spends it. A partial batch that must wait arms
    /// the timer.
    pub(crate) fn ready<M>(
        &mut self,
        full: bool,
        expired: &mut bool,
        b: &BatchConfig,
        ctx: &mut dyn Context<M>,
    ) -> bool {
        if full || *expired || b.batch_ticks.ticks() == 0 {
            *expired = false;
            return true;
        }
        if !self.armed {
            self.armed = true;
            ctx.set_timer(b.batch_ticks, TOK_BATCH);
        }
        false
    }

    /// The [`TOK_BATCH`] timer fired.
    pub(crate) fn fired(&mut self) {
        self.armed = false;
    }

    /// Abandons the wait in progress, cancelling its timer.
    pub(crate) fn cancel<M>(&mut self, ctx: &mut dyn Context<M>) {
        if std::mem::take(&mut self.armed) {
            ctx.cancel_timer(TOK_BATCH);
        }
    }
}

/// Metric names emitted by the agents (collected by the host runtime).
pub mod metrics {
    /// Commands submitted to a proposer.
    pub const PROPOSED: &str = "proposed";
    /// Proposer retransmission rounds.
    pub const RESENDS: &str = "resends";
    /// Rounds started with a phase "1a" broadcast.
    pub const ROUNDS_STARTED: &str = "rounds_started";
    /// `Phase2Start` executions (value picked from a 1b quorum).
    pub const PHASE2_STARTS: &str = "phase2_starts";
    /// Genuine accepts (the acceptor's value changed).
    pub const ACCEPTS: &str = "accepts";
    /// Multicoordinated collisions detected by acceptors (§4.2).
    pub const COLLISION_MC: &str = "collision_mc";
    /// Fast-round collisions detected (by coordinators or acceptors).
    pub const COLLISION_FAST: &str = "collision_fast";
    /// `RoundTooLow` nacks sent by acceptors.
    pub const NACKS: &str = "nacks";
    /// Commands newly learned (per learner).
    pub const LEARNED: &str = "learned";
    /// Uncoordinated recoveries executed by acceptors.
    pub const UNCOORDINATED_RECOVERIES: &str = "uncoordinated_recoveries";
    /// Persisted votes later overwritten by a non-extending value: the
    /// "wasted disk writes" of fast-round collisions (§4.2).
    pub const OVERWRITTEN_VOTES: &str = "overwritten_votes";
    /// `2a`/`2b` payloads shipped as suffix deltas instead of full values.
    pub const DELTA_SENDS: &str = "delta_sends";
    /// Full values re-shipped after a receiver reported a delta gap
    /// (`NeedFull`), or because no per-peer base was established yet.
    pub const FULL_RESYNCS: &str = "full_resyncs";
    /// Received deltas resolved on a copy of their base rather than in
    /// place: the base was still shared (an acceptor's vote, a value in
    /// flight), or behind the watermark.
    pub const BASE_COPIES: &str = "base_copies";
    /// Stable segments truncated out of an agent's live state.
    pub const TRUNCATIONS: &str = "truncations";
    /// Stable-storage records found undecodable at recovery (the agent
    /// fell back to the last good state instead of crashing).
    pub const CORRUPT_RECORDS: &str = "corrupt_records";
    /// Stable-storage records that should exist but were missing at
    /// recovery (e.g. a promise record lost to a torn tail while the vote
    /// survived): recovered conservatively, surfaced for operators.
    pub const LOST_RECORDS: &str = "lost_records";
    /// Failure-detector suspicions raised by coordinators (a peer
    /// coordinator exceeded its suspicion timeout).
    pub const SUSPICIONS: &str = "suspicions";
    /// False suspicions: a suspected coordinator was heard from again
    /// (its per-peer suspicion timeout doubles, up to the backoff cap).
    pub const FALSE_SUSPICIONS: &str = "false_suspicions";
    /// Leader failovers: a coordinator took over leadership after
    /// suspecting the previous leader (starting a fresh higher round
    /// only if the active round lost its coordinator quorum — a
    /// multicoordinated round that still has one rides through).
    pub const FAILOVERS: &str = "failovers";
    /// Per-peer delta bases dropped proactively (peer recovery `Hello` or
    /// a link reset) — each one is a `NeedFull` round-trip saved.
    pub const BASE_RESETS: &str = "base_resets";
    /// `2a` waves issued by coordinators: the `Phase2aClassic` value
    /// extensions, each carrying up to `batch_size` commands over one
    /// 2a/2b/WAL cycle.
    pub const BATCHES: &str = "batches";
    /// Commands carried inside batched `2a` waves (`BATCHED_CMDS /
    /// BATCHES` = achieved batch occupancy).
    pub const BATCHED_CMDS: &str = "batched_cmds";
    /// Commands shed by a full coordinator batch queue
    /// ([`crate::BatchConfig::queue_cap`]); proposers re-offer them on
    /// resend.
    pub const BACKPRESSURE_SHEDS: &str = "backpressure_sheds";
}
