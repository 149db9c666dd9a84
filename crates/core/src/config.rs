//! Deployment configuration shared by every agent of a cluster.

use crate::compact::STABLE_KEEP;
use crate::quorum::{check_intersections, QuorumSpec};
use crate::schedule::{Policy, Schedule};
use mcpaxos_actor::{RoleMap, SimDuration};

/// When acceptors write to stable storage (§4.4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Durability {
    /// Persist the full round state on every `Phase1b` *and* every accept:
    /// the straightforward reading of the algorithm.
    Naive,
    /// The paper's optimized scheme: persist `(vrnd, vval)` on accepts and
    /// only the major round count (`MCount`) when it grows; on recovery,
    /// resume at `major + 1`. One write at startup, one extra per
    /// recovery, none per `Phase1b`.
    Reduced,
}

/// How collisions are recovered (§4.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CollisionPolicy {
    /// The leader observes the collision and starts the successor round
    /// from scratch (phase 1 included): four extra communication steps.
    NewRound,
    /// Coordinated recovery: messages of the collided round are reused as
    /// phase "1b" messages for the successor round, skipping its phase 1:
    /// two extra steps. (For multicoordinated collisions this is the §4.2
    /// scheme where acceptors answer the implicit "1a" of round `i+1`.)
    Coordinated,
    /// Uncoordinated recovery: each acceptor acts as a coordinator quorum
    /// of itself for the (fast) successor round and picks a value locally:
    /// one extra step. Requires acceptors to gossip their "2b" messages.
    Uncoordinated,
}

/// Value-propagation and retention policy: delta shipping and
/// stable-prefix compaction.
///
/// Everything here defaults to *off*, reproducing the paper's
/// whole-c-struct message semantics exactly; deployments that need bounded
/// wire bytes and memory under long command streams switch the pieces on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireConfig {
    /// Ship `2a`/`2b` c-structs as suffix deltas against each peer's last
    /// shipped value, falling back to full values on gaps (`NeedFull`).
    pub delta_ship: bool,
    /// Stable-prefix compaction: once the designated learner has this many
    /// commands above the current watermark and a learner quorum acks
    /// them, broadcast a `Stable` segment and truncate. 0 disables.
    /// Replicas then persist a state-machine checkpoint every
    /// [`WireConfig::checkpoint_every`] commands: a restarted replica
    /// resumes from it, because the history below the watermark no longer
    /// exists anywhere to replay.
    pub compact_every: u64,
}

impl WireConfig {
    /// The bounded-resources preset: delta shipping plus compaction every
    /// `segment` commands (and replica checkpoints every few segments, see
    /// [`WireConfig::checkpoint_every`]).
    pub fn bounded(segment: u64) -> Self {
        WireConfig {
            delta_ship: true,
            compact_every: segment,
        }
    }

    /// Commands between replica checkpoints: half the stable segments
    /// every agent retains, or 0 when compaction is off. Peers keep the
    /// last `STABLE_KEEP` segments for lagging agents, so a restarted
    /// replica's checkpoint is never more than half that window behind
    /// what they can still send it.
    pub fn checkpoint_every(&self) -> u64 {
        self.compact_every * (STABLE_KEEP / 2) as u64
    }
}

/// Protocol timing constants, in ticks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Timing {
    /// Silence after which a coordinator is suspected (leader election).
    pub leader_timeout: SimDuration,
    /// Progress silence after which the leader starts a higher round.
    pub stall_timeout: SimDuration,
    /// Proposer retransmission interval (0 disables).
    pub proposer_resend: SimDuration,
    /// Acceptor "2b" rebroadcast interval (0 disables); lets partitioned
    /// or freshly recovered learners catch up (§A: agents keep re-sending
    /// their last message).
    pub acceptor_resend: SimDuration,
    /// Failure detector: heartbeat silence after which a coordinator
    /// actively *suspects* a peer coordinator, demotes it from its leader
    /// view and — if that makes this coordinator the leader — immediately
    /// starts a higher round instead of waiting for `stall_timeout`.
    /// 0 (the default) disables the detector: liveness then rests on
    /// `leader_timeout`/`stall_timeout` exactly as before. Each suspicion
    /// that proves wrong doubles that peer's timeout, a bounded number of
    /// times.
    pub fd_suspect_after: SimDuration,
    /// Proposer retransmission backoff cap: when nonzero, consecutive
    /// resends of the same pending set back off exponentially from
    /// `proposer_resend` up to this cap (reset when the pending set
    /// drains). 0 (the default) keeps the fixed `proposer_resend` period.
    pub proposer_backoff_max: SimDuration,
    /// Random jitter added to each proposer resend delay (uniform in
    /// `[0, jitter)`), decorrelating retransmission bursts from many
    /// proposers after a failover. 0 (the default) disables jitter.
    pub proposer_jitter: SimDuration,
}

impl Default for Timing {
    fn default() -> Self {
        Timing {
            leader_timeout: SimDuration(160),
            stall_timeout: SimDuration(120),
            proposer_resend: SimDuration(200),
            acceptor_resend: SimDuration(170),
            fd_suspect_after: SimDuration(0),
            proposer_backoff_max: SimDuration(0),
            proposer_jitter: SimDuration(0),
        }
    }
}

impl Timing {
    /// Returns `self` with the failure detector enabled at the given
    /// suspicion timeout (size it above the worst heartbeat RTT plus one
    /// 50-tick heartbeat interval, or every slow link becomes a false
    /// suspicion).
    pub fn with_failure_detector(mut self, suspect_after: SimDuration) -> Self {
        self.fd_suspect_after = suspect_after;
        self
    }

    /// Returns `self` with proposer resends backing off exponentially up
    /// to `cap`, each delay jittered by a uniform draw from `[0, jitter)`.
    pub fn with_proposer_backoff(mut self, cap: SimDuration, jitter: SimDuration) -> Self {
        self.proposer_backoff_max = cap;
        self.proposer_jitter = jitter;
        self
    }
}

/// Proposal batching and phase-2 pipelining: how proposals become `2a`
/// waves.
///
/// Proposers send commands in batches of up to `batch_size`, and
/// coordinators fold up to `batch_size` queued proposals into one `2a`
/// wave, keeping up to `pipeline_depth` waves in flight instead of waiting
/// for each wave's quorum before issuing the next. A partial batch waits
/// up to `batch_ticks` for more commands. The default — one command per
/// wave, no linger, an unbounded pipeline and an uncapped queue — is the
/// paper's `Phase2aClassic` (§3.2): each proposal extends `cval` and goes
/// out at once in its own "2a". Larger batches amortize one
/// 2a/2b/WAL-group-commit cycle over the whole batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchConfig {
    /// Maximum commands amortized into one `2a` (≥ 1; 1 is one "2a" per
    /// proposal).
    pub batch_size: usize,
    /// How long a partial batch lingers waiting for more commands before
    /// being flushed anyway (0 = flush immediately, never linger).
    pub batch_ticks: SimDuration,
    /// Maximum unacknowledged `2a` waves in flight per coordinator (≥ 1;
    /// `usize::MAX`, the default, never holds a wave back).
    pub pipeline_depth: usize,
    /// Bound on the coordinator's queue of not-yet-sent commands
    /// (0 = unbounded). A command past it is dropped and counted
    /// (`backpressure_sheds`); the proposer's retransmission timer
    /// re-offers it once the queue drains. Bounds coordinator memory at
    /// the cost of extra resend traffic under overload.
    pub queue_cap: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            batch_size: 1,
            batch_ticks: SimDuration(0),
            pipeline_depth: usize::MAX,
            queue_cap: 0,
        }
    }
}

impl BatchConfig {
    /// The throughput preset: waves of up to `batch` commands, `depth`
    /// in flight, a 2-tick linger for partial batches, and a shed-on-
    /// overflow queue sized to hold one full pipeline of batches.
    pub fn pipelined(batch: usize, depth: usize) -> Self {
        BatchConfig {
            batch_size: batch,
            batch_ticks: SimDuration(2),
            pipeline_depth: depth,
            queue_cap: batch.saturating_mul(depth).saturating_mul(4),
        }
    }
}

/// Full configuration of a Multicoordinated Paxos deployment.
///
/// Shared (via `Arc`) by all agents; contains only immutable data.
#[derive(Clone, Debug)]
pub struct DeployConfig {
    /// Which processes play which roles.
    pub roles: RoleMap,
    /// Acceptor quorum sizes (Assumptions 1–2).
    pub quorums: QuorumSpec,
    /// Round typing and coordinator quorums (Assumption 3, §4.5).
    pub schedule: Schedule,
    /// Acceptor disk-write scheme (§4.4).
    pub durability: Durability,
    /// Collision recovery scheme (§4.2).
    pub collision: CollisionPolicy,
    /// §4.1 load balancing: proposers pick one coordinator quorum and one
    /// acceptor quorum per command instead of broadcasting.
    pub load_balance: bool,
    /// Timers.
    pub timing: Timing,
    /// Delta shipping, compaction and checkpoint policy.
    pub wire: WireConfig,
    /// Acceptor group-commit interval: the "2b" announcing a vote waits
    /// for the flush that makes it durable. A window defers that flush to
    /// the next flush tick, amortizing many accepts into one disk write;
    /// the `SimDuration(0)` default flushes at each vote, which is §4.4's
    /// per-accept write.
    pub group_commit: SimDuration,
    /// Proposal batching and phase-2 pipelining (one command per wave by
    /// default).
    pub batch: BatchConfig,
}

impl DeployConfig {
    /// A ready-to-run configuration: `n_coord` coordinators and `n_acc`
    /// acceptors with majority quorums, one proposer, one learner,
    /// reduced durability and coordinated collision recovery.
    ///
    /// # Panics
    ///
    /// Panics if `n_acc` does not admit majority quorums (`n_acc == 0`).
    pub fn simple(
        n_prop: usize,
        n_coord: usize,
        n_acc: usize,
        n_learn: usize,
        policy: Policy,
    ) -> Self {
        Self::simple_from(0, n_prop, n_coord, n_acc, n_learn, policy)
    }

    /// Like [`DeployConfig::simple`], but with process ids starting at
    /// `start`. Sharded deployments instantiate one such configuration per
    /// shard, each over its own disjoint id range.
    ///
    /// # Panics
    ///
    /// Panics if `n_acc` does not admit majority quorums (`n_acc == 0`).
    pub fn simple_from(
        start: u32,
        n_prop: usize,
        n_coord: usize,
        n_acc: usize,
        n_learn: usize,
        policy: Policy,
    ) -> Self {
        let roles = RoleMap::disjoint_from(start, n_prop, n_coord, n_acc, n_learn);
        let quorums = QuorumSpec::majority(n_acc).expect("majority quorums");
        let schedule = Schedule::new(roles.coordinators().to_vec(), policy);
        DeployConfig {
            roles,
            quorums,
            schedule,
            durability: Durability::Reduced,
            collision: CollisionPolicy::Coordinated,
            load_balance: false,
            timing: Timing::default(),
            wire: WireConfig::default(),
            group_commit: SimDuration(0),
            batch: BatchConfig::default(),
        }
    }

    /// Returns `self` with the given group-commit flush interval
    /// (`SimDuration(0)` = flush at every vote, before its "2b").
    pub fn with_group_commit(mut self, every: SimDuration) -> Self {
        self.group_commit = every;
        self
    }

    /// Returns `self` with the given collision policy.
    pub fn with_collision(mut self, collision: CollisionPolicy) -> Self {
        self.collision = collision;
        self
    }

    /// Returns `self` with the given durability scheme.
    pub fn with_durability(mut self, durability: Durability) -> Self {
        self.durability = durability;
        self
    }

    /// Returns `self` with §4.1 load balancing switched on or off.
    pub fn with_load_balance(mut self, on: bool) -> Self {
        self.load_balance = on;
        self
    }

    /// Returns `self` with the given quorum spec.
    pub fn with_quorums(mut self, quorums: QuorumSpec) -> Self {
        self.quorums = quorums;
        self
    }

    /// Returns `self` with the given timing constants.
    pub fn with_timing(mut self, timing: Timing) -> Self {
        self.timing = timing;
        self
    }

    /// Returns `self` with the given wire (delta/compaction) policy.
    pub fn with_wire(mut self, wire: WireConfig) -> Self {
        self.wire = wire;
        self
    }

    /// Returns `self` with the given batching/pipelining knobs.
    pub fn with_batching(mut self, batch: BatchConfig) -> Self {
        self.batch = batch;
        self
    }

    /// Learner-quorum size for stable-watermark agreement: a majority of
    /// the deployed learners (1 for a single learner).
    pub fn learner_quorum(&self) -> usize {
        self.roles.learners().len() / 2 + 1
    }

    /// Checks internal consistency: quorum requirements, role coverage,
    /// and that the collision policy fits the schedule.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.roles.n_acceptors() != self.quorums.n() {
            return Err(format!(
                "quorum spec is for {} acceptors but {} are deployed",
                self.quorums.n(),
                self.roles.n_acceptors()
            ));
        }
        check_intersections(&self.quorums)?;
        if self.roles.coordinators().is_empty() {
            return Err("no coordinators".into());
        }
        if self.roles.learners().is_empty() {
            return Err("no learners".into());
        }
        if self.schedule.all_coordinators() != self.roles.coordinators() {
            return Err("schedule coordinators differ from role map".into());
        }
        let b = &self.batch;
        if b.batch_size == 0 || b.pipeline_depth == 0 {
            return Err("batching requires batch_size >= 1 and pipeline_depth >= 1".into());
        }
        if b.queue_cap > 0 && b.queue_cap < b.batch_size {
            return Err("batch queue_cap smaller than one batch can never fill a batch".into());
        }
        if self.collision == CollisionPolicy::Uncoordinated
            && self.schedule.policy() != Policy::FastForever
        {
            return Err(
                "uncoordinated recovery requires fast successor rounds (Policy::FastForever)"
                    .into(),
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_config_validates() {
        for policy in [
            Policy::SingleCoordinated,
            Policy::MultiCoordinated,
            Policy::FastThenClassic,
        ] {
            let cfg = DeployConfig::simple(1, 3, 5, 2, policy);
            cfg.validate().unwrap_or_else(|e| panic!("{policy:?}: {e}"));
        }
        let cfg = DeployConfig::simple(1, 3, 5, 2, Policy::FastForever)
            .with_collision(CollisionPolicy::Uncoordinated);
        cfg.validate().unwrap();
    }

    #[test]
    fn uncoordinated_requires_fast_forever() {
        let cfg = DeployConfig::simple(1, 3, 5, 2, Policy::MultiCoordinated)
            .with_collision(CollisionPolicy::Uncoordinated);
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn mismatched_quorums_rejected() {
        let cfg = DeployConfig::simple(1, 3, 5, 2, Policy::MultiCoordinated)
            .with_quorums(QuorumSpec::majority(7).unwrap());
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn builders_apply() {
        let cfg = DeployConfig::simple(1, 1, 3, 1, Policy::SingleCoordinated)
            .with_durability(Durability::Naive)
            .with_load_balance(true)
            .with_timing(Timing {
                leader_timeout: SimDuration(20),
                stall_timeout: SimDuration(30),
                proposer_resend: SimDuration(40),
                acceptor_resend: SimDuration(0),
                ..Timing::default()
            });
        assert_eq!(cfg.durability, Durability::Naive);
        assert!(cfg.load_balance);
        assert_eq!(cfg.timing.leader_timeout, SimDuration(20));
    }

    #[test]
    fn batching_defaults_to_one_command_per_wave_and_builder_applies() {
        let cfg = DeployConfig::simple(1, 3, 5, 2, Policy::MultiCoordinated);
        let paper = BatchConfig {
            batch_size: 1,
            batch_ticks: SimDuration(0),
            pipeline_depth: usize::MAX,
            queue_cap: 0,
        };
        assert_eq!(BatchConfig::default(), paper);
        assert_eq!(cfg.batch, paper);
        cfg.validate().unwrap();

        let cfg = cfg.with_batching(BatchConfig::pipelined(16, 8));
        assert_eq!(cfg.batch.batch_size, 16);
        assert_eq!(cfg.batch.pipeline_depth, 8);
        cfg.validate().unwrap();

        let with =
            |batch| DeployConfig::simple(1, 3, 5, 2, Policy::MultiCoordinated).with_batching(batch);
        let bad = with(BatchConfig {
            batch_size: 0,
            ..BatchConfig::default()
        });
        assert!(bad.validate().is_err(), "batch size 0");
        let bad = with(BatchConfig {
            batch_size: 4,
            pipeline_depth: 0,
            ..BatchConfig::default()
        });
        assert!(bad.validate().is_err(), "depth 0");
        let bad = with(BatchConfig {
            batch_size: 8,
            queue_cap: 4,
            ..BatchConfig::default()
        });
        assert!(bad.validate().is_err(), "cap below one batch");
    }

    #[test]
    fn timing_builders_apply_and_default_off() {
        let t = Timing::default();
        assert_eq!(t.fd_suspect_after, SimDuration(0), "FD defaults off");
        assert_eq!(t.proposer_backoff_max, SimDuration(0));
        assert_eq!(t.proposer_jitter, SimDuration(0));
        let t = t
            .with_failure_detector(SimDuration(90))
            .with_proposer_backoff(SimDuration(800), SimDuration(30));
        assert_eq!(t.fd_suspect_after, SimDuration(90));
        assert_eq!(t.proposer_backoff_max, SimDuration(800));
        assert_eq!(t.proposer_jitter, SimDuration(30));
    }
}
