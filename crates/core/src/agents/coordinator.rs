//! The coordinator agent.
//!
//! Coordinators implement `Phase1a`, `Phase2Start` and `Phase2aClassic` of
//! §3.2, plus the liveness machinery of §4.3: heartbeat-based leader
//! election, stall detection, reaction to `RoundTooLow` nacks, and the
//! collision-recovery variants of §4.2 (observing "2b" traffic to detect
//! fast-round collisions, reusing it as "1b" evidence for the successor
//! round under coordinated recovery).
//!
//! Durability (§4.4): a coordinator performs **no disk writes per
//! command**. It persists only the id of each round it engages in (one
//! small write per round change, flushed before the "1a" or "2a" that
//! relies on it leaves); after a crash it refuses to act in rounds at or
//! below the persisted floor, which realises the paper's "recovered
//! coordinator is a new coordinator" (incarnation) argument while keeping
//! `Phase2Start` once-per-round.

use crate::agents::{metrics, Linger, TOK_BATCH, TOK_TICK};
use crate::compact::Compactor;
use crate::config::{CollisionPolicy, DeployConfig};
use crate::msg::Msg;
use crate::provedsafe::{pick, proved_safe, OneB};
use crate::round::Round;
use crate::schedule::RoundKind;
use crate::ship::{announce_restart, prune_rounds, Inbox, Receiver, Shipper, ROUND_WINDOW};
use mcpaxos_actor::wire::{from_bytes, to_bytes};
use mcpaxos_actor::{Actor, Context, Metric, ProcessId, SimDuration, SimTime, TimerToken};
use mcpaxos_cstruct::{compatible_all, glb_all_ref, CStruct};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

/// Storage key for the round floor (see module docs).
const KEY_FLOOR: &str = "crnd";
/// Interval between heartbeats (and leadership ticks).
const HEARTBEAT_EVERY: SimDuration = SimDuration(50);
/// After a collision, leaders keep starting *single-coordinated* rounds
/// for this long before returning to the policy's fresh round type (§4.2:
/// "after some time of normal execution ... start a multicoordinated
/// round again").
const COLLISION_BACKOFF: SimDuration = SimDuration(600);
/// Failure-detector backoff cap: each suspicion that proves wrong (the
/// suspect is heard from again) doubles that peer's suspicion timeout, up
/// to `fd_suspect_after << FD_BACKOFF_MAX`, so slow WAN links stop
/// flapping.
const FD_BACKOFF_MAX: u32 = 3;

/// The coordinator role.
pub struct Coordinator<C: CStruct> {
    cfg: Arc<DeployConfig>,
    me: ProcessId,
    me_idx: u16,
    crnd: Round,
    /// The round's value, shared: full-payload 2a sends bump this Arc
    /// instead of deep-cloning the history (mutation uses copy-on-write).
    cval: Option<Arc<C>>,
    /// Persisted barrier: never act in rounds ≤ floor after recovery.
    floor: Round,
    round_1b: BTreeMap<Round, BTreeMap<ProcessId, OneB<C>>>,
    /// Observed "2b" values per acceptor, per round.
    round_2b: Inbox<C>,
    collided: BTreeSet<Round>,
    /// Recovery rounds whose "1a" we already echoed to acceptors.
    echoed_1a: BTreeSet<Round>,
    /// Last time collision evidence was seen (drives the §4.2 backoff to
    /// single-coordinated rounds).
    last_collision: Option<SimTime>,
    /// Proposals awaiting a round to carry them.
    backlog: Vec<C::Cmd>,
    /// Proposals not yet known to be served. Once a quorum of acceptors
    /// has reported "2b"s in a round, a command stays here until the glb
    /// of every reporter's value in that round absorbs it (see
    /// `observe_2b`, which folds that glb only when it could retire one).
    /// Stable-prefix compaction also drops the commands it truncates.
    outstanding: Vec<C::Cmd>,
    /// Last heartbeat received, per coordinator.
    alive: BTreeMap<ProcessId, SimTime>,
    /// Failure detector (active when `Timing::fd_suspect_after` > 0):
    /// peer coordinators currently suspected of having crashed. The
    /// leader view skips suspected peers, so a dead leader is demoted as
    /// soon as its suspicion timeout lapses instead of `leader_timeout`.
    suspected: BTreeSet<ProcessId>,
    /// Per-peer suspicion backoff level: each *false* suspicion (the
    /// suspect is heard from again) doubles that peer's suspicion
    /// timeout, capped at [`FD_BACKOFF_MAX`] doublings.
    suspect_level: BTreeMap<ProcessId, u32>,
    max_heard: Round,
    last_progress: SimTime,
    /// Stable-prefix compaction state.
    comp: Compactor<C>,
    /// Ships `cval` as "2a"s, full or delta per acceptor.
    out: Shipper<C>,
    /// Commands admitted to the current classic round but not yet shipped
    /// in a `2a` wave, each with its proposal's §4.1 acceptor pin.
    batch_queue: Vec<(C::Cmd, Option<Vec<ProcessId>>)>,
    /// In-flight `2a` waves, each recorded as the `total_len` of `cval`
    /// when the wave went out. A wave retires once an acceptor quorum's
    /// `2b` values all reach its target length; retirement frees a
    /// pipeline slot and pumps the next wave.
    waves: VecDeque<u64>,
    /// When a partial wave leaves the queue.
    linger: Linger,
}

impl<C: CStruct> Coordinator<C> {
    /// Creates the coordinator with identity `me`.
    ///
    /// # Panics
    ///
    /// Panics if `me` is not a coordinator in the deployment's role map.
    pub fn new(cfg: Arc<DeployConfig>, me: ProcessId) -> Self {
        let me_idx = cfg
            .roles
            .coordinators()
            .iter()
            .position(|&c| c == me)
            .expect("process is not a coordinator in this deployment") as u16;
        let comp = Compactor::default();
        let out = Shipper::new(&cfg.wire, |round, val| Msg::P2a { round, val });
        Coordinator {
            cfg,
            me,
            me_idx,
            crnd: Round::ZERO,
            cval: None,
            floor: Round::ZERO,
            round_1b: BTreeMap::new(),
            round_2b: Inbox::default(),
            collided: BTreeSet::new(),
            echoed_1a: BTreeSet::new(),
            last_collision: None,
            backlog: Vec::new(),
            outstanding: Vec::new(),
            alive: BTreeMap::new(),
            suspected: BTreeSet::new(),
            suspect_level: BTreeMap::new(),
            max_heard: Round::ZERO,
            last_progress: SimTime::ZERO,
            comp,
            out,
            batch_queue: Vec::new(),
            waves: VecDeque::new(),
            linger: Linger::default(),
        }
    }

    /// `Phase2aClassic` (§3.2), a wave at a time: cuts the queue into `2a`
    /// waves while the pipeline has room. A wave is a run of up to
    /// `batch_size` commands with the same acceptor pin; it extends `cval`
    /// and ships to that pin (every acceptor when unpinned). A run that a
    /// differently pinned command follows cannot grow, so it counts as
    /// full; when a partial one leaves is [`Linger::ready`]'s rule.
    fn pump_batches(&mut self, mut expired: bool, ctx: &mut dyn Context<Msg<C>>) {
        if self.batch_queue.is_empty() {
            return;
        }
        let mut val = match self.cval.take() {
            Some(v) => v,
            None => return,
        };
        if self.cfg.schedule.kind(self.crnd) != RoundKind::Classic {
            self.cval = Some(val);
            return;
        }
        let b = self.cfg.batch;
        // `max(1)`: an unvalidated zero batch size still drains.
        let size = b.batch_size.max(1);
        while self.waves.len() < b.pipeline_depth {
            let Some((_, pin)) = self.batch_queue.first() else {
                break;
            };
            let run = self.batch_queue.iter().take(size);
            let run = run.take_while(|(_, p)| p == pin).count();
            let full = run == size || run < self.batch_queue.len();
            if !self.linger.ready(full, &mut expired, &b, ctx) {
                break;
            }
            let pin = self.batch_queue[0].1.take();
            let target = {
                let v = Arc::make_mut(&mut val);
                v.append_all(self.batch_queue.drain(..run).map(|(cmd, _)| cmd));
                v.total_len()
            };
            ctx.metric(Metric::incr(metrics::BATCHES));
            ctx.metric(Metric::add(metrics::BATCHED_CMDS, run as i64));
            let targets = pin.as_deref().unwrap_or(self.cfg.roles.acceptors());
            self.out.ship(targets, self.crnd, &val, ctx);
            self.waves.push_back(target);
        }
        self.cval = Some(val);
    }

    /// Clears the wave scheduler on a round change: queued commands
    /// survive in `outstanding` (the next `Phase2Start` re-seeds them),
    /// in-flight waves belong to the abandoned round.
    fn reset_batches(&mut self, ctx: &mut dyn Context<Msg<C>>) {
        self.batch_queue.clear();
        self.waves.clear();
        self.linger.cancel(ctx);
    }

    /// The coordinator's current round.
    pub fn crnd(&self) -> Round {
        self.crnd
    }

    /// The latest c-struct sent in a phase "2a" for the current round.
    pub fn cval(&self) -> Option<&C> {
        self.cval.as_deref()
    }

    /// The proposals this coordinator still tracks as not served: the
    /// stall detector arms on them and the next `Phase2Start` re-seeds
    /// them.
    pub fn outstanding(&self) -> &[C::Cmd] {
        &self.outstanding
    }

    /// Whether this coordinator currently believes itself leader.
    pub fn believes_leader(&self, now: SimTime) -> bool {
        self.leader(now) == self.me
    }

    fn leader(&self, now: SimTime) -> ProcessId {
        let timeout = self.cfg.timing.leader_timeout;
        // Never self-suspecting means the scan always terminates at
        // `self.me` in the worst case: some coordinator is always leader
        // in every view, so suspicion can demote but never livelock.
        *self
            .cfg
            .roles
            .coordinators()
            .iter()
            .find(|&&c| {
                if self.fd_enabled() && self.suspected.contains(&c) {
                    return false;
                }
                c == self.me
                    || self
                        .alive
                        .get(&c)
                        .map(|&t| now.since(t) <= timeout)
                        .unwrap_or(false)
            })
            .unwrap_or(&self.me)
    }

    /// Coordinators this coordinator currently suspects (test accessor).
    pub fn suspects(&self) -> Vec<ProcessId> {
        self.suspected.iter().copied().collect()
    }

    /// The coordinator this one currently believes is leader.
    pub fn leader_view(&self, now: SimTime) -> ProcessId {
        self.leader(now)
    }

    fn fd_enabled(&self) -> bool {
        self.cfg.timing.fd_suspect_after.ticks() > 0
    }

    /// Current suspicion timeout for `peer`: the base timeout doubled
    /// once per past false suspicion, capped at [`FD_BACKOFF_MAX`].
    fn fd_timeout(&self, peer: ProcessId) -> SimDuration {
        let level = self.suspect_level.get(&peer).copied().unwrap_or(0);
        SimDuration(self.cfg.timing.fd_suspect_after.ticks() << level.min(FD_BACKOFF_MAX))
    }

    /// Whether round `r` keeps serving despite the currently suspected
    /// coordinators: its unsuspected coordinator set still forms a
    /// coordinator quorum (§4.1 — the availability edge of
    /// multicoordinated rounds; a single-owner round rides through only
    /// while its owner is unsuspected).
    fn round_rides_through(&self, r: Round) -> bool {
        let members = self.cfg.schedule.coordinators_of(r);
        let live = members
            .iter()
            .filter(|c| !self.suspected.contains(c))
            .count();
        self.cfg.schedule.coord_quorum(r).is_quorum(live)
    }

    /// Failure-detector scan: suspect peers whose heartbeat silence
    /// exceeds their (backed-off) suspicion timeout. If demoting them
    /// makes this coordinator the leader, take over immediately — with a
    /// fresh higher round if the active round lost its coordinator
    /// quorum, and *without* one if it still rides through (§4.1: a
    /// multicoordinated round absorbs the crash, so a phase-1 restart
    /// would only add the stall it exists to avoid). Returns `true` when
    /// a failover round was started (the caller's remaining leader
    /// duties are moot for this tick).
    fn fd_scan(&mut self, now: SimTime, ctx: &mut dyn Context<Msg<C>>) -> bool {
        if !self.fd_enabled() {
            return false;
        }
        let led_before = self.leader(now);
        for c in self.cfg.roles.coordinators().to_vec() {
            if c == self.me || self.suspected.contains(&c) {
                continue;
            }
            let heard = self.alive.get(&c).copied().unwrap_or(SimTime::ZERO);
            if now.since(heard) > self.fd_timeout(c) {
                self.suspected.insert(c);
                ctx.metric(Metric::incr(metrics::SUSPICIONS));
            }
        }
        if led_before != self.me && self.leader(now) == self.me {
            ctx.metric(Metric::incr(metrics::FAILOVERS));
            let active = self.max_heard.max(self.crnd);
            if !active.is_zero() && self.round_rides_through(active) {
                // Ride-through takeover: leadership duties change hands,
                // the round does not.
                return false;
            }
            // The suspected leader's round is dead weight; claim a fresh
            // higher round right away.
            let r = self.fresh_round(active, now);
            self.start_round(r, ctx);
            return true;
        }
        false
    }

    /// A suspected peer spoke: the suspicion was false. Clear it and
    /// double that peer's future suspicion timeout (up to the cap).
    fn fd_hear(&mut self, from: ProcessId, ctx: &mut dyn Context<Msg<C>>) {
        if self.suspected.remove(&from) {
            let lvl = self.suspect_level.entry(from).or_insert(0);
            *lvl = (*lvl + 1).min(FD_BACKOFF_MAX);
            ctx.metric(Metric::incr(metrics::FALSE_SUSPICIONS));
        }
    }

    /// Fresh-round type, honouring the §4.2 collision backoff: while a
    /// recent collision is in memory, new rounds are single-coordinated.
    fn fresh_round(&self, heard: Round, now: SimTime) -> Round {
        let backing_off = self
            .last_collision
            .map(|t| now.since(t) <= COLLISION_BACKOFF)
            .unwrap_or(false);
        let r = self.cfg.schedule.preempt(heard, self.me_idx);
        if backing_off {
            r.with_rtype(crate::schedule::RTYPE_SINGLE)
        } else {
            r
        }
    }

    fn note_heard(&mut self, r: Round) {
        if r > self.max_heard {
            self.max_heard = r;
        }
    }

    /// Applies pending stable segments: `cval` (when held) is truncated,
    /// stored 1b/2b bookkeeping follows the new watermark, and proposals
    /// now below the watermark stop arming the stall detector. Returns
    /// whether the watermark moved.
    fn apply_compaction(&mut self, ctx: &mut dyn Context<Msg<C>>) -> bool {
        if self.cfg.wire.compact_every == 0 {
            return false;
        }
        let mut pruned: Vec<C::Cmd> = Vec::new();
        let mut applied = match self.cval.as_mut() {
            Some(v) => self
                .comp
                .advance(Arc::make_mut(v), |seg| pruned.extend_from_slice(seg)),
            None => self.comp.advance_free(|seg| pruned.extend_from_slice(seg)),
        };
        // A `cval` that cannot take the next stable segment, in a round the
        // deployment has left (a higher one was heard), would hold the
        // watermark. Leave that round as a crash would: `crnd` goes back to
        // ZERO, so the floor (≥ the old `crnd`) blocks a second
        // `Phase2Start` there, and the watermark follows the deployment's.
        if self.cval.is_some() && self.crnd < self.max_heard && !self.comp.gap_at_watermark() {
            self.cval = None;
            self.crnd = Round::ZERO;
            self.reset_batches(ctx);
            applied += self.comp.advance_free(|seg| pruned.extend_from_slice(seg));
        }
        if applied == 0 {
            return false;
        }
        ctx.metric(Metric::add(metrics::TRUNCATIONS, applied as i64));
        self.outstanding.retain(|c| !pruned.contains(c));
        self.backlog.retain(|c| !pruned.contains(c));
        let comp = &self.comp;
        for m in self.round_1b.values_mut() {
            m.retain(|_, r| comp.normalize_arc(&mut r.vval));
        }
        self.round_2b.follow(comp);
        true
    }

    /// `Phase1a`: start round `r` by asking acceptors to join.
    fn start_round(&mut self, r: Round, ctx: &mut dyn Context<Msg<C>>) {
        if r <= self.crnd || r <= self.floor {
            return;
        }
        self.persist_floor(r, ctx);
        self.crnd = r;
        self.cval = None;
        self.reset_batches(ctx);
        self.note_heard(r);
        self.last_progress = ctx.now();
        ctx.metric(Metric::incr(metrics::ROUNDS_STARTED));
        let acceptors = self.cfg.roles.acceptors().to_vec();
        ctx.multicast(&acceptors, Msg::P1a { round: r });
    }

    fn persist_floor(&mut self, r: Round, ctx: &mut dyn Context<Msg<C>>) {
        if r > self.floor {
            self.floor = r;
            ctx.storage().write(KEY_FLOOR, to_bytes(&r));
            ctx.storage().flush();
        }
    }

    /// `Phase2Start`: once a classic quorum of "1b" messages for `round`
    /// arrived and we may still engage in it, pick a safe value and send
    /// the first "2a".
    fn try_phase2start(&mut self, round: Round, ctx: &mut dyn Context<Msg<C>>) {
        // Segments held back while no (or a stale) cval was around apply
        // now, so the picked value and the bookkeeping share a watermark.
        self.apply_compaction(ctx);
        let enabled = (self.crnd == round && self.cval.is_none())
            || (round > self.crnd && round > self.floor);
        if !enabled || !self.cfg.schedule.is_coordinator_of(self.me, round) {
            return;
        }
        let msgs: Vec<OneB<C>> = match self.round_1b.get(&round) {
            Some(m) if m.len() >= self.cfg.quorums.classic_size() => m.values().cloned().collect(),
            _ => return,
        };
        let sched = self.cfg.schedule.clone();
        let mut val = pick(proved_safe(&msgs, &self.cfg.quorums, |r| sched.kind(r)));
        for cmd in self.backlog.drain(..) {
            val.append(cmd);
        }
        // Also re-seed commands still in flight (proposed but not yet
        // observed chosen): a recovery round would otherwise start empty
        // and wait one proposer-retransmission period for its payload.
        for cmd in &self.outstanding {
            val.append(cmd.clone());
        }
        let val = Arc::new(val);
        self.persist_floor(round, ctx);
        self.crnd = round;
        self.note_heard(round);
        self.last_progress = ctx.now();
        ctx.metric(Metric::incr(metrics::PHASE2_STARTS));
        self.out.ship(self.cfg.roles.acceptors(), round, &val, ctx);
        // The Phase2Start "2a" (carrying the re-seeded backlog and
        // outstanding commands) is itself the round's first wave; the old
        // round's scheduler state is void.
        self.reset_batches(ctx);
        if self.cfg.schedule.kind(round) == RoundKind::Classic {
            self.waves.push_back(val.total_len());
        }
        self.cval = Some(val);
    }

    /// Observes the "2b" just stored for `round`, which `grew` over the
    /// sender's previous one: progress tracking plus fast-collision
    /// detection and recovery (§4.2).
    fn observe_2b(&mut self, round: Round, grew: bool, ctx: &mut dyn Context<Msg<C>>) {
        if grew {
            self.last_progress = ctx.now();
        }
        // Outstanding bookkeeping: once a quorum has reported, a command
        // leaves `outstanding` when the glb of every reporter's value
        // absorbs it (contains it, or appending changes nothing: with
        // consensus c-structs a losing proposal can never be added once a
        // value is decided, so it must not keep the stall detector armed).
        // `absorbs` is upward-closed and the glb lies below every report,
        // so the glb can absorb only a command that every report absorbs:
        // without one, the fold could retire nothing and is skipped.
        let kind = self.cfg.schedule.kind(round);
        let quorum = self.cfg.quorums.size_for(kind);
        let reports = &self.round_2b;
        let quorum_reported = reports.values(round).count() >= quorum;
        let retirable = |c: &C::Cmd| reports.values(round).all(|v| v.absorbs(c));
        if quorum_reported && self.outstanding.iter().any(retirable) {
            let g = glb_all_ref(reports.values(round));
            self.outstanding.retain(|c| !g.absorbs(c));
        }
        // Wave retirement: a pipelined `2a` wave is acknowledged once a
        // quorum of acceptors report `2b` values covering its target
        // length, so one straggler cannot hold the pipeline. Each
        // retirement frees a slot and pumps the next wave.
        if round == self.crnd && !self.waves.is_empty() {
            let reports = &self.round_2b;
            let acked =
                |t: u64| reports.values(round).filter(|v| v.total_len() >= t).count() >= quorum;
            let mut retired = false;
            while self.waves.front().is_some_and(|&t| acked(t)) {
                self.waves.pop_front();
                retired = true;
            }
            if retired {
                self.pump_batches(false, ctx);
            }
        }
        // Fast-round collision detection.
        if kind == RoundKind::Fast {
            if !self.collided.contains(&round) && !compatible_all(self.round_2b.values(round)) {
                self.collided.insert(round);
                self.last_collision = Some(ctx.now());
                ctx.metric(Metric::incr(metrics::COLLISION_FAST));
            }
            // Run recovery on every report of a collided round, so "2b"s
            // arriving after detection still feed the successor's phase 1
            // evidence (coordinated recovery needs a full classic quorum).
            if self.collided.contains(&round) {
                self.recover_fast_collision(round, ctx);
            }
        }
    }

    fn recover_fast_collision(&mut self, round: Round, ctx: &mut dyn Context<Msg<C>>) {
        match self.cfg.collision {
            CollisionPolicy::NewRound => {
                // Restart once per collided round: if we already moved past
                // it, the new round is in flight.
                if self.crnd <= round && self.believes_leader(ctx.now()) {
                    let r = self.fresh_round(self.max_heard.max(round), ctx.now());
                    self.start_round(r, ctx);
                }
            }
            CollisionPolicy::Coordinated | CollisionPolicy::Uncoordinated => {
                // Acceptor-driven: acceptors detect the collision through
                // gossiped "2b"s and issue binding "1b" promises for the
                // successor round (to this coordinator under Coordinated,
                // among themselves under Uncoordinated). Converting our
                // "2b" snapshots into "1b" evidence here would be unsound:
                // they are not the senders' final word for the round.
            }
        }
    }

    /// Admits the commands of one [`Msg::Propose`] or [`Msg::ProposeBatch`]
    /// and then pumps waves, so a whole batch is queued before waves form
    /// (otherwise its first admissions would ship as fragments).
    fn admit(
        &mut self,
        cmds: impl IntoIterator<Item = C::Cmd>,
        pin: Option<Vec<ProcessId>>,
        ctx: &mut dyn Context<Msg<C>>,
    ) {
        for cmd in cmds {
            self.admit_one(cmd, &pin, ctx);
        }
        self.pump_batches(false, ctx);
    }

    /// Queues `cmd` for the next wave of the current classic round, or
    /// backlogs it while none is active. A command already queued or
    /// already shipped in `cval` is a retransmission of work in flight and
    /// is dropped: loss recovery runs through the stall detector's round
    /// change, which re-seeds `outstanding`. Past `queue_cap` a command is
    /// shed (counted) for the proposer's resend to re-offer.
    fn admit_one(
        &mut self,
        cmd: C::Cmd,
        pin: &Option<Vec<ProcessId>>,
        ctx: &mut dyn Context<Msg<C>>,
    ) {
        // A retransmission of an already-stabilized command (its
        // Learned notification was lost) must not re-enter the
        // protocol: its membership entry is below the watermark.
        if self.cfg.wire.compact_every > 0 && self.comp.contains_recent(&cmd) {
            return;
        }
        if !self.outstanding.contains(&cmd) {
            if self.outstanding.is_empty() {
                self.last_progress = ctx.now();
            }
            self.outstanding.push(cmd.clone());
        }
        let classic_active =
            self.cval.is_some() && self.cfg.schedule.kind(self.crnd) == RoundKind::Classic;
        if !classic_active {
            if !self.backlog.contains(&cmd) {
                self.backlog.push(cmd);
            }
            return;
        }
        let dup = self.batch_queue.iter().any(|(c, _)| *c == cmd)
            || self.cval.as_ref().is_some_and(|v| v.contains(&cmd));
        if dup {
            return;
        }
        let cap = self.cfg.batch.queue_cap;
        if cap > 0 && self.batch_queue.len() >= cap {
            ctx.metric(Metric::incr(metrics::BACKPRESSURE_SHEDS));
            return;
        }
        self.batch_queue.push((cmd, pin.clone()));
    }

    fn tick(&mut self, ctx: &mut dyn Context<Msg<C>>) {
        // Heartbeats to fellow coordinators.
        let me = self.me;
        let peers: Vec<ProcessId> = self
            .cfg
            .roles
            .coordinators()
            .iter()
            .copied()
            .filter(|&c| c != me)
            .collect();
        ctx.multicast(&peers, Msg::Heartbeat);
        let now = ctx.now();
        if self.fd_scan(now, ctx) {
            return;
        }
        // Leadership duties.
        if self.leader(now) != self.me {
            return;
        }
        if self.crnd.is_zero() && self.max_heard.is_zero() {
            let r = self.cfg.schedule.initial(self.me_idx, self.floor.major);
            self.start_round(r, ctx);
            return;
        }
        if self.crnd.is_zero() || self.crnd < self.max_heard {
            // Recovered or preempted: claim a fresh higher round.
            let r = self.fresh_round(self.max_heard, now);
            self.start_round(r, ctx);
            return;
        }
        // Stall: pending work but no acceptor progress for a while.
        if !self.outstanding.is_empty()
            && now.since(self.last_progress) > self.cfg.timing.stall_timeout
        {
            let base = self.max_heard.max(self.crnd);
            let r = self.fresh_round(base, now);
            self.start_round(r, ctx);
        }
    }
}

impl<C: CStruct> Receiver<C> for Coordinator<C> {
    fn compactor(&mut self) -> &mut Compactor<C> {
        &mut self.comp
    }

    fn realign(&mut self, ctx: &mut dyn Context<Msg<C>>) -> bool {
        self.apply_compaction(ctx)
    }
}

impl<C: CStruct> Actor for Coordinator<C> {
    type Msg = Msg<C>;

    fn on_start(&mut self, ctx: &mut dyn Context<Msg<C>>) {
        // Optimistic initial view: everyone alive. The lowest-id
        // coordinator acts as first leader; others take over only after a
        // real timeout.
        let now = ctx.now();
        for &c in self.cfg.roles.coordinators() {
            self.alive.insert(c, now);
        }
        self.last_progress = now;
        ctx.set_timer(HEARTBEAT_EVERY, TOK_TICK);
    }

    fn on_recover(&mut self, ctx: &mut dyn Context<Msg<C>>) {
        let repaired = ctx.storage().corrupt_records();
        if repaired > 0 {
            ctx.metric(Metric::add(metrics::CORRUPT_RECORDS, repaired as i64));
        }
        let floor_bytes: Option<Vec<u8>> = ctx.storage().read(KEY_FLOOR).map(|b| b.to_vec());
        if let Some(bytes) = floor_bytes {
            match from_bytes(&bytes) {
                Ok(f) => self.floor = f,
                Err(_) => {
                    // Undecodable floor record: keep ZERO. The floor is a
                    // liveness hint (it stops a recovered leader from
                    // re-proposing old rounds); safety never depends on
                    // it, so degrading beats a crash loop.
                    ctx.metric(Metric::incr(metrics::CORRUPT_RECORDS));
                }
            }
        }
        // crnd stays ZERO: we no longer coordinate the pre-crash round.
        // But bootstrap max_heard to the floor, or a recovered leader
        // would keep proposing rounds below its own floor forever.
        self.max_heard = self.floor;
        // Announce the restart: acceptors holding a "2b" delta base for
        // this process must downgrade to Full payloads.
        announce_restart(&self.cfg.wire, self.cfg.roles.acceptors(), ctx);
        self.on_start(ctx);
    }

    fn on_message(&mut self, from: ProcessId, msg: Msg<C>, ctx: &mut dyn Context<Msg<C>>) {
        match msg {
            Msg::Propose { cmd, acc_quorum } => self.admit([cmd], acc_quorum, ctx),
            Msg::ProposeBatch { cmds, acc_quorum } => self.admit(cmds, acc_quorum, ctx),
            Msg::P1b { round, vrnd, vval } => {
                self.note_heard(round);
                // 1b values are shipped full; normalize to our watermark
                // (or drop until compaction catches up).
                let Some(vval) = self.resolve_full(from, round, vval, ctx) else {
                    return;
                };
                // An unsolicited "1b" for a single-coordinated round we
                // coordinate is collision-recovery evidence (§4.2): note
                // the collision for the round-type backoff, and echo the
                // implicit "1a" so acceptors that did not observe the
                // collision themselves join the recovery round too.
                if round > self.crnd
                    && round.rtype == crate::schedule::RTYPE_SINGLE
                    && self.cfg.schedule.is_coordinator_of(self.me, round)
                {
                    self.last_collision = Some(ctx.now());
                    if round > self.floor && self.echoed_1a.insert(round) {
                        let acceptors = self.cfg.roles.acceptors().to_vec();
                        ctx.multicast(&acceptors, Msg::P1a { round });
                        while self.echoed_1a.len() > ROUND_WINDOW {
                            let lowest = *self.echoed_1a.iter().next().expect("non-empty");
                            self.echoed_1a.remove(&lowest);
                        }
                    }
                }
                self.round_1b
                    .entry(round)
                    .or_default()
                    .insert(from, OneB { from, vrnd, vval });
                prune_rounds(&mut self.round_1b);
                self.try_phase2start(round, ctx);
            }
            Msg::P2b { round, val } => {
                self.note_heard(round);
                if let Some(got) = self.ingest(|c| &mut c.round_2b, from, round, val, ctx) {
                    self.observe_2b(round, got.grew, ctx);
                }
            }
            // An acceptor lost the base of our deltas.
            Msg::NeedFull { round } => {
                self.out
                    .resync(from, round, self.crnd, self.cval.as_ref(), ctx);
            }
            Msg::Stable {
                from: seg_from,
                cmds,
            } if self.cfg.wire.compact_every > 0 => self.on_stable(from, seg_from, cmds, ctx),
            Msg::NeedStable { from: want } => self.on_need_stable(from, want, ctx),
            Msg::RoundTooLow { heard } => {
                self.note_heard(heard);
                if self.believes_leader(ctx.now()) && heard >= self.crnd {
                    let r = self.fresh_round(self.max_heard, ctx.now());
                    self.start_round(r, ctx);
                }
            }
            Msg::Heartbeat => {
                self.fd_hear(from, ctx);
                self.alive.insert(from, ctx.now());
            }
            Msg::Hello => self.on_link_reset(from, ctx),
            _ => {}
        }
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut dyn Context<Msg<C>>) {
        if token == TOK_TICK {
            self.tick(ctx);
            ctx.set_timer(HEARTBEAT_EVERY, TOK_TICK);
        } else if token == TOK_BATCH {
            self.linger.fired();
            self.pump_batches(true, ctx);
        }
    }

    /// The peer restarted or its link was reset: drop the delta base
    /// shipped to it.
    fn on_link_reset(&mut self, peer: ProcessId, ctx: &mut dyn Context<Msg<C>>) {
        self.out.reset(peer, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{Policy, RTYPE_MULTI};
    use crate::testctx::cfg;
    use mcpaxos_actor::host::Recorder;
    use mcpaxos_actor::{MemStore, SimDuration, StableStore, WalStore};
    use mcpaxos_cstruct::CmdSet;

    type C = CmdSet<u32>;
    type Ctx = Recorder<Msg<C>>;

    fn ctx_for(me: u32) -> Ctx {
        let mut cx = Recorder::new(me);
        cx.now = SimTime(100);
        cx
    }

    fn onb_msg(round: Round) -> Msg<C> {
        Msg::P1b {
            round,
            vrnd: Round::ZERO,
            vval: C::bottom().into(),
        }
    }

    #[test]
    fn lowest_id_coordinator_starts_the_first_round() {
        let cfg = cfg();
        let mut c1: Coordinator<C> = Coordinator::new(cfg.clone(), ProcessId(1));
        let mut cx = ctx_for(1);
        c1.on_start(&mut cx);
        c1.on_timer(TOK_TICK, &mut cx);
        let p1as: Vec<_> = cx
            .sent
            .iter()
            .filter(|(_, m)| matches!(m, Msg::P1a { .. }))
            .collect();
        assert_eq!(p1as.len(), 5, "1a to every acceptor");
        assert_eq!(c1.crnd().rtype, RTYPE_MULTI);

        // A non-lowest coordinator does not start rounds while c1 alive.
        let mut c2: Coordinator<C> = Coordinator::new(cfg, ProcessId(2));
        let mut cx2 = ctx_for(2);
        c2.on_start(&mut cx2);
        c2.on_timer(TOK_TICK, &mut cx2);
        assert!(!cx2.sent.iter().any(|(_, m)| matches!(m, Msg::P1a { .. })));
        assert!(cx2.sent.iter().any(|(_, m)| matches!(m, Msg::Heartbeat)));
    }

    #[test]
    fn phase2start_after_classic_quorum_of_1b() {
        let cfg = cfg();
        let mut c2: Coordinator<C> = Coordinator::new(cfg.clone(), ProcessId(2));
        let mut cx = ctx_for(2);
        c2.on_start(&mut cx);
        let r = Round::new(0, 1, 0, RTYPE_MULTI);
        // 1b from acceptors a4, a5: not a quorum of 5 yet (need 3).
        c2.on_message(ProcessId(4), onb_msg(r), &mut cx);
        c2.on_message(ProcessId(5), onb_msg(r), &mut cx);
        assert!(c2.cval().is_none());
        c2.on_message(ProcessId(6), onb_msg(r), &mut cx);
        assert!(c2.cval().is_some(), "non-owner quorum member also starts");
        assert_eq!(c2.crnd(), r);
        let p2as = cx
            .sent
            .iter()
            .filter(|(_, m)| matches!(m, Msg::P2a { .. }))
            .count();
        assert_eq!(p2as, 5);
    }

    #[test]
    fn proposals_extend_cval_and_are_forwarded() {
        let cfg = cfg();
        let mut c1: Coordinator<C> = Coordinator::new(cfg, ProcessId(1));
        let mut cx = ctx_for(1);
        c1.on_start(&mut cx);
        let r = Round::new(0, 1, 0, RTYPE_MULTI);
        for a in 4..=6 {
            c1.on_message(ProcessId(a), onb_msg(r), &mut cx);
        }
        cx.sent.clear();
        c1.on_message(
            ProcessId(0),
            Msg::Propose {
                cmd: 7,
                acc_quorum: None,
            },
            &mut cx,
        );
        let vals: Vec<&C> = cx
            .sent
            .iter()
            .filter_map(|(_, m)| match m {
                Msg::P2a { val, .. } => val.as_full().map(|v| v.as_ref()),
                _ => None,
            })
            .collect();
        assert_eq!(vals.len(), 5);
        assert!(vals[0].contains(&7));
        // Load-balanced proposal goes only to the pinned acceptors.
        cx.sent.clear();
        c1.on_message(
            ProcessId(0),
            Msg::Propose {
                cmd: 8,
                acc_quorum: Some(vec![ProcessId(4), ProcessId(5), ProcessId(6)]),
            },
            &mut cx,
        );
        assert_eq!(cx.sent.len(), 3);
    }

    #[test]
    fn proposals_before_round_go_to_backlog_then_ride_phase2start() {
        let cfg = cfg();
        let mut c1: Coordinator<C> = Coordinator::new(cfg, ProcessId(1));
        let mut cx = ctx_for(1);
        c1.on_start(&mut cx);
        c1.on_message(
            ProcessId(0),
            Msg::Propose {
                cmd: 42,
                acc_quorum: None,
            },
            &mut cx,
        );
        assert!(c1.cval().is_none());
        let r = Round::new(0, 1, 0, RTYPE_MULTI);
        for a in 4..=6 {
            c1.on_message(ProcessId(a), onb_msg(r), &mut cx);
        }
        assert!(c1.cval().unwrap().contains(&42));
    }

    #[test]
    fn nack_makes_leader_start_higher_round() {
        let cfg = cfg();
        let mut c1: Coordinator<C> = Coordinator::new(cfg, ProcessId(1));
        let mut cx = ctx_for(1);
        c1.on_start(&mut cx);
        c1.on_timer(TOK_TICK, &mut cx); // starts r(0,1,me)
        let started = c1.crnd();
        let heard = Round::new(0, 5, 2, RTYPE_MULTI);
        c1.on_message(ProcessId(4), Msg::RoundTooLow { heard }, &mut cx);
        assert!(c1.crnd() > heard);
        assert!(c1.crnd() > started);
    }

    #[test]
    fn floor_survives_recovery_and_blocks_old_rounds() {
        // Over a store that syncs every write, and over a buffering WAL
        // whose unflushed writes the crash drops.
        let stores: [fn() -> Box<dyn StableStore>; 2] =
            [|| Box::new(MemStore::new()), || Box::new(WalStore::new())];
        for store in stores {
            let cfg = cfg();
            let mut c1: Coordinator<C> = Coordinator::new(cfg.clone(), ProcessId(1));
            let mut cx = ctx_for(1);
            cx.store = store();
            c1.on_start(&mut cx);
            c1.on_timer(TOK_TICK, &mut cx);
            let r = c1.crnd();
            // Crash, recover over the same store.
            cx.store.lose_unflushed();
            let mut c1b: Coordinator<C> = Coordinator::new(cfg, ProcessId(1));
            c1b.on_recover(&mut cx);
            assert_eq!(c1b.crnd(), Round::ZERO);
            // 1b quorum for the pre-crash round must NOT re-trigger
            // Phase2Start (the floor blocks it).
            for a in 4..=6 {
                c1b.on_message(ProcessId(a), onb_msg(r), &mut cx);
            }
            assert!(c1b.cval().is_none(), "floor must block round {r:?}");
        }
    }

    #[test]
    fn stall_triggers_new_round() {
        let cfg = cfg();
        let mut c1: Coordinator<C> = Coordinator::new(cfg.clone(), ProcessId(1));
        let mut cx = ctx_for(1);
        c1.on_start(&mut cx);
        c1.on_timer(TOK_TICK, &mut cx);
        let first = c1.crnd();
        c1.on_message(
            ProcessId(0),
            Msg::Propose {
                cmd: 9,
                acc_quorum: None,
            },
            &mut cx,
        );
        // No 2b progress past the stall timeout.
        cx.now = SimTime(100 + 1 + cfg.timing.stall_timeout.ticks() + 1);
        c1.on_timer(TOK_TICK, &mut cx);
        assert!(c1.crnd() > first, "stalled leader must start a new round");
    }

    fn fd_cfg() -> Arc<DeployConfig> {
        // FD suspicion (100) well below leader_timeout (160) and
        // stall_timeout (120): failover must beat both.
        Arc::new(
            DeployConfig::simple(1, 3, 5, 1, Policy::MultiCoordinated).with_timing(
                crate::config::Timing::default().with_failure_detector(SimDuration(100)),
            ),
        )
    }

    #[test]
    fn suspicion_fails_over_before_leader_or_stall_timeout() {
        let mut c2: Coordinator<C> = Coordinator::new(fd_cfg(), ProcessId(2));
        let mut cx = ctx_for(2);
        c2.on_start(&mut cx); // everyone optimistically alive at t=100
        cx.now = SimTime(100 + 99);
        c2.on_timer(TOK_TICK, &mut cx);
        assert!(c2.suspects().is_empty(), "inside the suspicion timeout");
        assert!(c2.crnd().is_zero());
        // One tick past the suspicion timeout — still well inside
        // leader_timeout (160), where the non-FD path would stay silent.
        cx.now = SimTime(100 + 101);
        c2.on_timer(TOK_TICK, &mut cx);
        assert!(c2.suspects().contains(&ProcessId(1)));
        assert_eq!(c2.leader_view(cx.now), ProcessId(2));
        assert!(!c2.crnd().is_zero(), "failover must start a round");
        assert!(cx.sent.iter().any(|(_, m)| matches!(m, Msg::P1a { .. })));
    }

    #[test]
    fn false_suspicion_doubles_the_timeout() {
        let mut c2: Coordinator<C> = Coordinator::new(fd_cfg(), ProcessId(2));
        let mut cx = ctx_for(2);
        c2.on_start(&mut cx);
        cx.now = SimTime(100 + 101);
        c2.on_timer(TOK_TICK, &mut cx);
        assert!(c2.suspects().contains(&ProcessId(1)));
        // The "dead" leader speaks: suspicion was false.
        cx.now = SimTime(210);
        c2.on_message(ProcessId(1), Msg::Heartbeat, &mut cx);
        assert!(!c2.suspects().contains(&ProcessId(1)));
        // 150 ticks of silence: past the base timeout (100) but inside
        // the doubled one (200) — the backoff holds fire.
        cx.now = SimTime(210 + 150);
        c2.on_timer(TOK_TICK, &mut cx);
        assert!(!c2.suspects().contains(&ProcessId(1)));
        // Past the doubled timeout: suspected again.
        cx.now = SimTime(210 + 201);
        c2.on_timer(TOK_TICK, &mut cx);
        assert!(c2.suspects().contains(&ProcessId(1)));
    }

    fn batch_cfg(batch: usize, depth: usize, cap: usize) -> Arc<DeployConfig> {
        Arc::new(
            DeployConfig::simple(1, 3, 5, 1, Policy::MultiCoordinated).with_batching(
                crate::config::BatchConfig {
                    batch_size: batch,
                    batch_ticks: SimDuration(0),
                    pipeline_depth: depth,
                    queue_cap: cap,
                },
            ),
        )
    }

    fn p2as_of(cx: &Ctx) -> Vec<C> {
        cx.sent
            .iter()
            .filter_map(|(_, m)| match m {
                Msg::P2a { val, .. } => val.as_full().map(|v| v.as_ref().clone()),
                _ => None,
            })
            .collect()
    }

    fn quorum_2b(c: &mut Coordinator<C>, r: Round, val: &C, cx: &mut Ctx) {
        for a in 4..=6 {
            c.on_message(
                ProcessId(a),
                Msg::P2b {
                    round: r,
                    val: val.clone().into(),
                },
                cx,
            );
        }
    }

    #[test]
    fn batching_accumulates_waves_and_pipelines() {
        let mut c1: Coordinator<C> = Coordinator::new(batch_cfg(2, 1, 0), ProcessId(1));
        let mut cx = ctx_for(1);
        c1.on_start(&mut cx);
        let r = Round::new(0, 1, 0, RTYPE_MULTI);
        for a in 4..=6 {
            c1.on_message(ProcessId(a), onb_msg(r), &mut cx);
        }
        // Phase2Start shipped the round's initial (empty) wave, which
        // occupies the single pipeline slot: proposals must queue.
        cx.sent.clear();
        for cmd in [7u32, 8, 9] {
            c1.on_message(
                ProcessId(0),
                Msg::Propose {
                    cmd,
                    acc_quorum: None,
                },
                &mut cx,
            );
        }
        assert!(
            cx.sent.is_empty(),
            "pipeline full: no 2a before the initial wave retires"
        );
        // A classic quorum of 2bs at the initial wave's length retires it;
        // the freed slot ships ONE wave of batch_size commands.
        quorum_2b(&mut c1, r, &C::bottom(), &mut cx);
        let p2as = p2as_of(&cx);
        assert_eq!(p2as.len(), 5, "one wave = one 2a multicast to 5 acceptors");
        assert_eq!(p2as[0].count(), 2, "wave carries batch_size commands");
        // Acks covering that wave retire it and pump the queued remainder.
        let wave_val = p2as[0].clone();
        cx.sent.clear();
        quorum_2b(&mut c1, r, &wave_val, &mut cx);
        let p2as = p2as_of(&cx);
        assert_eq!(p2as.len(), 5);
        assert_eq!(p2as[0].count(), 3, "final wave appends the queued command");
    }

    #[test]
    fn batch_queue_sheds_past_cap_and_resends_recover() {
        let mut c1: Coordinator<C> = Coordinator::new(batch_cfg(2, 1, 2), ProcessId(1));
        let mut cx = ctx_for(1);
        c1.on_start(&mut cx);
        let r = Round::new(0, 1, 0, RTYPE_MULTI);
        for a in 4..=6 {
            c1.on_message(ProcessId(a), onb_msg(r), &mut cx);
        }
        cx.sent.clear();
        for cmd in [7u32, 8, 9, 10] {
            c1.on_message(
                ProcessId(0),
                Msg::Propose {
                    cmd,
                    acc_quorum: None,
                },
                &mut cx,
            );
        }
        // cap=2: 9 and 10 were shed; retiring the initial wave ships only
        // the two queued commands.
        quorum_2b(&mut c1, r, &C::bottom(), &mut cx);
        let p2as = p2as_of(&cx);
        assert_eq!(p2as[0].count(), 2);
        assert!(p2as[0].contains(&7) && p2as[0].contains(&8));
        // A proposer retransmission re-offers the shed command once the
        // queue has drained, and the next retirement carries it.
        let wave_val = p2as[0].clone();
        cx.sent.clear();
        c1.on_message(
            ProcessId(0),
            Msg::Propose {
                cmd: 9,
                acc_quorum: None,
            },
            &mut cx,
        );
        assert!(cx.sent.is_empty(), "first wave still in flight");
        quorum_2b(&mut c1, r, &wave_val, &mut cx);
        let p2as = p2as_of(&cx);
        assert_eq!(p2as[0].count(), 3);
        assert!(p2as[0].contains(&9));
    }

    #[test]
    fn propose_batch_is_admitted_as_one_wave() {
        // At the default batch size of one, ProposeBatch is k sequential
        // proposals (one 2a each); with larger batches, one wave.
        let cfg = cfg();
        let mut c1: Coordinator<C> = Coordinator::new(cfg, ProcessId(1));
        let mut cx = ctx_for(1);
        c1.on_start(&mut cx);
        let r = Round::new(0, 1, 0, RTYPE_MULTI);
        for a in 4..=6 {
            c1.on_message(ProcessId(a), onb_msg(r), &mut cx);
        }
        cx.sent.clear();
        c1.on_message(
            ProcessId(0),
            Msg::ProposeBatch {
                cmds: vec![7, 8],
                acc_quorum: None,
            },
            &mut cx,
        );
        assert_eq!(
            p2as_of(&cx).len(),
            10,
            "batch size 1: one 2a multicast per command"
        );

        let mut cb: Coordinator<C> = Coordinator::new(batch_cfg(4, 2, 0), ProcessId(1));
        let mut cxb = ctx_for(1);
        cb.on_start(&mut cxb);
        for a in 4..=6 {
            cb.on_message(ProcessId(a), onb_msg(r), &mut cxb);
        }
        quorum_2b(&mut cb, r, &C::bottom(), &mut cxb); // retire initial wave
        cxb.sent.clear();
        cb.on_message(
            ProcessId(0),
            Msg::ProposeBatch {
                cmds: vec![7, 8, 9],
                acc_quorum: None,
            },
            &mut cxb,
        );
        let p2as = p2as_of(&cxb);
        assert_eq!(p2as.len(), 5, "batching on: the whole batch is one wave");
        assert_eq!(p2as[0].count(), 3);
    }

    /// Coordinator 1 in a fresh multicoordinated round under `batch`,
    /// with the round's initial wave retired and the recorder cleared.
    fn in_phase2(batch: crate::config::BatchConfig) -> (Coordinator<C>, Ctx) {
        let cfg = DeployConfig::simple(1, 3, 5, 1, Policy::MultiCoordinated).with_batching(batch);
        let mut c1: Coordinator<C> = Coordinator::new(Arc::new(cfg), ProcessId(1));
        let mut cx = ctx_for(1);
        c1.on_start(&mut cx);
        let r = Round::new(0, 1, 0, RTYPE_MULTI);
        for a in 4..=6 {
            c1.on_message(ProcessId(a), onb_msg(r), &mut cx);
        }
        quorum_2b(&mut c1, r, &C::bottom(), &mut cx);
        cx.sent.clear();
        (c1, cx)
    }

    /// Each "2a" wave as (acceptors it went to, commands it carried).
    fn waves_of(cx: &Ctx) -> Vec<(Vec<ProcessId>, usize)> {
        let mut out: Vec<(Vec<ProcessId>, usize)> = vec![];
        for (to, m) in &cx.sent {
            let Msg::P2a { val, .. } = m else { continue };
            let n = val.as_full().expect("full payloads").count();
            match out.last_mut() {
                Some((tos, k)) if *k == n => tos.push(*to),
                _ => out.push((vec![*to], n)),
            }
        }
        out
    }

    fn pinned(cmds: Vec<u32>, pin: &[u32]) -> Msg<C> {
        Msg::ProposeBatch {
            cmds,
            acc_quorum: Some(pin.iter().map(|&a| ProcessId(a)).collect()),
        }
    }

    #[test]
    fn pinned_waves_ship_to_their_pin_and_a_pin_change_cuts_the_run() {
        let (mut c1, mut cx) = in_phase2(crate::config::BatchConfig::pipelined(4, 2));
        let ids = |accs: [u32; 3]| accs.map(ProcessId).to_vec();
        // A full pinned batch: one wave, to the pinned acceptors only.
        c1.on_message(ProcessId(0), pinned(vec![1, 2, 3, 4], &[4, 5, 6]), &mut cx);
        assert_eq!(waves_of(&cx), vec![(ids([4, 5, 6]), 4)]);
        // A partial run lingers ...
        cx.sent.clear();
        c1.on_message(ProcessId(0), pinned(vec![5, 6], &[4, 5, 6]), &mut cx);
        assert!(cx.sent.is_empty());
        // ... until a differently pinned command follows it: it can no
        // longer grow, so it leaves at once as its own wave, and the new
        // run lingers in turn.
        c1.on_message(ProcessId(0), pinned(vec![7], &[6, 7, 8]), &mut cx);
        assert_eq!(waves_of(&cx), vec![(ids([4, 5, 6]), 6)]);
        // Both waves retire; the linger expiry ships the last run to its
        // own pin.
        let val = p2as_of(&cx)[0].clone();
        quorum_2b(&mut c1, Round::new(0, 1, 0, RTYPE_MULTI), &val, &mut cx);
        c1.on_timer(TOK_BATCH, &mut cx);
        assert_eq!(waves_of(&cx)[1..], [(ids([6, 7, 8]), 7)]);
    }

    #[test]
    fn a_proposal_cval_already_holds_ships_nothing() {
        let (mut c1, mut cx) = in_phase2(crate::config::BatchConfig::default());
        let propose = |cmd| Msg::Propose {
            cmd,
            acc_quorum: None,
        };
        c1.on_message(ProcessId(0), propose(7), &mut cx);
        assert_eq!(p2as_of(&cx).len(), 5, "one wave to every acceptor");
        cx.sent.clear();
        // The proposer's retransmission of 7 (say): already in `cval`.
        c1.on_message(ProcessId(0), propose(7), &mut cx);
        assert!(cx.sent.is_empty(), "a duplicate re-ships no 2a");
        assert_eq!(c1.cval().map(|v| v.count()), Some(1));
    }

    #[test]
    fn round_change_reseeds_batched_commands() {
        let mut c1: Coordinator<C> = Coordinator::new(batch_cfg(2, 1, 0), ProcessId(1));
        let mut cx = ctx_for(1);
        c1.on_start(&mut cx);
        c1.on_timer(TOK_TICK, &mut cx);
        let r = c1.crnd();
        for a in 4..=6 {
            c1.on_message(ProcessId(a), onb_msg(r), &mut cx);
        }
        // Queue commands behind the in-flight initial wave, then lose all
        // 2bs: the stall detector starts a fresh round whose Phase2Start
        // must re-seed every outstanding command.
        for cmd in [7u32, 8, 9] {
            c1.on_message(
                ProcessId(0),
                Msg::Propose {
                    cmd,
                    acc_quorum: None,
                },
                &mut cx,
            );
        }
        cx.now = SimTime(cx.now.ticks() + cfg().timing.stall_timeout.ticks() + 60);
        c1.on_timer(TOK_TICK, &mut cx);
        let r2 = c1.crnd();
        assert!(r2 > r, "stall must start a new round");
        cx.sent.clear();
        for a in 4..=6 {
            c1.on_message(ProcessId(a), onb_msg(r2), &mut cx);
        }
        let p2as = p2as_of(&cx);
        assert_eq!(p2as.len(), 5);
        for cmd in [7u32, 8, 9] {
            assert!(p2as[0].contains(&cmd), "{cmd} must ride Phase2Start");
        }
    }

    #[test]
    fn a_stale_cval_of_a_left_round_does_not_hold_the_watermark() {
        use crate::config::WireConfig;
        use crate::testctx::{h, H, K};
        let cfg = DeployConfig::simple(1, 3, 5, 1, Policy::MultiCoordinated)
            .with_wire(WireConfig::bounded(4));
        let mut c: Coordinator<H> = Coordinator::new(Arc::new(cfg), ProcessId(2));
        let mut cx: Recorder<Msg<H>> = Recorder::new(2);
        c.on_start(&mut cx);
        let r = Round::new(0, 1, 0, RTYPE_MULTI);
        for a in 4..=6 {
            let vval = H::bottom().into();
            let onb = Msg::P1b {
                round: r,
                vrnd: Round::ZERO,
                vval,
            };
            c.on_message(ProcessId(a), onb, &mut cx);
        }
        // `cval` holds a command the deployment did not choose, so it
        // cannot take the stable segment h(4).
        let cmd = K(0, 99);
        c.on_message(
            ProcessId(0),
            Msg::Propose {
                cmd,
                acc_quorum: None,
            },
            &mut cx,
        );
        let stable = || Msg::Stable {
            from: 0,
            cmds: h(4).as_slice().to_vec(),
        };
        c.on_message(ProcessId(9), stable(), &mut cx);
        assert_eq!(c.comp.watermark(), 0, "r is current: the segment waits");
        // The deployment moves to a higher round; the re-gossiped segment
        // then applies without `cval`.
        let r2 = Round::new(0, 2, 0, RTYPE_MULTI);
        let val = h(4).into();
        c.on_message(ProcessId(4), Msg::P2b { round: r2, val }, &mut cx);
        c.on_message(ProcessId(9), stable(), &mut cx);
        assert_eq!(c.comp.watermark(), 4);
        assert!(c.cval().is_none());
        assert!(c.crnd().is_zero(), "r is left");
        // Late "1b"s for r, enough for a quorum on their own, must not
        // start phase 2 of r a second time: the coordinator left r.
        cx.sent.clear();
        for a in [6, 7, 8] {
            let onb = Msg::P1b {
                round: r,
                vrnd: Round::ZERO,
                vval: h(4).into(),
            };
            c.on_message(ProcessId(a), onb, &mut cx);
        }
        assert!(c.cval().is_none());
        let p2a = cx.sent.iter().any(|(_, m)| matches!(m, Msg::P2a { .. }));
        assert!(!p2a, "a second Phase2Start in r");
    }

    #[test]
    fn hello_drops_the_peer_delta_base() {
        // `CmdSet` never produces deltas (no stable sequence), so observe
        // the base bookkeeping through the `base_resets` metric: exactly
        // one reset for the peer that said Hello, none for a repeat (the
        // Full-vs-delta wire effect is pinned in `tests/hello_resync.rs`).
        let cfg = Arc::new(
            DeployConfig::simple(1, 3, 5, 1, Policy::MultiCoordinated).with_wire(
                crate::config::WireConfig {
                    delta_ship: true,
                    ..crate::config::WireConfig::default()
                },
            ),
        );
        let mut c1: Coordinator<C> = Coordinator::new(cfg, ProcessId(1));
        let mut cx = ctx_for(1);
        c1.on_start(&mut cx);
        let r = Round::new(0, 1, 0, RTYPE_MULTI);
        for a in 4..=6 {
            c1.on_message(ProcessId(a), onb_msg(r), &mut cx);
        }
        // Phase2Start shipped a 2a to every acceptor: bases established.
        let resets = |cx: &Ctx| cx.metric_count(metrics::BASE_RESETS);
        assert_eq!(resets(&cx), 0);
        c1.on_message(ProcessId(4), Msg::Hello, &mut cx);
        assert_eq!(resets(&cx), 1, "a4's base dropped proactively");
        // Idempotent: a second Hello finds no base to drop.
        c1.on_message(ProcessId(4), Msg::Hello, &mut cx);
        assert_eq!(resets(&cx), 1);
        // Link reset takes the same path for another peer.
        c1.on_link_reset(ProcessId(5), &mut cx);
        assert_eq!(resets(&cx), 2);
        c1.on_link_reset(ProcessId(5), &mut cx);
        assert_eq!(resets(&cx), 2);
    }
}
