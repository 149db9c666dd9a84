//! The acceptor agent.
//!
//! Acceptors implement actions `Phase1b`, `Phase2bClassic` and
//! `Phase2bFast` of §3.2, the multicoordinated collision detection of
//! §4.2, the uncoordinated recovery variant, and the disk-write reduction
//! of §4.4:
//!
//! * `(vrnd, vval)` is persisted on every accept — these are the writes
//!   the paper says cannot be avoided;
//! * under [`Durability::Reduced`], `rnd` is volatile except for its major
//!   count, which is written once at startup and bumped once per recovery;
//! * under [`Durability::Naive`], the full `rnd` is also written on every
//!   `Phase1b`, the baseline the E7 experiment compares against.
//!
//! The acceptor decides when its writes are durable: it flushes before
//! any message that relies on them leaves. A "1b" flushes first, and so
//! does the start-up or recovery write of `MCount`/`rnd`. A "2b" waits
//! for the vote it announces: with no group-commit window it flushes and
//! sends at once; otherwise the `TOK_FLUSH` timer releases it.

use crate::agents::{metrics, TOK_A_RESEND, TOK_FLUSH};
use crate::compact::Compactor;
use crate::config::{CollisionPolicy, DeployConfig, Durability};
use crate::msg::Msg;
use crate::provedsafe::{pick, proved_safe, OneB};
use crate::quorum;
use crate::round::Round;
use crate::schedule::RoundKind;
use crate::ship::{announce_restart, prune_rounds, Inbox, Payload, Receiver, Shipper};
use mcpaxos_actor::wire::{from_bytes, to_bytes, Wire};
use mcpaxos_actor::{Actor, Context, Metric, ProcessId, SimDuration, TimerToken};
use mcpaxos_cstruct::{compatible_all, CStruct};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Storage key for the accepted vote `(vrnd, vval)`.
const KEY_VOTE: &str = "vote";
/// Storage key for the persisted major round count (`MCount`, §4.4).
const KEY_MAJOR: &str = "major";
/// Storage key for the full round under naive durability.
const KEY_RND: &str = "rnd";

/// The acceptor role.
pub struct Acceptor<C: CStruct> {
    cfg: Arc<DeployConfig>,
    rnd: Round,
    vrnd: Round,
    /// The accepted value, shared: full-payload sends bump this Arc
    /// instead of deep-cloning the history (mutation uses copy-on-write).
    vval: Arc<C>,
    persisted_major: u32,
    /// Latest "2a" value per coordinator, per round.
    round_2a: Inbox<C>,
    /// Gossiped "2b" values per acceptor, per round (uncoordinated
    /// recovery collision *detection* only).
    round_2b: Inbox<C>,
    /// Binding "1b" reports exchanged among acceptors for uncoordinated
    /// recovery rounds.
    recovery_1b: BTreeMap<Round, BTreeMap<ProcessId, OneB<C>>>,
    /// Proposals buffered for fast appends.
    fast_buf: Vec<C::Cmd>,
    /// Stable-prefix compaction state (watermark, pending/recent segments).
    comp: Compactor<C>,
    /// Ships `vval` as "2b"s (and "1b" reports), full or delta per peer.
    out: Shipper<C>,
    /// Group commit: whether a `TOK_FLUSH` tick is armed.
    flush_armed: bool,
    /// Group commit: the armed flush is due and has yielded once, so the
    /// deliveries queued for its instant share its sync.
    flush_due: bool,
    /// A "2b" broadcast is waiting for the next flush (a 2b must never
    /// announce a vote that is not yet durable).
    pending_2b: bool,
}

impl<C: CStruct> Acceptor<C> {
    /// Creates an acceptor for the given deployment.
    pub fn new(cfg: Arc<DeployConfig>) -> Self {
        let comp = Compactor::default();
        let out = Shipper::new(&cfg.wire, |round, val| Msg::P2b { round, val });
        Acceptor {
            cfg,
            rnd: Round::ZERO,
            vrnd: Round::ZERO,
            vval: Arc::new(C::bottom()),
            persisted_major: 0,
            round_2a: Inbox::default(),
            round_2b: Inbox::default(),
            recovery_1b: BTreeMap::new(),
            fast_buf: Vec::new(),
            comp,
            out,
            flush_armed: false,
            flush_due: false,
            pending_2b: false,
        }
    }

    /// The highest round this acceptor has heard of.
    pub fn rnd(&self) -> Round {
        self.rnd
    }

    /// The round of the latest accepted value.
    pub fn vrnd(&self) -> Round {
        self.vrnd
    }

    /// The latest accepted c-struct.
    pub fn vval(&self) -> &C {
        &self.vval
    }

    // ----- durability (§4.4) ---------------------------------------------

    fn persist_vote(&mut self, ctx: &mut dyn Context<Msg<C>>) {
        // Encode the pair in place: no clone of the (possibly large)
        // accepted value just to serialize it.
        let mut bytes = Vec::new();
        self.vrnd.encode(&mut bytes);
        self.vval.encode(&mut bytes);
        ctx.storage().write(KEY_VOTE, bytes);
    }

    fn persist_round(&mut self, ctx: &mut dyn Context<Msg<C>>) {
        match self.cfg.durability {
            Durability::Naive => {
                ctx.storage().write(KEY_RND, to_bytes(&self.rnd));
            }
            Durability::Reduced => {
                if self.rnd.major > self.persisted_major {
                    self.persisted_major = self.rnd.major;
                    ctx.storage()
                        .write(KEY_MAJOR, to_bytes(&self.persisted_major));
                }
            }
        }
    }

    // ----- protocol helpers ------------------------------------------------

    fn send_1b(&mut self, round: Round, ctx: &mut dyn Context<Msg<C>>) {
        let coords = self.cfg.schedule.coordinators_of(round);
        self.report_1b(&coords, round, ctx);
    }

    /// Reports `(vrnd, vval)` to `to` as a "1b" for `round`.
    fn report_1b(&mut self, to: &[ProcessId], round: Round, ctx: &mut dyn Context<Msg<C>>) {
        // A "1b" is *evidence* — ProvedSafe folds the reported
        // `(vrnd, vval)` into its safety argument, so the report must
        // never run ahead of the durable state (a phantom vote that a
        // crash then rolls back could make `pick()` choose wrongly).
        // Flush first; joins are per-round, so this stays cheap.
        ctx.storage().flush();
        // Always whole, outside the delta bases: the receiver generally
        // holds no base from us for `round`. The fan-out shares the Arc.
        let vval = Payload::Full(self.vval.clone());
        let vrnd = self.vrnd;
        ctx.multicast(to, Msg::P1b { round, vrnd, vval });
    }

    /// The acceptors other than `me`.
    fn fellows(&self, me: ProcessId) -> impl Iterator<Item = ProcessId> + '_ {
        let all = self.cfg.roles.acceptors().iter().copied();
        all.filter(move |&a| a != me)
    }

    fn join(&mut self, round: Round, ctx: &mut dyn Context<Msg<C>>) {
        debug_assert!(round > self.rnd);
        self.rnd = round;
        self.persist_round(ctx);
        self.send_1b(round, ctx);
    }

    fn nack(&self, to: ProcessId, ctx: &mut dyn Context<Msg<C>>) {
        ctx.metric(Metric::incr(metrics::NACKS));
        ctx.send(to, Msg::RoundTooLow { heard: self.rnd });
    }

    fn arm_resend(&self, ctx: &mut dyn Context<Msg<C>>) {
        let every = self.cfg.timing.acceptor_resend;
        if every.ticks() > 0 {
            ctx.set_timer(every, TOK_A_RESEND);
        }
    }

    /// Whether "2b" messages are also gossiped to fellow acceptors
    /// (acceptor-driven collision recovery, §4.2).
    fn gossip_2b(&self) -> bool {
        match self.cfg.collision {
            CollisionPolicy::Uncoordinated => true,
            CollisionPolicy::Coordinated => self.cfg.schedule.kind(self.vrnd) == RoundKind::Fast,
            CollisionPolicy::NewRound => false,
        }
    }

    /// Broadcasts the current vote once it is durable: a "2b" announces
    /// a durable vote, so it must not leave before the write buffering it
    /// is synced. With no group-commit window the vote is released at
    /// once; otherwise the next `TOK_FLUSH` releases it with its batch.
    fn broadcast_2b(&mut self, ctx: &mut dyn Context<Msg<C>>) {
        self.pending_2b = true;
        if self.cfg.group_commit.ticks() == 0 {
            self.release_2b(ctx);
        } else if !self.flush_armed {
            self.flush_armed = true;
            ctx.set_timer(self.cfg.group_commit, TOK_FLUSH);
        }
    }

    /// Syncs every buffered vote in one disk write, then sends the
    /// deferred "2b".
    fn release_2b(&mut self, ctx: &mut dyn Context<Msg<C>>) {
        ctx.storage().flush();
        if !std::mem::take(&mut self.pending_2b) {
            return;
        }
        let roles = &self.cfg.roles;
        // Coordinators monitor 2b traffic for progress tracking, fast
        // collision detection and coordinated recovery (§4.2–4.3).
        let mut targets: Vec<ProcessId> = roles
            .learners()
            .iter()
            .chain(roles.coordinators())
            .copied()
            .collect();
        // Fast rounds under acceptor-driven recovery (§4.2): gossip "2b"
        // to fellow acceptors so collisions are detected at the acceptors,
        // which then issue *binding* "1b" promises for the successor
        // round. (Converting 2b snapshots into 1b evidence at a
        // coordinator is unsound for generalized rounds, which accept
        // incrementally — a snapshot is not the sender's final word.)
        if self.gossip_2b() {
            targets.extend(self.fellows(ctx.me()));
        }
        self.out.ship(&targets, self.vrnd, &self.vval, ctx);
    }

    /// Applies every pending stable segment `vval` covers, truncating the
    /// live window and bringing all per-round bookkeeping to the new
    /// watermark (entries that cannot follow are dropped — they will be
    /// re-established by their senders' next messages). Returns whether
    /// the watermark moved.
    fn apply_compaction(&mut self, ctx: &mut dyn Context<Msg<C>>) -> bool {
        if self.cfg.wire.compact_every == 0 {
            return false;
        }
        let fast_buf = &mut self.fast_buf;
        let applied = self.comp.advance(Arc::make_mut(&mut self.vval), |seg| {
            fast_buf.retain(|c| !seg.contains(c));
        });
        if applied == 0 {
            return false;
        }
        ctx.metric(Metric::add(metrics::TRUNCATIONS, applied as i64));
        let comp = &self.comp;
        self.round_2a.follow(comp);
        self.round_2b.follow(comp);
        for m in self.recovery_1b.values_mut() {
            m.retain(|_, r| comp.normalize_arc(&mut r.vval));
        }
        // Re-persist the compacted vote: recovery then resumes at the new
        // watermark instead of replaying the truncated prefix.
        self.persist_vote(ctx);
        true
    }

    /// Multicoordinated collision (§4.2): incompatible "2a" values from
    /// coordinators of the same round. The acceptor behaves as if it had
    /// received a "1a" for the successor round, skipping its phase 1.
    fn handle_mc_collision(&mut self, round: Round, ctx: &mut dyn Context<Msg<C>>) {
        ctx.metric(Metric::incr(metrics::COLLISION_MC));
        if self.cfg.collision == CollisionPolicy::NewRound {
            return; // the leader will notice the stall and start afresh
        }
        let next = self.cfg.schedule.next(round);
        if next > self.rnd {
            self.rnd = next;
            self.persist_round(ctx);
            self.send_1b(next, ctx);
        }
    }

    /// `Phase2bClassic` (§3.2) on `from`'s "2a" just stored for `round`:
    /// once a coordinator quorum has reported, accept the lub of every
    /// quorum's glb. Each glb is a valid bound and accepting several is
    /// repeated `Phase2bClassic`, so a crashed coordinator's stale value
    /// cannot cap the vote. When the reports form a ⊑-chain the lub is
    /// the `q`-th longest report ([`quorum::chain_read`]), shared rather
    /// than rebuilt, and the §4.2 scan is skipped: a chain holds no
    /// incompatible pair. Otherwise incompatible reports are a
    /// multicoordinated collision, and compatible ones are folded subset
    /// by subset.
    fn try_accept_classic(&mut self, round: Round, from: ProcessId, ctx: &mut dyn Context<Msg<C>>) {
        let quorum = self.cfg.schedule.coord_quorum(round);
        let q = quorum.quorum_size();
        // Absent when `round` fell below the window as it arrived.
        let Some(m) = self.round_2a.round(round) else {
            return;
        };
        let vals: Vec<&C> = m.values().map(|v| v.as_ref()).collect();
        let pick = quorum::chain_read(&vals, q);
        // §4.2 collision detection: incompatible suggestions from
        // coordinators of one round.
        let collided = pick.is_none() && {
            let val = &m[&from];
            m.iter().any(|(&c, v)| c != from && !v.compatible(val))
        };
        let u = if collided || !quorum.is_quorum(vals.len()) {
            None
        } else if let Some(i) = pick {
            m.values().nth(i).cloned()
        } else {
            Some(Arc::new(quorum::fold_quorums(&vals, q)))
        };
        if collided {
            self.handle_mc_collision(round, ctx);
        }
        let Some(u) = u else { return };
        // Within a round the vote only grows, by appends (the "2b" delta
        // bases rely on it): it becomes `u` when `u` literally extends
        // it, else their lub.
        let (vote, mut changed) = if self.vrnd != round {
            if !self.vval.is_bottom() && !self.vval.le(&u) {
                // A previously persisted vote is superseded by a value
                // that does not extend it: that disk write bought nothing
                // (§4.2).
                ctx.metric(Metric::incr(metrics::OVERWRITTEN_VOTES));
            }
            (u, true)
        } else if self.vval.is_literal_prefix_of(&u) {
            let grew = u.total_len() != self.vval.total_len();
            (if grew { u } else { self.vval.clone() }, grew)
        } else if let Some(v) = self.vval.lub(&u) {
            let changed = *self.vval != v;
            (Arc::new(v), changed)
        } else {
            // Our accepted value cannot extend to the quorum's
            // suggestion: a collision shape; switch rounds.
            self.handle_mc_collision(round, ctx);
            return;
        };
        self.vrnd = round;
        self.vval = vote;
        // Fast rounds: fold in any buffered proposals right away.
        if self.cfg.schedule.kind(round) == RoundKind::Fast {
            let before = self.vval.count();
            let buf = std::mem::take(&mut self.fast_buf);
            if !buf.is_empty() {
                let v = Arc::make_mut(&mut self.vval);
                for cmd in buf {
                    v.append(cmd);
                }
            }
            changed |= self.vval.count() != before;
        }
        if round > self.rnd {
            self.rnd = round;
        }
        if changed {
            ctx.metric(Metric::incr(metrics::ACCEPTS));
            self.persist_vote(ctx);
            self.persist_round(ctx);
        }
        // Re-broadcast even when unchanged: retransmission for lossy
        // links rides on duplicate "2a"s triggered by proposer resends.
        self.broadcast_2b(ctx);
    }

    /// `Phase2bFast` (§3.2): extend the accepted value directly with a
    /// proposal, without coordinator involvement.
    fn try_accept_fast(&mut self, cmd: C::Cmd, ctx: &mut dyn Context<Msg<C>>) {
        // Re-proposals of stabilized commands must not re-enter the live
        // window (their membership entries were truncated away).
        if self.cfg.wire.compact_every > 0 && self.comp.contains_recent(&cmd) {
            return;
        }
        if self.cfg.schedule.kind(self.rnd) != RoundKind::Fast || self.vrnd != self.rnd {
            // Round not fast or not yet primed by Phase2Start: buffer.
            if !self.fast_buf.contains(&cmd) && !self.vval.contains(&cmd) {
                self.fast_buf.push(cmd);
            }
            return;
        }
        let before = self.vval.count();
        Arc::make_mut(&mut self.vval).append(cmd);
        if self.vval.count() != before {
            ctx.metric(Metric::incr(metrics::ACCEPTS));
            self.persist_vote(ctx);
        }
        self.broadcast_2b(ctx);
    }

    /// Uncoordinated recovery, step 1 (§4.2, spec B.5 `CollisionDetection`):
    /// on noticing incompatible gossiped "2b" values in fast round
    /// `round`, promise the successor round and broadcast a **binding**
    /// "1b" for it to every acceptor (each acceptor is a coordinator
    /// quorum of itself for fast recovery rounds).
    ///
    /// The binding 1b exchange costs one message step more than naively
    /// reusing the "2b" messages as "1b" evidence, but the naive variant
    /// is unsound here: generalized fast rounds accept *incrementally*
    /// (one accept per append), so an old "2b" snapshot is not the
    /// sender's final word for the collided round — exactly the trap §4.2
    /// warns about when porting Fast Paxos recovery to Generalized Paxos.
    fn detect_fast_collision(&mut self, round: Round, ctx: &mut dyn Context<Msg<C>>) {
        if self.cfg.schedule.kind(round) != RoundKind::Fast {
            return;
        }
        if compatible_all(self.round_2b.values(round)) {
            return;
        }
        let next = self.cfg.schedule.next(round);
        if next <= self.rnd {
            return; // already promised (or passed) the recovery round
        }
        ctx.metric(Metric::incr(metrics::COLLISION_FAST));
        match self.cfg.collision {
            // Uncoordinated: the successor round is fast and every
            // acceptor coordinates itself — exchange binding 1b among
            // acceptors and pick locally.
            CollisionPolicy::Uncoordinated => self.join_recovery(next, ctx),
            // Coordinated: the successor round is classic; promise it and
            // send the binding 1b to its coordinators, exactly as if a
            // "1a" for it had arrived (the §4.2 mechanism).
            CollisionPolicy::Coordinated => {
                self.rnd = next;
                self.persist_round(ctx);
                self.send_1b(next, ctx);
            }
            CollisionPolicy::NewRound => {}
        }
    }

    /// Promises recovery round `next` and broadcasts the binding "1b".
    fn join_recovery(&mut self, next: Round, ctx: &mut dyn Context<Msg<C>>) {
        self.rnd = next;
        self.persist_round(ctx);
        let me = ctx.me();
        let report = OneB {
            from: me,
            vrnd: self.vrnd,
            vval: self.vval.clone(),
        };
        self.recovery_1b.entry(next).or_default().insert(me, report);
        let peers: Vec<ProcessId> = self.fellows(me).collect();
        self.report_1b(&peers, next, ctx);
        self.try_complete_recovery(next, ctx);
        prune_rounds(&mut self.recovery_1b);
    }

    /// Uncoordinated recovery, step 2 (spec B.5 `UncoordinatedRecovery`):
    /// with binding "1b" reports from a classic quorum, pick a safe value
    /// locally and accept it in the fast recovery round.
    fn try_complete_recovery(&mut self, round: Round, ctx: &mut dyn Context<Msg<C>>) {
        if self.vrnd >= round || self.rnd > round {
            return;
        }
        let msgs: Vec<OneB<C>> = match self.recovery_1b.get(&round) {
            Some(m) if m.len() >= self.cfg.quorums.classic_size() => m.values().cloned().collect(),
            _ => return,
        };
        let sched = self.cfg.schedule.clone();
        let picked = pick(proved_safe(&msgs, &self.cfg.quorums, |r| sched.kind(r)));
        ctx.metric(Metric::incr(metrics::UNCOORDINATED_RECOVERIES));
        if !self.vval.is_bottom() && !self.vval.le(&picked) {
            ctx.metric(Metric::incr(metrics::OVERWRITTEN_VOTES));
        }
        self.rnd = round;
        self.vrnd = round;
        self.vval = Arc::new(picked);
        {
            let v = Arc::make_mut(&mut self.vval);
            for cmd in std::mem::take(&mut self.fast_buf) {
                v.append(cmd);
            }
        }
        self.persist_vote(ctx);
        self.persist_round(ctx);
        self.broadcast_2b(ctx);
    }
}

impl<C: CStruct> Receiver<C> for Acceptor<C> {
    fn compactor(&mut self) -> &mut Compactor<C> {
        &mut self.comp
    }

    fn realign(&mut self, ctx: &mut dyn Context<Msg<C>>) -> bool {
        self.apply_compaction(ctx)
    }
}

impl<C: CStruct> Actor for Acceptor<C> {
    type Msg = Msg<C>;

    fn on_start(&mut self, ctx: &mut dyn Context<Msg<C>>) {
        // §4.4: "acceptors write on disk only once, when they are started".
        match self.cfg.durability {
            Durability::Reduced => {
                ctx.storage().write(KEY_MAJOR, to_bytes(&0u32));
            }
            Durability::Naive => {
                ctx.storage().write(KEY_RND, to_bytes(&Round::ZERO));
            }
        }
        ctx.storage().flush();
        self.arm_resend(ctx);
    }

    fn on_recover(&mut self, ctx: &mut dyn Context<Msg<C>>) {
        // Log-level damage (torn or corrupt WAL tail) that the store
        // truncated away at replay: surface it for operators.
        let repaired = ctx.storage().corrupt_records();
        if repaired > 0 {
            ctx.metric(Metric::add(metrics::CORRUPT_RECORDS, repaired as i64));
        }
        // Copy records out before decoding: decode failures emit metrics,
        // which need `ctx` back.
        let vote_bytes: Option<Vec<u8>> = ctx.storage().read(KEY_VOTE).map(|b| b.to_vec());
        let mut have_vote = false;
        if let Some(bytes) = vote_bytes {
            match from_bytes::<(Round, C)>(&bytes) {
                Ok((vrnd, vval)) => {
                    self.vrnd = vrnd;
                    self.vval = Arc::new(vval);
                    have_vote = true;
                    // The persisted vote carries its watermark; resume
                    // compaction there (the normalization window refills
                    // from fresh Stable segments).
                    self.comp.resume(self.vval.watermark());
                }
                Err(_) => {
                    // Undecodable vote record: recover from bottom, as if
                    // the vote had never been flushed — a state every
                    // asynchronous run already tolerates. Crashing here
                    // (the old behavior) turned one bad record into a
                    // permanent crash loop.
                    ctx.metric(Metric::incr(metrics::CORRUPT_RECORDS));
                }
            }
        }
        match self.cfg.durability {
            Durability::Reduced => {
                let major_bytes: Option<Vec<u8>> =
                    ctx.storage().read(KEY_MAJOR).map(|b| b.to_vec());
                let major: u32 = match major_bytes {
                    Some(b) => from_bytes(&b).unwrap_or_else(|_| {
                        // Corrupt MCount: the vote's own round is the
                        // strongest surviving evidence of majors seen.
                        ctx.metric(Metric::incr(metrics::CORRUPT_RECORDS));
                        self.vrnd.major
                    }),
                    None if have_vote => {
                        // `on_start` writes MCount before any vote can be
                        // cast, so a surviving vote without it means the
                        // record was *lost*, not that we never started.
                        ctx.metric(Metric::incr(metrics::LOST_RECORDS));
                        self.vrnd.major
                    }
                    None => 0, // genuinely never started
                };
                // Resume one major epoch up: dominates every round we may
                // have promised in volatile state, then persist the bump.
                self.persisted_major = major + 1;
                self.rnd = Round::new(major + 1, 0, 0, crate::schedule::RTYPE_SINGLE);
                ctx.storage()
                    .write(KEY_MAJOR, to_bytes(&self.persisted_major));
                ctx.storage().flush();
            }
            Durability::Naive => {
                let rnd_bytes: Option<Vec<u8>> = ctx.storage().read(KEY_RND).map(|b| b.to_vec());
                self.rnd = match rnd_bytes {
                    Some(b) => from_bytes(&b).unwrap_or_else(|_| {
                        // Corrupt promise record: fall back to `vrnd`, the
                        // strongest promise with surviving evidence.
                        ctx.metric(Metric::incr(metrics::CORRUPT_RECORDS));
                        self.vrnd
                    }),
                    None if have_vote => {
                        // Naive mode persists `rnd` at startup: a vote
                        // without a promise record means the record was
                        // lost. Re-promising from zero here would let us
                        // answer old "1a"s we already promised past —
                        // distinguish "record lost" from "never started".
                        ctx.metric(Metric::incr(metrics::LOST_RECORDS));
                        self.vrnd
                    }
                    None => Round::ZERO, // genuinely never started
                };
                if self.rnd < self.vrnd {
                    self.rnd = self.vrnd;
                }
            }
        }
        // Announce the restart: our pre-crash ingest caches are gone, so
        // senders holding a delta base for us (coordinators' "2a" bases,
        // fellow acceptors' gossip "2b" bases) must downgrade to Full.
        let coords = self.cfg.roles.coordinators().iter().copied();
        let peers: Vec<ProcessId> = coords.chain(self.fellows(ctx.me())).collect();
        announce_restart(&self.cfg.wire, &peers, ctx);
    }

    fn on_message(&mut self, from: ProcessId, msg: Msg<C>, ctx: &mut dyn Context<Msg<C>>) {
        match msg {
            Msg::P1a { round } => {
                if round > self.rnd {
                    self.join(round, ctx);
                } else if round < self.rnd {
                    self.nack(from, ctx);
                }
            }
            Msg::P2a { round, val } => {
                if round < self.rnd {
                    self.nack(from, ctx);
                    return;
                }
                if self
                    .ingest(|a| &mut a.round_2a, from, round, val, ctx)
                    .is_some()
                {
                    self.try_accept_classic(round, from, ctx);
                }
            }
            // A batch is k consecutive proposals; in a fast round the
            // group-commit buffer (§4.4) amortizes the vote writes.
            Msg::Propose { cmd, .. } => self.try_accept_fast(cmd, ctx),
            Msg::ProposeBatch { cmds, .. } => {
                for cmd in cmds {
                    self.try_accept_fast(cmd, ctx);
                }
            }
            // Gossip from fellow acceptors: collision detection for
            // acceptor-driven recovery.
            Msg::P2b { round, val } if self.cfg.collision != CollisionPolicy::NewRound => {
                if self
                    .ingest(|a| &mut a.round_2b, from, round, val, ctx)
                    .is_none()
                {
                    return;
                }
                // Include our own vote in the picture.
                if self.vrnd == round {
                    self.round_2b.insert(round, ctx.me(), self.vval.clone());
                }
                self.detect_fast_collision(round, ctx);
            }
            // A fellow acceptor's binding recovery report (only sent
            // under uncoordinated recovery).
            Msg::P1b { round, vrnd, vval }
                if self.cfg.collision == CollisionPolicy::Uncoordinated
                    && self.cfg.schedule.kind(round) == RoundKind::Fast =>
            {
                // Recovery reports are always shipped full; anything
                // unresolvable is dropped (the exchange retries).
                let Some(vval) = self.resolve_full(from, round, vval, ctx) else {
                    return;
                };
                self.recovery_1b
                    .entry(round)
                    .or_default()
                    .insert(from, OneB { from, vrnd, vval });
                if round > self.rnd {
                    // Late to the party: promise and report too.
                    self.join_recovery(round, ctx);
                } else {
                    self.try_complete_recovery(round, ctx);
                }
                prune_rounds(&mut self.recovery_1b);
            }
            // A receiver could not apply one of our deltas.
            Msg::NeedFull { round } => {
                self.out
                    .resync(from, round, self.vrnd, Some(&self.vval), ctx);
            }
            Msg::Stable {
                from: seg_from,
                cmds,
            } if self.cfg.wire.compact_every > 0 => self.on_stable(from, seg_from, cmds, ctx),
            Msg::NeedStable { from: want } => self.on_need_stable(from, want, ctx),
            Msg::Hello => self.on_link_reset(from, ctx),
            _ => {}
        }
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut dyn Context<Msg<C>>) {
        if token == TOK_A_RESEND {
            // §A retransmission: rebroadcast the latest accepted value so
            // learners separated at decision time still converge.
            if !self.vrnd.is_zero() {
                self.broadcast_2b(ctx);
            }
            self.arm_resend(ctx);
        } else if token == TOK_FLUSH {
            // Group commit: a due flush first yields (a zero-tick re-arm),
            // so the deliveries already queued for this instant — the next
            // wave's "2a"s, typically — buffer their votes into this sync
            // instead of paying their own. Then release the deferred "2b".
            if !std::mem::replace(&mut self.flush_due, true) {
                ctx.set_timer(SimDuration::ZERO, TOK_FLUSH);
                return;
            }
            self.flush_due = false;
            self.flush_armed = false;
            self.release_2b(ctx);
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
    use crate::schedule::{Policy, RTYPE_MULTI, RTYPE_SINGLE};
    use crate::testctx::{cfg, mk};
    use mcpaxos_actor::host::Recorder;
    use mcpaxos_actor::{SimTime, WalStore};
    use mcpaxos_cstruct::CmdSet;

    type C = CmdSet<u32>;
    type Ctx = Recorder<Msg<C>>;

    fn ctx() -> Ctx {
        Recorder::new(4) // an acceptor in the 1/3/5/1 layout
    }

    #[test]
    fn phase1b_joins_higher_rounds_only() {
        let mut a: Acceptor<C> = Acceptor::new(cfg());
        let mut c = ctx();
        a.on_start(&mut c);
        let r1 = Round::new(0, 1, 0, RTYPE_MULTI);
        let r2 = Round::new(0, 2, 0, RTYPE_MULTI);
        a.on_message(ProcessId(1), Msg::P1a { round: r2 }, &mut c);
        assert_eq!(a.rnd(), r2);
        // 1b went to all three coordinators of the multi round.
        let onebs = c
            .sent
            .iter()
            .filter(|(_, m)| matches!(m, Msg::P1b { .. }))
            .count();
        assert_eq!(onebs, 3);
        // Lower round: nacked.
        a.on_message(ProcessId(1), Msg::P1a { round: r1 }, &mut c);
        assert!(matches!(c.sent.last().unwrap().1, Msg::RoundTooLow { .. }));
        assert_eq!(a.rnd(), r2);
    }

    #[test]
    fn accepts_after_full_coordinator_quorum() {
        let mut a: Acceptor<C> = Acceptor::new(cfg());
        let mut c = ctx();
        a.on_start(&mut c);
        let r = Round::new(0, 1, 0, RTYPE_MULTI); // quorum = 2 of 3
        a.on_message(
            ProcessId(1),
            Msg::P2a {
                round: r,
                val: mk(&[1, 2]).into(),
            },
            &mut c,
        );
        assert!(a.vval().is_bottom(), "one coordinator is not a quorum");
        a.on_message(
            ProcessId(2),
            Msg::P2a {
                round: r,
                val: mk(&[2, 3]).into(),
            },
            &mut c,
        );
        // glb({1,2},{2,3}) = {2} accepted.
        assert_eq!(a.vval(), &mk(&[2]));
        assert_eq!(a.vrnd(), r);
        // 2b went to learner l9 and coordinators c1..c3.
        let twobs = c
            .sent
            .iter()
            .filter(|(_, m)| matches!(m, Msg::P2b { .. }))
            .count();
        assert_eq!(twobs, 4);
        // Third coordinator joins: quorum glbs are {2} ({c1,c2}), {1,2}
        // ({c1,c3}) and {2,3} ({c2,c3}); the acceptor accepts their lub.
        a.on_message(
            ProcessId(3),
            Msg::P2a {
                round: r,
                val: mk(&[1, 2, 3]).into(),
            },
            &mut c,
        );
        assert_eq!(a.vval(), &mk(&[1, 2, 3]));
    }

    #[test]
    fn growing_cvals_grow_the_accepted_value() {
        let mut a: Acceptor<C> = Acceptor::new(cfg());
        let mut c = ctx();
        a.on_start(&mut c);
        let r = Round::new(0, 1, 0, RTYPE_MULTI);
        a.on_message(
            ProcessId(1),
            Msg::P2a {
                round: r,
                val: mk(&[1]).into(),
            },
            &mut c,
        );
        a.on_message(
            ProcessId(2),
            Msg::P2a {
                round: r,
                val: mk(&[1]).into(),
            },
            &mut c,
        );
        assert_eq!(a.vval(), &mk(&[1]));
        a.on_message(
            ProcessId(1),
            Msg::P2a {
                round: r,
                val: mk(&[1, 2]).into(),
            },
            &mut c,
        );
        a.on_message(
            ProcessId(2),
            Msg::P2a {
                round: r,
                val: mk(&[1, 2]).into(),
            },
            &mut c,
        );
        assert_eq!(a.vval(), &mk(&[1, 2]));
    }

    #[test]
    fn single_coordinated_round_needs_one_coordinator() {
        let mut a: Acceptor<C> = Acceptor::new(cfg());
        let mut c = ctx();
        a.on_start(&mut c);
        let r = Round::new(0, 1, 0, RTYPE_SINGLE);
        a.on_message(
            ProcessId(1),
            Msg::P2a {
                round: r,
                val: mk(&[9]).into(),
            },
            &mut c,
        );
        assert_eq!(a.vval(), &mk(&[9]));
    }

    #[test]
    fn disk_writes_reduced_vs_naive() {
        // Reduced: start = 1 write (major); joins don't write; accept = 1.
        let mut a: Acceptor<C> = Acceptor::new(cfg());
        let mut c = ctx();
        a.on_start(&mut c);
        assert_eq!(c.store.write_count(), 1);
        a.on_message(
            ProcessId(1),
            Msg::P1a {
                round: Round::new(0, 1, 0, RTYPE_MULTI),
            },
            &mut c,
        );
        assert_eq!(c.store.write_count(), 1, "Phase1b writes nothing (§4.4)");
        let r = Round::new(0, 2, 0, RTYPE_SINGLE);
        a.on_message(
            ProcessId(1),
            Msg::P2a {
                round: r,
                val: mk(&[1]).into(),
            },
            &mut c,
        );
        assert_eq!(c.store.write_count(), 2, "accept persists the vote");

        // Naive: every Phase1b writes too.
        let naive = Arc::new(
            DeployConfig::simple(1, 3, 5, 1, Policy::MultiCoordinated)
                .with_durability(Durability::Naive),
        );
        let mut a: Acceptor<C> = Acceptor::new(naive);
        let mut c = ctx();
        a.on_start(&mut c);
        let w0 = c.store.write_count();
        a.on_message(
            ProcessId(1),
            Msg::P1a {
                round: Round::new(0, 1, 0, RTYPE_MULTI),
            },
            &mut c,
        );
        assert_eq!(c.store.write_count(), w0 + 1, "naive persists rnd on 1b");
    }

    #[test]
    fn recovery_resumes_one_major_up() {
        let cfg = cfg();
        let mut a: Acceptor<C> = Acceptor::new(cfg.clone());
        let mut c = ctx();
        a.on_start(&mut c);
        let r = Round::new(0, 3, 0, RTYPE_SINGLE);
        a.on_message(
            ProcessId(1),
            Msg::P2a {
                round: r,
                val: mk(&[5]).into(),
            },
            &mut c,
        );
        // Crash: new acceptor over the same store.
        let mut a2: Acceptor<C> = Acceptor::new(cfg);
        a2.on_recover(&mut c);
        assert_eq!(a2.vval(), &mk(&[5]), "vote survives");
        assert_eq!(a2.vrnd(), r);
        assert_eq!(a2.rnd().major, 1, "resumes at major+1");
        // Old-epoch rounds are now too low.
        let stale = Round::new(0, 9, 0, RTYPE_SINGLE);
        let sent_before = c.sent.len();
        a2.on_message(ProcessId(1), Msg::P1a { round: stale }, &mut c);
        assert!(matches!(
            c.sent[sent_before..].last().unwrap().1,
            Msg::RoundTooLow { .. }
        ));
    }

    #[test]
    fn incompatible_coordinator_values_trigger_collision_round_change() {
        // Need a c-struct with possible incompatibility: use CmdSeq via
        // CommandHistory? CmdSet never collides — use SingleDecree.
        use mcpaxos_cstruct::SingleDecree;
        type S = SingleDecree<u32>;
        let cfg = Arc::new(DeployConfig::simple(1, 3, 5, 1, Policy::MultiCoordinated));
        let mut a: Acceptor<S> = Acceptor::new(cfg.clone());
        let mut c: Recorder<Msg<S>> = Recorder::new(4);
        a.on_start(&mut c);
        let r = Round::new(0, 1, 0, RTYPE_MULTI);
        a.on_message(
            ProcessId(1),
            Msg::P2a {
                round: r,
                val: SingleDecree::decided(1).into(),
            },
            &mut c,
        );
        a.on_message(
            ProcessId(2),
            Msg::P2a {
                round: r,
                val: SingleDecree::decided(2).into(),
            },
            &mut c,
        );
        // Collision: the acceptor jumps to next(r), a single-coordinated
        // round, and sends 1b to its owner.
        let next = cfg.schedule.next(r);
        assert_eq!(a.rnd(), next);
        let onebs: Vec<_> = c
            .sent
            .iter()
            .filter(|(_, m)| matches!(m, Msg::P1b { round, .. } if *round == next))
            .collect();
        assert_eq!(onebs.len(), 1);
        assert!(a.vval().is_bottom(), "nothing was accepted");
    }

    #[test]
    fn fast_appends_after_priming() {
        let cfg = Arc::new(DeployConfig::simple(1, 1, 5, 1, Policy::FastForever));
        let mut a: Acceptor<C> = Acceptor::new(cfg.clone());
        let mut c = ctx();
        a.on_start(&mut c);
        // Proposal before the round is primed: buffered.
        a.on_message(
            ProcessId(0),
            Msg::Propose {
                cmd: 9,
                acc_quorum: None,
            },
            &mut c,
        );
        assert!(a.vval().is_bottom());
        // Owner primes the fast round with ⊥ via Phase2Start.
        let r = cfg.schedule.initial(0, 0);
        assert_eq!(cfg.schedule.kind(r), RoundKind::Fast);
        a.on_message(
            ProcessId(1),
            Msg::P2a {
                round: r,
                val: C::bottom().into(),
            },
            &mut c,
        );
        // Buffered proposal folded in immediately.
        assert_eq!(a.vval(), &mk(&[9]));
        assert_eq!(a.vrnd(), r);
        // Later proposals append directly (Phase2bFast).
        a.on_message(
            ProcessId(0),
            Msg::Propose {
                cmd: 11,
                acc_quorum: None,
            },
            &mut c,
        );
        assert_eq!(a.vval(), &mk(&[9, 11]));
    }

    /// The group-commit window of the tests below; most run at a zero
    /// window too, where each vote is released as soon as it is written.
    const GC: SimDuration = SimDuration(2);

    /// A started acceptor over a buffering WAL with group-commit window
    /// `gc`, and its store's sync count once started (its timer list
    /// starts empty).
    fn group_committing(gc: SimDuration) -> (Acceptor<C>, Ctx, u64) {
        let cfg = Arc::new(
            DeployConfig::simple(1, 3, 5, 1, Policy::MultiCoordinated).with_group_commit(gc),
        );
        let mut a = Acceptor::new(cfg);
        let mut c = ctx();
        c.store = Box::new(WalStore::new());
        a.on_start(&mut c);
        assert_eq!(c.store.write_count(), 1, "the start-up write is synced");
        c.timers.clear(); // the resend timer
        (a, c, 1)
    }

    /// Fires a window's flush timer to its release (the yield, then the
    /// sync); a zero window armed none.
    fn release(a: &mut Acceptor<C>, c: &mut Ctx, gc: SimDuration) {
        if gc.ticks() > 0 {
            for _ in 0..2 {
                a.on_timer(TOK_FLUSH, c);
            }
        }
    }

    /// A single-coordinated "2a" of `cmds`, which one coordinator makes
    /// acceptable.
    fn p2a(cmds: &[u32]) -> Msg<C> {
        let round = Round::new(0, 1, 0, RTYPE_SINGLE);
        Msg::P2a {
            round,
            val: mk(cmds).into(),
        }
    }

    /// The values of the "2b"s sent so far.
    fn twobs(c: &Ctx) -> Vec<C> {
        c.sent
            .iter()
            .filter_map(|(_, m)| match m {
                Msg::P2b { val, .. } => Some((**val.as_full().expect("full")).clone()),
                _ => None,
            })
            .collect()
    }

    /// The vote a crash right now would keep.
    fn durable_vote(c: &Ctx) -> C {
        let flushed = c.store.flushed_read(KEY_VOTE).expect("vote synced");
        from_bytes::<(Round, C)>(flushed).expect("decodes").1
    }

    #[test]
    fn a_due_flush_lets_same_instant_deliveries_share_its_sync() {
        let (mut a, mut c, synced) = group_committing(GC);
        c.now = SimTime(10);
        a.on_message(ProcessId(1), p2a(&[1]), &mut c);
        assert_eq!(c.timers, [(GC, TOK_FLUSH)]);
        // Due at 12, the flush first yields for zero ticks ...
        c.now = SimTime(12);
        a.on_timer(TOK_FLUSH, &mut c);
        assert_eq!(c.timers[1..], [(SimDuration::ZERO, TOK_FLUSH)]);
        // ... so the "2a" delivered at the same instant buffers its vote
        // into the same sync instead of arming one of its own.
        a.on_message(ProcessId(1), p2a(&[1, 2]), &mut c);
        assert_eq!(c.timers.len(), 2);
        assert_eq!(c.store.write_count(), synced);
        assert!(twobs(&c).is_empty(), "no 2b before its flush");
        a.on_timer(TOK_FLUSH, &mut c);
        assert_eq!(c.store.write_count(), synced + 1, "one sync for both");
        // One "2b" wave (learner and three coordinators) covers both.
        assert_eq!(twobs(&c), vec![mk(&[1, 2]); 4]);
        assert_eq!(durable_vote(&c), mk(&[1, 2]));
    }

    #[test]
    fn a_lone_vote_is_synced_within_the_window_and_before_its_2b() {
        for gc in [SimDuration::ZERO, GC] {
            let (mut a, mut c, synced) = group_committing(gc);
            c.now = SimTime(10);
            a.on_message(ProcessId(1), p2a(&[7]), &mut c);
            if gc.ticks() > 0 {
                for _ in 0..2 {
                    assert_eq!(c.store.write_count(), synced);
                    assert!(twobs(&c).is_empty(), "no 2b before its flush");
                    a.on_timer(TOK_FLUSH, &mut c);
                }
            }
            assert_eq!(c.store.write_count(), synced + 1);
            let waited: u64 = c.timers.iter().map(|(after, _)| after.ticks()).sum();
            assert_eq!(waited, gc.ticks(), "the yield adds no ticks");
            assert_eq!(twobs(&c), vec![mk(&[7]); 4]);
            assert_eq!(durable_vote(&c), mk(&[7]));
        }
    }

    /// A "2a" of `cmds` for a multicoordinated round (two of the three
    /// coordinators are a quorum).
    fn p2a_mc(cmds: &[u32]) -> Msg<C> {
        Msg::P2a {
            round: Round::new(0, 1, 0, RTYPE_MULTI),
            val: mk(cmds).into(),
        }
    }

    #[test]
    fn a_covered_2a_defers_a_2b_with_no_write_and_no_accept() {
        for gc in [SimDuration::ZERO, GC] {
            let (mut a, mut c, synced) = group_committing(gc);
            a.on_message(ProcessId(1), p2a_mc(&[1, 2]), &mut c);
            a.on_message(ProcessId(2), p2a_mc(&[1, 2, 3]), &mut c);
            assert_eq!(a.vval(), &mk(&[1, 2]));
            release(&mut a, &mut c, gc);
            assert_eq!(c.store.write_count(), synced + 1);
            let accepts = c.metric_count(metrics::ACCEPTS);
            c.sent.clear();
            c.timers.clear();
            // The vote {1, 2} covers c3's {2} and c1's re-sent {1, 2}.
            a.on_message(ProcessId(3), p2a_mc(&[2]), &mut c);
            a.on_message(ProcessId(1), p2a_mc(&[1, 2]), &mut c);
            if gc.ticks() > 0 {
                assert!(twobs(&c).is_empty(), "no 2b before its flush");
                assert_eq!(c.timers, [(GC, TOK_FLUSH)]);
            }
            release(&mut a, &mut c, gc);
            assert_eq!(c.store.write_count(), synced + 1, "nothing to sync");
            assert_eq!(c.metric_count(metrics::ACCEPTS), accepts);
            // One "2b" wave for both in a window, else one per covered "2a".
            let waves = if gc.ticks() > 0 { 1 } else { 2 };
            assert_eq!(twobs(&c), vec![mk(&[1, 2]); 4 * waves]);
        }
    }

    #[test]
    fn a_fast_round_takes_the_full_path() {
        let cfg = Arc::new(DeployConfig::simple(1, 1, 5, 1, Policy::FastForever));
        let mut a: Acceptor<C> = Acceptor::new(cfg.clone());
        let mut c = ctx();
        a.on_start(&mut c);
        let r = cfg.schedule.initial(0, 0);
        let prime = || Msg::P2a {
            round: r,
            val: C::bottom().into(),
        };
        a.on_message(ProcessId(1), prime(), &mut c);
        assert_eq!(a.vrnd(), r);
        // A buffered proposal: a "2a" the vote covers still folds in
        // whatever is buffered.
        a.fast_buf.push(9);
        a.on_message(ProcessId(1), prime(), &mut c);
        assert_eq!(a.vval(), &mk(&[9]));
    }

    #[test]
    fn a_colliding_2a_is_detected_even_when_the_vote_covers_it() {
        use mcpaxos_cstruct::SingleDecree;
        type S = SingleDecree<u32>;
        let cfg = cfg();
        let mut a: Acceptor<S> = Acceptor::new(cfg.clone());
        let mut c: Recorder<Msg<S>> = Recorder::new(4);
        a.on_start(&mut c);
        let r = Round::new(0, 1, 0, RTYPE_MULTI);
        let decided = |v| Msg::P2a {
            round: r,
            val: S::decided(v).into(),
        };
        a.on_message(ProcessId(1), decided(1), &mut c);
        a.on_message(ProcessId(2), decided(1), &mut c);
        assert_eq!(a.vval(), &S::decided(1));
        // c3's incompatible report beside the vote, as a collision under
        // `NewRound` leaves one.
        a.round_2a.insert(r, ProcessId(3), Arc::new(S::decided(2)));
        // c1's re-sent value is covered, and collides with c3's.
        a.on_message(ProcessId(1), decided(1), &mut c);
        assert_eq!(c.metric_count(metrics::COLLISION_MC), 1);
        assert_eq!(a.rnd(), cfg.schedule.next(r));
    }
}
