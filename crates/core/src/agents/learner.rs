//! The learner agent.
//!
//! A learner collects phase "2b" messages; when an acceptor quorum for a
//! round has reported, the glb of the quorum's values is *chosen* and the
//! learner extends `learned[l]` with it (action `Learn(l)` of §3.2).
//!
//! Because different quorums may be completed by different subsets of the
//! received reports, the learner considers quorum-sized subsets of the
//! reporting acceptors and takes the lub of their glbs — every such glb is
//! chosen, and by Proposition 1 the chosen set is compatible, so the lub
//! exists (a failure here is a hard safety-violation signal, valuable in
//! tests).
//!
//! The subset glbs are maintained *incrementally*: each round caches its
//! per-subset glbs keyed by the acceptor set, and a "2b" arrival updates
//! only the subsets containing the sender (a subset not containing it
//! cannot have changed), folding only glbs that actually moved into
//! `learned`. This replaces the seed's recompute-every-subset-from-full-
//! clones on every message; `tests/learner_diff.rs` pins the two against
//! each other.
//!
//! A *covered* report — one `learned` already extends — skips the sweep
//! altogether: every glb it joins is ⊑ the report ⊑ `learned`, so no fold
//! could grow `learned`. The cached glbs it leaves stale are only ever
//! compared for equality before an idempotent lub, so a stale entry costs
//! at most one no-op fold later.

use crate::agents::{metrics, TOK_STABLE_GOSSIP};
use crate::compact::{Compactor, STABLE_KEEP};
use crate::config::DeployConfig;
use crate::msg::Msg;
use crate::quorum::{combination_count, for_each_combination};
use crate::round::Round;
use crate::ship::{announce_restart, Inbox, Receiver};
use mcpaxos_actor::{Actor, Context, Metric, ProcessId, SimTime, TimerToken};
use mcpaxos_cstruct::{glb_all_ref, CStruct};
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::Arc;

/// Above this many quorum subsets, fall back to one conservative glb.
const MAX_QUORUM_ENUM: u64 = 5_000;

/// The learner role.
pub struct Learner<C: CStruct> {
    cfg: Arc<DeployConfig>,
    learned: C,
    /// Latest "2b" value per acceptor, per round.
    reports: Inbox<C>,
    /// Per round the inbox keeps: the cached glb of each quorum-sized
    /// reporter subset, keyed by the (sorted) acceptor set. An entry is
    /// recomputed only when a member's report changes.
    glbs: BTreeMap<Round, BTreeMap<Vec<ProcessId>, C>>,
    notified: HashSet<C::Cmd>,
    history: Vec<(SimTime, usize)>,
    /// Stable-prefix compaction state.
    comp: Compactor<C>,
    /// Designated-learner bookkeeping: the stable segment currently
    /// proposed to the other learners, and the acks received for it.
    my_prop: Option<(u64, Vec<C::Cmd>)>,
    prop_acks: BTreeSet<ProcessId>,
    /// Segments proposed *to* us, awaiting containment in `learned`
    /// before we ack: segment start → (proposer, commands).
    #[allow(clippy::type_complexity)]
    pending_props: BTreeMap<u64, (ProcessId, Vec<C::Cmd>)>,
    /// Segments we (as designated learner) have finalized, kept for
    /// periodic re-gossip: a `Stable` lost to one agent would otherwise
    /// strand it behind the watermark forever.
    sent_segs: std::collections::VecDeque<(u64, Vec<C::Cmd>)>,
}

impl<C: CStruct> Learner<C> {
    /// Creates a learner for the given deployment.
    pub fn new(cfg: Arc<DeployConfig>) -> Self {
        let comp = Compactor::default();
        Learner {
            cfg,
            learned: C::bottom(),
            reports: Inbox::default(),
            glbs: BTreeMap::new(),
            notified: HashSet::new(),
            history: Vec::new(),
            comp,
            my_prop: None,
            prop_acks: BTreeSet::new(),
            pending_props: BTreeMap::new(),
            sent_segs: std::collections::VecDeque::new(),
        }
    }

    /// The c-struct learned so far.
    pub fn learned(&self) -> &C {
        &self.learned
    }

    /// The stable watermark this learner has truncated below.
    pub fn watermark(&self) -> u64 {
        self.comp.watermark()
    }

    /// Resumes a restarted learner at a checkpoint `watermark`: the
    /// history below it no longer exists in the deployment, so `learned`
    /// restarts as the empty extension of that stable prefix and catches
    /// up through [`crate::Msg::Stable`] segments (requested via
    /// [`crate::Msg::NeedStable`]) and live `2b` traffic.
    pub fn resume_at(&mut self, watermark: u64) {
        self.learned = C::bottom_at(watermark);
        self.comp.resume(watermark);
    }

    /// `(time, learned-command-count)` pairs recorded whenever the learned
    /// value grew; the raw data for the latency experiments.
    pub fn history(&self) -> &[(SimTime, usize)] {
        &self.history
    }

    /// Folds one chosen value into `learned`; returns whether it grew.
    fn absorb(learned: &mut C, g: &C, round: Round) -> bool {
        let merged = learned.lub(g).unwrap_or_else(|| {
            panic!(
                "CONSISTENCY VIOLATION: learned value incompatible with chosen value \
                 at {round:?}: learned={learned:?} chosen={g:?}"
            )
        });
        if merged != *learned {
            *learned = merged;
            true
        } else {
            false
        }
    }

    /// Incremental `Learn(l)`: after `from`'s report for `round` changed,
    /// refresh the cached glbs of the quorum-sized subsets containing
    /// `from` and fold the ones that moved into `learned`.
    fn try_learn(&mut self, round: Round, from: ProcessId, ctx: &mut dyn Context<Msg<C>>) {
        let kind = self.cfg.schedule.kind(round);
        let qsize = self.cfg.quorums.size_for(kind);
        let Some(reports) = self.reports.round(round).filter(|m| m.len() >= qsize) else {
            return;
        };
        let learned = &mut self.learned;
        let mut grew = false;
        let ids: Vec<ProcessId> = reports.keys().copied().collect();
        if combination_count(ids.len(), qsize) <= MAX_QUORUM_ENUM {
            let glbs = self.glbs.entry(round).or_default();
            for_each_combination(ids.len(), qsize, |idx| {
                // Subsets not containing the changed reporter kept their
                // cached glb — skip them without touching any c-struct.
                if !idx.iter().any(|&i| ids[i] == from) {
                    return true;
                }
                let key: Vec<ProcessId> = idx.iter().map(|&i| ids[i]).collect();
                let g = glb_all_ref(key.iter().map(|p| reports[p].as_ref()));
                if glbs.get(&key) != Some(&g) {
                    grew |= Self::absorb(learned, &g, round);
                    glbs.insert(key, g);
                }
                true
            });
        } else {
            // Conservative: the glb over all reports is a lower bound of
            // every quorum's glb, hence also chosen.
            let g = glb_all_ref(reports.values().map(|v| v.as_ref()));
            grew |= Self::absorb(learned, &g, round);
        }
        if grew {
            let count = self.learned.total_len() as usize;
            self.history.push((ctx.now(), count));
            ctx.metric(Metric::add(metrics::LEARNED, count as i64));
            // Tell the proposers, so their retransmission stops.
            let new: Vec<C::Cmd> = self
                .learned
                .commands()
                .into_iter()
                .filter(|c| !self.notified.contains(c))
                .collect();
            if !new.is_empty() {
                self.notified.extend(new.iter().cloned());
                let proposers = self.cfg.roles.proposers().to_vec();
                ctx.multicast(&proposers, Msg::Learned { cmds: new });
            }
            self.try_ack_pending(ctx);
            self.maybe_propose(ctx);
        }
    }

    // ----- stable-watermark gossip (compaction) ---------------------------

    /// Applies pending stable segments to `learned` and brings the
    /// per-round bookkeeping to the new watermark. Runs at the *start* of
    /// every upcall, so a host that drains newly learned commands after
    /// each message (a replica's delivery cursor) always observes a
    /// segment in the live window before it is truncated.
    fn compact_tick(&mut self, ctx: &mut dyn Context<Msg<C>>) {
        if self.cfg.wire.compact_every == 0 {
            return;
        }
        // Checkpoint-restored catch-up: an empty-at-watermark learner
        // adopts the next quorum-finalized segment as learned, and leaves
        // it in the live window for this upcall so a replica host can
        // drain it; the truncation then happens on a later tick.
        if self.comp.adopt_into(&mut self.learned) {
            return;
        }
        let notified = &mut self.notified;
        let applied = self.comp.advance(&mut self.learned, |seg| {
            for c in seg {
                notified.remove(c);
            }
        });
        if applied == 0 {
            return;
        }
        ctx.metric(Metric::add(metrics::TRUNCATIONS, applied as i64));
        let comp = &self.comp;
        self.reports.follow(comp);
        for glbs in self.glbs.values_mut() {
            glbs.retain(|_, g| comp.normalize(g));
        }
        let w = self.comp.watermark();
        self.pending_props.retain(|&s, _| s >= w);
    }

    /// Designated-learner duty: once `compact_every` commands sit above
    /// the watermark, propose the next stable segment to the other
    /// learners (a single-learner deployment self-acks immediately).
    fn maybe_propose(&mut self, ctx: &mut dyn Context<Msg<C>>) {
        let every = self.cfg.wire.compact_every;
        if every == 0 || self.my_prop.is_some() {
            return;
        }
        let me = ctx.me();
        if self.cfg.roles.learners().first() != Some(&me) {
            return;
        }
        let w = self.comp.watermark();
        if self.learned.total_len().saturating_sub(w) < every {
            return;
        }
        let seg = match self.learned.stable_segment(w, every as usize) {
            Some(s) => s,
            None => return, // c-struct without a stable representation
        };
        self.my_prop = Some((w, seg.clone()));
        self.prop_acks.clear();
        self.prop_acks.insert(me);
        if self.prop_acks.len() >= self.cfg.learner_quorum() {
            self.finalize_stable(ctx);
        } else {
            self.send_proposal(w, seg, ctx);
        }
    }

    /// Multicasts `msg` to every one of `to` but this learner.
    fn multicast_others<'a>(
        to: impl Iterator<Item = &'a ProcessId>,
        msg: Msg<C>,
        ctx: &mut dyn Context<Msg<C>>,
    ) {
        let me = ctx.me();
        let to: Vec<ProcessId> = to.copied().filter(|&p| p != me).collect();
        ctx.multicast(&to, msg);
    }

    /// Proposes the stable segment `cmds` at `from` to the other learners.
    fn send_proposal(&self, from: u64, cmds: Vec<C::Cmd>, ctx: &mut dyn Context<Msg<C>>) {
        let learners = self.cfg.roles.learners().iter();
        Self::multicast_others(learners, Msg::StableProposal { from, cmds }, ctx);
    }

    /// Announces the quorum-learned segment `cmds` at `from` to every agent.
    fn send_stable(&self, from: u64, cmds: Vec<C::Cmd>, ctx: &mut dyn Context<Msg<C>>) {
        let roles = &self.cfg.roles;
        let everyone = roles
            .acceptors()
            .iter()
            .chain(roles.coordinators())
            .chain(roles.learners());
        Self::multicast_others(everyone, Msg::Stable { from, cmds }, ctx);
    }

    /// A learner quorum has learned the proposed segment: broadcast the
    /// watermark to every agent and schedule our own truncation.
    fn finalize_stable(&mut self, ctx: &mut dyn Context<Msg<C>>) {
        let (w, seg) = match self.my_prop.take() {
            Some(p) => p,
            None => return,
        };
        self.prop_acks.clear();
        self.send_stable(w, seg.clone(), ctx);
        self.sent_segs.push_back((w, seg.clone()));
        while self.sent_segs.len() > STABLE_KEEP {
            self.sent_segs.pop_front();
        }
        // Our own truncation applies at the next upcall (compact_tick).
        self.comp.offer(w, seg);
    }

    /// Re-gossips recent stable segments and the outstanding proposal:
    /// one lost `Stable` or `StableProposal` must not strand an agent
    /// behind the watermark (fair-lossy links).
    fn regossip_stable(&mut self, ctx: &mut dyn Context<Msg<C>>) {
        // Only the newest segment rides the timer: an agent further
        // behind discovers it through the ahead-watermark traffic and
        // requests the gap explicitly (`NeedStable`), so steady-state
        // control traffic stays O(segment) per tick, not O(window).
        if let Some((w, seg)) = self.sent_segs.back() {
            self.send_stable(*w, seg.clone(), ctx);
        }
        if let Some((w, seg)) = &self.my_prop {
            self.send_proposal(*w, seg.clone(), ctx);
        }
    }

    fn arm_stable_gossip(&self, ctx: &mut dyn Context<Msg<C>>) {
        let every = self.cfg.timing.acceptor_resend;
        if self.cfg.wire.compact_every > 0
            && every.ticks() > 0
            && self.cfg.roles.learners().first() == Some(&ctx.me())
        {
            ctx.set_timer(every, TOK_STABLE_GOSSIP);
        }
    }

    /// Acks every pending proposal whose segment `learned` now contains.
    fn try_ack_pending(&mut self, ctx: &mut dyn Context<Msg<C>>) {
        if self.pending_props.is_empty() {
            return;
        }
        let w = self.comp.watermark();
        let mut done: Vec<u64> = Vec::new();
        for (&s, (proposer, cmds)) in &self.pending_props {
            if s < w {
                done.push(s); // already truncated past it
            } else if cmds.iter().all(|c| self.learned.contains(c)) {
                ctx.send(*proposer, Msg::StableAck { upto: s });
                done.push(s);
            }
        }
        for s in done {
            self.pending_props.remove(&s);
        }
    }
}

impl<C: CStruct> Receiver<C> for Learner<C> {
    fn compactor(&mut self) -> &mut Compactor<C> {
        &mut self.comp
    }

    /// Nothing to do: `compact_tick` runs at the start of every upcall and
    /// nothing can become applicable before the next one — which is also
    /// what lets the host drain a segment before it is truncated.
    fn realign(&mut self, _ctx: &mut dyn Context<Msg<C>>) -> bool {
        false
    }
}

impl<C: CStruct> Actor for Learner<C> {
    type Msg = Msg<C>;

    fn on_start(&mut self, ctx: &mut dyn Context<Msg<C>>) {
        self.arm_stable_gossip(ctx);
    }

    fn on_recover(&mut self, ctx: &mut dyn Context<Msg<C>>) {
        // Acceptors hold "2b" delta bases for this learner; the restart
        // invalidated them on our side. Announce it so they downgrade to
        // Full payloads instead of waiting for our `NeedFull`.
        announce_restart(&self.cfg.wire, self.cfg.roles.acceptors(), ctx);
        self.on_start(ctx);
    }

    fn on_message(&mut self, from: ProcessId, msg: Msg<C>, ctx: &mut dyn Context<Msg<C>>) {
        self.compact_tick(ctx);
        match msg {
            Msg::P2b { round, val } => {
                // Resolve full or delta payloads against the acceptor's
                // last report; the `changed` flag subsumes the old
                // duplicate-delivery fast path (an identical re-delivery
                // cannot move any glb, so the subset sweep is skipped).
                let Some(got) = self.ingest(|l| &mut l.reports, from, round, val, ctx) else {
                    return;
                };
                let reports = &self.reports;
                self.glbs.retain(|r, _| reports.round(*r).is_some());
                // A report `learned` covers cannot grow it: every glb it
                // joins is below it. Its subsets keep their cached glbs.
                let (val, changed) = (got.val, got.changed);
                let covered =
                    changed && val.watermark() == self.learned.watermark() && val.le(&self.learned);
                if changed && !covered {
                    self.try_learn(round, from, ctx);
                }
            }
            Msg::StableProposal { from: s, cmds }
                if self.cfg.wire.compact_every > 0 && s >= self.comp.watermark() =>
            {
                self.pending_props.insert(s, (from, cmds));
                while self.pending_props.len() > 2 * STABLE_KEEP {
                    let last = *self.pending_props.keys().next_back().expect("non-empty");
                    self.pending_props.remove(&last);
                }
                self.try_ack_pending(ctx);
            }
            Msg::StableAck { upto } => {
                if matches!(&self.my_prop, Some((w, _)) if *w == upto) {
                    self.prop_acks.insert(from);
                    if self.prop_acks.len() >= self.cfg.learner_quorum() {
                        self.finalize_stable(ctx);
                    }
                }
            }
            Msg::Stable { from: s, cmds } if self.cfg.wire.compact_every > 0 => {
                // A crash-recovered learner that has learned nothing yet
                // fast-forwards to the announced frontier: the segments
                // below it may no longer be retained anywhere, and an
                // empty learner loses nothing by re-anchoring. (A replica
                // host without a checkpoint fails loudly at its delivery
                // cursor instead of diverging silently.)
                if self.comp.watermark() == 0 && self.learned.total_len() == 0 && s > 0 {
                    self.resume_at(s);
                }
                // Applied at the next upcall's compact_tick, after the
                // host had a chance to drain the live window.
                self.on_stable(from, s, cmds, ctx);
            }
            Msg::NeedStable { from: want } => self.on_need_stable(from, want, ctx),
            _ => {}
        }
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut dyn Context<Msg<C>>) {
        self.compact_tick(ctx);
        if token == TOK_STABLE_GOSSIP {
            self.regossip_stable(ctx);
            self.arm_stable_gossip(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{Policy, RTYPE_MULTI};
    use crate::testctx::mk;
    use mcpaxos_actor::host::Recorder;
    use mcpaxos_cstruct::{CmdSet, SingleDecree};

    /// A learner-side context at time `now`.
    fn ctx_at<M>(now: u64) -> Recorder<M> {
        let mut c = Recorder::new(42);
        c.now = SimTime(now);
        c
    }

    #[test]
    fn learns_glb_of_quorum() {
        // 3 acceptors (ids 4,5,6 in disjoint layout 1/3/3/1), majority 2.
        let cfg = Arc::new(DeployConfig::simple(1, 3, 3, 1, Policy::MultiCoordinated));
        let mut l: Learner<CmdSet<u32>> = Learner::new(cfg);
        let mut c = ctx_at(5);
        let r = Round::new(0, 1, 0, RTYPE_MULTI);
        let acc = |i: u32| ProcessId(3 + i);
        l.on_message(
            acc(1),
            Msg::P2b {
                round: r,
                val: mk(&[1, 2]).into(),
            },
            &mut c,
        );
        assert!(l.learned().is_bottom(), "one report is not a quorum");
        l.on_message(
            acc(2),
            Msg::P2b {
                round: r,
                val: mk(&[2, 3]).into(),
            },
            &mut c,
        );
        // glb({1,2},{2,3}) = {2} chosen.
        assert_eq!(l.learned(), &mk(&[2]));
        // Third report: quorums {a1,a3}, {a2,a3}, {a1,a2} → lub of glbs.
        l.on_message(
            acc(3),
            Msg::P2b {
                round: r,
                val: mk(&[1, 2, 3]).into(),
            },
            &mut c,
        );
        assert_eq!(l.learned(), &mk(&[1, 2, 3]));
        assert_eq!(l.history().len(), 2);
        assert_eq!(l.history()[0], (SimTime(5), 1));
    }

    #[test]
    fn notifies_proposers_once_per_command() {
        let cfg = Arc::new(DeployConfig::simple(1, 3, 3, 1, Policy::MultiCoordinated));
        let mut l: Learner<CmdSet<u32>> = Learner::new(cfg);
        let mut c = ctx_at(1);
        let r = Round::new(0, 1, 0, RTYPE_MULTI);
        let acc = |i: u32| ProcessId(3 + i);
        l.on_message(
            acc(1),
            Msg::P2b {
                round: r,
                val: mk(&[7]).into(),
            },
            &mut c,
        );
        l.on_message(
            acc(2),
            Msg::P2b {
                round: r,
                val: mk(&[7]).into(),
            },
            &mut c,
        );
        let notif: Vec<_> = c
            .sent
            .iter()
            .filter(|(_, m)| matches!(m, Msg::Learned { .. }))
            .collect();
        assert_eq!(notif.len(), 1, "one proposer, one notification");
        // Re-delivery does not re-notify.
        l.on_message(
            acc(1),
            Msg::P2b {
                round: r,
                val: mk(&[7]).into(),
            },
            &mut c,
        );
        let notif2 = c
            .sent
            .iter()
            .filter(|(_, m)| matches!(m, Msg::Learned { .. }))
            .count();
        assert_eq!(notif2, 1);
    }

    /// `C::bottom_at` cannot know the digest chain through the watermark,
    /// so a checkpoint-restored learner's `learned` must never be a delta
    /// base: the learner ships no c-struct at all, whatever it receives.
    #[test]
    fn a_resumed_learner_never_ships_its_learned_value() {
        use crate::config::WireConfig;
        use crate::ship::Payload;
        use crate::testctx::{h, H};
        let cfg = DeployConfig::simple(1, 3, 3, 1, Policy::MultiCoordinated)
            .with_wire(WireConfig::bounded(4));
        let mut l: Learner<H> = Learner::new(Arc::new(cfg));
        l.resume_at(8);
        let mut c = ctx_at(3);
        let r = Round::new(0, 1, 0, RTYPE_MULTI);
        let acc = |i: u32| ProcessId(3 + i);
        let at_8 = |n: u16| {
            let mut v = h(n);
            assert!(v.truncate_stable(h(8).as_slice()));
            v
        };
        for a in [1, 2] {
            let val = at_8(12).into();
            l.on_message(acc(a), Msg::P2b { round: r, val }, &mut c);
        }
        assert_eq!(l.learned().total_len(), 12);
        let suffix = h(14).as_slice()[12..].to_vec();
        let digest = at_8(14).digest();
        for a in [1, 2] {
            let val = Payload::Delta {
                base_len: 12,
                digest,
                suffix: suffix.clone(),
            };
            l.on_message(acc(a), Msg::P2b { round: r, val }, &mut c);
        }
        assert_eq!(l.learned().total_len(), 14);
        let cmds = h(12).as_slice()[8..].to_vec();
        l.on_message(acc(1), Msg::Stable { from: 8, cmds }, &mut c);
        for msg in [
            Msg::NeedFull { round: r },
            Msg::NeedStable { from: 8 },
            Msg::Hello,
        ] {
            l.on_message(acc(3), msg, &mut c);
        }
        l.on_timer(TOK_STABLE_GOSSIP, &mut c);
        assert!(!c.sent.is_empty());
        for (_, m) in &c.sent {
            assert!(
                !matches!(m, Msg::P1b { .. } | Msg::P2a { .. } | Msg::P2b { .. }),
                "{m:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "CONSISTENCY VIOLATION")]
    fn incompatible_chosen_values_panic() {
        // Force the impossible: two quorums choosing incompatible values
        // (single-decree consensus with different decisions). The learner
        // must detect and loudly fail.
        let cfg = Arc::new(DeployConfig::simple(1, 3, 3, 1, Policy::MultiCoordinated));
        let mut l: Learner<SingleDecree<u32>> = Learner::new(cfg);
        let mut c = ctx_at(0);
        let r1 = Round::new(0, 1, 0, RTYPE_MULTI);
        let r2 = Round::new(0, 2, 0, RTYPE_MULTI);
        let acc = |i: u32| ProcessId(3 + i);
        let dec = SingleDecree::decided;
        l.on_message(
            acc(1),
            Msg::P2b {
                round: r1,
                val: dec(1).into(),
            },
            &mut c,
        );
        l.on_message(
            acc(2),
            Msg::P2b {
                round: r1,
                val: dec(1).into(),
            },
            &mut c,
        );
        l.on_message(
            acc(1),
            Msg::P2b {
                round: r2,
                val: dec(2).into(),
            },
            &mut c,
        );
        l.on_message(
            acc(2),
            Msg::P2b {
                round: r2,
                val: dec(2).into(),
            },
            &mut c,
        );
    }
}
