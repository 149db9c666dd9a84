//! The proposer agent.
//!
//! Proposers take commands from clients (the hosting application calls
//! [`Msg::Propose`] at them) and forward them to the round machinery:
//! to every coordinator, and — because rounds may be fast — to every
//! acceptor (§2.2: "proposers should send their propose messages to both
//! coordinators and acceptors"). Under §4.1 load balancing the proposer
//! instead picks one coordinator quorum and one acceptor quorum per
//! batch and pins the acceptor choice in the message. Commands travel in
//! batches of up to `BatchConfig::batch_size`: a lone command as
//! [`Msg::Propose`], more as one [`Msg::ProposeBatch`].
//!
//! Proposers retransmit pending commands until a learner reports them
//! learned. Coordinators drop a proposal already in flight, so what
//! recovers a lost "2a" or "2b" under fair-lossy links is the leader's
//! stall detector (its round change re-seeds every outstanding command),
//! the acceptors' periodic "2b" rebroadcast and `NeedFull` for a lost
//! delta base.

use crate::agents::{metrics, Linger, TOK_BATCH, TOK_RESEND};
use crate::config::DeployConfig;
use crate::msg::Msg;
use mcpaxos_actor::{Actor, Backoff, Context, Metric, ProcessId, TimerToken};
use mcpaxos_cstruct::CStruct;
use std::sync::Arc;

/// The proposer role (§2.1: clients issuing commands).
pub struct Proposer<C: CStruct> {
    cfg: Arc<DeployConfig>,
    pending: Vec<C::Cmd>,
    /// Consecutive retransmission rounds without learning progress. When
    /// `Timing::proposer_backoff_max` is set, the resend period doubles
    /// with each attempt (capped there) so a partitioned or failing-over
    /// cluster is not hammered at the base rate; any progress resets it.
    attempts: u32,
    /// Admitted commands awaiting their batch (a subset of `pending`).
    outbox: Vec<C::Cmd>,
    /// When a partial batch leaves the outbox.
    linger: Linger,
}

impl<C: CStruct> Proposer<C> {
    /// Creates a proposer for the given deployment.
    pub fn new(cfg: Arc<DeployConfig>) -> Self {
        Proposer {
            cfg,
            pending: Vec::new(),
            attempts: 0,
            outbox: Vec::new(),
            linger: Linger::default(),
        }
    }

    /// Commands proposed but not yet reported learned.
    pub fn pending(&self) -> &[C::Cmd] {
        &self.pending
    }

    fn pick_subset(
        &self,
        pool: &[ProcessId],
        size: usize,
        ctx: &mut dyn Context<Msg<C>>,
    ) -> Vec<ProcessId> {
        // Rotate the pool by a random offset and take `size` members: a
        // cheap uniform-ish quorum choice that spreads load (§4.1).
        let n = pool.len();
        let start = (ctx.random() as usize) % n;
        (0..size.min(n)).map(|i| pool[(start + i) % n]).collect()
    }

    /// Sends `wrap(acc_quorum)` to this proposal's targets: every
    /// coordinator and every acceptor, or — under §4.1 load balancing — one
    /// coordinator quorum and one acceptor quorum picked per call. The
    /// acceptor choice rides in the message so the whole coordinator
    /// quorum forwards to the same acceptors. In classic rounds proposals
    /// go only to the coordinators; under a fast policy they also go to
    /// the (fast-sized) chosen acceptor quorum.
    fn send_proposal(
        &self,
        wrap: impl FnOnce(Option<Vec<ProcessId>>) -> Msg<C>,
        ctx: &mut dyn Context<Msg<C>>,
    ) {
        let coords = self.cfg.roles.coordinators();
        let accs = self.cfg.roles.acceptors();
        if !self.cfg.load_balance {
            let msg = wrap(None);
            ctx.multicast(coords, msg.clone());
            ctx.multicast(accs, msg);
            return;
        }
        let fresh = self.cfg.schedule.initial(0, 0);
        let cq = self.cfg.schedule.coord_quorum(fresh);
        let fast = self.cfg.schedule.kind(fresh) == crate::schedule::RoundKind::Fast;
        let acc_size = if fast {
            self.cfg.quorums.fast_size()
        } else {
            self.cfg.quorums.classic_size()
        };
        let coord_targets = self.pick_subset(coords, cq.quorum_size(), ctx);
        let acc_targets = self.pick_subset(accs, acc_size, ctx);
        let msg = wrap(Some(acc_targets.clone()));
        ctx.multicast(&coord_targets, msg.clone());
        if fast {
            ctx.multicast(&acc_targets, msg);
        }
    }

    /// Ships one batch to this proposal's targets: a lone command as
    /// `Propose`, more as one `ProposeBatch` (one quorum pick per batch
    /// under §4.1 load balancing).
    fn forward(&self, mut cmds: Vec<C::Cmd>, ctx: &mut dyn Context<Msg<C>>) {
        if cmds.len() > 1 {
            self.send_proposal(|acc_quorum| Msg::ProposeBatch { cmds, acc_quorum }, ctx);
        } else if let Some(cmd) = cmds.pop() {
            self.send_proposal(|acc_quorum| Msg::Propose { cmd, acc_quorum }, ctx);
        }
    }

    /// Flushes the outbox in batches of up to `batch_size`; when a partial
    /// one leaves is [`Linger::ready`]'s rule.
    fn flush_outbox(&mut self, mut expired: bool, ctx: &mut dyn Context<Msg<C>>) {
        let b = self.cfg.batch;
        // `max(1)`: an unvalidated zero batch size still drains.
        let size = b.batch_size.max(1);
        while !self.outbox.is_empty() {
            let full = self.outbox.len() >= size;
            if !self.linger.ready(full, &mut expired, &b, ctx) {
                return;
            }
            let chunk: Vec<C::Cmd> = self.outbox.drain(..self.outbox.len().min(size)).collect();
            self.forward(chunk, ctx);
        }
    }

    fn arm_resend(&self, ctx: &mut dyn Context<Msg<C>>) {
        let every = self.cfg.timing.proposer_resend;
        if every.ticks() == 0 {
            return;
        }
        // The same jittered-exponential policy the TCP transport uses
        // for reconnect supervision. Jitter decorrelates proposers
        // retransmitting into the same recovering cluster; the draw
        // happens only when jitter is configured, so default deployments
        // consume no randomness here.
        let policy = Backoff::new(
            every,
            self.cfg.timing.proposer_backoff_max,
            self.cfg.timing.proposer_jitter,
        );
        let delay = policy.delay(self.attempts, || ctx.random());
        ctx.set_timer(delay, TOK_RESEND);
    }
}

impl<C: CStruct> Actor for Proposer<C> {
    type Msg = Msg<C>;

    fn on_start(&mut self, ctx: &mut dyn Context<Msg<C>>) {
        self.arm_resend(ctx);
    }

    fn on_message(&mut self, _from: ProcessId, msg: Msg<C>, ctx: &mut dyn Context<Msg<C>>) {
        match msg {
            Msg::Propose { cmd, .. } => {
                // Admit once, then let the outbox decide when the command
                // reaches the wire. A repeated submission is ignored: the
                // resend timer owns retransmission.
                if self.pending.contains(&cmd) {
                    return;
                }
                self.pending.push(cmd.clone());
                ctx.metric(Metric::incr(metrics::PROPOSED));
                self.outbox.push(cmd);
                self.flush_outbox(false, ctx);
            }
            Msg::Learned { cmds } => {
                let before = self.pending.len();
                self.pending.retain(|c| !cmds.contains(c));
                self.outbox.retain(|c| !cmds.contains(c));
                if self.pending.len() < before {
                    // Progress: the path works again, restart the ladder.
                    self.attempts = 0;
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut dyn Context<Msg<C>>) {
        if token == TOK_RESEND {
            if !self.pending.is_empty() {
                ctx.metric(Metric::incr(metrics::RESENDS));
                // Re-forward everything pending in batch-sized chunks; the
                // outbox rides along, so clear it — its contents are on
                // the wire after this.
                self.outbox.clear();
                self.linger.cancel(ctx);
                for part in self.pending.chunks(self.cfg.batch.batch_size.max(1)) {
                    self.forward(part.to_vec(), ctx);
                }
                self.attempts = self.attempts.saturating_add(1);
            } else {
                self.attempts = 0;
            }
            self.arm_resend(ctx);
        } else if token == TOK_BATCH {
            self.linger.fired();
            self.flush_outbox(true, ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Policy;
    use mcpaxos_actor::host::Recorder;
    use mcpaxos_cstruct::SingleDecree;

    type C = SingleDecree<u32>;
    type Ctx = Recorder<Msg<C>>;

    fn ctx() -> Ctx {
        Recorder::new(0)
    }

    #[test]
    fn broadcasts_to_coordinators_and_acceptors() {
        let cfg = Arc::new(DeployConfig::simple(1, 3, 5, 1, Policy::MultiCoordinated));
        let mut p: Proposer<C> = Proposer::new(cfg.clone());
        let mut c = ctx();
        p.on_message(
            ProcessId(99),
            Msg::Propose {
                cmd: 7,
                acc_quorum: None,
            },
            &mut c,
        );
        // 3 coordinators + 5 acceptors.
        assert_eq!(c.sent.len(), 8);
        assert_eq!(p.pending(), &[7]);
        // A repeated submission is ignored: the resend timer owns
        // retransmission.
        p.on_message(
            ProcessId(99),
            Msg::Propose {
                cmd: 7,
                acc_quorum: None,
            },
            &mut c,
        );
        assert_eq!(p.pending(), &[7]);
        assert_eq!(c.sent.len(), 8);
    }

    #[test]
    fn load_balance_pins_an_acceptor_quorum() {
        let cfg = Arc::new(
            DeployConfig::simple(1, 3, 5, 1, Policy::MultiCoordinated).with_load_balance(true),
        );
        let mut p: Proposer<C> = Proposer::new(cfg);
        let mut c = ctx();
        p.on_message(
            ProcessId(99),
            Msg::Propose {
                cmd: 7,
                acc_quorum: None,
            },
            &mut c,
        );
        // 2-of-3 coordinator quorum only (classic rounds: acceptors are
        // reached by the coordinators, §4.1), acceptor pin piggybacked.
        assert_eq!(c.sent.len(), 2);
        for (_, m) in &c.sent {
            match m {
                Msg::Propose { acc_quorum, .. } => {
                    assert_eq!(acc_quorum.as_ref().unwrap().len(), 3);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    /// `pipelined(batch, 4)`: a 2-tick linger.
    fn batch_cfg(batch: usize) -> Arc<DeployConfig> {
        let b = crate::config::BatchConfig::pipelined(batch, 4);
        Arc::new(DeployConfig::simple(1, 1, 3, 1, Policy::SingleCoordinated).with_batching(b))
    }

    /// Batches as seen by one process (the first coordinator), so each
    /// multicast counts once: a `Propose` is a batch of one.
    fn batches_of(c: &Ctx, cfg: &DeployConfig) -> Vec<Vec<u32>> {
        let coord = cfg.roles.coordinators()[0];
        let mut out = vec![];
        for (_, m) in c.sent.iter().filter(|(to, _)| *to == coord) {
            match m {
                Msg::Propose { cmd, .. } => out.push(vec![*cmd]),
                Msg::ProposeBatch { cmds, .. } => out.push(cmds.clone()),
                other => panic!("unexpected {other:?}"),
            }
        }
        out
    }

    #[test]
    fn a_lone_command_whose_linger_expired_travels_as_propose() {
        let cfg = batch_cfg(2);
        let mut p: Proposer<C> = Proposer::new(cfg.clone());
        let mut c = ctx();
        p.on_message(
            ProcessId(99),
            Msg::Propose {
                cmd: 5,
                acc_quorum: None,
            },
            &mut c,
        );
        assert!(c.sent.is_empty(), "a partial batch lingers");
        p.on_timer(TOK_BATCH, &mut c);
        // 1 coordinator + 3 acceptors, each sent the bare command: no
        // `ProposeBatch` length prefix for a batch of one.
        assert_eq!(c.sent.len(), 4);
        for (_, m) in &c.sent {
            assert_eq!(
                m,
                &Msg::Propose {
                    cmd: 5,
                    acc_quorum: None
                }
            );
        }
    }

    #[test]
    fn batching_lingers_partial_and_flushes_full_batches() {
        let cfg = batch_cfg(2);
        let mut p: Proposer<C> = Proposer::new(cfg.clone());
        let mut c = ctx();
        p.on_message(
            ProcessId(99),
            Msg::Propose {
                cmd: 1,
                acc_quorum: None,
            },
            &mut c,
        );
        // Partial batch lingers: nothing on the wire, TOK_BATCH armed.
        assert!(c.sent.is_empty());
        assert_eq!(c.timers, vec![(cfg.batch.batch_ticks, TOK_BATCH)]);
        p.on_message(
            ProcessId(99),
            Msg::Propose {
                cmd: 2,
                acc_quorum: None,
            },
            &mut c,
        );
        // Full batch: one ProposeBatch to 1 coordinator + 3 acceptors.
        assert_eq!(c.sent.len(), 4);
        assert_eq!(batches_of(&c, &cfg)[0], vec![1, 2]);
        // A new partial lingers until the timer fires, then flushes as-is.
        p.on_message(
            ProcessId(99),
            Msg::Propose {
                cmd: 3,
                acc_quorum: None,
            },
            &mut c,
        );
        assert_eq!(c.sent.len(), 4);
        p.on_timer(TOK_BATCH, &mut c);
        assert_eq!(c.sent.len(), 8);
        assert_eq!(batches_of(&c, &cfg)[1], vec![3]);
        assert_eq!(p.pending(), &[1, 2, 3]);
    }

    #[test]
    fn resend_rebatches_the_inflight_window() {
        let cfg = batch_cfg(2);
        let mut p: Proposer<C> = Proposer::new(cfg.clone());
        let mut c = ctx();
        for cmd in [1u32, 2, 3, 4, 5] {
            p.on_message(
                ProcessId(99),
                Msg::Propose {
                    cmd,
                    acc_quorum: None,
                },
                &mut c,
            );
        }
        // Two full batches flushed, command 5 lingering in the outbox.
        assert_eq!(batches_of(&c, &cfg), vec![vec![1, 2], vec![3, 4]]);
        c.sent.clear();
        p.on_timer(TOK_RESEND, &mut c);
        // The whole pending window is re-forwarded in batch-size chunks
        // (the lingering outbox rides along instead of waiting).
        assert_eq!(batches_of(&c, &cfg), vec![vec![1, 2], vec![3, 4], vec![5]]);
        // The outbox was absorbed by the resend: a later linger expiry
        // has nothing left to flush.
        c.sent.clear();
        p.on_timer(TOK_BATCH, &mut c);
        assert!(c.sent.is_empty());
    }

    #[test]
    fn learned_clears_pending_and_resend_repeats() {
        let cfg = Arc::new(DeployConfig::simple(1, 1, 3, 1, Policy::SingleCoordinated));
        let mut p: Proposer<C> = Proposer::new(cfg.clone());
        let mut c = ctx();
        p.on_start(&mut c);
        assert_eq!(c.timers, vec![(cfg.timing.proposer_resend, TOK_RESEND)]);
        for cmd in [1u32, 2, 3] {
            p.on_message(
                ProcessId(99),
                Msg::Propose {
                    cmd,
                    acc_quorum: None,
                },
                &mut c,
            );
        }
        p.on_message(ProcessId(50), Msg::Learned { cmds: vec![1, 3] }, &mut c);
        assert_eq!(p.pending(), &[2]);
        let before = c.sent.len();
        p.on_timer(TOK_RESEND, &mut c);
        assert_eq!(c.sent.len() - before, 4, "1 coord + 3 acceptors for cmd 2");
    }
}
