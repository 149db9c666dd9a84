//! The replica actor: learner + delivery cursor + state machine.

use crate::machine::StateMachine;
use mcpaxos_actor::wire::{from_bytes, Wire, WireError};
use mcpaxos_actor::{Actor, Context, Metric, ProcessId, TimerToken};
use mcpaxos_core::agents::metrics;
use mcpaxos_core::{DeployConfig, Learner, Msg};
use mcpaxos_cstruct::{CStruct, CommandHistory};
use mcpaxos_gbcast::Delivery;
use std::sync::Arc;

/// Message type flowing through a replica of machine `SM`.
pub type ReplicaMsg<SM> = Msg<CommandHistory<<SM as StateMachine>::Cmd>>;

/// Storage key for the persisted replica checkpoint.
const KEY_CKPT: &str = "ckpt";

/// A durable snapshot of a replica: the machine state plus the logical
/// delivery watermark it reflects.
///
/// With stable-prefix compaction the command history below the
/// deployment's watermark no longer exists anywhere — a restarted or
/// lagging replica *cannot* replay it. Checkpoints close that gap: the
/// replica resumes the machine at `applied` and the delivery cursor skips
/// everything below it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Checkpoint<SM: StateMachine> {
    /// Logical position (`total_len`) the machine state reflects.
    pub applied: u64,
    /// The learner's stable watermark at checkpoint time: the restored
    /// learner resumes there (segments below it may no longer be
    /// retained by any peer).
    pub watermark: u64,
    /// The commands applied *above* the watermark, in application order.
    /// Logical positions only identify commands within one learner's
    /// value — the re-learning learner may order commuting commands of
    /// this window differently — so the restored cursor must skip these
    /// by membership, not by position. Bounded by the compaction cadence.
    pub tail: Vec<SM::Cmd>,
    /// The machine state after applying the first `applied` commands.
    pub machine: SM,
}

/// Encodes a [`Checkpoint`] from borrowed parts, its tail given as two
/// slices to concatenate (encoded as the one `Vec` they make), so a
/// replica can persist one without building its tail or cloning its
/// machine.
fn encode_checkpoint<SM: StateMachine>(
    applied: u64,
    watermark: u64,
    tail: [&[SM::Cmd]; 2],
    machine: &SM,
    out: &mut Vec<u8>,
) {
    applied.encode(out);
    watermark.encode(out);
    ((tail[0].len() + tail[1].len()) as u64).encode(out);
    tail.iter()
        .flat_map(|t| t.iter())
        .for_each(|c| c.encode(out));
    machine.encode(out);
}

impl<SM: StateMachine + Wire> Wire for Checkpoint<SM> {
    fn encode(&self, out: &mut Vec<u8>) {
        let tail = [&self.tail[..], &[]];
        encode_checkpoint(self.applied, self.watermark, tail, &self.machine, out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(Checkpoint {
            applied: u64::decode(input)?,
            watermark: u64::decode(input)?,
            tail: Wire::decode(input)?,
            machine: SM::decode(input)?,
        })
    }
}

/// A replica: plays the learner role and applies newly agreed commands to
/// its local state machine.
///
/// Register a `Replica` at each process listed in the deployment's
/// learner role; the embedded [`Learner`] handles the protocol, the
/// [`Delivery`] cursor guarantees exactly-once, order-respecting
/// application. When `WireConfig::compact_every` is set, the replica
/// persists and flushes a [`Checkpoint`] every
/// `WireConfig::checkpoint_every()` applied commands (and stops retaining
/// the applied-command log, bounding its memory); `on_recover` resumes
/// from the latest checkpoint instead of replaying history.
pub struct Replica<SM: StateMachine> {
    cfg: Arc<DeployConfig>,
    learner: Learner<CommandHistory<SM::Cmd>>,
    delivery: Delivery<SM::Cmd>,
    machine: SM,
    last_ckpt: u64,
}

impl<SM: StateMachine> Replica<SM> {
    /// Creates a replica for the given deployment.
    pub fn new(cfg: Arc<DeployConfig>) -> Self {
        let learner = Learner::new(cfg.clone());
        let mut delivery = Delivery::new();
        if cfg.wire.compact_every > 0 {
            delivery.disable_log();
        }
        Replica {
            cfg,
            learner,
            delivery,
            machine: SM::default(),
            last_ckpt: 0,
        }
    }

    /// Creates a replica resuming from `ckpt`: the machine state is
    /// adopted, the learner restarts at the checkpoint watermark, and the
    /// delivery cursor skips the checkpoint's applied tail by membership.
    /// Used by hosts that transfer snapshots to fresh or lagging replicas
    /// out of band.
    pub fn restore(cfg: Arc<DeployConfig>, ckpt: Checkpoint<SM>) -> Self {
        let mut learner = Learner::new(cfg.clone());
        if ckpt.watermark > 0 {
            learner.resume_at(ckpt.watermark);
        }
        let last_ckpt = ckpt.applied;
        Replica {
            cfg,
            learner,
            delivery: Delivery::resume_skip(ckpt.watermark, ckpt.tail),
            machine: ckpt.machine,
            last_ckpt,
        }
    }

    /// The replicated state machine.
    pub fn machine(&self) -> &SM {
        &self.machine
    }

    /// Commands applied since this replica (re)started, in application
    /// order. Empty in checkpointing deployments, which do not retain the
    /// log — use [`Replica::applied_count`] there.
    pub fn applied(&self) -> &[SM::Cmd] {
        self.delivery.delivered()
    }

    /// Total number of commands the machine state reflects, including
    /// those below a restored checkpoint and its not-yet-passed tail.
    pub fn applied_count(&self) -> u64 {
        self.delivery.len() as u64
    }

    /// A checkpoint of the current state. The tail — commands applied
    /// above the stable watermark — is the learner's live window up to
    /// the cursor (the applied region after a drain), plus any commands
    /// from a restored checkpoint the cursor has not passed again yet.
    pub fn checkpoint(&self) -> Checkpoint<SM> {
        let (watermark, [applied, skip]) = self.checkpoint_tail();
        let tail = [applied, skip].concat();
        Checkpoint {
            applied: watermark + tail.len() as u64,
            watermark,
            tail,
            machine: self.machine.clone(),
        }
    }

    /// The bytes of [`Replica::checkpoint`], encoded from `self`: no
    /// clone of the machine or the tail.
    fn checkpoint_bytes(&self) -> Vec<u8> {
        let (watermark, tail) = self.checkpoint_tail();
        let applied = watermark + (tail[0].len() + tail[1].len()) as u64;
        let mut out = Vec::new();
        encode_checkpoint(applied, watermark, tail, &self.machine, &mut out);
        out
    }

    /// The checkpoint's watermark and its tail in two parts: the applied
    /// region of the live window, then the restored commands the cursor
    /// has not passed again.
    fn checkpoint_tail(&self) -> (u64, [&[SM::Cmd]; 2]) {
        let watermark = self.learner.watermark();
        let window = self.learner.learned().as_slice();
        let upto = (self.delivery.offset().saturating_sub(watermark) as usize).min(window.len());
        (watermark, [&window[..upto], self.delivery.skip_commands()])
    }

    /// The underlying learner (for history inspection).
    pub fn learner(&self) -> &Learner<CommandHistory<SM::Cmd>> {
        &self.learner
    }

    fn drain(&mut self, ctx: &mut dyn Context<ReplicaMsg<SM>>) {
        // Every message lands here, but under batched 2a waves a single
        // drain delivers the whole k-command wave and the next k-1
        // messages find nothing new: skip the cursor's O(window)
        // delivered-prefix verification when the history has not grown
        // past the cursor.
        if self.learner.learned().total_len() <= self.delivery.offset()
            && self.delivery.pending_skip() == 0
        {
            return;
        }
        // Split borrows: the cursor walks the learner's history in place
        // and feeds the machine by reference — no clone of the history,
        // no clone of the commands.
        let learned = self.learner.learned();
        let machine = &mut self.machine;
        self.delivery.absorb_with(learned, |c| machine.apply(c));
        // Checkpoints fall due every `every` applied commands, on a fixed
        // schedule: a wave overshooting a due point does not delay the
        // next, and a drain past several takes one, the next drain another.
        let (every, applied) = (self.cfg.wire.checkpoint_every(), self.delivery.len() as u64);
        if every > 0 && applied >= self.last_ckpt + every {
            self.last_ckpt += every;
            // A checkpoint a crash would drop protects nothing: make it
            // durable now, on group-commit storage too.
            let storage = ctx.storage();
            storage.write(KEY_CKPT, self.checkpoint_bytes());
            storage.flush();
        }
    }
}

impl<SM: StateMachine> Actor for Replica<SM> {
    type Msg = ReplicaMsg<SM>;

    fn on_start(&mut self, ctx: &mut dyn Context<Self::Msg>) {
        self.learner.on_start(ctx);
    }

    fn on_recover(&mut self, ctx: &mut dyn Context<Self::Msg>) {
        let repaired = ctx.storage().corrupt_records();
        if repaired > 0 {
            ctx.metric(Metric::add(metrics::CORRUPT_RECORDS, repaired as i64));
        }
        let ckpt = ctx
            .storage()
            .read(KEY_CKPT)
            .map(from_bytes::<Checkpoint<SM>>);
        match ckpt {
            Some(Ok(ckpt)) => {
                self.machine = ckpt.machine;
                self.last_ckpt = ckpt.applied;
                if ckpt.watermark > 0 {
                    self.learner.resume_at(ckpt.watermark);
                }
                self.delivery = Delivery::resume_skip(ckpt.watermark, ckpt.tail);
            }
            // An undecodable checkpoint is counted and ignored: the
            // replica restarts as if none had been written and re-learns
            // what its peers still hold, rather than crash-looping on the
            // same bytes.
            Some(Err(_)) => ctx.metric(Metric::incr(metrics::CORRUPT_RECORDS)),
            None => {}
        }
        self.learner.on_start(ctx);
    }

    fn on_message(&mut self, from: ProcessId, msg: Self::Msg, ctx: &mut dyn Context<Self::Msg>) {
        self.learner.on_message(from, msg, ctx);
        self.drain(ctx);
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut dyn Context<Self::Msg>) {
        self.learner.on_timer(token, ctx);
        self.drain(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CmdId, KvCmd, KvOp, KvStore};
    use mcpaxos_actor::host::Recorder;
    use mcpaxos_actor::wire::to_bytes;
    use mcpaxos_core::{Policy, Round, RTYPE_MULTI};
    use mcpaxos_cstruct::CStruct;

    fn put(seq: u32, k: u16, v: u64) -> KvCmd {
        KvCmd {
            id: CmdId { client: 1, seq },
            op: KvOp::Put(k, v),
        }
    }

    #[test]
    fn replica_applies_learned_commands() {
        // 3 acceptors (a4..a6 in 1/3/3/1 layout), majority 2.
        let cfg = Arc::new(DeployConfig::simple(1, 3, 3, 1, Policy::MultiCoordinated));
        let mut r: Replica<KvStore> = Replica::new(cfg);
        let mut ctx = Recorder::new(9);
        let round = Round::new(0, 1, 0, RTYPE_MULTI);
        let hist: CommandHistory<KvCmd> = [put(0, 7, 70)].into_iter().collect();
        for a in [4u32, 5] {
            r.on_message(
                ProcessId(a),
                Msg::P2b {
                    round,
                    val: hist.clone().into(),
                },
                &mut ctx,
            );
        }
        assert_eq!(r.machine().get(7), Some(70));
        assert_eq!(r.applied().len(), 1);
        assert_eq!(r.applied_count(), 1);
    }

    #[test]
    fn batched_wave_drains_in_one_pass_and_redelivery_is_inert() {
        let cfg = Arc::new(DeployConfig::simple(1, 3, 3, 1, Policy::MultiCoordinated));
        let mut r: Replica<KvStore> = Replica::new(cfg);
        let mut ctx = Recorder::new(9);
        let round = Round::new(0, 1, 0, RTYPE_MULTI);
        // One batched wave: the whole k-command value lands in a single
        // 2b pair and must apply on the first drain.
        let hist: CommandHistory<KvCmd> = (0..8)
            .map(|i| put(i, i as u16, u64::from(i) * 10))
            .collect();
        for a in [4u32, 5] {
            r.on_message(
                ProcessId(a),
                Msg::P2b {
                    round,
                    val: hist.clone().into(),
                },
                &mut ctx,
            );
        }
        assert_eq!(r.applied_count(), 8);
        // Redeliveries of the same wave (the other acceptors' 2bs) take
        // the no-growth fast path: nothing re-applies.
        r.on_message(
            ProcessId(6),
            Msg::P2b {
                round,
                val: hist.clone().into(),
            },
            &mut ctx,
        );
        assert_eq!(r.applied_count(), 8);
        assert_eq!(r.applied().len(), 8);
    }

    #[test]
    fn garbage_checkpoint_is_counted_and_recovery_starts_empty() {
        let cfg = Arc::new(DeployConfig::simple(1, 3, 3, 1, Policy::MultiCoordinated));
        let mut r: Replica<KvStore> = Replica::new(cfg);
        let mut ctx = Recorder::new(9);
        ctx.store.write(KEY_CKPT, vec![0xff; 7]);
        r.on_recover(&mut ctx);
        assert_eq!(ctx.metric_total(metrics::CORRUPT_RECORDS), 1);
        assert_eq!(r.machine(), &KvStore::default());
        assert_eq!(r.applied_count(), 0);
        assert_eq!(r.learner().watermark(), 0);
    }

    #[test]
    fn checkpoint_roundtrips_and_restores() {
        let cfg = Arc::new(DeployConfig::simple(1, 3, 3, 1, Policy::MultiCoordinated));
        let mut r: Replica<KvStore> = Replica::new(cfg.clone());
        let mut ctx = Recorder::new(9);
        let round = Round::new(0, 1, 0, RTYPE_MULTI);
        let hist: CommandHistory<KvCmd> = [put(0, 1, 10), put(1, 2, 20)].into_iter().collect();
        for a in [4u32, 5] {
            r.on_message(
                ProcessId(a),
                Msg::P2b {
                    round,
                    val: hist.clone().into(),
                },
                &mut ctx,
            );
        }
        let ckpt = r.checkpoint();
        assert_eq!(ckpt.applied, 2);
        let bytes = to_bytes(&ckpt);
        assert_eq!(r.checkpoint_bytes(), bytes);
        let back: Checkpoint<KvStore> = from_bytes(&bytes).unwrap();
        assert_eq!(back, ckpt);
        // A restored replica adopts the state without replaying, and
        // continues from the watermark.
        let mut r2: Replica<KvStore> = Replica::restore(cfg, back);
        assert_eq!(r2.machine().get(1), Some(10));
        assert_eq!(r2.applied_count(), 2);
        // Its tail is all restored commands the cursor has yet to pass.
        assert_eq!(r2.checkpoint_bytes(), to_bytes(&r2.checkpoint()));
        assert_eq!(r2.checkpoint(), ckpt);
        let mut hist2 = hist.clone();
        hist2.append(put(2, 3, 30));
        for a in [4u32, 5] {
            r2.on_message(
                ProcessId(a),
                Msg::P2b {
                    round,
                    val: hist2.clone().into(),
                },
                &mut ctx,
            );
        }
        assert_eq!(r2.machine().get(3), Some(30));
        assert_eq!(r2.applied_count(), 3);
    }
}
