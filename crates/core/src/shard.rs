//! Sharding layer: N independent Multicoordinated Paxos instances
//! multiplexed over one runtime (WPaxos-style multi-leader scaling).
//!
//! One consensus instance serializes every command through a single
//! `CommandHistory`/learner/compactor pipeline. When the conflict relation
//! is local — `Conflict::conflict_keys` already partitions the workload —
//! the command space can be split by conflict-key hash into *shards*, each
//! a full Multicoordinated Paxos deployment with its own coordinators,
//! acceptors, learners, compaction watermark and WAL. This module provides
//! the pieces that let the existing agents run per shard without change:
//!
//! * [`ShardMsg`] — a shard-tagged envelope around [`Msg`], so one
//!   runtime (and one byte meter) can carry all instances with per-shard
//!   accounting;
//! * [`Sharded`] — an actor adapter wrapping any protocol agent, stamping
//!   its outgoing messages with its shard id and unwrapping incoming ones;
//! * [`shard_configs`] — per-shard [`DeployConfig`]s over disjoint
//!   process-id ranges.
//!
//! Routing and the cross-shard command path live in the application layer
//! (`mcpaxos-smr`): agents never see more than their own instance.

use crate::config::DeployConfig;
use crate::msg::Msg;
use crate::schedule::Policy;
use mcpaxos_actor::wire::{Wire, WireError};
use mcpaxos_actor::{
    Actor, Context, Metric, ProcessId, SimDuration, SimTime, StableStore, TimerToken,
};
use mcpaxos_cstruct::CStruct;

/// Process ids of shard `s` live in `[s * SHARD_ID_STRIDE, (s+1) * ..)`:
/// plenty for any per-shard role map while keeping ids readable.
pub const SHARD_ID_STRIDE: u32 = 64;

/// Distinct per-shard byte-accounting tags (shards beyond this share one).
const SHARD_TAGS: [&str; 8] = [
    "shard0", "shard1", "shard2", "shard3", "shard4", "shard5", "shard6", "shard7",
];

/// The byte-meter/metric tag of shard `shard`.
pub fn shard_tag(shard: u16) -> &'static str {
    SHARD_TAGS
        .get(usize::from(shard))
        .copied()
        .unwrap_or("shard+")
}

/// A protocol message addressed to one shard's consensus instance.
///
/// The envelope is what rides the shared runtime; agents themselves
/// exchange plain [`Msg`] values through the [`Sharded`] adapter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardMsg<C: CStruct> {
    /// The consensus instance this message belongs to.
    pub shard: u16,
    /// The protocol message.
    pub inner: Msg<C>,
}

impl<C: CStruct> ShardMsg<C> {
    /// Per-shard tag for byte accounting and traces.
    pub fn tag(&self) -> &'static str {
        shard_tag(self.shard)
    }
}

impl<C: CStruct> Wire for ShardMsg<C> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.shard.encode(out);
        self.inner.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(ShardMsg {
            shard: u16::decode(input)?,
            inner: Msg::decode(input)?,
        })
    }
}

/// Context adapter: presents a plain [`Msg`] context to the wrapped agent,
/// stamping everything it sends with the shard id.
struct ShardCtx<'a, C: CStruct> {
    shard: u16,
    ctx: &'a mut dyn Context<ShardMsg<C>>,
}

impl<C: CStruct> Context<Msg<C>> for ShardCtx<'_, C> {
    fn me(&self) -> ProcessId {
        self.ctx.me()
    }
    fn now(&self) -> SimTime {
        self.ctx.now()
    }
    fn send(&mut self, to: ProcessId, msg: Msg<C>) {
        self.ctx.send(
            to,
            ShardMsg {
                shard: self.shard,
                inner: msg,
            },
        );
    }
    fn set_timer(&mut self, after: SimDuration, token: TimerToken) {
        self.ctx.set_timer(after, token);
    }
    fn cancel_timer(&mut self, token: TimerToken) {
        self.ctx.cancel_timer(token);
    }
    fn storage(&mut self) -> &mut dyn StableStore {
        self.ctx.storage()
    }
    fn metric(&mut self, metric: Metric) {
        self.ctx.metric(metric);
    }
    fn random(&mut self) -> u64 {
        self.ctx.random()
    }
}

/// Actor adapter hosting one protocol agent inside shard `shard`.
///
/// Incoming envelopes for other shards are dropped (with disjoint id
/// ranges none should arrive; a stray one must not corrupt this
/// instance), matching the fair-lossy link model the agents already
/// tolerate.
pub struct Sharded<A> {
    shard: u16,
    inner: A,
}

impl<A> Sharded<A> {
    /// Wraps `inner` as a member of shard `shard`.
    pub fn new(shard: u16, inner: A) -> Self {
        Sharded { shard, inner }
    }

    /// The shard this agent belongs to.
    pub fn shard(&self) -> u16 {
        self.shard
    }

    /// The wrapped agent.
    pub fn inner(&self) -> &A {
        &self.inner
    }
}

impl<C: CStruct, A: Actor<Msg = Msg<C>>> Actor for Sharded<A> {
    type Msg = ShardMsg<C>;

    fn on_start(&mut self, ctx: &mut dyn Context<ShardMsg<C>>) {
        let mut sc = ShardCtx {
            shard: self.shard,
            ctx,
        };
        self.inner.on_start(&mut sc);
    }

    fn on_recover(&mut self, ctx: &mut dyn Context<ShardMsg<C>>) {
        let mut sc = ShardCtx {
            shard: self.shard,
            ctx,
        };
        self.inner.on_recover(&mut sc);
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: ShardMsg<C>,
        ctx: &mut dyn Context<ShardMsg<C>>,
    ) {
        if msg.shard != self.shard {
            return;
        }
        let mut sc = ShardCtx {
            shard: self.shard,
            ctx,
        };
        self.inner.on_message(from, msg.inner, &mut sc);
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut dyn Context<ShardMsg<C>>) {
        let mut sc = ShardCtx {
            shard: self.shard,
            ctx,
        };
        self.inner.on_timer(token, &mut sc);
    }

    fn on_link_reset(&mut self, peer: ProcessId, ctx: &mut dyn Context<ShardMsg<C>>) {
        let mut sc = ShardCtx {
            shard: self.shard,
            ctx,
        };
        self.inner.on_link_reset(peer, &mut sc);
    }
}

/// Per-shard deployment configurations: shard `s` gets a
/// [`DeployConfig::simple_from`] over the id range starting at
/// `s * SHARD_ID_STRIDE`, so all instances coexist in one runtime with no
/// id collisions.
///
/// # Panics
///
/// Panics if one shard's roles need more than [`SHARD_ID_STRIDE`] ids.
pub fn shard_configs(
    n_shards: u16,
    n_prop: usize,
    n_coord: usize,
    n_acc: usize,
    n_learn: usize,
    policy: Policy,
) -> Vec<DeployConfig> {
    assert!(
        n_prop + n_coord + n_acc + n_learn <= SHARD_ID_STRIDE as usize,
        "shard role map exceeds the per-shard id stride"
    );
    (0..n_shards)
        .map(|s| {
            DeployConfig::simple_from(
                u32::from(s) * SHARD_ID_STRIDE,
                n_prop,
                n_coord,
                n_acc,
                n_learn,
                policy,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agents::Proposer;
    use mcpaxos_actor::host::Recorder;
    use mcpaxos_actor::wire::{from_bytes, to_bytes};
    use mcpaxos_cstruct::CmdSet;
    use std::sync::Arc;

    type C = CmdSet<u32>;

    #[test]
    fn wrapped_agent_sends_are_shard_tagged_and_foreign_shards_dropped() {
        let cfg = Arc::new(shard_configs(2, 1, 1, 3, 1, Policy::SingleCoordinated)[1].clone());
        cfg.validate().unwrap();
        let mut p: Sharded<Proposer<C>> = Sharded::new(1, Proposer::new(cfg));
        let mut cx: Recorder<ShardMsg<C>> = Recorder::new(64);
        let propose = Msg::Propose {
            cmd: 7,
            acc_quorum: None,
        };
        p.on_message(
            ProcessId(9_999),
            ShardMsg {
                shard: 1,
                inner: propose.clone(),
            },
            &mut cx,
        );
        assert!(!cx.sent.is_empty(), "proposer forwards inside its shard");
        assert!(cx.sent.iter().all(|(_, m)| m.shard == 1));
        assert!(cx.sent.iter().all(|(_, m)| m.tag() == "shard1"));
        // A stray envelope for another shard is ignored entirely.
        let before = cx.sent.len();
        p.on_message(
            ProcessId(9_999),
            ShardMsg {
                shard: 0,
                inner: propose,
            },
            &mut cx,
        );
        assert_eq!(cx.sent.len(), before);
    }

    #[test]
    fn shard_configs_use_disjoint_id_ranges() {
        let cfgs = shard_configs(4, 1, 1, 3, 1, Policy::MultiCoordinated);
        for (s, cfg) in cfgs.iter().enumerate() {
            cfg.validate().unwrap();
            for p in cfg.roles.all() {
                assert_eq!((p.raw() / SHARD_ID_STRIDE) as usize, s);
            }
        }
    }

    #[test]
    fn shard_msg_wire_roundtrip() {
        let m: ShardMsg<C> = ShardMsg {
            shard: 3,
            inner: Msg::Heartbeat,
        };
        let back: ShardMsg<C> = from_bytes(&to_bytes(&m)).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.tag(), "shard3");
        assert_eq!(shard_tag(99), "shard+");
    }
}
