//! Multicoordinated Paxos: consensus and generalized consensus with
//! classic, fast and *multicoordinated* rounds.
//!
//! This crate implements the protocol of Camargos, Schmidt and Pedone,
//! *Multicoordinated Paxos* (Tech. Report 2007/02, PODC'07 brief
//! announcement): an extension of Fast Paxos in which classic rounds may
//! be coordinated by a *quorum of coordinators* instead of a single
//! leader. Multicoordinated rounds keep the three-message-step latency
//! and majority acceptor quorums of classic rounds while tolerating
//! coordinator crashes with no round change, at the price of a new — but
//! disk-write-free — collision mode.
//!
//! The implementation is generic over the c-struct set (see
//! [`mcpaxos_cstruct`]): instantiate with `SingleDecree` for ordinary
//! consensus (§3.1 of the paper), `CmdSeq` for total-order broadcast, or
//! `CommandHistory` for generic broadcast (§3.3, see `mcpaxos-gbcast`).
//!
//! # Architecture
//!
//! * [`Round`] — structured round numbers `⟨major:minor, owner, rtype⟩`
//!   (§4.4).
//! * [`QuorumSpec`] / [`CoordQuorum`] — acceptor and coordinator quorum
//!   rules (Assumptions 1–3).
//! * [`Schedule`] / [`Policy`] — round-type scheduling (§4.5).
//! * [`proved_safe`] — the value-picking rule (Definition 1, §3.3.2).
//! * [`agents`] — the four protocol roles as [`mcpaxos_actor::Actor`]s.
//! * [`DeployConfig`] — everything a deployment shares.
//!
//! # Example
//!
//! Agents are plain actors; host them on any runtime. Deployments are
//! described by a [`DeployConfig`]:
//!
//! ```
//! use mcpaxos_core::{DeployConfig, Policy};
//!
//! let cfg = DeployConfig::simple(1, 3, 5, 2, Policy::MultiCoordinated);
//! assert!(cfg.validate().is_ok());
//! // 3 coordinators: any 2 form a coordinator quorum, so one coordinator
//! // crash needs no round change (the paper's availability claim).
//! let r = cfg.schedule.initial(0, 0);
//! assert_eq!(cfg.schedule.coord_quorum(r).failures_tolerated(), 1);
//! ```

pub mod agents;
mod compact;
mod config;
mod msg;
mod provedsafe;
mod quorum;
mod round;
mod schedule;
mod shard;
mod ship;
#[cfg(test)]
mod testctx;

pub use agents::{Acceptor, Coordinator, Learner, Proposer};
pub use config::{BatchConfig, CollisionPolicy, DeployConfig, Durability, Timing, WireConfig};
pub use msg::Msg;
pub use provedsafe::{pick, proved_safe, proved_safe_exact, OneB};
pub use quorum::{check_intersections, CoordQuorum, QuorumSpec, RoundInfo};
pub use round::Round;
pub use schedule::{Policy, RoundKind, Schedule, RTYPE_FAST, RTYPE_MULTI, RTYPE_SINGLE};
pub use shard::{shard_configs, shard_tag, ShardMsg, Sharded, SHARD_ID_STRIDE};
pub use ship::Payload;
