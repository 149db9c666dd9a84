//! # mcpaxos — Multicoordinated Paxos
//!
//! A comprehensive Rust implementation of *Multicoordinated Paxos*
//! (Camargos, Schmidt, Pedone — Tech. Report 2007/02 / PODC'07 brief
//! announcement): consensus, generalized consensus and generic broadcast
//! with classic, fast and **multicoordinated** rounds.
//!
//! This crate is the facade over the workspace:
//!
//! * [`actor`] — transport-agnostic actor model (processes, timers,
//!   stable storage, wire codec);
//! * [`cstruct`] — command structures (CS0–CS4) with four instantiations
//!   (consensus, commuting sets, sequences, command histories);
//! * [`simnet`] — deterministic discrete-event simulator with fault
//!   injection;
//! * [`core`] — the protocol: rounds, quorums, `ProvedSafe`, the four
//!   agents, collision recovery, leader election, disk-write reduction;
//! * [`gbcast`] — generic broadcast (§3.3) plus delivery and property
//!   checkers;
//! * [`smr`] — replicated state machines (key-value store, bank) on top;
//! * [`runtime`] — a threaded live runtime for the same agents.
//!
//! See `README.md` for a tour and `EXPERIMENTS.md` for the paper-claim
//! reproduction tables.
//!
//! # Quickstart
//!
//! ```
//! use mcpaxos_suite::core::{DeployConfig, Msg, Policy};
//! use mcpaxos_suite::cstruct::{CStruct, CmdSet};
//! use mcpaxos_suite::simnet::{NetConfig, Sim};
//! use mcpaxos_suite::actor::{ProcessId, SimTime};
//!
//! // 1 proposer, 3 coordinators, 5 acceptors, 1 learner.
//! let cfg = std::sync::Arc::new(DeployConfig::simple(1, 3, 5, 1, Policy::MultiCoordinated));
//! let mut sim: Sim<Msg<CmdSet<u32>>> = Sim::new(42, NetConfig::lockstep());
//! // Every process gets the agent of the role it holds in `cfg`.
//! for p in cfg.roles.all() {
//!     let c = cfg.clone();
//!     sim.add_process(p, move || mcpaxos_suite::core::agent!(CmdSet<u32>, c, p));
//! }
//! sim.inject_at(SimTime(100), cfg.roles.proposers()[0], ProcessId(999),
//!     Msg::Propose { cmd: 7u32, acc_quorum: None });
//! sim.run_until(SimTime(500));
//! let learner: &mcpaxos_suite::core::Learner<CmdSet<u32>> =
//!     sim.actor(cfg.roles.learners()[0]).unwrap();
//! assert!(learner.learned().contains(&7));
//! ```

pub use mcpaxos_actor as actor;
pub use mcpaxos_core as core;
pub use mcpaxos_cstruct as cstruct;
pub use mcpaxos_gbcast as gbcast;
pub use mcpaxos_runtime as runtime;
pub use mcpaxos_simnet as simnet;
pub use mcpaxos_smr as smr;
