//! Transport-agnostic actor abstraction for the `mcpaxos` workspace.
//!
//! The Multicoordinated Paxos agents (proposers, coordinators, acceptors,
//! learners) are written once against the [`Actor`] and [`Context`] traits
//! defined here, and then driven either by the deterministic discrete-event
//! simulator (`mcpaxos-simnet`) or by the threaded live runtime
//! (`mcpaxos-runtime`). The paper assumes an asynchronous crash-recovery
//! message-passing model; this crate pins down exactly the facilities that
//! model grants a process:
//!
//! * sending messages (which may be lost, delayed or duplicated),
//! * setting local timers (timeouts are the only notion of time),
//! * writing to local stable storage (the disk writes that §4.4 of the paper
//!   counts so carefully), and
//! * crashing and later recovering with only stable storage intact.
//!
//! # Example
//!
//! ```
//! use mcpaxos_actor::{Actor, Context, ProcessId, TimerToken};
//!
//! /// An actor that echoes every message back to its sender.
//! struct Echo;
//!
//! impl Actor for Echo {
//!     type Msg = String;
//!     fn on_message(&mut self, from: ProcessId, msg: String, ctx: &mut dyn Context<String>) {
//!         ctx.send(from, msg);
//!     }
//!     fn on_timer(&mut self, _t: TimerToken, _ctx: &mut dyn Context<String>) {}
//! }
//! ```

mod actor;
pub mod frame;
pub mod host;
mod id;
mod metrics;
mod storage;
mod time;
pub mod wire;

pub use actor::{Actor, Context, TimerToken};
pub use id::{ProcessId, RoleMap};
pub use metrics::{Metric, MetricSink, Metrics};
pub use storage::{crc32, FileWal, MemStore, StableStore, WalStore};
pub use time::{Backoff, SimDuration, SimTime};
