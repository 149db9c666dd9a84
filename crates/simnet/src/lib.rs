//! Deterministic discrete-event network simulator for `mcpaxos` actors.
//!
//! The paper assumes an asynchronous crash-recovery model: messages may be
//! delayed arbitrarily, lost or duplicated; processes fail by stopping and
//! may recover with only stable storage intact. This crate realises that
//! model as a seeded, fully deterministic event simulation, so that
//!
//! * every experiment is exactly reproducible from its seed,
//! * latency can be measured in *communication steps* (unit link delays),
//!   the currency of the paper's claims, and
//! * disk writes, message counts and protocol events are observable without
//!   instrumenting agent code.
//!
//! # Example
//!
//! ```
//! use mcpaxos_actor::{Actor, Context, ProcessId, TimerToken};
//! use mcpaxos_simnet::{NetConfig, Sim};
//!
//! struct Ping;
//! impl Actor for Ping {
//!     type Msg = u32;
//!     fn on_message(&mut self, from: ProcessId, msg: u32, ctx: &mut dyn Context<u32>) {
//!         if msg < 3 {
//!             ctx.send(from, msg + 1);
//!         }
//!     }
//!     fn on_timer(&mut self, _t: TimerToken, _c: &mut dyn Context<u32>) {}
//! }
//!
//! let mut sim = Sim::new(42, NetConfig::lockstep());
//! sim.add_process(ProcessId(0), || Box::new(Ping));
//! sim.add_process(ProcessId(1), || Box::new(Ping));
//! sim.inject(ProcessId(0), ProcessId(1), 0u32); // deliver 0 to p0, from p1
//! sim.run_to_quiescence(1_000);
//! assert_eq!(sim.now().ticks(), 4); // hops carrying 0,1,2,3 then silence
//! ```

mod chaos;
mod config;
pub mod explore;
mod procs;
mod sim;
mod topology;
mod trace;

pub use chaos::{ChaosEvent, ChaosSchedule};
pub use config::{DelayDist, NetConfig};
pub use explore::{explore, Choice, ExploreConfig, ExploreNet, ExploreStats, Violation};
pub use procs::StorageFactory;
pub use sim::{ByteMeter, ProcessStats, Sim, WireTotal};
pub use topology::Topology;
pub use trace::{TraceEntry, TraceKind};
