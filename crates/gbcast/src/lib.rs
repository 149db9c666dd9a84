//! Generic Broadcast (§3.3 of the paper) on Multicoordinated Paxos.
//!
//! Generic broadcast delivers commands to every learner such that
//! *conflicting* commands are delivered in the same relative order
//! everywhere, while commuting commands may be delivered in any order.
//! It is the instance of Generalized Consensus whose c-structs are
//! [`mcpaxos_cstruct::CommandHistory`] values — so this crate is a thin,
//! typed facade over `mcpaxos-core` instantiated with command histories,
//! plus the delivery machinery applications actually want:
//!
//! * [`Delivery`] — turns a learner's monotonically growing history into
//!   an append-only stream of commands (a linear extension of the agreed
//!   partial order);
//! * [`checks`] — executable forms of the four generic-broadcast
//!   properties (non-triviality, stability, consistency, liveness), used
//!   by the test-suite and available to applications.
//!
//! # Example
//!
//! ```
//! use mcpaxos_cstruct::{CommandHistory, Conflict};
//! use mcpaxos_gbcast::Delivery;
//!
//! #[derive(Clone, Debug, PartialEq, Eq, Hash)]
//! struct Op(u32); // ops conflict when keys (mod 4) match
//! impl Conflict for Op {
//!     fn conflicts(&self, other: &Self) -> bool {
//!         self.0 % 4 == other.0 % 4
//!     }
//! }
//! # use mcpaxos_actor::wire::{Wire, WireError};
//! # impl Wire for Op {
//! #     fn encode(&self, out: &mut Vec<u8>) { self.0.encode(out); }
//! #     fn decode(i: &mut &[u8]) -> Result<Self, WireError> { Ok(Op(u32::decode(i)?)) }
//! # }
//!
//! let mut delivery: Delivery<Op> = Delivery::new();
//! let h: CommandHistory<Op> = [Op(1), Op(2)].into_iter().collect();
//! let newly = delivery.absorb(&h);
//! assert_eq!(newly, vec![Op(1), Op(2)]);
//! // Re-absorbing the same history delivers nothing new.
//! assert!(delivery.absorb(&h).is_empty());
//! ```

pub mod checks;
mod delivery;

pub use delivery::Delivery;

use mcpaxos_core::Msg;
use mcpaxos_cstruct::CommandHistory;

/// Message type of a generic-broadcast deployment over command type `C`.
pub type GbMsg<C> = Msg<CommandHistory<C>>;
