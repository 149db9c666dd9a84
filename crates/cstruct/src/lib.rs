//! Command structures (*c-structs*) for Generalized Consensus.
//!
//! Generalized Consensus (§2.3 of the paper, after Lamport's *Generalized
//! Consensus and Paxos*) replaces the single agreed-upon value of consensus
//! with a *c-struct*: a value built from a bottom element `⊥` by appending
//! commands, partially ordered by the extension relation `⊑`. A c-struct set
//! must satisfy axioms **CS0–CS4** (see [`axioms`]); in exchange, learners
//! may learn *different but compatible* c-structs, which lets an efficient
//! protocol exploit application semantics such as commuting commands.
//!
//! This crate provides the [`CStruct`] trait and four instantiations:
//!
//! * [`SingleDecree`] — ordinary consensus: `⊥` plus single commands;
//!   appending to a non-`⊥` c-struct is a no-op.
//! * [`CmdSet`] — fully commutative commands (sets); every pair of c-structs
//!   is compatible. The weakest useful instantiation.
//! * [`CmdSeq`] — totally ordered commands (sequences); compatibility is the
//!   prefix relation. Models total-order broadcast.
//! * [`CommandHistory`] — the paper's §3.3 instantiation for Generic
//!   Broadcast: sequences interpreted as partial orders via a conflict
//!   relation, with the `Prefix`, `AreCompatible`, glb and lub operators of
//!   §3.3.1, indexed so every operator runs in O(n + conflict-edges). The
//!   literal pseudo-TLA transcription is retained as
//!   [`RefCommandHistory`], a differential-testing oracle.
//!
//! `CommandHistory` with an always-conflicting relation behaves exactly like
//! [`CmdSeq`], and with a never-conflicting relation exactly like
//! [`CmdSet`]; the test suite exploits this for differential testing.
//!
//! # Example
//!
//! ```
//! use mcpaxos_cstruct::{CStruct, CmdSet};
//!
//! let mut a = CmdSet::bottom();
//! a.append(1u32);
//! let mut b = CmdSet::bottom();
//! b.append(2u32);
//! // Commuting commands: always compatible, lub is the union.
//! let ab = a.lub(&b).expect("sets are always compatible");
//! assert!(a.le(&ab) && b.le(&ab));
//! ```

pub mod axioms;
mod cmdseq;
mod cmdset;
mod history;
mod history_ref;
mod single;
mod traits;

pub use cmdseq::CmdSeq;
pub use cmdset::CmdSet;
pub use history::{CommandHistory, Conflict, ConflictKeys, DetHasher};
pub use history_ref::RefCommandHistory;
pub use single::SingleDecree;
pub use traits::{compatible_all, glb_all, glb_all_ref, lub_all, CStruct, Command, SuffixGap};
