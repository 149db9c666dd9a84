//! State-machine replication over Multicoordinated Paxos generic
//! broadcast.
//!
//! The paper motivates multicoordinated rounds with state-machine
//! replication (§1): replicas apply an agreed partial order of commands
//! in which only *interfering* commands are ordered. This crate provides
//! that application layer:
//!
//! * [`StateMachine`] — deterministic command application;
//! * [`KvCmd`]/[`KvStore`] — a replicated key-value store whose conflict
//!   relation orders same-key writes but lets reads and different-key
//!   operations commute;
//! * [`BankCmd`]/[`Bank`] — a replicated bank where deposits commute,
//!   withdrawals and transfers interfere per account, and audits
//!   interfere with everything (the classic generic-broadcast example);
//! * [`Replica`] — a learner + delivery cursor + state machine bundled as
//!   one actor;
//! * [`Workload`] — deterministic workload generation for tests, examples
//!   and the experiment harness;
//! * [`ShardRouter`]/[`CrossShardSequencer`]/[`ShardedReplica`] —
//!   WPaxos-style sharding of the command space across parallel consensus
//!   instances, with a deterministic cross-shard merge.
//!
//! Because commands carry unique ids, at-most-once application is
//! guaranteed by c-struct deduplication; replicas applying compatible
//! histories reach the same state for every key (same agreed order for
//! interfering commands, and commuting commands by definition reach the
//! same state in any order).

mod bank;
mod kv;
mod machine;
mod replica;
mod shard;
mod workload;

pub use bank::{Bank, BankCmd, BankOp};
pub use kv::{KvCmd, KvOp, KvStore};
pub use machine::StateMachine;
pub use replica::{Checkpoint, Replica};
pub use shard::{CrossShardSequencer, ShardRouter, ShardedReplica};
pub use workload::Workload;

/// Globally unique command identifier: `(client, sequence)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CmdId {
    /// Issuing client id.
    pub client: u32,
    /// Client-local sequence number.
    pub seq: u32,
}

impl mcpaxos_actor::wire::Wire for CmdId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.client.encode(out);
        self.seq.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, mcpaxos_actor::wire::WireError> {
        Ok(CmdId {
            client: u32::decode(input)?,
            seq: u32::decode(input)?,
        })
    }
}
