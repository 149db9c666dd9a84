//! Experiment harness reproducing the quantitative claims of the
//! *Multicoordinated Paxos* paper.
//!
//! The paper is a theory report: its "evaluation" is the set of
//! quantitative claims made in §2 and §4 (latency in communication steps,
//! quorum sizes, availability under coordinator crashes, load balance,
//! collision costs, disk writes, scenario crossovers). Each claim is
//! reproduced here as a deterministic simulation experiment;
//! `cargo run --bin gen_experiments` prints one table per experiment and
//! regenerates `EXPERIMENTS.md`.

pub mod churn_bench;
pub mod experiments;
pub mod harness;
pub mod history_workloads;
pub mod shard_bench;
pub mod table;
pub mod throughput_bench;
pub mod wal_bench;
pub mod wire_bench;

pub use harness::ClusterHarness;
pub use shard_bench::ShardedHarness;
pub use table::Table;

/// All experiment tables, in report order.
pub fn all_experiments() -> Vec<Table> {
    vec![
        experiments::e1_latency(),
        experiments::e2_quorums(),
        experiments::e3_availability(),
        experiments::e4_load_balance(),
        experiments::e5_collision_cost(),
        experiments::e6_conflict_rate(),
        experiments::e7_disk_writes(),
        experiments::e8_crossover(),
        experiments::e9_generic_broadcast(),
        experiments::a1_coordquorum_size(),
        experiments::e10_wire(),
        experiments::e11_wal(),
        experiments::e12_shards(),
        experiments::e13_churn(),
        experiments::e14_throughput(),
    ]
}
