//! Experiment harness reproducing the quantitative claims of the
//! *Multicoordinated Paxos* paper.
//!
//! The paper is a theory report: its "evaluation" is the set of
//! quantitative claims made in §2 and §4 (latency in communication steps,
//! quorum sizes, availability under coordinator crashes, load balance,
//! collision costs, disk writes, scenario crossovers). Each claim is
//! reproduced here as a deterministic simulation experiment;
//! `cargo run --bin gen_experiments` prints one table per experiment and
//! regenerates `EXPERIMENTS.md`. The tables are also the regression gate:
//! the builders assert their floors before rendering, and
//! `gen_experiments --check` compares the rendering with the checked-in
//! file via [`first_difference`].

pub mod churn_bench;
pub mod experiments;
pub mod harness;
pub mod shard_bench;
pub mod table;
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
    ]
}

/// The first place a fresh rendering of the report departs from the
/// checked-in file: the 1-based line number and that line on each side
/// (`None` = that side has already ended).
pub type Mismatch<'a> = (usize, Option<&'a str>, Option<&'a str>);

/// The first line at which `checked_in` and `rendered` differ, `None` iff
/// the two texts are byte-identical (lines split on `\n` only, so a
/// missing final newline or a stray `\r` is a difference too).
pub fn first_difference<'a>(checked_in: &'a str, rendered: &'a str) -> Option<Mismatch<'a>> {
    let (mut a, mut b) = (checked_in.split('\n'), rendered.split('\n'));
    (1..)
        .map(|line| (line, a.next(), b.next()))
        .take_while(|(_, x, y)| x.is_some() || y.is_some())
        .find(|(_, x, y)| x != y)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(cell: &str, tables: usize) -> String {
        let mut t = Table::new("E0 — demo", "things hold", &["name", "value"]);
        t.push(&["alpha", cell]);
        let one = t.with_note("a note").render_markdown();
        format!("# title\n\n{}", one.repeat(tables))
    }

    #[test]
    fn equal_reports_have_no_difference() {
        assert_eq!(first_difference(&report("1", 2), &report("1", 2)), None);
    }

    #[test]
    fn a_changed_cell_is_reported_with_its_line_and_both_sides() {
        // title, blank, heading, blank, claim, blank, header, rule, row.
        assert_eq!(
            first_difference(&report("1", 2), &report("2", 2)),
            Some((9, Some("| alpha | 1 |"), Some("| alpha | 2 |")))
        );
    }

    #[test]
    fn a_missing_trailing_table_is_reported_not_a_panic() {
        let (short, long) = (report("1", 1), report("1", 2));
        // The short text ends with the empty piece after its last `\n`,
        // exactly where the long one starts its second table.
        let at = short.split('\n').count();
        assert_eq!(
            first_difference(&short, &long),
            Some((at, Some(""), Some("### E0 — demo")))
        );
        assert_eq!(
            first_difference(&long, &short),
            Some((at, Some("### E0 — demo"), Some("")))
        );
        // A side that ends outright (no final newline) reads `None`.
        let cut = short.trim_end_matches('\n');
        assert_eq!(
            first_difference(cut, &short),
            Some((at - 1, None, Some("")))
        );
    }
}
