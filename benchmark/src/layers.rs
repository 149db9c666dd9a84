//! What the traced runs of all workloads report the same way: the
//! per-layer metrics that come straight from the wrappers' sums, the
//! layer table and the span file.

use crate::deploy::{CStructTimes, Counters, TraceReport};
use crate::measure::Commit;
use crate::spec::Report;
use crate::trace::{self, LayerRow};
use crate::Args;

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Sets the metrics every traced run derives from its wrappers and
/// returns the layer rows they give. `t` covers `traced_cmds` commands
/// (a TCP trace includes the warm-up), `c` covers `counted_cmds`.
pub fn set_common(
    r: &mut Report,
    cs: &CStructTimes,
    t: &TraceReport,
    c: &Counters,
    traced_cmds: f64,
    counted_cmds: f64,
) -> Vec<LayerRow> {
    let us_per_cmd = |ns: u64| ns as f64 / 1e3 / traced_cmds;
    let per_k = |x: u64| x as f64 * 1e3 / counted_cmds;
    r.set("cstruct.live_len_max", cs.live_len_max as f64);
    r.set("cstruct.append_ns", cs.append_ns);
    r.set("cstruct.glb_ns", cs.glb_ns);
    r.set("cstruct.lub_ns", cs.lub_ns);
    r.set("cstruct.compatible_ns", cs.compatible_ns);
    r.set("cstruct.suffix_apply_ns", cs.suffix_apply_ns);
    r.set("actor.wire_encode_ns", t.codec.wire_encode_ns);
    r.set("actor.wire_decode_ns", t.codec.wire_decode_ns);
    r.set("actor.wire_bytes_per_msg", t.codec.wire_bytes_per_msg);
    r.set("actor.frame_encode_ns", t.codec.frame_encode_ns);
    r.set("actor.frame_decode_ns", t.codec.frame_decode_ns);
    r.set(
        "actor.wal_records_per_flush",
        ratio(t.store_records, t.store_syncs),
    );
    r.set("actor.wal_flush_us_p50", t.sync_us_p50);
    r.set("actor.wal_flush_us_p99", t.sync_us_p99);
    r.set("actor.wal_busy_us_per_cmd", us_per_cmd(t.store_ns));
    r.set("core.proposer_us_per_cmd", us_per_cmd(t.proposer_ns));
    r.set("core.coordinator_us_per_cmd", us_per_cmd(t.coordinator_ns));
    r.set("core.acceptor_us_per_cmd", us_per_cmd(t.acceptor_ns));
    r.set("core.learner_us_per_cmd", us_per_cmd(t.learner_ns));
    r.set("core.upcalls_per_cmd", t.upcalls as f64 / traced_cmds);
    r.set("core.msgs_per_cmd", t.sends as f64 / traced_cmds);
    r.set("core.cmds_per_batch", ratio(c.batched_cmds, c.batches));
    r.set("core.resends_per_kcmd", per_k(c.resends));
    r.set("core.full_resyncs_per_kcmd", per_k(c.full_resyncs));
    r.set(
        "core.delta_share",
        100.0 * ratio(c.delta_sends, t.payload_sends),
    );
    r.set("core.rounds_started", c.rounds_started as f64);
    r.set("core.collisions_per_kcmd", per_k(c.collisions));
    r.set("core.failovers", c.failovers as f64);
    r.set("core.false_suspicions", c.false_suspicions as f64);
    r.set("smr.apply_us_per_cmd", us_per_cmd(t.machine_ns));
    r.set("smr.checkpoints", c.checkpoints as f64);
    r.set("trace.spans", t.spans.len() as f64);
    [
        ("core.proposer", t.proposer_ns),
        ("core.coordinator", t.coordinator_ns),
        ("core.acceptor", t.acceptor_ns),
        ("core.learner + gbcast", t.learner_ns),
        ("smr state machine", t.machine_ns),
        ("actor.storage", t.store_ns),
        ("ctx.send", t.send_ns),
    ]
    .map(|(layer, ns)| LayerRow {
        layer,
        self_us_per_cmd: us_per_cmd(ns),
        counted: true,
    })
    .to_vec()
}

/// The layer table of one traced run.
pub struct LayerTable<'a> {
    pub title: &'a str,
    pub rows: Vec<LayerRow>,
    /// What the counted rows are shares of, in µs per command.
    pub end_to_end_us: f64,
}

/// Prints the layer table, records how much of the end-to-end cost its
/// rows cover and writes the spans out; returns what went wrong writing.
pub fn finish(
    args: &Args,
    table: &LayerTable<'_>,
    r: &mut Report,
    t: &mut TraceReport,
    commits: &[Commit],
) -> Option<String> {
    r.set(
        "trace.covered_pct",
        100.0 * trace::covered_us_per_cmd(&table.rows) / table.end_to_end_us,
    );
    trace::print_layer_table(table.title, &table.rows, table.end_to_end_us);
    let path = args.out_dir.join(format!("trace-{}.jsonl", args.workload));
    match trace::write_jsonl(&path, &mut t.spans, commits) {
        Ok(()) => {
            println!(
                "{} spans written to {} ({} more were only summed)",
                t.spans.len(),
                path.display(),
                t.spans_dropped
            );
            None
        }
        Err(e) => Some(format!("cannot write {}: {e}", path.display())),
    }
}
