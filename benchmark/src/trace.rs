//! Spans recorded by the benchmark's wrappers around the calls into
//! each layer. Spans stay in memory during the run and are written as
//! JSON lines when it ends.

use crate::measure::Commit;
use std::io::Write;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Wall nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One timed interval at a layer boundary. `parent` is 0 for an upcall
/// and the upcall's id for the storage, send and state-machine calls it
/// caused.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub layer: &'static str,
    pub name: &'static str,
    pub pid: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A bounded span buffer: sums are always kept by the owner, raw spans
/// only until `cap`, so a long traced run cannot exhaust memory.
#[derive(Debug)]
pub struct SpanBuf {
    pub spans: Vec<Span>,
    pub dropped: u64,
    cap: usize,
    next_id: u64,
}

/// Raw spans kept per wrapper; the sums cover every span regardless.
pub const SPANS_PER_WRAPPER: usize = 16_384;

impl SpanBuf {
    /// Ids are unique across wrappers: the high half is the process id
    /// (plus a discriminator bit for storage wrappers), the low half a
    /// local counter.
    pub fn new(id_space: u32) -> Self {
        SpanBuf {
            spans: Vec::new(),
            dropped: 0,
            cap: SPANS_PER_WRAPPER,
            next_id: u64::from(id_space) << 32,
        }
    }

    pub fn next_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    pub fn push(&mut self, span: Span) {
        if self.spans.len() < self.cap {
            self.spans.push(span);
        } else {
            self.dropped += 1;
        }
    }
}

/// Writes `spans` (sorted by start) to `path`, one JSON object per
/// line. `trace_id` is the index of the first commit record at or after
/// the span's end, so the spans between two commits share an id with
/// the commands that commit covered.
pub fn write_jsonl(path: &Path, spans: &mut [Span], commits: &[Commit]) -> std::io::Result<()> {
    spans.sort_by_key(|s| (s.start_ns, s.id));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans.iter() {
        let trace_id = commits.partition_point(|c| c.wall_ns < s.end_ns);
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"layer\":\"{}\",\"name\":\"{}\",\"pid\":{},\
             \"start_ns\":{},\"end_ns\":{},\"trace_id\":{}}}",
            s.id, s.parent, s.layer, s.name, s.pid, s.start_ns, s.end_ns, trace_id
        )?;
    }
    out.flush()
}

/// One row of the layer table: time a layer spent on its own work.
#[derive(Clone, Debug)]
pub struct LayerRow {
    pub layer: &'static str,
    pub self_us_per_cmd: f64,
    /// Whether the row is part of the end-to-end cost the table is
    /// compared with. Time blocked in `fsync` is not CPU time, so over
    /// TCP the storage row is shown but not counted.
    pub counted: bool,
}

/// What the counted rows add up to.
pub fn covered_us_per_cmd(rows: &[LayerRow]) -> f64 {
    rows.iter()
        .filter(|r| r.counted)
        .map(|r| r.self_us_per_cmd)
        .sum()
}

/// Prints the layer table: µs per command and share of the end-to-end
/// cost per layer, with the unattributed remainder as its own row.
pub fn print_layer_table(workload: &str, rows: &[LayerRow], end_to_end_us_per_cmd: f64) {
    println!("layer table · {workload} (traced run; end to end {end_to_end_us_per_cmd:.2} us/cmd)");
    println!("  {:<22} {:>12} {:>8}", "layer", "us/cmd", "share");
    for r in rows {
        let share = 100.0 * r.self_us_per_cmd / end_to_end_us_per_cmd.max(f64::MIN_POSITIVE);
        if r.counted {
            println!(
                "  {:<22} {:>12.3} {share:>7.1}%",
                r.layer, r.self_us_per_cmd
            );
        } else {
            println!(
                "  {:<22} {:>12.3}   (wall time blocked, not counted)",
                r.layer, r.self_us_per_cmd
            );
        }
    }
    let residual = end_to_end_us_per_cmd - covered_us_per_cmd(rows);
    println!(
        "  {:<22} {:>12.3} {:>7.1}%",
        "(residual)",
        residual,
        100.0 * residual / end_to_end_us_per_cmd.max(f64::MIN_POSITIVE)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_is_bounded_and_ids_are_disjoint_per_wrapper() {
        let mut a = SpanBuf::new(1);
        let mut b = SpanBuf::new(2);
        assert_ne!(a.next_id(), b.next_id());
        let span = Span {
            id: 1,
            parent: 0,
            layer: "core",
            name: "2a",
            pid: 1,
            start_ns: 0,
            end_ns: 1,
        };
        for _ in 0..SPANS_PER_WRAPPER + 5 {
            a.push(span);
        }
        assert_eq!(a.spans.len(), SPANS_PER_WRAPPER);
        assert_eq!(a.dropped, 5);
    }
}
