//! Process-level measurement: a counting allocator, CPU time and peak
//! memory from `/proc`, nearest-rank percentiles, and the linear merge
//! that turns commit records and due times into per-command latencies.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Wraps the system allocator and counts the bytes every thread asks
/// for. The count is a statistic that publishes no other data, hence
/// `Relaxed`.
pub struct CountingAlloc;

static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter update touches
// no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: same layout the caller handed us.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: same layout the caller handed us.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Only growth is new demand; a shrink asks for nothing.
        ALLOC_BYTES.fetch_add(
            new_size.saturating_sub(layout.size()) as u64,
            Ordering::Relaxed,
        );
        // SAFETY: `ptr`/`layout` describe a live `System` block and
        // `new_size` is the caller's, forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Bytes requested from the allocator since process start.
pub fn alloc_bytes() -> u64 {
    ALLOC_BYTES.load(Ordering::Relaxed)
}

/// A fixed piece of work — allocate, fill, format, free — timed right
/// after each slice of a simulated rep. This box slows a thread down by
/// up to a third for anything from milliseconds to minutes, and this
/// kernel slows down with it: dividing a slice's wall clock by how much
/// slower than [`CALIBRATION_REF_S`] the kernel just ran takes most of
/// that out (measured on `sim-paper`: spread over 20 reps 12.4 % raw,
/// 3.7 % calibrated).
pub struct Calibration {
    x: u64,
    text: String,
}

/// What one [`Calibration::run`] takes on the box the benchmark was
/// sized on when nothing disturbs it. Only ratios to it are used, so on
/// other hardware every calibrated figure shifts by one constant factor.
pub const CALIBRATION_REF_S: f64 = 140e-6;

impl Default for Calibration {
    fn default() -> Self {
        Calibration {
            x: 88_172_645_463_325_252,
            text: String::new(),
        }
    }
}

impl Calibration {
    /// Runs the kernel once; returns how much slower than the reference
    /// it ran (1.0 = undisturbed).
    pub fn run(&mut self) -> f64 {
        use std::fmt::Write;
        let start = std::time::Instant::now();
        for _ in 0..4 {
            self.x ^= self.x << 13;
            self.x ^= self.x >> 7;
            self.x ^= self.x << 17;
            let v: Vec<u64> = (0..2048u64).map(|i| i ^ self.x).collect();
            self.text.clear();
            write!(self.text, "{v:?}").expect("writing to a String cannot fail");
            std::hint::black_box(&self.text);
        }
        start.elapsed().as_secs_f64() / CALIBRATION_REF_S
    }
}

/// Kernel clock ticks per second. `sysconf(_SC_CLK_TCK)` needs libc; on
/// Linux the value has been 100 on every architecture for two decades.
const CLK_TCK: f64 = 100.0;

/// User + system CPU seconds of the whole process (all threads), from
/// `/proc/self/stat`. `None` off Linux or if the file is malformed.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may contain spaces; fields resume after ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut f = rest.split_whitespace();
    // After ')' comes field 3 (state); utime and stime are 14 and 15.
    let utime: f64 = f.nth(11)?.parse().ok()?;
    let stime: f64 = f.next()?.parse().ok()?;
    Some((utime + stime) / CLK_TCK)
}

fn status_kb(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> Option<f64> {
    status_kb("VmHWM:").map(|kb| kb / 1024.0)
}

/// Live threads of this process.
pub fn thread_count() -> u64 {
    std::fs::read_dir("/proc/self/task")
        .map(|d| d.count() as u64)
        .unwrap_or(0)
}

/// Nearest-rank percentile of an ascending slice (`q` in 0..=100).
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `values` and returns its nearest-rank percentile.
pub fn percentile(values: &mut [f64], q: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile_sorted(values, q)
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// One observation of the reference replica: at `clock` (simulated
/// ticks, or wall nanoseconds over TCP) it had applied `count` commands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Commit {
    pub clock: u64,
    pub count: u64,
    /// Wall nanoseconds since the cluster's epoch (equals `clock` over
    /// TCP); lets a span be matched to the commit that followed it.
    pub wall_ns: u64,
}

/// What one run's commit records say about its commands.
#[derive(Clone, Debug, Default)]
pub struct Latencies {
    /// `commit − due` for every committed command, in due order.
    pub per_cmd: Vec<u64>,
    /// Commands due but never committed.
    pub missing: u64,
    /// Longest stretch during which a due command waited and nothing
    /// committed.
    pub unavail: u64,
    /// Clock of the commit that covered the last command.
    pub last_commit: u64,
}

/// Merges ascending `due` times with `commits` (ascending in clock and
/// count) in one pass. The k-th command commits at the first record
/// whose count exceeds k; `skip` commands (a warm-up) precede `due[0]`.
pub fn latencies(due: &[u64], commits: &[Commit], skip: u64) -> Latencies {
    let mut out = Latencies {
        per_cmd: Vec::with_capacity(due.len()),
        ..Latencies::default()
    };
    let mut k = 0usize;
    let mut prev_clock = due.first().copied().unwrap_or(0);
    for c in commits {
        let covered = (c.count.saturating_sub(skip) as usize).min(due.len());
        if k < covered {
            // The oldest uncommitted command waited since it was due or
            // since the previous commit, whichever is later.
            let waiting_since = prev_clock.max(due[k]);
            out.unavail = out.unavail.max(c.clock.saturating_sub(waiting_since));
            out.last_commit = c.clock;
        }
        while k < covered {
            out.per_cmd.push(c.clock.saturating_sub(due[k]));
            k += 1;
        }
        prev_clock = prev_clock.max(c.clock);
        if k == due.len() {
            break;
        }
    }
    out.missing = (due.len() - k) as u64;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(clock: u64, count: u64) -> Commit {
        Commit {
            clock,
            count,
            wall_ns: 0,
        }
    }

    #[test]
    fn merge_assigns_each_command_its_first_covering_commit() {
        let due = [10, 10, 20, 30];
        let commits = [c(13, 2), c(25, 3), c(90, 4)];
        let l = latencies(&due, &commits, 0);
        assert_eq!(l.per_cmd, vec![3, 3, 5, 60]);
        assert_eq!(l.missing, 0);
        // Command 3 was due at 30, nothing committed until 90.
        assert_eq!(l.unavail, 60);
        assert_eq!(l.last_commit, 90);
    }

    #[test]
    fn warm_up_commands_are_skipped_and_missing_ones_counted() {
        let due = [100, 200, 300];
        let commits = [c(50, 2), c(150, 3), c(250, 4)];
        let l = latencies(&due, &commits, 2);
        assert_eq!(l.per_cmd, vec![50, 50]);
        assert_eq!(l.missing, 1);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 50.0), 50.0);
        assert_eq!(percentile(&mut v, 99.0), 99.0);
        assert_eq!(percentile(&mut v, 100.0), 100.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
