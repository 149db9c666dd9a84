//! `tcp-open`: the production preset on three in-process nodes over
//! loopback, fed open-loop from one thread at a fixed rate well below
//! capacity. A saturating closed loop on a two-core box measures the
//! scheduler, not the program.

use crate::checks::check_outputs;
use crate::deploy::{commands, Cmd, Counters, TcpCluster, TransportCounters};
use crate::measure::{self, latencies, Latencies};
use crate::spec::{Report, END_TO_END, PER_LAYER};
use crate::trace::now_ns;
use crate::{layers, Args, Outcome};
use std::time::Duration;

/// Offered load, commands per second: about a fifth of what the
/// cluster sustains on two cores.
const RATE: u64 = 2_000;
const PERIOD_NS: u64 = 1_000_000_000 / RATE;
/// Commands sent before the timed window, on the same schedule.
const WARM_UP: u64 = 2_000;
/// How long the reference replica may take to apply the tail after the
/// last due time, and the others to catch up after that.
const SETTLE: Duration = Duration::from_secs(5);
/// Every figure is taken per window of this many commands (one second
/// of load) and summarised over the windows; see [`good_second`].
const WINDOW: usize = RATE as usize;
/// Full resyncs per 1 000 commands above which a second counts as
/// stormed: a healthy second sees 30 to 130, a stormed one about 1 000.
const STORM_RESYNCS_PER_KCMD: f64 = 400.0;
/// A run whose generator was later than this at the 99th percentile did
/// not offer the load it claims.
const LATE_LIMIT_US: f64 = 2_000.0;

fn sleep_until(deadline_ns: u64) {
    let now = now_ns();
    if deadline_ns > now {
        std::thread::sleep(Duration::from_nanos(deadline_ns - now));
    }
}

fn wait_for(what: impl Fn() -> bool, limit: Duration) -> bool {
    let deadline = now_ns() + limit.as_nanos() as u64;
    while !what() {
        if now_ns() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    true
}

fn pct(l: &Latencies, q: f64) -> f64 {
    let mut v: Vec<f64> = l.per_cmd.iter().map(|&ns| ns as f64 / 1e6).collect();
    measure::percentile(&mut v, q)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let seconds = if args.quick {
        1.0
    } else {
        args.seconds.max(1.0)
    };
    let warm = if args.quick { WARM_UP / 4 } else { WARM_UP };
    let n = (seconds * RATE as f64) as u64;
    let dir = args
        .out_dir
        .join(format!("tcp-open-{}", std::process::id()));
    let result = if args.workload == "defect-tcp-closed-loop" {
        closed_loop(args, &dir)
    } else if args.trace {
        run_both(args, &dir, warm, n)
    } else {
        run_in(args, &dir, warm, n)
    };
    std::fs::remove_dir_all(&dir).ok();
    result
}

/// The traced variant: half the time untraced, half traced, each on a
/// cluster of its own, so the tracer's overhead is measured in one
/// process under one load.
fn run_both(args: &Args, dir: &std::path::Path, warm: u64, n: u64) -> Result<Outcome, String> {
    let half = (n / 2).max(WINDOW as u64);
    let plain_args = Args {
        trace: false,
        ..args.clone()
    };
    let plain = run_in(&plain_args, &dir.join("plain"), warm, half)?;
    if plain.retry.is_some() {
        // A wedged cluster keeps both cores busy; nothing after it counts.
        return Ok(Outcome {
            report: Report::new(&PER_LAYER),
            ..plain
        });
    }
    let mut traced = run_in(args, &dir.join("traced"), warm, half)?;
    let cpu = |o: &Outcome, name: &str| o.report.get(name).unwrap_or(0.0);
    let (with, without) = (
        cpu(&traced, "traced.cpu_us_per_cmd"),
        cpu(&plain, "cpu_us_per_cmd"),
    );
    if without > 0.0 {
        traced
            .report
            .set("trace.overhead_pct", 100.0 * (with / without - 1.0));
    }
    traced.problems.extend(plain.problems);
    Ok(traced)
}

/// Counters read at a window boundary.
struct Sample {
    at_ns: u64,
    fsyncs: u64,
    alloc_bytes: u64,
    cpu_s: f64,
    counters: Counters,
    transport: TransportCounters,
}

fn sample(cluster: &TcpCluster) -> Sample {
    let (counters, transport) = cluster.counters();
    Sample {
        at_ns: now_ns(),
        fsyncs: cluster.fsyncs(),
        alloc_bytes: measure::alloc_bytes(),
        cpu_s: measure::cpu_seconds().unwrap_or(0.0),
        counters,
        transport,
    }
}

/// The figure of a good second: the lower quartile over the run's
/// one-second windows (three windows in four did worse). A whole-run
/// percentile carries every stall of the box in full — about one window
/// in eight meets one of tens of milliseconds here — and even the median
/// window moves with them; the lower quartile repeats within a few
/// percent and still rises with anything that slows every second down.
fn good_second(per_window: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = per_window.collect();
    measure::percentile(&mut v, 25.0)
}

fn run_in(args: &Args, dir: &std::path::Path, warm: u64, n: u64) -> Result<Outcome, String> {
    let setup_from = now_ns();
    let proposed: Vec<Cmd> = commands(args.seed, 0, 0.0, (warm + n) as usize);
    let cluster = TcpCluster::start(dir, args.trace).map_err(|e| format!("tcp cluster: {e}"))?;

    // What an idle cluster burns: heartbeats, poll timeouts, accept loops.
    let mut idle_cpu_ms_per_s = 0.0;
    if args.trace {
        std::thread::sleep(Duration::from_millis(300));
        let (cpu0, t0) = (measure::cpu_seconds().unwrap_or(0.0), now_ns());
        std::thread::sleep(Duration::from_secs(1));
        let cpu = measure::cpu_seconds().unwrap_or(0.0) - cpu0;
        idle_cpu_ms_per_s = cpu * 1e3 / ((now_ns() - t0) as f64 / 1e9);
    }

    // One schedule for warm-up and window: the k-th command is due
    // k periods after the start, whatever happened to the ones before.
    let start = now_ns() + 5_000_000;
    let due_at = |k: u64| start + k * PERIOD_NS;
    let mut late_us: Vec<f64> = Vec::with_capacity(n as usize);
    let mut send_us: Vec<f64> = Vec::with_capacity(n as usize);
    let mut samples: Vec<Sample> = Vec::new();
    let mut setup_s = 0.0;
    for (k, cmd) in proposed.iter().enumerate() {
        let k = k as u64;
        if k >= warm && (k - warm).is_multiple_of(WINDOW as u64) {
            if k == warm {
                setup_s = (due_at(k).max(now_ns()) - setup_from) as f64 / 1e9;
            }
            // Reading the counters costs tens of microseconds, once a
            // second, before the next command is due.
            samples.push(sample(&cluster));
        }
        sleep_until(due_at(k));
        let sent = now_ns();
        cluster.propose(cmd.clone());
        if k >= warm {
            late_us.push(sent.saturating_sub(due_at(k)) as f64 / 1e3);
            send_us.push((now_ns() - sent) as f64 / 1e3);
        }
    }
    let total = warm + n;
    let done = wait_for(|| cluster.applied()[0] >= total, SETTLE);
    samples.push(sample(&cluster));
    let applied = cluster.applied();
    if !done {
        // Known defect (e): now and then the coordinators spin in an
        // upcall for good. Their threads can be neither stopped nor
        // joined, so the cluster is abandoned and the process must end.
        return Ok(wedged(
            n,
            format!(
                "replica 0 applied {} of {total} commands within {SETTLE:?} of the last due time",
                applied[0]
            ),
        ));
    }
    let lag = applied[1..]
        .iter()
        .map(|&a| applied[0].saturating_sub(a))
        .max()
        .unwrap_or(0);
    let threads = measure::thread_count();
    wait_for(|| cluster.applied().iter().all(|&a| a >= total), SETTLE);

    let commits = cluster.commits();
    // Stopping joins every thread, which a spinning one never allows.
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        // The receiver is gone if it gave up waiting.
        tx.send(cluster.stop()).ok();
    });
    let Ok(stopped) = rx.recv_timeout(SETTLE) else {
        return Ok(wedged(
            n,
            format!("the cluster did not stop within {SETTLE:?}"),
        ));
    };
    let due: Vec<u64> = (warm..total).map(due_at).collect();
    let whole = latencies(&due, &commits, warm);
    let windows: Vec<Latencies> = due
        .chunks(WINDOW)
        .enumerate()
        .map(|(i, w)| latencies(w, &commits, warm + (i * WINDOW) as u64))
        .collect();
    let mut problems = Vec::new();
    check_outputs("tcp-open", &proposed, &stopped.replicas, &mut problems);
    let late_p99 = good_second(late_us.chunks(WINDOW).map(|w| {
        let mut w = w.to_vec();
        measure::percentile(&mut w, 99.0)
    }));
    let mut retry = None;
    // A smoke run has one window, and that one straight after start-up.
    if late_p99 > LATE_LIMIT_US && !args.quick {
        let why = format!(
            "generator ran {late_p99:.0} us late at the 99th percentile of a good second \
             (limit {LATE_LIMIT_US} us): the run did not offer its load on schedule"
        );
        if args.last_attempt {
            problems.push(why);
        } else {
            retry = Some(why);
        }
    }
    // Known defect (f): at a random moment the cluster falls into
    // answering most payloads with NeedFull and stays there, at five
    // times the bytes per command. Numbers from both modes in one set of
    // runs say nothing about either, so a stormed attempt is repeated;
    // the last attempt reports whatever it saw.
    let stormed = samples
        .windows(2)
        .zip(due.chunks(WINDOW))
        .filter(|(s, w)| {
            let resyncs = s[1].counters.full_resyncs - s[0].counters.full_resyncs;
            resyncs as f64 * 1e3 / w.len() as f64 > STORM_RESYNCS_PER_KCMD
        })
        .count();
    if 4 * stormed > windows.len() {
        let why = format!(
            "{stormed} of {} seconds saw more than {STORM_RESYNCS_PER_KCMD} full resyncs \
             per 1000 commands (a healthy second sees 30 to 130)",
            windows.len()
        );
        println!("tcp-open: resync storm: {why}");
        if !args.last_attempt {
            retry = Some(why);
        }
    }

    let (first, last) = (&samples[0], &samples[samples.len() - 1]);
    let nf = n as f64;
    // Per-command figures of each window, from the samples around it.
    let per_cmd = |f: &dyn Fn(&Sample, &Sample) -> f64| {
        good_second(
            samples
                .windows(2)
                .zip(due.chunks(WINDOW))
                .map(|(s, w)| f(&s[0], &s[1]) / w.len() as f64),
        )
    };
    // Not calibrated like the simulated workloads' wall clock: next to
    // 54 busy threads the calibration kernel measures the scheduler, and
    // dividing by it doubled the spread (8 % to 17 % over ten runs).
    let cpu_us_per_cmd = per_cmd(&|a, b| (b.cpu_s - a.cpu_s) * 1e6);
    let frame_bytes_per_cmd =
        per_cmd(&|a, b| (b.transport.frame_bytes - a.transport.frame_bytes) as f64);
    let fsyncs_per_cmd = per_cmd(&|a, b| (b.fsyncs - a.fsyncs) as f64);
    // Higher is better here, so the good second is the upper quartile.
    let commit_cps = -good_second(
        samples
            .windows(2)
            .zip(&windows)
            .map(|(s, l)| -(l.per_cmd.len() as f64) * 1e9 / (s[1].at_ns - s[0].at_ns) as f64),
    );
    if !args.trace {
        let mut r = Report::new(&END_TO_END);
        r.set("setup_s", setup_s);
        r.set("commit_cps", commit_cps);
        r.set(
            "commit_p50_ticks",
            good_second(windows.iter().map(|l| pct(l, 50.0))),
        );
        r.set(
            "commit_p99_ticks",
            good_second(windows.iter().map(|l| pct(l, 99.0))),
        );
        r.set(
            "unavail_ticks",
            good_second(windows.iter().map(|l| l.unavail as f64 / 1e6)),
        );
        r.set("fsyncs_per_cmd", fsyncs_per_cmd);
        r.set("wire_bytes_per_cmd", frame_bytes_per_cmd);
        r.set(
            "alloc_kb_per_cmd",
            per_cmd(&|a, b| (b.alloc_bytes - a.alloc_bytes) as f64 / 1024.0),
        );
        r.set("cpu_us_per_cmd", cpu_us_per_cmd);
        r.set("peak_rss_mb", measure::peak_rss_mb().unwrap_or(0.0));
        println!(
            "tcp-open: {n} commands at {RATE}/s after {warm} warm-up, {threads} threads, \
             generator p99 {late_p99:.0} us late in a good second"
        );
        return Ok(Outcome {
            attempted: n,
            failed: whole.missing,
            problems,
            retry,
            report: r,
        });
    }

    let (transport0, transport1) = (first.transport, last.transport);
    let frames = transport1.frames - transport0.frames;
    let mut t = stopped.trace.expect("a traced run has a trace");
    // Rounds, failovers and suspicions count from the start; the rest
    // is what the timed window added.
    let counters = Counters {
        rounds_started: last.counters.rounds_started,
        failovers: last.counters.failovers,
        false_suspicions: last.counters.false_suspicions,
        ..last.counters.since(&first.counters)
    };
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let mut r = Report::new(&PER_LAYER);
    // The trace covers the warm-up too, the counters the window only.
    let mut rows = layers::set_common(
        &mut r,
        &stopped.cstruct,
        &t,
        &counters,
        (warm + n) as f64,
        nf,
    );
    r.set("actor.wal_writes_per_cmd", fsyncs_per_cmd);
    r.set("smr.replica_lag_max", lag as f64);
    r.set(
        "runtime.send_us_p50",
        measure::percentile(&mut send_us, 50.0),
    );
    r.set("runtime.frames_per_cmd", frames as f64 / nf);
    r.set("runtime.frame_bytes_per_cmd", frame_bytes_per_cmd);
    r.set(
        "runtime.queue_depth_avg",
        ratio(
            transport1.queue_depth_sum - transport0.queue_depth_sum,
            transport1.queue_samples - transport0.queue_samples,
        ),
    );
    r.set(
        "runtime.queue_drops",
        (transport1.queue_drops - transport0.queue_drops) as f64,
    );
    r.set("runtime.reconnects", transport1.reconnects as f64);
    r.set("runtime.threads", threads as f64);
    r.set("runtime.idle_cpu_ms_per_s", idle_cpu_ms_per_s);
    r.set("runtime.commit_p90_ticks", pct(&whole, 90.0));
    r.set("runtime.commit_max_ticks", pct(&whole, 100.0));
    r.set("gen.late_p99_us", late_p99);
    r.set(
        "gen.late_max_us",
        late_us.iter().copied().fold(0.0, f64::max),
    );
    r.set("traced.commit_cps", commit_cps);
    r.set("traced.cpu_us_per_cmd", cpu_us_per_cmd);
    r.set("traced.ops_attempted", nf);
    r.set("traced.ops_failed", whole.missing as f64);

    // Threads overlap, so the rows are shares of CPU time per command,
    // not of latency; what they leave over is the runtime's own threads
    // (socket reads and writes, framing, the codec) and the kernel. Time
    // blocked in `sync_data` is not CPU time.
    for row in rows.iter_mut().filter(|r| r.layer == "actor.storage") {
        row.counted = false;
    }
    let table = layers::LayerTable {
        title: "tcp-open, CPU time",
        rows,
        end_to_end_us: cpu_us_per_cmd,
    };
    problems.extend(layers::finish(args, &table, &mut r, &mut t, &commits));
    Ok(Outcome {
        attempted: n,
        failed: whole.missing,
        problems,
        retry,
        report: r,
    })
}

/// What is left of an attempt whose cluster wedged: nothing measured,
/// every operation failed, worth another attempt.
fn wedged(n: u64, why: String) -> Outcome {
    Outcome {
        attempted: n,
        failed: n,
        problems: vec![why.clone()],
        retry: Some(why),
        report: Report::new(&END_TO_END),
    }
}

/// A known defect as a scenario, not part of the benchmark: a closed
/// loop that keeps 256 commands in flight saturates the cluster, and
/// about one run in three then grows memory until the guard's cap kills
/// it. Reports how far it got.
fn closed_loop(args: &Args, dir: &std::path::Path) -> Result<Outcome, String> {
    const IN_FLIGHT: u64 = 256;
    let n = (args.seconds.max(1.0) * 10_000.0) as u64;
    let proposed: Vec<Cmd> = commands(args.seed, 0, 0.0, n as usize);
    let cluster = TcpCluster::start(dir, false).map_err(|e| format!("tcp cluster: {e}"))?;
    let started = now_ns();
    let limit = started + (args.seconds.max(1.0) * 3e9) as u64;
    let mut sent = 0u64;
    loop {
        let applied = cluster.applied()[0];
        if applied >= n || now_ns() > limit {
            break;
        }
        while sent < n && sent - applied < IN_FLIGHT {
            cluster.propose(proposed[sent as usize].clone());
            sent += 1;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    let seconds = (now_ns() - started) as f64 / 1e9;
    let applied = cluster.applied()[0].min(n);
    let stopped = cluster.stop();
    let mut problems = Vec::new();
    check_outputs("closed loop", &proposed, &stopped.replicas, &mut problems);
    let mut r = Report::new(&END_TO_END);
    r.set("commit_cps", applied as f64 / seconds);
    r.set("peak_rss_mb", measure::peak_rss_mb().unwrap_or(0.0));
    println!("closed loop: {applied} of {n} commands committed in {seconds:.1} s");
    Ok(Outcome {
        attempted: n,
        failed: n - applied,
        problems,
        retry: None,
        report: r,
    })
}
