//! The four workloads on the simulated clock. A repetition ("rep")
//! deploys fresh clusters, offers their commands open-loop from their
//! due times and stops the wall clock when the reference replica has
//! applied the last one. Counts are read from the first rep, which also
//! meters bytes; wall-clock figures from the timed reps after it.

use crate::checks::check_outputs;
use crate::deploy::{
    commands, CStructTimes, Cmd, Counters, Preset, Rounds, SimCluster, SimSpec, TraceReport,
};
use crate::measure::{self, latencies, Commit};
use crate::spec::{Report, END_TO_END, PER_LAYER};
use crate::trace::LayerRow;
use crate::{layers, Args, Outcome};
use std::time::Instant;

/// First due time: the cluster has elected its first round by then.
const FIRST_DUE: u64 = 100;
/// Ticks a cluster keeps running after the last commit so the other
/// replicas can catch up before the output checks (5 simulated seconds).
const SETTLE_TICKS: u64 = 5_000;
/// Raw spans kept from a rep made of many clusters.
const SPANS_PER_REP: usize = 200_000;

/// One open-loop schedule over one cluster.
#[derive(Clone, Copy, Debug)]
struct Shape {
    preset: Preset,
    /// Share of commands on the one hot key.
    rho: f64,
    n: usize,
    /// `cmds` commands become due every `every` ticks, dealt to the
    /// proposers in turn.
    cmds: u64,
    every: u64,
    delay: (u64, u64),
    /// Three datacenters instead of one flat network.
    wan: bool,
    /// Ticks after the last due time by which everything must be
    /// committed; a command still open then counts as failed.
    grace: u64,
    faults: Option<Faults>,
}

/// The fault schedule of `sim-failover`, in ticks after the first due
/// time.
#[derive(Clone, Copy, Debug)]
struct Faults {
    /// Coordinator 0 crashes, for good unless `leader_down` says for
    /// how long.
    leader_crash: u64,
    leader_down: Option<u64>,
    /// Acceptor 0 crashes, loses its unflushed WAL tail and replays.
    acceptor_crash: u64,
    acceptor_down: u64,
    /// Coordinator 2 is cut off from everyone: with coordinator 0 gone
    /// no coordinator quorum is left until the heal.
    isolate: u64,
    isolate_for: u64,
    /// Replica 1 is cut off as well, `(at, for)`.
    isolate_replica: Option<(u64, u64)>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Byte meter on: the rep the counts are read from.
    Counting,
    Timed,
    Traced,
}

/// What one rep measured, summed over its clusters.
#[derive(Default)]
struct Rep {
    attempted: u64,
    missing: u64,
    /// `commit − due` of every committed command, in ticks.
    lat: Vec<u64>,
    /// Longest stall of each cluster, summed (the report divides by the
    /// number of clusters: a maximum over many random episodes would
    /// move with every seed).
    unavail: u64,
    clusters: u64,
    /// Ticks from the heal of the isolation to the next commit.
    resume: u64,
    /// Longest stall among the commands due from one fault to the next:
    /// after the leader crash, the acceptor crash, the isolation.
    phase_stall: [u64; 3],
    /// Wall seconds from the first due time to the last commit.
    wall_s: f64,
    /// The same, cut into slices of equal tick counts and calibrated
    /// (timed reps only). The simulation is deterministic, so slice j
    /// does the same work in every rep.
    slice_s: Vec<f64>,
    /// Ticks each cluster ran from its first due time to its last commit.
    ticks: Vec<usize>,
    /// Wall seconds of that inside the simulator's `run_until`.
    sim_s: f64,
    cpu_s: f64,
    fsyncs: u64,
    wire_bytes: u64,
    alloc_bytes: u64,
    events: u64,
    counters: Counters,
    /// Commands the slowest other replica was behind when the reference
    /// replica finished.
    lag: u64,
    /// Hash of every commit record and count: equal between two reps
    /// exactly when the simulation repeated itself.
    signature: u64,
    problems: Vec<String>,
    commits: Vec<Commit>,
    trace: Option<TraceReport>,
    cstruct: Option<CStructTimes>,
}

fn fold(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(23)
}

impl Rep {
    fn absorb(&mut self, mut o: Rep) {
        self.attempted += o.attempted;
        self.missing += o.missing;
        self.lat.append(&mut o.lat);
        self.unavail += o.unavail;
        self.clusters += o.clusters;
        self.resume = self.resume.max(o.resume);
        for (mine, theirs) in self.phase_stall.iter_mut().zip(o.phase_stall) {
            *mine = (*mine).max(theirs);
        }
        self.wall_s += o.wall_s;
        self.slice_s.append(&mut o.slice_s);
        self.ticks.append(&mut o.ticks);
        self.sim_s += o.sim_s;
        self.cpu_s += o.cpu_s;
        self.fsyncs += o.fsyncs;
        self.wire_bytes += o.wire_bytes;
        self.alloc_bytes += o.alloc_bytes;
        self.events += o.events;
        let (c, d) = (&mut self.counters, o.counters);
        c.batches += d.batches;
        c.batched_cmds += d.batched_cmds;
        c.resends += d.resends;
        c.full_resyncs += d.full_resyncs;
        c.delta_sends += d.delta_sends;
        c.rounds_started += d.rounds_started;
        c.collisions += d.collisions;
        c.failovers += d.failovers;
        c.false_suspicions += d.false_suspicions;
        c.checkpoints += d.checkpoints;
        self.lag = self.lag.max(o.lag);
        self.signature = fold(self.signature, o.signature);
        self.problems.append(&mut o.problems);
        self.commits.append(&mut o.commits);
        self.cstruct = o.cstruct.or(self.cstruct);
        match (&mut self.trace, o.trace) {
            (Some(t), Some(mut u)) => {
                t.proposer_ns += u.proposer_ns;
                t.coordinator_ns += u.coordinator_ns;
                t.acceptor_ns += u.acceptor_ns;
                t.learner_ns += u.learner_ns;
                t.machine_ns += u.machine_ns;
                t.store_ns += u.store_ns;
                t.send_ns += u.send_ns;
                t.upcalls += u.upcalls;
                t.upcall_ns += u.upcall_ns;
                t.sends += u.sends;
                t.payload_sends += u.payload_sends;
                t.store_records += u.store_records;
                t.store_syncs += u.store_syncs;
                // Percentiles and codec timings do not add up; the last
                // cluster's stand for the rep.
                t.sync_us_p50 = u.sync_us_p50;
                t.sync_us_p99 = u.sync_us_p99;
                t.codec = u.codec;
                let room = SPANS_PER_REP.saturating_sub(t.spans.len());
                t.spans_dropped += u.spans_dropped + u.spans.len().saturating_sub(room) as u64;
                u.spans.truncate(room);
                t.spans.append(&mut u.spans);
            }
            (t @ None, u) => *t = u,
            (Some(_), None) => {}
        }
    }
}

/// Set-ups timed per run, after the reps.
const SETUP_SAMPLES: usize = 31;

/// Slices a rep's wall clock is cut into, over all its clusters.
const SLICES_PER_REP: usize = 256;

/// The cost of one rep at the reference speed of the box, estimated
/// from several. The box slows a single thread down by up to a third, in
/// bursts and in spells of many seconds: whole reps spread by 30 % and
/// their minimum still by 20 % (ten runs of `sim-paper`). So each slice's
/// wall clock is divided by how much slower than its reference a fixed
/// calibration kernel ran right after it, and each slice enters with its
/// median over the reps. Measured over ten runs: 1.3 % between the
/// quartiles, where the minimum per slice left 7 % (it picks the slices
/// whose kernel happened to run slow).
fn calibrated_wall_s(reps: &[Rep]) -> f64 {
    let k = reps[0].slice_s.len();
    if k == 0 || reps.iter().any(|r| r.slice_s.len() != k) {
        // Reps that differ are reported as a failed check elsewhere.
        return reps.iter().map(|r| r.wall_s).fold(f64::INFINITY, f64::min);
    }
    (0..k)
        .map(|j| {
            let mut slice: Vec<f64> = reps.iter().map(|r| r.slice_s[j]).collect();
            measure::median(&mut slice)
        })
        .sum()
}

/// A deployed cluster at the tick before its first command is due.
struct Ready {
    cluster: SimCluster,
    proposed: Vec<Cmd>,
    due: Vec<u64>,
    setup_s: f64,
}

/// Everything before the first due time: generate the commands, deploy
/// the cluster, schedule the faults, let the first round be elected.
fn set_up(shape: &Shape, rounds: Rounds, seed: u64, mode: Mode) -> Ready {
    let setup = Instant::now();
    let proposers = shape.preset.proposers();
    let per_proposer = shape.n.div_ceil(proposers);
    let streams: Vec<Vec<Cmd>> = (0..proposers)
        .map(|p| commands(seed, p as u32, shape.rho, per_proposer))
        .collect();
    // The k-th command overall is the next one of proposer k mod p.
    let proposed: Vec<Cmd> = (0..shape.n)
        .map(|k| streams[k % proposers][k / proposers].clone())
        .collect();
    let due: Vec<u64> = (0..shape.n as u64)
        .map(|k| FIRST_DUE + k / shape.cmds * shape.every)
        .collect();
    let mut cluster = SimCluster::new(SimSpec {
        preset: shape.preset,
        rounds,
        seed,
        delay: shape.delay,
        wan: shape.wan,
        byte_meter: mode == Mode::Counting,
        trace: mode == Mode::Traced,
    });
    if let Some(f) = shape.faults {
        cluster.crash_coordinator(FIRST_DUE + f.leader_crash, 0, f.leader_down);
        cluster.crash_acceptor(FIRST_DUE + f.acceptor_crash, 0, Some(f.acceptor_down));
        cluster.isolate_coordinator(FIRST_DUE + f.isolate, 2, f.isolate_for);
        if let Some((at, ticks)) = f.isolate_replica {
            cluster.isolate_replica(FIRST_DUE + at, 1, ticks);
        }
    }
    cluster.run_until(FIRST_DUE - 1);
    Ready {
        cluster,
        proposed,
        due,
        setup_s: setup.elapsed().as_secs_f64(),
    }
}

/// Cuts `ticks` ticks into `k` slices of equal counts: the tick index
/// after which slice `j` ends.
fn slice_end(j: usize, k: usize, ticks: usize) -> usize {
    (j + 1) * ticks / k
}

/// `calibrate` is `(ticks, slices)`: how many ticks the run will take
/// (known from the counting rep) and into how many slices to cut them.
fn run_cluster(
    shape: &Shape,
    rounds: Rounds,
    seed: u64,
    mode: Mode,
    calibrate: Option<(usize, usize)>,
) -> Rep {
    let Ready {
        mut cluster,
        proposed,
        due,
        ..
    } = set_up(shape, rounds, seed, mode);

    let (fsyncs0, wire0, events0) = (cluster.fsyncs(), cluster.wire().1, cluster.events());
    let alloc0 = measure::alloc_bytes();
    let cpu0 = measure::cpu_seconds().unwrap_or(0.0);
    let deadline = due.last().copied().unwrap_or(FIRST_DUE) + shape.grace;
    let n = shape.n as u64;
    let mut next = 0usize;
    let mut t = FIRST_DUE;
    let (mut sim_s, mut wall_s) = (0.0, 0.0);
    let mut slice_s: Vec<f64> = Vec::new();
    let mut calibration = measure::Calibration::default();
    let (mut ticks, mut kernel_alloc) = (0usize, 0u64);
    let mut slice_from = Instant::now();
    while t <= deadline {
        while next < due.len() && due[next] == t {
            let proposer = next % shape.preset.proposers();
            cluster.propose_at(t, proposer, proposed[next].clone());
            next += 1;
        }
        let entered = Instant::now();
        cluster.run_until(t);
        let done = cluster.reference_applied() >= n;
        let now = Instant::now();
        sim_s += (now - entered).as_secs_f64();
        ticks += 1;
        let slice_ends = match calibrate {
            Some((total, k)) => {
                let k = k.clamp(1, total.max(1));
                ticks == slice_end(slice_s.len(), k, total)
            }
            None => done,
        };
        if slice_ends || done {
            let s = (now - slice_from).as_secs_f64();
            wall_s += s;
            // The kernel's own time and allocations stay outside.
            if calibrate.is_some() {
                let before = measure::alloc_bytes();
                slice_s.push(s / calibration.run());
                kernel_alloc += measure::alloc_bytes() - before;
            }
            slice_from = Instant::now();
        }
        if done {
            break;
        }
        t += 1;
    }
    let cpu_s = measure::cpu_seconds().unwrap_or(0.0) - cpu0;
    let alloc_bytes = measure::alloc_bytes() - alloc0 - kernel_alloc;
    let applied = cluster.applied();
    let commits = cluster.commits();
    let lat = latencies(&due, &commits, 0);
    let mut rep = Rep {
        attempted: n,
        missing: lat.missing,
        unavail: lat.unavail,
        clusters: 1,
        wall_s,
        slice_s,
        ticks: vec![ticks],
        sim_s,
        cpu_s,
        fsyncs: cluster.fsyncs() - fsyncs0,
        wire_bytes: cluster.wire().1 - wire0,
        alloc_bytes,
        events: cluster.events() - events0,
        lag: applied[1..]
            .iter()
            .map(|&a| applied[0].saturating_sub(a))
            .max()
            .unwrap_or(0),
        ..Rep::default()
    };
    if let Some(f) = shape.faults {
        let heal = FIRST_DUE + f.isolate + f.isolate_for;
        rep.resume = commits
            .iter()
            .find(|c| c.clock >= heal)
            .map_or(0, |c| c.clock - heal);
        let starts = [
            f.leader_crash,
            f.acceptor_crash,
            f.isolate,
            u64::MAX - FIRST_DUE,
        ];
        for (phase, stall) in rep.phase_stall.iter_mut().enumerate() {
            // Commands due in the phase, commits made in it: what the
            // next fault does to the last of them is the next phase's.
            let from = due.partition_point(|&d| d < FIRST_DUE + starts[phase]);
            let to = due.partition_point(|&d| d < FIRST_DUE + starts[phase + 1]);
            let made = commits.partition_point(|c| c.clock < FIRST_DUE + starts[phase + 1]);
            *stall = latencies(&due[from..to], &commits[..made], from as u64).unavail;
        }
    }
    rep.signature = commits.iter().fold(fold(rep.fsyncs, rep.events), |h, c| {
        fold(fold(h, c.clock), c.count)
    });

    let settle_until = cluster.now() + SETTLE_TICKS;
    while cluster.now() < settle_until && cluster.applied().iter().any(|&a| a < n) {
        let t = cluster.now() + 50;
        cluster.run_until(t);
    }
    for (i, &a) in cluster.applied().iter().enumerate().filter(|(_, &a)| a < n) {
        println!(
            "seed {seed}: replica {i} is still {} commands behind after {SETTLE_TICKS} idle ticks",
            n - a
        );
    }
    check_outputs(
        &format!("seed {seed}"),
        &proposed,
        &cluster.replica_views(),
        &mut rep.problems,
    );
    rep.counters = cluster.counters();
    rep.trace = cluster.trace_report();
    rep.cstruct = (mode == Mode::Traced).then(|| cluster.cstruct_times());
    rep.lat = lat.per_cmd;
    rep.commits = commits;
    rep
}

/// A workload: `clusters` fresh clusters of one shape per rep, cluster
/// `e` seeded with `seed · 1000 + e`.
#[derive(Clone, Copy, Debug)]
struct Plan {
    shape: Shape,
    clusters: u64,
}

/// The set-up of one rep alone, in seconds.
fn set_up_rep(plan: &Plan, seed: u64) -> f64 {
    (0..plan.clusters)
        .map(|e| set_up(&plan.shape, Rounds::Multi, seed * 1000 + e, Mode::Timed).setup_s)
        .sum()
}

/// `ticks` are the tick counts of an earlier rep's clusters; with them
/// the rep is cut into calibrated slices.
fn run_rep(plan: &Plan, rounds: Rounds, seed: u64, mode: Mode, ticks: Option<&[usize]>) -> Rep {
    let mut rep = Rep::default();
    let slices = (SLICES_PER_REP / plan.clusters as usize).max(1);
    for e in 0..plan.clusters {
        let calibrate = ticks.map(|t| (t[e as usize], slices));
        rep.absorb(run_cluster(
            &plan.shape,
            rounds,
            seed * 1000 + e,
            mode,
            calibrate,
        ));
    }
    rep
}

fn plan(workload: &str, quick: bool) -> Plan {
    let lockstep = (1, 1);
    // Quick runs keep each schedule's shape and shrink its length.
    let (shape, clusters) = match workload {
        // Every message carries and folds the whole c-struct, so a rep
        // costs O(n²): 200 commands already take a second.
        "sim-paper" => (
            Shape {
                preset: Preset::Paper { proposers: 1 },
                rho: 0.1,
                n: if quick { 40 } else { 200 },
                cmds: 1,
                every: 1,
                delay: lockstep,
                wan: false,
                grace: 20_000,
                faults: None,
            },
            1,
        ),
        // One proposer, so the coordinators see one order and the round
        // stays multicoordinated; 8 commands per tick keeps every batch
        // and the pipeline full.
        "sim-steady" => (
            Shape {
                preset: Preset::Prod,
                rho: 0.0,
                n: if quick { 400 } else { 8_000 },
                cmds: 8,
                every: 1,
                delay: lockstep,
                wan: false,
                grace: 20_000,
                faults: None,
            },
            1,
        ),
        // Fresh rounds only: after its first collision a long run stays
        // single-coordinated, so collision recovery is on the path only
        // in short episodes. 25 simultaneous pairs, 12 ticks apart.
        "sim-collide" => (
            Shape {
                preset: Preset::Paper { proposers: 2 },
                rho: 0.5,
                n: 50,
                cmds: 2,
                every: 12,
                delay: (1, 3),
                wan: false,
                grace: 20_000,
                faults: None,
            },
            if quick { 4 } else { 40 },
        ),
        // Commands stay on schedule through the faults; the quick run
        // thins them out instead of moving the faults.
        "sim-failover" => (
            Shape {
                preset: Preset::ProdFailover,
                rho: 0.1,
                n: if quick { 200 } else { 2_000 },
                cmds: 1,
                every: if quick { 40 } else { 4 },
                delay: lockstep,
                wan: false,
                grace: 20_000,
                faults: Some(FAILOVER_FAULTS),
            },
            1,
        ),
        other => return defect_plan(other),
    };
    Plan { shape, clusters }
}

/// A fault time no run reaches.
const NEVER: u64 = 1 << 40;

const FAILOVER_FAULTS: Faults = Faults {
    leader_crash: 1_600,
    leader_down: None,
    acceptor_crash: 3_200,
    acceptor_down: 1_000,
    isolate: 4_800,
    isolate_for: 1_500,
    isolate_replica: None,
};

/// Known defects of the program, each as the smallest change to
/// `sim-failover` that shows it (see the README). They are not part of
/// the benchmark: the workloads above are shaped to stay clear of them.
fn defect_plan(name: &str) -> Plan {
    let failover = plan("sim-failover", false).shape;
    let shape = match name {
        // The crashed coordinator comes back: memory grows without
        // limit until the guard's address-space cap kills the run.
        "defect-coordinator-recovers" => Shape {
            faults: Some(Faults {
                leader_down: Some(1_000),
                ..FAILOVER_FAULTS
            }),
            ..failover
        },
        // Three datacenters and a leader crash, nothing else: commits
        // all but stop (788 of 4 000 after 85 rounds).
        "defect-wan-leader-crash" => Shape {
            wan: true,
            n: 4_000,
            faults: Some(Faults {
                leader_crash: 3_200,
                acceptor_crash: NEVER,
                isolate: NEVER,
                ..FAILOVER_FAULTS
            }),
            ..failover
        },
        // A replica cut off while the last commands commit stays behind
        // once traffic has stopped.
        "defect-replica-lag" => Shape {
            faults: Some(Faults {
                isolate_replica: Some((7_700, 600)),
                ..FAILOVER_FAULTS
            }),
            ..failover
        },
        other => unreachable!("{other} is not a simulated workload"),
    };
    Plan { shape, clusters: 1 }
}

/// Runs one simulated workload: a counting rep, then timed reps until
/// `args.seconds` are used up (three at least).
pub fn run(args: &Args) -> Outcome {
    let plan = plan(&args.workload, args.quick);
    let started = Instant::now();
    if args.trace {
        return run_traced(args, &plan);
    }
    let counting = run_rep(&plan, Rounds::Multi, args.seed, Mode::Counting, None);
    let mut problems = counting.problems.clone();
    let (mut attempted, mut failed) = (counting.attempted, counting.missing);
    let mut timed: Vec<Rep> = Vec::new();
    let (mut timed_cpu_s, mut timed_wall_s) = (0.0, 0.0);
    let once = args.quick || args.workload.starts_with("defect-");
    let min_reps = if once { 1 } else { 3 };
    while timed.len() < min_reps || started.elapsed().as_secs_f64() < args.seconds {
        let (cpu0, wall0) = (measure::cpu_seconds().unwrap_or(0.0), Instant::now());
        let rep = run_rep(
            &plan,
            Rounds::Multi,
            args.seed,
            Mode::Timed,
            Some(&counting.ticks),
        );
        timed_cpu_s += measure::cpu_seconds().unwrap_or(0.0) - cpu0;
        timed_wall_s += wall0.elapsed().as_secs_f64();
        attempted += rep.attempted;
        failed += rep.missing;
        problems.extend(rep.problems.iter().cloned());
        if rep.signature != counting.signature {
            problems.push(format!(
                "rep {} did not repeat the counting rep: the simulation is not deterministic",
                timed.len() + 1
            ));
        }
        // Debug-formatting a std hash set grows its buffer in an order
        // that differs from run to run, by a few parts per million.
        if timed.first().is_some_and(|f| {
            f.alloc_bytes.abs_diff(rep.alloc_bytes) as f64 > 1e-4 * f.alloc_bytes as f64
        }) {
            problems.push(format!(
                "rep {} asked the allocator for {} bytes, rep 1 for {}",
                timed.len() + 1,
                rep.alloc_bytes,
                timed[0].alloc_bytes
            ));
        }
        timed.push(rep);
        if once {
            break;
        }
    }

    let n = counting.attempted as f64;
    let mut lat: Vec<f64> = counting.lat.iter().map(|&t| t as f64).collect();
    let wall = calibrated_wall_s(&timed);
    // One thread that never blocks: CPU time is wall time but for the
    // moments the kernel took the core away. The kernel's own figure has
    // 10 ms resolution and includes the calibration, so the busy share
    // is taken over whole timed reps and applied to the calibrated wall
    // clock.
    let busy = timed_cpu_s / timed_wall_s;
    // Set-up takes a fraction of a millisecond here, so it is repeated on
    // its own and calibrated like the slices (raw, its median spread by
    // half over ten runs; calibrated, by a tenth).
    let mut calibration = measure::Calibration::default();
    let samples = if args.quick { 3 } else { SETUP_SAMPLES };
    let mut setups: Vec<f64> = (0..samples)
        .map(|_| set_up_rep(&plan, args.seed) / calibration.run())
        .collect();
    let mut report = Report::new(&END_TO_END);
    report.set("setup_s", measure::median(&mut setups));
    report.set("commit_cps", n / wall);
    report.set("commit_p50_ticks", measure::percentile(&mut lat, 50.0));
    report.set("commit_p99_ticks", measure::percentile_sorted(&lat, 99.0));
    report.set(
        "unavail_ticks",
        counting.unavail as f64 / counting.clusters as f64,
    );
    report.set("fsyncs_per_cmd", counting.fsyncs as f64 / n);
    report.set("wire_bytes_per_cmd", counting.wire_bytes as f64 / n);
    report.set("alloc_kb_per_cmd", timed[0].alloc_bytes as f64 / 1024.0 / n);
    report.set("cpu_us_per_cmd", busy.min(1.0) * wall * 1e6 / n);
    report.set("peak_rss_mb", measure::peak_rss_mb().unwrap_or(0.0));
    println!(
        "{}: {} commands per rep, 1 counting + {} timed reps of {:.3} to {:.3} s, calibrated {:.3} s",
        args.workload,
        counting.attempted,
        timed.len(),
        timed.iter().map(|r| r.wall_s).fold(f64::INFINITY, f64::min),
        timed.iter().map(|r| r.wall_s).fold(0.0, f64::max),
        wall
    );
    Outcome {
        attempted,
        failed,
        problems,
        retry: None,
        report,
    }
}

/// The traced variant: one untraced rep for reference, one traced rep,
/// and the paper's baselines under the other round policies.
fn run_traced(args: &Args, plan: &Plan) -> Outcome {
    let plain = run_rep(plan, Rounds::Multi, args.seed, Mode::Timed, None);
    let mut rep = run_rep(plan, Rounds::Multi, args.seed, Mode::Traced, None);
    let mut problems = std::mem::take(&mut rep.problems);
    if rep.signature != plain.signature {
        problems.push("tracing changed what the simulation did".into());
    }
    let n = rep.attempted as f64;
    let mut t = rep.trace.take().expect("a traced rep has a trace");
    let cs = rep.cstruct.unwrap_or_default();
    let mut r = Report::new(&PER_LAYER);
    let mut rows = layers::set_common(&mut r, &cs, &t, &rep.counters, n, n);
    r.set("actor.wal_writes_per_cmd", rep.fsyncs as f64 / n);
    r.set("core.resume_ticks", rep.resume as f64);
    r.set("core.leader_crash_stall_ticks", rep.phase_stall[0] as f64);
    r.set("core.acceptor_crash_stall_ticks", rep.phase_stall[1] as f64);
    r.set("core.quorum_loss_stall_ticks", rep.phase_stall[2] as f64);
    r.set("simnet.events_per_cmd", rep.events as f64 / n);
    let simnet_us = (rep.sim_s * 1e6 - t.upcall_ns as f64 / 1e3) / n;
    r.set("simnet.overhead_us_per_cmd", simnet_us);
    r.set("smr.replica_lag_max", rep.lag as f64);
    r.set(
        "trace.overhead_pct",
        100.0 * (rep.wall_s / plain.wall_s - 1.0),
    );
    r.set("traced.commit_cps", n / rep.wall_s);
    r.set("traced.cpu_us_per_cmd", rep.cpu_s * 1e6 / n);
    r.set("traced.ops_attempted", rep.attempted as f64);
    r.set("traced.ops_failed", rep.missing as f64);

    match args.workload.as_str() {
        "sim-failover" => {
            let single = run_rep(plan, Rounds::Single, args.seed, Mode::Timed, None);
            r.set(
                "baseline.single_leader_stall_ticks",
                single.phase_stall[0] as f64,
            );
        }
        "sim-collide" => {
            let fast = run_rep(plan, Rounds::Fast, args.seed, Mode::Counting, None);
            let mut lat: Vec<f64> = fast.lat.iter().map(|&t| t as f64).collect();
            r.set(
                "baseline.fast_fsyncs_per_cmd",
                fast.fsyncs as f64 / fast.attempted as f64,
            );
            r.set(
                "baseline.fast_commit_p99_ticks",
                measure::percentile(&mut lat, 99.0),
            );
        }
        _ => {}
    }

    rows.push(LayerRow {
        layer: "simnet",
        self_us_per_cmd: simnet_us,
        counted: true,
    });
    let table = layers::LayerTable {
        title: &args.workload,
        rows,
        end_to_end_us: rep.wall_s * 1e6 / n,
    };
    problems.extend(layers::finish(args, &table, &mut r, &mut t, &rep.commits));
    Outcome {
        attempted: rep.attempted,
        failed: rep.missing,
        problems,
        retry: None,
        report: r,
    }
}
