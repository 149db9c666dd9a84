//! The benchmark's contract in code: workload names and every metric
//! with its unit and direction. `BENCHMARK.json` must say the same; the
//! schema test compares the two.

/// The five workloads, in the order `--all` runs them.
pub const WORKLOADS: [&str; 5] = [
    "sim-paper",
    "sim-steady",
    "sim-collide",
    "sim-failover",
    "tcp-open",
];

/// Why each workload exists, in one line (`BENCHMARK.json` carries it).
pub const WHY: [&str; 5] = [
    "Knobs-off paper path: every message carries and folds the whole c-struct, so cstruct operators, Wire size and the host's per-message cost do the work; O(history) per message shows only here.",
    "Production preset in steady phase 2 with bounded windows: agent handlers, batching, delta codec, compaction, group-commit WAL, simnet queue and smr apply share the time; bypasses sim-paper's path.",
    "The paper's collision claim: fresh two-proposer rounds on a jittered net, because a long run turns single-coordinated after its first collision; keeps ProvedSafe and round change on the path.",
    "Availability: a leader crash must ride through, an acceptor restart must not stall, a lost coordinator quorum must end soon after the heal; commands stay on schedule during the faults.",
    "The only workload with frames, Wire codec, TcpNode threads and real fsync on the path: three nodes over loopback, open loop at 2000/s (a fifth of capacity), as saturation measures the scheduler.",
];

/// Known defects of the program as runnable scenarios (`--workload
/// <name>`); outside the contract, listed in the README.
pub const DEFECTS: [&str; 4] = [
    "defect-coordinator-recovers",
    "defect-wan-leader-crash",
    "defect-replica-lag",
    "defect-tcp-closed-loop",
];

/// Seconds of measurement per run that `BENCHMARK.json` asks the driver
/// for, and the default of `--seconds`.
pub const RUN_SECONDS: u32 = 10;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric as `BENCHMARK.json` declares it. `bound` is the share of the
/// parent's median by which an end-to-end metric may worsen; per-layer
/// metrics have none.
#[derive(Clone, Copy, Debug)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Every workload reports every one of
/// them from its untraced run. A tick is a millisecond: on the simulated
/// clock in `sim-*` (exact), on the wall clock in `tcp-open`.
pub const END_TO_END: [MetricSpec; 10] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("commit_cps", "1/s", Higher, 0.20),
    e2e("commit_p50_ticks", "ticks", Lower, 0.12),
    e2e("commit_p99_ticks", "ticks", Lower, 0.25),
    e2e("unavail_ticks", "ticks", Lower, 0.25),
    e2e("fsyncs_per_cmd", "1/cmd", Lower, 0.15),
    e2e("wire_bytes_per_cmd", "B/cmd", Lower, 0.12),
    e2e("alloc_kb_per_cmd", "KiB/cmd", Lower, 0.15),
    e2e("cpu_us_per_cmd", "us/cmd", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.20),
];

/// What single layers do, from the separate traced run. A metric that
/// does not apply to a workload reads 0 there.
pub const PER_LAYER: [MetricSpec; 61] = [
    // cstruct: operators timed on the values the run ended with.
    layer("cstruct.live_len_max", "count", Lower),
    layer("cstruct.append_ns", "ns", Lower),
    layer("cstruct.glb_ns", "ns", Lower),
    layer("cstruct.lub_ns", "ns", Lower),
    layer("cstruct.compatible_ns", "ns", Lower),
    layer("cstruct.suffix_apply_ns", "ns", Lower),
    // actor codec: timed on messages sampled during the run.
    layer("actor.wire_encode_ns", "ns", Lower),
    layer("actor.wire_decode_ns", "ns", Lower),
    layer("actor.wire_bytes_per_msg", "B", Lower),
    layer("actor.frame_encode_ns", "ns", Lower),
    layer("actor.frame_decode_ns", "ns", Lower),
    // actor storage: a StableStore wrapper under every process.
    layer("actor.wal_writes_per_cmd", "1/cmd", Lower),
    layer("actor.wal_records_per_flush", "count", Higher),
    layer("actor.wal_flush_us_p50", "us", Lower),
    layer("actor.wal_flush_us_p99", "us", Lower),
    layer("actor.wal_busy_us_per_cmd", "us/cmd", Lower),
    // core: upcall self time per role, counts from the agents' metrics.
    layer("core.proposer_us_per_cmd", "us/cmd", Lower),
    layer("core.coordinator_us_per_cmd", "us/cmd", Lower),
    layer("core.acceptor_us_per_cmd", "us/cmd", Lower),
    layer("core.learner_us_per_cmd", "us/cmd", Lower),
    layer("core.upcalls_per_cmd", "1/cmd", Lower),
    layer("core.msgs_per_cmd", "1/cmd", Lower),
    layer("core.cmds_per_batch", "count", Higher),
    layer("core.resends_per_kcmd", "1/kcmd", Lower),
    layer("core.full_resyncs_per_kcmd", "1/kcmd", Lower),
    layer("core.delta_share", "%", Higher),
    layer("core.rounds_started", "count", Lower),
    layer("core.collisions_per_kcmd", "1/kcmd", Lower),
    layer("core.failovers", "count", Lower),
    layer("core.false_suspicions", "count", Lower),
    layer("core.resume_ticks", "ticks", Lower),
    layer("core.leader_crash_stall_ticks", "ticks", Lower),
    layer("core.acceptor_crash_stall_ticks", "ticks", Lower),
    layer("core.quorum_loss_stall_ticks", "ticks", Lower),
    // simnet: the host's own cost around the upcalls.
    layer("simnet.events_per_cmd", "1/cmd", Lower),
    layer("simnet.overhead_us_per_cmd", "us/cmd", Lower),
    // gbcast + smr: the state machine under the replica.
    layer("smr.apply_us_per_cmd", "us/cmd", Lower),
    layer("smr.replica_lag_max", "count", Lower),
    layer("smr.checkpoints", "count", Lower),
    // runtime: the TCP transport.
    layer("runtime.send_us_p50", "us", Lower),
    layer("runtime.frames_per_cmd", "1/cmd", Lower),
    layer("runtime.frame_bytes_per_cmd", "B/cmd", Lower),
    layer("runtime.queue_depth_avg", "count", Lower),
    layer("runtime.queue_drops", "count", Lower),
    layer("runtime.reconnects", "count", Lower),
    layer("runtime.threads", "count", Lower),
    layer("runtime.idle_cpu_ms_per_s", "ms/s", Lower),
    layer("runtime.commit_p90_ticks", "ticks", Lower),
    layer("runtime.commit_max_ticks", "ticks", Lower),
    // generator and tracer: validity of the run itself.
    layer("gen.late_p99_us", "us", Lower),
    layer("gen.late_max_us", "us", Lower),
    layer("trace.overhead_pct", "%", Lower),
    layer("trace.covered_pct", "%", Higher),
    layer("trace.spans", "count", Higher),
    // paper baselines: the same schedule under another round policy.
    layer("baseline.single_leader_stall_ticks", "ticks", Lower),
    layer("baseline.fast_fsyncs_per_cmd", "1/cmd", Lower),
    layer("baseline.fast_commit_p99_ticks", "ticks", Lower),
    // end-to-end figures of the traced run, for reading the table.
    layer("traced.commit_cps", "1/s", Higher),
    layer("traced.cpu_us_per_cmd", "us/cmd", Lower),
    layer("traced.ops_attempted", "count", Higher),
    layer("traced.ops_failed", "count", Lower),
];

/// One measured value, ready to print.
#[derive(Clone, Debug, PartialEq)]
pub struct Value {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Collects the values of one run and refuses names the contract does
/// not list, so a typo cannot print an undeclared metric.
#[derive(Debug)]
pub struct Report {
    specs: &'static [MetricSpec],
    values: Vec<Option<f64>>,
}

impl Report {
    pub fn new(specs: &'static [MetricSpec]) -> Self {
        Report {
            specs,
            values: vec![None; specs.len()],
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .specs
            .iter()
            .position(|s| s.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the contract"));
        self.values[i] = Some(value);
    }

    /// A value set earlier.
    pub fn get(&self, name: &str) -> Option<f64> {
        let i = self.specs.iter().position(|s| s.name == name)?;
        self.values[i]
    }

    /// Every metric of the contract, in its order; one never set reads 0.
    pub fn values(&self) -> Vec<Value> {
        self.specs
            .iter()
            .zip(&self.values)
            .map(|(s, v)| Value {
                name: s.name,
                unit: s.unit,
                value: v.unwrap_or(0.0),
            })
            .collect()
    }

    /// Names never set.
    pub fn unset(&self) -> Vec<&'static str> {
        self.specs
            .iter()
            .zip(&self.values)
            .filter(|(_, v)| v.is_none())
            .map(|(s, _)| s.name)
            .collect()
    }
}

fn metric_json(m: &MetricSpec) -> String {
    let bound = m
        .bound
        .map(|b| format!(", \"bound\": {b}"))
        .unwrap_or_default();
    format!(
        "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
        m.name,
        m.unit,
        m.better.as_str()
    )
}

/// `BENCHMARK.json` as this code means it; the checked-in file must be
/// this text (`--print-contract` prints it, the schema test compares).
pub fn contract_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .zip(WHY)
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    let list = |specs: &[MetricSpec]| {
        specs
            .iter()
            .map(metric_json)
            .collect::<Vec<_>>()
            .join(",\n")
    };
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        list(&END_TO_END),
        list(&PER_LAYER)
    )
}
