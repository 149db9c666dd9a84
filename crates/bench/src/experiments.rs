//! The experiment suite: one function per quantitative paper claim.
//!
//! All experiments run on the deterministic simulator with unit link
//! delays unless stated otherwise, so "latency" is measured in
//! communication steps — the unit used throughout the paper.

use crate::harness::{f2, mean, ClusterHarness};
use crate::table::Table;
use mcpaxos_actor::SimTime;
use mcpaxos_core::{CollisionPolicy, CoordQuorum, DeployConfig, Durability, Policy, QuorumSpec};
use mcpaxos_cstruct::{CStruct, CmdSet, CommandHistory, SingleDecree};
use mcpaxos_simnet::{DelayDist, NetConfig};
use mcpaxos_smr::{KvCmd, Workload};

type Set = CmdSet<u32>;
type SD = SingleDecree<u32>;
type KvH = CommandHistory<KvCmd>;

fn policy_name(p: Policy) -> &'static str {
    match p {
        Policy::SingleCoordinated => "classic (single-coord)",
        Policy::MultiCoordinated => "multicoordinated",
        Policy::FastThenClassic => "fast",
        Policy::FastForever => "fast (uncoordinated)",
    }
}

/// E1 — learning latency in communication steps per round type.
pub fn e1_latency() -> Table {
    let mut t = Table::new(
        "E1 — Latency in communication steps",
        "classic = 3 steps, multicoordinated = 3 steps, fast = 2 steps (§1, §2.2, §3.1)",
        &[
            "round type",
            "n acceptors",
            "steps (1 cmd)",
            "steps (mean of 5)",
        ],
    );
    for policy in [
        Policy::SingleCoordinated,
        Policy::MultiCoordinated,
        Policy::FastThenClassic,
    ] {
        for n in [3usize, 5, 7] {
            let n_coord = 3;
            let cfg = DeployConfig::simple(1, n_coord, n, 1, policy);
            let mut h: ClusterHarness<Set> = ClusterHarness::new(cfg, 7, NetConfig::lockstep());
            h.propose_at(SimTime(100), 0, 0);
            for i in 1..5u32 {
                h.propose_at(SimTime(100 + 30 * u64::from(i)), 0, i);
            }
            h.run_until(2_000);
            let ls = h.latencies(0);
            let first = ls[0].map(|x| x.to_string()).unwrap_or_else(|| "-".into());
            t.row(&[
                policy_name(policy).to_string(),
                n.to_string(),
                first,
                f2(h.mean_latency(0)),
            ]);
        }
    }
    t.with_note(
        "Unit link delays: ticks = message steps. Multicoordinated matches classic \
         latency while using quorums of coordinators.",
    )
}

/// E2 — quorum size arithmetic.
pub fn e2_quorums() -> Table {
    let mut t = Table::new(
        "E2 — Quorum sizes",
        "classic quorums are majorities; fast quorums need ⌈3n/4⌉-ish sizes \
         (2E+F<n); ⌈(2n+1)/3⌉ serves both (§2.2)",
        &[
            "n",
            "classic quorum (F)",
            "fast quorum (E)",
            "uniform quorum",
            "coord quorum of 3",
            "coord quorum of 5",
        ],
    );
    for n in 3..=13usize {
        let maj = QuorumSpec::majority(n).expect("majority");
        let uni = QuorumSpec::uniform(n).expect("uniform");
        t.row(&[
            n.to_string(),
            format!("{} (F={})", maj.classic_size(), maj.f()),
            format!("{} (E={})", maj.fast_size(), maj.e()),
            uni.classic_size().to_string(),
            CoordQuorum::majority_of(3).quorum_size().to_string(),
            CoordQuorum::majority_of(5).quorum_size().to_string(),
        ]);
    }
    t.with_note(
        "Fast quorums are strictly larger than classic ones for every n — the \
         availability cost of fast rounds the paper's multicoordinated rounds avoid.",
    )
}

/// Shared scaffolding for E3/A1: a command stream with a crash.
fn availability_run(policy: Policy, n_coord: usize, crash_idx: Option<usize>) -> (f64, u64, i64) {
    let cfg = DeployConfig::simple(1, n_coord, 5, 1, policy);
    let mut h: ClusterHarness<Set> = ClusterHarness::new(cfg, 11, NetConfig::lockstep());
    for i in 0..40u32 {
        h.propose_at(SimTime(100 + 25 * u64::from(i)), 0, i);
    }
    if let Some(ci) = crash_idx {
        let victim = h.cfg.roles.coordinators()[ci];
        h.sim.crash_at(SimTime(500), victim);
    }
    h.run_until(8_000);
    let rounds = h.metric_total("rounds_started");
    (h.mean_latency(0), h.max_latency(0), rounds)
}

/// E3 — availability under coordinator failure.
pub fn e3_availability() -> Table {
    let mut t = Table::new(
        "E3 — Availability under coordinator failure",
        "a single-coordinated round stalls on leader crash (detect + elect + phase 1) \
         while a multicoordinated round keeps serving through surviving quorums (§4.1)",
        &[
            "scenario",
            "mean latency (steps)",
            "max latency (stall)",
            "rounds started",
        ],
    );
    let cases: Vec<(&str, Policy, Option<usize>)> = vec![
        ("classic, no failure", Policy::SingleCoordinated, None),
        ("classic, leader crash", Policy::SingleCoordinated, Some(0)),
        ("multi, no failure", Policy::MultiCoordinated, None),
        ("multi, leader crash", Policy::MultiCoordinated, Some(0)),
        (
            "multi, other coord crash",
            Policy::MultiCoordinated,
            Some(2),
        ),
    ];
    for (name, policy, crash) in cases {
        let (mean, max, rounds) = availability_run(policy, 3, crash);
        t.row(&[
            name.to_string(),
            f2(mean),
            max.to_string(),
            rounds.to_string(),
        ]);
    }
    t.with_note(
        "Max latency is the visible stall. The multicoordinated round absorbs any \
         single coordinator crash with no round change and no stall; the classic \
         round pays leader-election + phase 1 once its only coordinator dies.",
    )
}

/// E4 — load balance across coordinators and acceptors (§4.1).
pub fn e4_load_balance() -> Table {
    let mut t = Table::new(
        "E4 — Load balance",
        "fast rounds force each acceptor to handle >3/4 of commands; multicoordinated \
         rounds with majority quorums spread to ≈(1/2+1/nc) per coordinator and \
         ≈(1/2+1/n) per acceptor (§4.1)",
        &[
            "configuration",
            "acceptor share min..max",
            "coordinator share min..max",
        ],
    );
    let run = |policy: Policy, lb: bool| -> (Vec<f64>, Vec<f64>) {
        let cfg = DeployConfig::simple(1, 3, 5, 1, policy).with_load_balance(lb);
        let mut h: ClusterHarness<Set> = ClusterHarness::new(cfg, 3, NetConfig::lockstep());
        let n_cmds = 400u32;
        for i in 0..n_cmds {
            h.propose_at(SimTime(100 + 4 * u64::from(i)), 0, i);
        }
        h.run_until(6_000);
        // Share of commands each process participated in, via the accepts
        // (acceptors) and one-command "2a" waves (coordinators) it performed.
        let acc = h.metric_per("accepts", h.cfg.roles.acceptors());
        let coord = h.metric_per("batches", h.cfg.roles.coordinators());
        let norm = |v: Vec<i64>| -> Vec<f64> {
            v.into_iter()
                .map(|x| (x as f64 / f64::from(n_cmds)).min(1.0))
                .collect()
        };
        (norm(acc), norm(coord))
    };
    let fmt_range = |v: &[f64]| -> String {
        let lo = v.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = v.iter().cloned().fold(0.0_f64, f64::max);
        format!("{:.2}..{:.2}", lo, hi)
    };
    for (name, policy, lb) in [
        ("multi, broadcast", Policy::MultiCoordinated, false),
        ("multi, load-balanced", Policy::MultiCoordinated, true),
        ("fast, broadcast", Policy::FastThenClassic, false),
        ("fast, load-balanced", Policy::FastThenClassic, true),
    ] {
        let (acc, coord) = run(policy, lb);
        t.row(&[name.to_string(), fmt_range(&acc), fmt_range(&coord)]);
    }
    t.with_note(
        "Shares are fractions of proposed commands each process handled. \
         Load-balanced multicoordinated rounds drop acceptor shares toward 3/5 \
         (=classic quorum/n) while fast rounds cannot go below 4/5 (=fast quorum/n).",
    )
}

/// E5 — collision recovery cost (§2.2, §4.2).
pub fn e5_collision_cost() -> Table {
    let mut t = Table::new(
        "E5 — Collision recovery cost",
        "restart (new round) > coordinated (2a/2b reuse) > uncoordinated (local pick); \
         fast collisions waste acceptor disk writes, multicoordinated collisions none (§4.2)",
        &[
            "scenario",
            "mean decision steps",
            "collisions",
            "acceptor persists by decision time",
            "doomed persists (overwritten votes)",
        ],
    );
    // Drive two conflicting values at the same instant with slight jitter
    // until a collision occurs; average over colliding seeds.
    let run =
        |policy: Policy, collision: CollisionPolicy, n_coord: usize| -> (f64, i64, f64, i64) {
            let mut steps = Vec::new();
            let mut collisions = 0i64;
            let mut writes_per_cmd = Vec::new();
            let mut doomed = 0i64;
            for seed in 0..20u64 {
                let cfg = DeployConfig::simple(2, n_coord, 5, 1, policy).with_collision(collision);
                let mut h: ClusterHarness<SD> = ClusterHarness::new(
                    cfg,
                    seed,
                    NetConfig::lockstep().with_delay(DelayDist::Uniform(1, 2)),
                );
                h.propose_at(SimTime(100), 0, 111);
                h.propose_at(SimTime(100), 1, 222);
                // Sample acceptor persists at decision time, so post-decision
                // background traffic does not blur the collision cost.
                h.run_until_learned(0, 1, 25, 6_000);
                let coll = h.metric_total("collision_fast") + h.metric_total("collision_mc");
                if coll == 0 {
                    continue; // only collided runs inform the recovery cost
                }
                collisions += coll;
                if let Some(Some(l)) = h.latencies(0).first() {
                    steps.push(*l as f64);
                }
                writes_per_cmd.push(h.writes(h.cfg.roles.acceptors()) as f64);
                doomed += h.metric_total("overwritten_votes");
            }
            (mean(&steps), collisions, mean(&writes_per_cmd), doomed)
        };
    let cases: Vec<(&str, Policy, CollisionPolicy, usize)> = vec![
        (
            "fast + restart (4 extra steps)",
            Policy::FastThenClassic,
            CollisionPolicy::NewRound,
            3,
        ),
        (
            "fast + coordinated (2 extra)",
            Policy::FastThenClassic,
            CollisionPolicy::Coordinated,
            3,
        ),
        (
            "fast + uncoordinated",
            Policy::FastForever,
            CollisionPolicy::Uncoordinated,
            1,
        ),
        (
            "multi + coordinated",
            Policy::MultiCoordinated,
            CollisionPolicy::Coordinated,
            3,
        ),
    ];
    for (name, policy, collision, nc) in cases {
        let (steps, coll, writes, doomed) = run(policy, collision, nc);
        t.row(&[
            name.to_string(),
            f2(steps),
            coll.to_string(),
            f2(writes),
            doomed.to_string(),
        ]);
    }
    t.with_note(
        "SingleDecree consensus, two racing values; collided runs only. Persists \
         counted at decision time across all 5 acceptors (includes 5 startup writes \
         and the round-priming accepts): fast collisions persist doomed values \
         before recovering, multicoordinated collisions are detected *before* \
         acceptance and skip those wasted writes.",
    )
}

/// A two-proposer key-value race, the drive behind E6, E8 and E9: on a
/// cluster of 2 proposers, 3 coordinators, 5 acceptors and `learners`
/// learners, both proposers submit `pairs` puts at the same instants,
/// `gap` ticks apart from tick 100, over links delayed uniformly in
/// `1..=max_delay` ticks; the run stops at `until`.
struct Race {
    learners: usize,
    max_delay: u64,
    pairs: u64,
    gap: u64,
    until: u64,
    seeds: u64,
}

impl Race {
    /// Runs the race once per seed `0..seeds` at hot-key fraction `rho`.
    /// Returns the mean over seeds of learner 0's mean latency (a seed
    /// that learned nothing is skipped; `NaN` when none learned anything)
    /// and the collisions summed over seeds.
    fn run(&self, policy: Policy, rho: f64) -> (f64, i64) {
        let mut lat = Vec::new();
        let mut collisions = 0;
        for seed in 0..self.seeds {
            let cfg = DeployConfig::simple(2, 3, 5, self.learners, policy);
            let net = NetConfig::lockstep().with_delay(DelayDist::Uniform(1, self.max_delay));
            let mut h: ClusterHarness<KvH> = ClusterHarness::new(cfg, seed, net);
            let mut w = [Workload::new(seed, 0, rho), Workload::new(seed, 1, rho)];
            for i in 0..self.pairs {
                let at = SimTime(100 + self.gap * i);
                h.propose_at(at, 0, w[0].next_kv_put());
                h.propose_at(at, 1, w[1].next_kv_put());
            }
            h.run_until(self.until);
            let m = h.mean_latency(0);
            if !m.is_nan() {
                lat.push(m);
            }
            collisions += h.metric_total("collision_mc") + h.metric_total("collision_fast");
        }
        (mean(&lat), collisions)
    }
}

/// E6 — collision rate vs conflict fraction (Generalized Consensus payoff).
pub fn e6_conflict_rate() -> Table {
    let mut t = Table::new(
        "E6 — Collisions vs conflict fraction ρ",
        "commuting commands never collide; collision probability grows with the \
         fraction of interfering commands (§2.3, §3.2)",
        &[
            "ρ (hot-key fraction)",
            "multi: collisions/100 cmds",
            "multi: mean steps",
            "fast: collisions/100 cmds",
            "fast: mean steps",
        ],
    );
    let race = Race {
        learners: 1,
        max_delay: 3,
        pairs: 25,
        gap: 12,
        until: 20_000,
        seeds: 4,
    };
    let cmds = (2 * race.pairs * race.seeds) as f64;
    for rho in [0.0, 0.25, 0.5, 1.0] {
        let mut cells = vec![format!("{rho:.2}")];
        for policy in [Policy::MultiCoordinated, Policy::FastThenClassic] {
            let (steps, collisions) = race.run(policy, rho);
            cells.push(f2(100.0 * collisions as f64 / cmds));
            cells.push(f2(steps));
        }
        t.row(&cells);
    }
    t.with_note(
        "Key-value writes; ρ is the probability a command touches the single hot key. \
         At ρ=0 everything commutes and no collisions occur in either mode.",
    )
}

/// E7 — disk writes per command and per recovery (§4.4).
pub fn e7_disk_writes() -> Table {
    let mut t = Table::new(
        "E7 — Stable-storage writes",
        "acceptors: 1 write per accept, plus 1 at startup and 1 per recovery under the \
         MCount scheme (vs 1 per Phase1b naively); coordinators: no writes per command (§4.4)",
        &[
            "durability",
            "recoveries",
            "acceptor writes/cmd",
            "acceptor non-accept writes",
            "coordinator writes total",
        ],
    );
    for (durability, recoveries) in [
        (Durability::Reduced, 0usize),
        (Durability::Reduced, 2),
        (Durability::Naive, 0),
        (Durability::Naive, 2),
    ] {
        let cfg =
            DeployConfig::simple(1, 3, 5, 1, Policy::MultiCoordinated).with_durability(durability);
        let mut h: ClusterHarness<Set> = ClusterHarness::new(cfg, 9, NetConfig::lockstep());
        let n_cmds = 200u32;
        for i in 0..n_cmds {
            h.propose_at(SimTime(100 + 20 * u64::from(i)), 0, i);
        }
        let victim = h.cfg.roles.acceptors()[0];
        for r in 0..recoveries {
            let at = 1_000 + 800 * r as u64;
            h.sim.crash_at(SimTime(at), victim);
            h.sim.recover_at(SimTime(at + 120), victim);
        }
        h.run_until(12_000);
        let learned = h.learned(0).count() as f64;
        let acc_writes = h.writes(h.cfg.roles.acceptors());
        let accepts = h.metric_total("accepts") as u64;
        let coord_writes = h.writes(h.cfg.roles.coordinators());
        t.row(&[
            format!("{durability:?}"),
            recoveries.to_string(),
            f2(acc_writes as f64 / learned.max(1.0) / 5.0),
            (acc_writes.saturating_sub(accepts)).to_string(),
            coord_writes.to_string(),
        ]);
    }
    t.with_note(
        "200 commands, 5 acceptors, 3 coordinators. 'Non-accept writes' isolates the \
         round-promise writes: constant (startup + recovery bumps) under Reduced, \
         growing with every Phase1b under Naive. Coordinators write once per round \
         engaged (the crnd floor), never per command.",
    )
}

/// E8 — scenario crossover (§4.5): spontaneous order vs conflict-prone.
pub fn e8_crossover() -> Table {
    let mut t = Table::new(
        "E8 — Scenario crossover",
        "clustered systems (low jitter: spontaneous order) favour fast rounds; \
         conflict-prone networks favour multicoordinated/classic rounds (§4.5)",
        &[
            "jitter (max delay)",
            "ρ",
            "fast: steps",
            "fast: collisions",
            "multi: steps",
            "multi: collisions",
            "classic: steps",
            "winner",
        ],
    );
    for (jitter, rho) in [(1u64, 0.0), (1, 0.8), (6, 0.0), (6, 0.8), (15, 0.8)] {
        let race = Race {
            learners: 1,
            max_delay: jitter,
            pairs: 20,
            gap: 15,
            until: 25_000,
            seeds: 4,
        };
        let results: Vec<(f64, i64)> = [
            Policy::FastThenClassic,
            Policy::MultiCoordinated,
            Policy::SingleCoordinated,
        ]
        .into_iter()
        .map(|policy| race.run(policy, rho))
        .collect();
        let names = ["fast", "multi", "classic"];
        let winner = names[results
            .iter()
            .enumerate()
            .min_by(|a, b| a.1 .0.total_cmp(&b.1 .0))
            .map(|(i, _)| i)
            .unwrap_or(0)];
        t.row(&[
            jitter.to_string(),
            format!("{rho:.1}"),
            f2(results[0].0),
            results[0].1.to_string(),
            f2(results[1].0),
            results[1].1.to_string(),
            f2(results[2].0),
            winner.to_string(),
        ]);
    }
    t.with_note(
        "Mean learning latency in ticks (delays scale with jitter). Fast rounds win \
         when commands commute or arrive in spontaneous order; as conflicts and \
         reorderings grow, collisions erode their lead.",
    )
}

/// E9 — end-to-end generic broadcast comparison.
pub fn e9_generic_broadcast() -> Table {
    let mut t = Table::new(
        "E9 — Generic broadcast end to end",
        "multicoordinated rounds learn in 3 steps with majority (n−F) quorums; \
         fast rounds in 2 steps but with n−E quorums; classic needs the leader (§1, §3.3)",
        &[
            "protocol",
            "acceptor quorum",
            "ρ=0 steps",
            "ρ=0.5 steps",
            "ρ=0.5 collisions",
            "survives 1 coord crash w/o round change",
        ],
    );
    for policy in [
        Policy::SingleCoordinated,
        Policy::MultiCoordinated,
        Policy::FastThenClassic,
    ] {
        let race = Race {
            learners: 2,
            max_delay: 4,
            pairs: 20,
            gap: 10,
            until: 20_000,
            seeds: 3,
        };
        let per_rho = [race.run(policy, 0.0), race.run(policy, 0.5)];
        let quorum = match policy {
            Policy::FastThenClassic | Policy::FastForever => {
                format!(
                    "{} of 5 (fast)",
                    QuorumSpec::majority(5).unwrap().fast_size()
                )
            }
            _ => format!(
                "{} of 5 (majority)",
                QuorumSpec::majority(5).unwrap().classic_size()
            ),
        };
        let survives = matches!(policy, Policy::MultiCoordinated);
        t.row(&[
            policy_name(policy).to_string(),
            quorum,
            f2(per_rho[0].0),
            f2(per_rho[1].0),
            per_rho[1].1.to_string(),
            if survives {
                "yes (2-of-3 quorums)"
            } else {
                "no"
            }
            .to_string(),
        ]);
    }
    t.with_note(
        "Key-value commands through the generic broadcast stack. The multicoordinated \
         column is the paper's contribution: classic latency and quorums, no single \
         leader on the critical path.",
    )
}

/// A1 — ablation: coordinator-set size for multicoordinated rounds.
pub fn a1_coordquorum_size() -> Table {
    let mut t = Table::new(
        "A1 — Ablation: coordinator-set size",
        "more coordinators per round buy availability, not latency: quorums of \
         ⌊nc/2⌋+1 tolerate ⌈nc/2⌉−1 crashes (§4.1, §4.5)",
        &[
            "coordinators",
            "coord quorum",
            "crashes tolerated",
            "steps (no failure)",
            "stall after 1 coord crash",
            "rounds started",
        ],
    );
    for nc in [1usize, 3, 5] {
        let cq = CoordQuorum::majority_of(nc);
        // nc = 1 means single-coordinated rounds; backup coordinators are
        // still deployed so leader election can replace a crashed leader.
        let (policy, deployed, victim) = if nc == 1 {
            (Policy::SingleCoordinated, 3, 0)
        } else {
            (Policy::MultiCoordinated, nc, nc - 1)
        };
        let (mean, _max, _r) = availability_run(policy, deployed, None);
        let (_m2, max2, rounds2) = availability_run(policy, deployed, Some(victim));
        t.row(&[
            nc.to_string(),
            cq.quorum_size().to_string(),
            cq.failures_tolerated().to_string(),
            f2(mean),
            max2.to_string(),
            rounds2.to_string(),
        ]);
    }
    t.with_note(
        "With one coordinator the crash is a leader crash (visible stall, extra \
         round); with 3 or 5 the surviving majority quorum keeps the round going.",
    )
}

/// E10 — wire bytes and live memory: delta-shipped c-structs and
/// stable-prefix compaction vs. the paper's whole-value messages.
pub fn e10_wire() -> Table {
    use crate::wire_bench::{wire_floors, wire_reduction, wire_run, WIRE_COMMANDS, WIRE_SEGMENT};
    let mut t = Table::new(
        "E10 — Wire bytes and memory under delta shipping + compaction",
        "whole-c-struct 2a/2b messages cost O(n²) cumulative bytes and unbounded \
         acceptor state; suffix deltas + a learner-quorum stable watermark bound \
         both (MultiPaxos Made Complete's snapshot/trim discipline, applied to \
         generalized c-structs)",
        &[
            "mode",
            "cum 2a bytes",
            "cum 2b bytes",
            "control bytes",
            "acc window max/final",
            "watermark",
            "deltas/resyncs/truncs",
        ],
    );
    let full = wire_run(false, WIRE_COMMANDS);
    let bounded = wire_run(true, WIRE_COMMANDS);
    for s in [&full, &bounded] {
        assert_eq!(
            s.learned_total,
            u64::from(s.commands),
            "{}: run must learn everything",
            s.label
        );
        t.row(&[
            s.label.to_string(),
            s.bytes_2a.to_string(),
            s.bytes_2b.to_string(),
            s.bytes_control.to_string(),
            format!("{}/{}", s.acc_live_max, s.acc_live_final),
            s.watermark.to_string(),
            format!("{}/{}/{}", s.delta_sends, s.full_resyncs, s.truncations),
        ]);
    }
    wire_floors(&full, &bounded).unwrap_or_else(|e| panic!("E10 floor: {e}"));
    t.with_note(format!(
        "{} commands, ~10% conflicts, segment = {}. Cumulative 2a+2b bytes drop \
         {:.1}× (floor: ≥10×, asserted before this table renders); the bounded \
         acceptor window stays non-monotonic (truncation reclaims memory) \
         instead of growing to the full history.",
        WIRE_COMMANDS,
        WIRE_SEGMENT,
        wire_reduction(&full, &bounded)
    ))
}

/// E11 — WAL group commit: fsync amortization vs per-vote flushing.
pub fn e11_wal() -> Table {
    use crate::wal_bench::{sync_reduction, wal_floors, wal_run, WAL_COMMANDS, WAL_GROUP_COMMIT};
    let mut t = Table::new(
        "E11 — WAL group commit: fsync amortization",
        "§4.4 charges one stable write per accept per acceptor; an append-only WAL \
         with group commit keeps that logical write but batches the *syncs*, \
         deferring each \"2b\" to the flush tick so no acceptor announces a vote a \
         crash could erase (soundness exhausted by the model_check suite)",
        &[
            "flush policy",
            "acceptor syncs",
            "syncs/cmd/acceptor",
            "reduction",
            "mean steps",
            "max stall",
            "corrupt records",
        ],
    );
    let baseline = wal_run(0, WAL_COMMANDS);
    let batched = wal_run(WAL_GROUP_COMMIT, WAL_COMMANDS);
    wal_floors(&baseline, &batched).unwrap_or_else(|e| panic!("E11 floor: {e}"));
    for s in [&baseline, &wal_run(2, WAL_COMMANDS), &batched] {
        assert_eq!(
            s.learned, WAL_COMMANDS as usize,
            "{}: run must learn everything",
            s.label
        );
        t.row(&[
            s.label.clone(),
            s.acc_syncs.to_string(),
            format!("{:.3}", s.syncs_per_cmd),
            format!("{:.1}x", sync_reduction(&baseline, s)),
            f2(s.mean_latency),
            s.max_latency.to_string(),
            s.corrupt_records.to_string(),
        ]);
    }
    t.with_note(format!(
        "{} commands paced one per tick, 5 WAL-backed acceptors, Reduced durability. \
         The per-vote row syncs every accept (the E7 accounting); group commit \
         amortizes the same logical writes into one flush per window: the first \
         vote after a flush arms the next one gc ticks out, and every vote \
         delivered up to its due instant shares it (one sync per gc + 1 ticks at \
         this pace), at the cost of up to one window of extra learning latency \
         (floor: ≥5x at gc={} with zero corrupt records, asserted before this \
         table renders).",
        WAL_COMMANDS, WAL_GROUP_COMMIT
    ))
}

/// E12 — sharding the command space into parallel consensus instances.
pub fn e12_shards() -> Table {
    use crate::shard_bench::shard_wire_run;
    const E12_COMMANDS: usize = 240;
    const E12_TRANSFERS: f64 = 0.01;
    let mut t = Table::new(
        "E12 — Sharded parallel instances (WPaxos-style key partitioning)",
        "one consensus instance serializes every message through one history, so \
         per-message work and wire bytes grow with the whole command stream; \
         hashing conflict keys over S independent Multicoordinated Paxos \
         instances divides that work ~S× while cross-shard commands (multi-key \
         transfers, universal-key audits) stay correct via sequenced submission \
         to every involved shard and conflict-ordered merge",
        &[
            "shards",
            "cross-shard cmds",
            "ticks to learn all",
            "total wire bytes",
            "max shard bytes",
            "bytes vs 1 shard",
        ],
    );
    let runs: Vec<_> = [1u16, 2, 4]
        .iter()
        .map(|&s| shard_wire_run(s, E12_TRANSFERS, E12_COMMANDS, 42, |c| c))
        .collect();
    let batched = {
        use mcpaxos_core::BatchConfig;
        shard_wire_run(4, E12_TRANSFERS, E12_COMMANDS, 42, |c| {
            c.with_batching(BatchConfig::pipelined(16, 8))
        })
    };
    let base_bytes = runs[0].total_bytes;
    for (r, label) in runs
        .iter()
        .map(|r| (r, r.shards.to_string()))
        .chain([(&batched, "4 + batch 16/8".to_string())])
    {
        assert_eq!(
            r.bank_total, runs[0].bank_total,
            "{label}-shard run diverged from the unsharded state"
        );
        t.row(&[
            label,
            r.cross_shard.to_string(),
            r.end_ticks.to_string(),
            r.total_bytes.to_string(),
            r.per_shard_bytes
                .iter()
                .max()
                .copied()
                .unwrap_or(0)
                .to_string(),
            format!("{:.2}x", r.total_bytes as f64 / base_bytes as f64),
        ]);
    }
    t.with_note(format!(
        "{} bank commands over 4k accounts, {:.0}% two-account transfers, default \
         full-payload wire mode: each shard's per-message cost is proportional to \
         its own history, so total bytes (and the wall-clock work they proxy) \
         shrink near-linearly in the shard count while every run merges to the \
         same bank state. The batched row dials batch=16/depth=8 into every \
         shard: sharding and batching compose — same final state, and \
         fewer, larger 2a waves trim the wire-byte total further.",
        E12_COMMANDS,
        E12_TRANSFERS * 100.0
    ))
}

/// E13 — coordinator churn on a 3-DC WAN: worst-case delivery stall per
/// scenario and policy.
pub fn e13_churn() -> Table {
    use crate::churn_bench::{
        churn_floors, churn_matrix, stall_ratio, ChurnScenario, CHURN_COMMANDS, CHURN_SEED,
    };
    let mut t = Table::new(
        "E13 — Coordinator churn on a 3-DC WAN",
        "a single-coordinated round stalls for the whole detect-elect-rephase \
         window on every leader fault; a multicoordinated round keeps serving \
         through its surviving coordinator quorum, so its worst-case stall stays \
         near the WAN base latency (§4.1, under churn)",
        &[
            "scenario",
            "policy",
            "learned",
            "mean latency",
            "worst stall",
            "suspicions (false)",
            "failovers",
        ],
    );
    let matrix = churn_matrix(CHURN_SEED);
    let [single, multi] = &matrix[ChurnScenario::LeaderCrash as usize];
    churn_floors(single, multi).unwrap_or_else(|e| panic!("E13 floor: {e}"));
    for r in matrix.iter().flatten() {
        assert_eq!(
            r.learned,
            u64::from(CHURN_COMMANDS),
            "{} / {}: churn run must learn everything",
            r.scenario,
            r.policy
        );
        t.row(&[
            r.scenario.to_string(),
            r.policy.to_string(),
            format!("{}/{}", r.learned, CHURN_COMMANDS),
            f2(r.mean_latency),
            r.max_stall.to_string(),
            format!("{} ({})", r.suspicions, r.false_suspicions),
            r.failovers.to_string(),
        ]);
    }
    t.with_note(format!(
        "{} commands on a 3-datacenter latency matrix (1-tick LANs, 20–40-tick \
         WAN links), failure detector at 200 ticks, proposer backoff to 900. \
         Same chaos seed per scenario, so runs compare stall-for-stall; the \
         leader-crash worst-stall ratio here is {:.1}x (floor: ≥3x, with the \
         failure detector driving the single-coordinated recovery, asserted \
         before this table renders).",
        CHURN_COMMANDS,
        stall_ratio(single, multi),
    ))
}
