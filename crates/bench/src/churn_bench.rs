//! E13 — availability under coordinator churn on a 3-datacenter WAN.
//!
//! The paper's availability argument (§4.1) is qualitative: a
//! multicoordinated round keeps serving through any single coordinator
//! crash, while a single-coordinated round stalls for the full
//! detect-elect-rephase path. This module makes the claim quantitative
//! under *churn*: a latency-matrix WAN topology (three datacenters,
//! asymmetric inter-DC delays) plus declarative [`ChaosSchedule`]s —
//! leader crash, rolling coordinator restarts, a partitioned-then-healed
//! datacenter — replayed deterministically against both round policies
//! with the same seed, failure detector and proposer backoff. The
//! worst-case per-command delivery latency ("max stall") is the headline
//! number; [`churn_floors`] gates the ≥3× single-vs-multi ratio in the
//! leader-crash scenario, and the E13 table builder applies it.

use crate::harness::ClusterHarness;
use mcpaxos_actor::{ProcessId, SimDuration, SimTime};
use mcpaxos_core::{DeployConfig, Policy, Timing};
use mcpaxos_cstruct::{CStruct, CmdSet};
use mcpaxos_simnet::{ChaosSchedule, DelayDist, NetConfig, Topology};

type Set = CmdSet<u32>;

/// Commands per churn run.
pub const CHURN_COMMANDS: u32 = 40;
/// Ticks between command injections (keeps the stream alive across every
/// chaos window, so some command always lands mid-fault).
pub const CHURN_PACE: u64 = 40;
/// First injection time.
pub const CHURN_START: u64 = 100;
/// Run horizon: far past the last chaos event so every run either learns
/// everything or demonstrably never will.
pub const CHURN_HORIZON: u64 = 40_000;
/// The chaos seed shared by every run of one comparison.
pub const CHURN_SEED: u64 = 7;

/// The three churn scenarios of the E13 matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChurnScenario {
    /// The leader coordinator crashes mid-stream and stays down for 2 000
    /// ticks — the paper's headline availability case.
    LeaderCrash,
    /// Every coordinator is crash-restarted in turn (rolling deploy).
    RollingRestart,
    /// The leader's datacenter is cut off and later healed.
    PartitionHeal,
}

impl ChurnScenario {
    /// All scenarios, in report order.
    pub const ALL: [ChurnScenario; 3] = [
        ChurnScenario::LeaderCrash,
        ChurnScenario::RollingRestart,
        ChurnScenario::PartitionHeal,
    ];

    /// Stable scenario label for tables.
    pub fn name(self) -> &'static str {
        match self {
            ChurnScenario::LeaderCrash => "leader crash",
            ChurnScenario::RollingRestart => "rolling restart",
            ChurnScenario::PartitionHeal => "partition+heal",
        }
    }

    /// The deterministic fault schedule of this scenario for `cfg`.
    pub fn schedule(self, cfg: &DeployConfig) -> ChaosSchedule {
        let coords = cfg.roles.coordinators();
        match self {
            ChurnScenario::LeaderCrash => {
                ChaosSchedule::new().crash_for(SimTime(600), coords[0], SimDuration(2_000))
            }
            ChurnScenario::RollingRestart => ChaosSchedule::new().rotate_crashes(
                coords,
                SimTime(600),
                SimDuration(1_200),
                SimDuration(500),
            ),
            ChurnScenario::PartitionHeal => {
                let dcs = wan3_dcs(cfg);
                let cut = dcs[1].clone();
                let rest: Vec<ProcessId> = dcs[0].iter().chain(dcs[2].iter()).copied().collect();
                ChaosSchedule::new().partition_for(SimTime(600), cut, rest, SimDuration(1_500))
            }
        }
    }
}

/// The 3-DC process placement for the standard 1/3/5/1 deployment: the
/// client-facing edge (proposer, learner, one acceptor) in DC0, the
/// leader coordinator with two acceptors in DC1, the remaining
/// coordinators and acceptors in DC2. Cutting DC1 therefore severs the
/// leader *and* part of the acceptor set while both quorums survive
/// outside it.
pub fn wan3_dcs(cfg: &DeployConfig) -> [Vec<ProcessId>; 3] {
    let coords = cfg.roles.coordinators();
    let accs = cfg.roles.acceptors();
    let mut dc0: Vec<ProcessId> = cfg.roles.proposers().to_vec();
    dc0.extend_from_slice(cfg.roles.learners());
    dc0.extend_from_slice(&accs[4..]);
    let mut dc1 = vec![coords[0]];
    dc1.extend_from_slice(&accs[..2]);
    let mut dc2 = coords[1..].to_vec();
    dc2.extend_from_slice(&accs[2..4]);
    [dc0, dc1, dc2]
}

/// The WAN latency matrix over [`wan3_dcs`]: ~1-tick LANs inside each
/// datacenter, asymmetrically slow links between them. The worst
/// heartbeat gap (50-tick period + 10 ticks of delay spread) stays well
/// under the 120-tick suspicion timeout, so a healthy WAN produces no
/// false suspicions.
pub fn wan3_topology(cfg: &DeployConfig) -> Topology {
    let dcs = wan3_dcs(cfg);
    Topology::datacenters(
        &dcs,
        DelayDist::Fixed(1),
        &[
            (0, 1, DelayDist::Uniform(20, 30)),
            (0, 2, DelayDist::Uniform(25, 35)),
            (1, 2, DelayDist::Uniform(30, 40)),
        ],
    )
}

/// The churn timing profile for a WAN: the passive liveness timeouts
/// (`leader_timeout`, `stall_timeout`) are set conservatively — on slow
/// links aggressive passive timeouts misfire — which makes the active
/// failure detector (200 ticks: above the worst 60-tick heartbeat gap,
/// half the passive leader timeout) the primary crash detector, exactly
/// the deployment shape it exists for. Proposer resends run at 300
/// ticks (a few worst-case WAN round-trips) backing off exponentially
/// to 900 with 25 ticks of jitter.
pub fn churn_timing() -> Timing {
    Timing {
        leader_timeout: SimDuration(400),
        stall_timeout: SimDuration(300),
        proposer_resend: SimDuration(300),
        ..Timing::default()
    }
    .with_failure_detector(SimDuration(200))
    .with_proposer_backoff(SimDuration(900), SimDuration(25))
}

/// Everything one churn run measures.
#[derive(Clone, Debug)]
pub struct ChurnRunStats {
    /// Scenario label ([`ChurnScenario::name`]).
    pub scenario: &'static str,
    /// Round policy label.
    pub policy: &'static str,
    /// Commands learned by the horizon (of [`CHURN_COMMANDS`] injected).
    pub learned: u64,
    /// Mean delivery latency over learned commands, in ticks.
    pub mean_latency: f64,
    /// Worst-case delivery latency — the visible stall.
    pub max_stall: u64,
    /// Failure-detector suspicions raised across the cluster.
    pub suspicions: i64,
    /// Suspicions later disproven by a heartbeat.
    pub false_suspicions: i64,
    /// Suspicion-driven leader failovers.
    pub failovers: i64,
}

/// Short policy label for tables.
pub fn policy_label(policy: Policy) -> &'static str {
    match policy {
        Policy::SingleCoordinated => "single-coord",
        Policy::MultiCoordinated => "multi-coord",
        Policy::FastThenClassic => "fast",
        Policy::FastForever => "fast-forever",
    }
}

/// Runs one `(policy, scenario, seed)` cell of the churn matrix: the
/// standard 1/3/5/1 cluster under `policy` on the 3-DC WAN, `scenario`'s
/// chaos schedule installed, `CHURN_COMMANDS` commands paced
/// `CHURN_PACE` ticks apart, replayed to the horizon. Both policies run
/// with three coordinators — the comparison is purely the round type, so
/// the single-coordinated runs *can* fail over; their stall is the
/// detect+elect+rephase window the multicoordinated rounds never enter.
pub fn churn_run(policy: Policy, scenario: ChurnScenario, seed: u64) -> ChurnRunStats {
    let cfg = DeployConfig::simple(1, 3, 5, 1, policy).with_timing(churn_timing());
    let mut h: ClusterHarness<Set> = ClusterHarness::new(cfg, seed, NetConfig::lockstep());
    h.sim.set_topology(wan3_topology(&h.cfg));
    scenario.schedule(&h.cfg).apply(&mut h.sim);
    for i in 0..CHURN_COMMANDS {
        h.propose_at(SimTime(CHURN_START + CHURN_PACE * u64::from(i)), 0, i);
    }
    h.run_until(CHURN_HORIZON);
    ChurnRunStats {
        scenario: scenario.name(),
        policy: policy_label(policy),
        learned: h.learned(0).count() as u64,
        mean_latency: h.mean_latency(0),
        max_stall: h.max_latency(0),
        suspicions: h.metric_total("suspicions"),
        false_suspicions: h.metric_total("false_suspicions"),
        failovers: h.metric_total("failovers"),
    }
}

/// The full 3-scenario × 2-policy matrix at one seed: one
/// `[single, multi]` pair per scenario, indexed by `scenario as usize`
/// (which is also report order).
pub fn churn_matrix(seed: u64) -> [[ChurnRunStats; 2]; 3] {
    ChurnScenario::ALL.map(|scenario| {
        [Policy::SingleCoordinated, Policy::MultiCoordinated]
            .map(|policy| churn_run(policy, scenario, seed))
    })
}

/// The single-vs-multi worst-stall ratio of one scenario's pair of runs.
pub fn stall_ratio(single: &ChurnRunStats, multi: &ChurnRunStats) -> f64 {
    single.max_stall as f64 / multi.max_stall.max(1) as f64
}

/// The E13 gate on the leader-crash pair of a matrix; `Err` names the
/// first floor that does not hold. The suspicion/failover floor is what
/// shows the failure detector, not a passive timeout, drove the
/// single-coordinated recovery.
pub fn churn_floors(single: &ChurnRunStats, multi: &ChurnRunStats) -> Result<(), String> {
    let ratio = stall_ratio(single, multi);
    if ratio < 3.0 {
        return Err(format!(
            "leader-crash worst-stall ratio {ratio:.1}x < 3x floor"
        ));
    }
    if single.suspicions < 1 || single.failovers < 1 {
        return Err(format!(
            "single-coord leader crash recovered without the failure \
             detector (suspicions {}, failovers {})",
            single.suspicions, single.failovers
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leader_crash_run_learns_everything_and_detects_the_crash() {
        let s = churn_run(Policy::MultiCoordinated, ChurnScenario::LeaderCrash, 3);
        assert_eq!(s.learned, u64::from(CHURN_COMMANDS));
        assert!(s.suspicions > 0, "the crash must be suspected");
        assert!(s.max_stall >= s.mean_latency as u64);
    }

    #[test]
    fn wan3_partition_groups_cover_every_process_once() {
        let cfg = DeployConfig::simple(1, 3, 5, 1, Policy::MultiCoordinated);
        let dcs = wan3_dcs(&cfg);
        let mut all: Vec<ProcessId> = dcs.iter().flatten().copied().collect();
        all.sort_unstable();
        let mut expect = cfg.roles.all();
        expect.sort_unstable();
        assert_eq!(all, expect);
        let t = wan3_topology(&cfg);
        assert!(t.max_delay() >= 40);
    }

    /// Each E13 floor fires on a leader-crash pair doctored to miss it
    /// alone.
    #[test]
    fn churn_floors_name_the_missed_floor() {
        let run = |policy, max_stall, suspicions, failovers| ChurnRunStats {
            scenario: ChurnScenario::LeaderCrash.name(),
            policy,
            learned: u64::from(CHURN_COMMANDS),
            mean_latency: 60.0,
            max_stall,
            suspicions,
            false_suspicions: 0,
            failovers,
        };
        let multi = run("multi-coord", 100, 2, 0);
        assert_eq!(
            churn_floors(&run("single-coord", 300, 2, 1), &multi),
            Ok(())
        );

        let doctored = [
            ("2.9x < 3x", run("single-coord", 290, 2, 1)),
            ("suspicions 0, failovers 1", run("single-coord", 300, 0, 1)),
            ("suspicions 2, failovers 0", run("single-coord", 300, 2, 0)),
        ];
        for (expect, single) in doctored {
            let err = churn_floors(&single, &multi).unwrap_err();
            assert!(err.contains(expect), "{expect:?} not in {err:?}");
        }
    }
}
