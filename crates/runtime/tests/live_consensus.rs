//! The full Multicoordinated Paxos stack on real threads: same agents as
//! the simulator, every role on one `TcpNode`, wall-clock timers.

use mcpaxos_actor::ProcessId;
use mcpaxos_core::{agent, DeployConfig, Learner, Msg, Policy};
use mcpaxos_cstruct::{CStruct, CmdSet};
use mcpaxos_runtime::{PeerTable, TcpConfig, TcpNode};
use std::sync::Arc;
use std::time::{Duration, Instant};

type Set = CmdSet<u32>;

#[test]
fn live_multicoordinated_cluster_learns_commands() {
    let cfg = Arc::new(DeployConfig::simple(1, 3, 5, 2, Policy::MultiCoordinated));
    cfg.validate().unwrap();
    let mut cluster: TcpNode<Msg<Set>> =
        TcpNode::bind(PeerTable::shared(), TcpConfig::default()).unwrap();
    for p in cfg.roles.all() {
        cluster.spawn(p, agent!(Set, cfg, p));
    }

    let client = ProcessId(9_999);
    let proposer = cfg.roles.proposers()[0];
    for cmd in [10u32, 20, 30] {
        cluster.send(
            proposer,
            client,
            Msg::Propose {
                cmd,
                acc_quorum: None,
            },
        );
    }

    // Wait until both learners report 3 commands (metric "learned" is a
    // gauge of the current count; poll the actor state after stop).
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        let m = cluster.metrics();
        let done = cfg
            .roles
            .learners()
            .iter()
            .all(|&l| m.of(l, "learned") >= 3);
        if done {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }

    let actors = cluster.stop();
    for &l in cfg.roles.learners() {
        let learner = actors[&l]
            .as_any()
            .downcast_ref::<Learner<Set>>()
            .expect("learner type");
        let learned = learner.learned();
        assert_eq!(
            learned.count(),
            3,
            "live learner {l} must learn all commands, got {learned:?}"
        );
        for cmd in [10u32, 20, 30] {
            assert!(learned.contains(&cmd));
        }
    }
}
