//! Output checks run after every rep: what the replicas applied must be
//! exactly what was proposed, in an order that agrees on every
//! conflicting pair.

use crate::deploy::{multiset, Cmd, ReplicaView};
use std::collections::HashSet;

/// Appends one line to `problems` per violation. A replica that has not
/// reached every command is not a violation here: the reference replica
/// falling short shows as failed operations, another one as replica lag.
pub fn check_outputs(
    what: &str,
    proposed: &[Cmd],
    replicas: &[ReplicaView],
    problems: &mut Vec<String>,
) {
    let n = proposed.len() as u64;
    let expected = multiset(proposed);
    let known: HashSet<&Cmd> = proposed.iter().collect();
    let Some(reference) = replicas.first() else {
        problems.push(format!("{what}: no replica survived the run"));
        return;
    };
    for (i, r) in replicas.iter().enumerate() {
        if let Some(c) = r.window.iter().find(|c| !known.contains(c)) {
            problems.push(format!(
                "{what}: replica {i} learned {c:?}, which nobody proposed"
            ));
        }
        if r.applied > n {
            problems.push(format!(
                "{what}: replica {i} applied {} of {n} commands",
                r.applied
            ));
        }
        if r.applied != n {
            continue;
        }
        if r.multiset != expected {
            problems.push(format!(
                "{what}: replica {i} applied {n} commands that are not the {n} proposed"
            ));
        }
        if reference.applied == n && r.state != reference.state {
            problems.push(format!(
                "{what}: replica {i} ended in another key-value state than replica 0"
            ));
        }
        if reference.applied == n && r.order != reference.order {
            problems.push(format!(
                "{what}: replica {i} applied a conflicting pair in another order than replica 0"
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::commands;

    fn replica(cmds: &[Cmd], state: u64, order: u64) -> ReplicaView {
        ReplicaView {
            applied: cmds.len() as u64,
            multiset: multiset(cmds),
            state,
            order,
            window: cmds.to_vec(),
        }
    }

    #[test]
    fn agreeing_replicas_pass_and_a_lagging_one_is_not_a_violation() {
        let cmds = commands(1, 0, 0.5, 20);
        let mut problems = Vec::new();
        let views = [
            replica(&cmds, 7, 9),
            replica(&cmds, 7, 9),
            replica(&cmds[..5], 1, 2),
        ];
        check_outputs("t", &cmds, &views, &mut problems);
        assert!(problems.is_empty(), "{problems:?}");
    }

    #[test]
    fn divergence_and_foreign_commands_are_reported() {
        let cmds = commands(1, 0, 0.5, 20);
        let foreign = commands(2, 9, 0.5, 20);
        let mut problems = Vec::new();
        let views = [
            replica(&cmds, 7, 9),
            replica(&cmds, 8, 9),
            replica(&cmds, 7, 10),
            replica(&foreign, 7, 9),
        ];
        check_outputs("t", &cmds, &views, &mut problems);
        assert_eq!(problems.len(), 4, "{problems:?}");
    }
}
