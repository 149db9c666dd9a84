//! Protocol messages.
//!
//! One message enum serves the consensus instantiation (§3.1, via the
//! `SingleDecree` c-struct) and the generalized algorithm (§3.2): the
//! message *structure* is identical, only the payload type changes.

use crate::round::Round;
use crate::ship::Payload;
use mcpaxos_actor::wire::{Wire, WireError};
use mcpaxos_actor::ProcessId;
use mcpaxos_cstruct::CStruct;

/// Messages exchanged by Multicoordinated Paxos agents.
///
/// The type parameter is the c-struct set the deployment agrees on;
/// commands are `C::Cmd`. C-struct payloads (`vval`/`val`) are
/// [`std::sync::Arc`]-shared: a message cloned for an n-way multicast, or duplicated
/// by the lossy network, shares one allocation of the (potentially large)
/// command history instead of deep-copying it per recipient. Receivers
/// that keep the payload store the same `Arc`, so a value accepted by one
/// agent and relayed to f+1 others exists once in memory.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Msg<C: CStruct> {
    /// `⟨"propose", C⟩` — from a proposer to coordinators (and to
    /// acceptors, for fast rounds). `acc_quorum` optionally pins the
    /// acceptor quorum that should handle the command (the load-balancing
    /// scheme of §4.1: the chosen quorum is piggybacked so every
    /// coordinator in the chosen coordinator quorum forwards to the same
    /// acceptors).
    Propose {
        /// The proposed command.
        cmd: C::Cmd,
        /// Load-balancing pin: acceptors that should handle the command.
        acc_quorum: Option<Vec<ProcessId>>,
    },
    /// `⟨"1a", i⟩` — a coordinator asks acceptors to join round `i`.
    P1a {
        /// The round being started.
        round: Round,
    },
    /// `⟨"1b", i, vval, vrnd⟩` — an acceptor reports its latest accepted
    /// value to the coordinators of round `i`.
    P1b {
        /// The round being joined.
        round: Round,
        /// Round at which `vval` was accepted.
        vrnd: Round,
        /// Latest accepted c-struct (full or delta-shipped).
        vval: Payload<C>,
    },
    /// `⟨"2a", i, val⟩` — a coordinator forwards (its current suggestion
    /// of) the round-`i` value to acceptors.
    P2a {
        /// The round.
        round: Round,
        /// The coordinator's current `cval` (full or delta-shipped).
        val: Payload<C>,
    },
    /// `⟨"2b", i, val⟩` — an acceptor announces its accepted value. Sent
    /// to learners, and to coordinators (who monitor progress, detect fast
    /// collisions and run coordinated recovery, §4.2–4.3). Under
    /// uncoordinated recovery acceptors also gossip `2b` to each other.
    P2b {
        /// The round.
        round: Round,
        /// The acceptor's accepted c-struct (full or delta-shipped).
        val: Payload<C>,
    },
    /// Nack: the receiver's round is below the sender's current round
    /// (§4.3 — lets a leader discover it must start a higher round).
    RoundTooLow {
        /// The sender's current round.
        heard: Round,
    },
    /// Leader-election keep-alive among coordinators (§4.3).
    Heartbeat,
    /// Learner → proposer notification that commands are now contained in
    /// the learned c-struct; stops retransmission.
    Learned {
        /// Commands newly contained in the learner's `learned` value.
        cmds: Vec<C::Cmd>,
    },
    /// Receiver → sender: a delta payload for `round` could not be
    /// applied (missing or truncated base); the sender should re-ship its
    /// full current value to this process.
    NeedFull {
        /// The round whose payload failed to resolve.
        round: Round,
    },
    /// Designated learner → other learners: "I have learned this stable
    /// segment (the commands at logical positions `from..from+len`); ack
    /// once you have learned it too."
    StableProposal {
        /// Logical position of the segment's first command (the proposing
        /// learner's watermark).
        from: u64,
        /// The segment's commands, in the proposer's learned order.
        cmds: Vec<C::Cmd>,
    },
    /// Learner → designated learner: "my learned value contains the
    /// segment starting at `upto`."
    StableAck {
        /// The `from` of the acked [`Msg::StableProposal`].
        upto: u64,
    },
    /// Designated learner → everyone: a learner quorum has learned the
    /// segment at `from`; truncate it out of live state once your own
    /// value covers it.
    Stable {
        /// Logical position of the segment's first command.
        from: u64,
        /// The segment's commands.
        cmds: Vec<C::Cmd>,
    },
    /// Receiver → sender: "you are ahead of my watermark `from`; re-send
    /// the stable segments between us" (answered with [`Msg::Stable`]
    /// messages from the sender's retained window). Lets a restarted or
    /// lagging agent catch up with the compaction frontier.
    NeedStable {
        /// The requester's current watermark.
        from: u64,
    },
    /// `⟨"propose", ⟨C₁…Cₖ⟩⟩` — a proposer forwards a *batch* of commands
    /// in one message, amortizing the per-message envelope over k
    /// proposals. Semantically identical to k consecutive
    /// [`Msg::Propose`]s with the same `acc_quorum`; receivers process
    /// the commands in order. Proposers emit it for batches of two or
    /// more ([`crate::BatchConfig::batch_size`] > 1); a lone command
    /// travels as [`Msg::Propose`].
    ProposeBatch {
        /// The proposed commands, in submission order.
        cmds: Vec<C::Cmd>,
        /// Load-balancing pin, as in [`Msg::Propose`].
        acc_quorum: Option<Vec<ProcessId>>,
    },
    /// Restart announcement: "whatever you last shipped me died with my
    /// volatile state — your next payload to me must be `Full`."
    /// Broadcast from `on_recover` to the peers that track a per-peer
    /// delta base for the sender, it proactively downgrades that base and
    /// saves the `NeedFull` round-trip a stale delta would otherwise
    /// cost. Purely an optimization: losing a `Hello` only re-opens the
    /// `NeedFull` path.
    Hello,
}

impl<C: CStruct> Msg<C> {
    /// Short tag for metrics and traces.
    pub fn tag(&self) -> &'static str {
        match self {
            Msg::Propose { .. } => "propose",
            Msg::P1a { .. } => "1a",
            Msg::P1b { .. } => "1b",
            Msg::P2a { .. } => "2a",
            Msg::P2b { .. } => "2b",
            Msg::RoundTooLow { .. } => "nack",
            Msg::Heartbeat => "heartbeat",
            Msg::Learned { .. } => "learned",
            Msg::NeedFull { .. } => "needfull",
            Msg::StableProposal { .. } => "stable_prop",
            Msg::StableAck { .. } => "stable_ack",
            Msg::Stable { .. } => "stable",
            Msg::NeedStable { .. } => "needstable",
            Msg::ProposeBatch { .. } => "propose_batch",
            Msg::Hello => "hello",
        }
    }
}

impl<C: CStruct> Wire for Msg<C> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Msg::Propose { cmd, acc_quorum } => {
                out.push(0);
                cmd.encode(out);
                acc_quorum.encode(out);
            }
            Msg::P1a { round } => {
                out.push(1);
                round.encode(out);
            }
            Msg::P1b { round, vrnd, vval } => {
                out.push(2);
                round.encode(out);
                vrnd.encode(out);
                vval.encode(out);
            }
            Msg::P2a { round, val } => {
                out.push(3);
                round.encode(out);
                val.encode(out);
            }
            Msg::P2b { round, val } => {
                out.push(4);
                round.encode(out);
                val.encode(out);
            }
            Msg::RoundTooLow { heard } => {
                out.push(5);
                heard.encode(out);
            }
            Msg::Heartbeat => out.push(6),
            Msg::Learned { cmds } => {
                out.push(7);
                cmds.encode(out);
            }
            Msg::NeedFull { round } => {
                out.push(8);
                round.encode(out);
            }
            Msg::StableProposal { from, cmds } => {
                out.push(9);
                from.encode(out);
                cmds.encode(out);
            }
            Msg::StableAck { upto } => {
                out.push(10);
                upto.encode(out);
            }
            Msg::Stable { from, cmds } => {
                out.push(11);
                from.encode(out);
                cmds.encode(out);
            }
            Msg::NeedStable { from } => {
                out.push(12);
                from.encode(out);
            }
            Msg::Hello => out.push(13),
            Msg::ProposeBatch { cmds, acc_quorum } => {
                out.push(14);
                cmds.encode(out);
                acc_quorum.encode(out);
            }
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(input)? {
            0 => Ok(Msg::Propose {
                cmd: Wire::decode(input)?,
                acc_quorum: Wire::decode(input)?,
            }),
            1 => Ok(Msg::P1a {
                round: Round::decode(input)?,
            }),
            2 => Ok(Msg::P1b {
                round: Round::decode(input)?,
                vrnd: Round::decode(input)?,
                vval: Payload::<C>::decode(input)?,
            }),
            3 => Ok(Msg::P2a {
                round: Round::decode(input)?,
                val: Payload::<C>::decode(input)?,
            }),
            4 => Ok(Msg::P2b {
                round: Round::decode(input)?,
                val: Payload::<C>::decode(input)?,
            }),
            5 => Ok(Msg::RoundTooLow {
                heard: Round::decode(input)?,
            }),
            6 => Ok(Msg::Heartbeat),
            7 => Ok(Msg::Learned {
                cmds: Wire::decode(input)?,
            }),
            8 => Ok(Msg::NeedFull {
                round: Round::decode(input)?,
            }),
            9 => Ok(Msg::StableProposal {
                from: u64::decode(input)?,
                cmds: Wire::decode(input)?,
            }),
            10 => Ok(Msg::StableAck {
                upto: u64::decode(input)?,
            }),
            11 => Ok(Msg::Stable {
                from: u64::decode(input)?,
                cmds: Wire::decode(input)?,
            }),
            12 => Ok(Msg::NeedStable {
                from: u64::decode(input)?,
            }),
            13 => Ok(Msg::Hello),
            14 => Ok(Msg::ProposeBatch {
                cmds: Wire::decode(input)?,
                acc_quorum: Wire::decode(input)?,
            }),
            _ => Err(WireError {
                what: "invalid msg tag",
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcpaxos_actor::wire::{from_bytes, to_bytes};
    use mcpaxos_cstruct::{CStruct, SingleDecree};

    #[test]
    fn tags() {
        type M = Msg<SingleDecree<u32>>;
        let msgs: Vec<M> = vec![
            Msg::Propose {
                cmd: 1,
                acc_quorum: None,
            },
            Msg::P1a { round: Round::ZERO },
            Msg::P1b {
                round: Round::ZERO,
                vrnd: Round::ZERO,
                vval: SingleDecree::bottom().into(),
            },
            Msg::P2a {
                round: Round::ZERO,
                val: SingleDecree::bottom().into(),
            },
            Msg::P2b {
                round: Round::ZERO,
                val: SingleDecree::bottom().into(),
            },
            Msg::RoundTooLow { heard: Round::ZERO },
            Msg::Heartbeat,
            Msg::Learned { cmds: vec![] },
            Msg::NeedFull { round: Round::ZERO },
            Msg::StableProposal {
                from: 0,
                cmds: vec![],
            },
            Msg::StableAck { upto: 0 },
            Msg::Stable {
                from: 0,
                cmds: vec![],
            },
            Msg::NeedStable { from: 0 },
            Msg::ProposeBatch {
                cmds: vec![1, 2],
                acc_quorum: None,
            },
            Msg::Hello,
        ];
        let tags: Vec<&str> = msgs.iter().map(|m| m.tag()).collect();
        assert_eq!(
            tags,
            vec![
                "propose",
                "1a",
                "1b",
                "2a",
                "2b",
                "nack",
                "heartbeat",
                "learned",
                "needfull",
                "stable_prop",
                "stable_ack",
                "stable",
                "needstable",
                "propose_batch",
                "hello"
            ]
        );
    }

    #[test]
    fn clone_and_eq() {
        type M = Msg<SingleDecree<u32>>;
        let m: M = Msg::P2a {
            round: Round::new(1, 2, 0, 1),
            val: SingleDecree::decided(9).into(),
        };
        assert_eq!(m.clone(), m);
    }

    #[test]
    fn wire_roundtrips_every_variant() {
        type M = Msg<SingleDecree<u32>>;
        let msgs: Vec<M> = vec![
            Msg::Propose {
                cmd: 7,
                acc_quorum: Some(vec![ProcessId(4), ProcessId(5)]),
            },
            Msg::Propose {
                cmd: 8,
                acc_quorum: None,
            },
            Msg::P1a {
                round: Round::new(3, 1, 2, 0),
            },
            Msg::P1b {
                round: Round::new(3, 1, 2, 0),
                vrnd: Round::ZERO,
                vval: SingleDecree::decided(11).into(),
            },
            Msg::P2a {
                round: Round::new(1, 0, 0, 1),
                val: SingleDecree::bottom().into(),
            },
            Msg::P2b {
                round: Round::new(1, 0, 0, 1),
                val: SingleDecree::decided(2).into(),
            },
            Msg::P2b {
                round: Round::new(1, 0, 0, 1),
                val: Payload::Delta {
                    base_len: 3,
                    digest: 0xDEAD_BEEF,
                    suffix: vec![4, 5],
                },
            },
            Msg::RoundTooLow {
                heard: Round::new(9, 9, 9, 2),
            },
            Msg::Heartbeat,
            Msg::Learned {
                cmds: vec![1, 2, 3],
            },
            Msg::NeedFull {
                round: Round::new(2, 0, 1, 0),
            },
            Msg::StableProposal {
                from: 64,
                cmds: vec![9, 10],
            },
            Msg::StableAck { upto: 64 },
            Msg::Stable {
                from: 64,
                cmds: vec![9, 10],
            },
            Msg::NeedStable { from: 64 },
            Msg::ProposeBatch {
                cmds: vec![21, 22, 23],
                acc_quorum: Some(vec![ProcessId(4)]),
            },
            Msg::ProposeBatch {
                cmds: vec![],
                acc_quorum: None,
            },
            Msg::Hello,
        ];
        for m in msgs {
            let back: M = from_bytes(&to_bytes(&m)).unwrap();
            assert_eq!(back, m);
        }
    }

    #[test]
    fn wire_rejects_unknown_tag() {
        let r: Result<Msg<SingleDecree<u32>>, _> = from_bytes(&[250]);
        assert_eq!(r.unwrap_err().what, "invalid msg tag");
    }
}
