//! Deterministic workload generation for tests, examples and benches.

use crate::{BankCmd, BankOp, CmdId, KvCmd, KvOp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic command generator with a tunable conflict profile.
///
/// The *conflict fraction* `rho` controls how likely two generated
/// key-value commands are to interfere: keys are drawn from a hot set of
/// size 1 with probability `rho` and from a large cold set otherwise, so
/// `rho ≈ 0` yields an almost fully commuting workload and `rho = 1` a
/// fully interfering one. This is the knob the E6/E8 experiments sweep.
#[derive(Debug)]
pub struct Workload {
    rng: StdRng,
    client: u32,
    seq: u32,
    rho: f64,
    cold_keys: u16,
    transfer_fraction: f64,
}

impl Workload {
    /// Creates a generator for `client` with conflict fraction `rho`.
    pub fn new(seed: u64, client: u32, rho: f64) -> Self {
        Workload {
            rng: StdRng::seed_from_u64(seed ^ u64::from(client).rotate_left(17)),
            client,
            seq: 0,
            rho: rho.clamp(0.0, 1.0),
            cold_keys: 10_000,
            transfer_fraction: 0.0,
        }
    }

    /// Sets the size of the cold key/account space commands draw from.
    pub fn with_cold_keys(mut self, cold_keys: u16) -> Self {
        self.cold_keys = cold_keys.max(1);
        self
    }

    /// Sets the fraction of [`Workload::next_sharded_bank`] commands that
    /// are two-account transfers — the multi-key commands that may cross
    /// shard boundaries. The sharding experiments sweep this at 0%/1%/10%.
    pub fn with_transfer_fraction(mut self, frac: f64) -> Self {
        self.transfer_fraction = frac.clamp(0.0, 1.0);
        self
    }

    /// The size of the cold key/account space.
    pub fn cold_keys(&self) -> u16 {
        self.cold_keys
    }

    /// The fraction of sharded-bank commands that are transfers.
    pub fn transfer_fraction(&self) -> f64 {
        self.transfer_fraction
    }

    fn next_id(&mut self) -> CmdId {
        let id = CmdId {
            client: self.client,
            seq: self.seq,
        };
        self.seq += 1;
        id
    }

    fn pick_key(&mut self) -> u16 {
        if self.rng.gen_bool(self.rho) {
            0 // the hot key: everything here interferes
        } else {
            1 + self.rng.gen_range(0..self.cold_keys)
        }
    }

    /// Next key-value write command.
    pub fn next_kv_put(&mut self) -> KvCmd {
        let key = self.pick_key();
        let value = self.rng.gen_range(1..1_000_000);
        KvCmd {
            id: self.next_id(),
            op: KvOp::Put(key, value),
        }
    }

    /// Next key-value command with a read/write mix (`write_frac` writes).
    pub fn next_kv(&mut self, write_frac: f64) -> KvCmd {
        if self.rng.gen_bool(write_frac.clamp(0.0, 1.0)) {
            self.next_kv_put()
        } else {
            KvCmd {
                id: self.next_id(),
                op: KvOp::Get(self.pick_key()),
            }
        }
    }

    /// Next bank command: mostly deposits (commuting), with transfers and
    /// the occasional audit mixed in proportionally to `rho`.
    pub fn next_bank(&mut self) -> BankCmd {
        let id = self.next_id();
        let roll: f64 = self.rng.gen();
        let op = if roll < self.rho / 2.0 {
            BankOp::Transfer {
                from: self.rng.gen_range(0..4),
                to: self.rng.gen_range(0..4),
                amount: self.rng.gen_range(1..50),
            }
        } else if roll < self.rho {
            BankOp::Withdraw {
                account: self.rng.gen_range(0..4),
                amount: self.rng.gen_range(1..50),
            }
        } else {
            BankOp::Deposit {
                account: self.rng.gen_range(0..16),
                amount: self.rng.gen_range(1..100),
            }
        };
        BankCmd { id, op }
    }

    /// Next bank command for a sharded deployment: single-account deposits
    /// spread over the cold account space, with a
    /// [`Workload::with_transfer_fraction`] share of two-account transfers
    /// between *distinct* accounts (the multi-key commands a router may
    /// classify as cross-shard).
    pub fn next_sharded_bank(&mut self) -> BankCmd {
        let id = self.next_id();
        let op = if self.transfer_fraction > 0.0 && self.rng.gen_bool(self.transfer_fraction) {
            let from = self.rng.gen_range(0..self.cold_keys);
            let mut to = self.rng.gen_range(0..self.cold_keys);
            if self.cold_keys > 1 {
                while to == from {
                    to = self.rng.gen_range(0..self.cold_keys);
                }
            }
            BankOp::Transfer {
                from,
                to,
                amount: 1,
            }
        } else {
            BankOp::Deposit {
                account: self.rng.gen_range(0..self.cold_keys),
                amount: self.rng.gen_range(1..100),
            }
        };
        BankCmd { id, op }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcpaxos_cstruct::Conflict;

    #[test]
    fn ids_are_unique_and_ordered() {
        let mut w = Workload::new(1, 7, 0.5);
        let a = w.next_kv_put();
        let b = w.next_kv_put();
        assert_eq!(a.id.client, 7);
        assert_eq!((a.id.seq, b.id.seq), (0, 1));
        assert_ne!(a.id, b.id);
    }

    #[test]
    fn rho_zero_rarely_conflicts_rho_one_always() {
        let mut w0 = Workload::new(2, 0, 0.0);
        let cmds0: Vec<KvCmd> = (0..50).map(|_| w0.next_kv_put()).collect();
        let conflicts0 = count_conflicts(&cmds0);
        let mut w1 = Workload::new(2, 0, 1.0);
        let cmds1: Vec<KvCmd> = (0..50).map(|_| w1.next_kv_put()).collect();
        let conflicts1 = count_conflicts(&cmds1);
        assert!(conflicts0 < conflicts1);
        assert_eq!(conflicts1, 50 * 49 / 2, "rho=1: every pair conflicts");
    }

    fn count_conflicts(cmds: &[KvCmd]) -> usize {
        let mut n = 0;
        for (i, a) in cmds.iter().enumerate() {
            for b in &cmds[i + 1..] {
                if a.conflicts(b) {
                    n += 1;
                }
            }
        }
        n
    }

    #[test]
    fn determinism_per_seed() {
        let a: Vec<KvCmd> = {
            let mut w = Workload::new(9, 1, 0.3);
            (0..10).map(|_| w.next_kv(0.8)).collect()
        };
        let b: Vec<KvCmd> = {
            let mut w = Workload::new(9, 1, 0.3);
            (0..10).map(|_| w.next_kv(0.8)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn sharded_bank_honors_transfer_fraction() {
        let mut w = Workload::new(11, 0, 0.0).with_cold_keys(64);
        assert_eq!(w.cold_keys(), 64);
        assert!((0..200).all(|_| matches!(w.next_sharded_bank().op, BankOp::Deposit { .. })));

        let mut w = Workload::new(11, 0, 0.0)
            .with_cold_keys(64)
            .with_transfer_fraction(0.5);
        let cmds: Vec<BankCmd> = (0..200).map(|_| w.next_sharded_bank()).collect();
        let transfers = cmds
            .iter()
            .filter(|c| matches!(c.op, BankOp::Transfer { .. }))
            .count();
        assert!((50..150).contains(&transfers), "≈50%: got {transfers}");
        for c in &cmds {
            if let BankOp::Transfer { from, to, .. } = c.op {
                assert_ne!(from, to, "transfers are genuinely multi-key");
                assert!(from < 64 && to < 64);
            }
        }
    }

    #[test]
    fn bank_mix_varies_with_rho() {
        let mut w = Workload::new(5, 0, 0.0);
        assert!((0..30).all(|_| matches!(w.next_bank().op, BankOp::Deposit { .. })));
        let mut w = Workload::new(5, 0, 1.0);
        let any_guarded = (0..30).any(|_| {
            matches!(
                w.next_bank().op,
                BankOp::Withdraw { .. } | BankOp::Transfer { .. }
            )
        });
        assert!(any_guarded);
    }
}
