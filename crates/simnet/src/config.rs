//! Network behaviour configuration.

use rand::Rng;

/// Distribution of per-message link delays, in ticks.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DelayDist {
    /// Every message takes exactly this many ticks. `Fixed(1)` makes
    /// elapsed ticks equal communication steps.
    Fixed(u64),
    /// Uniformly distributed in `[lo, hi]` (inclusive). Jitter induces
    /// message reordering, the trigger for collisions in §4.2/§4.5.
    Uniform(u64, u64),
}

impl DelayDist {
    /// Samples a delay.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> u64 {
        match *self {
            DelayDist::Fixed(d) => d,
            DelayDist::Uniform(lo, hi) => rng.gen_range(lo..=hi),
        }
    }

    /// The largest delay this distribution can produce.
    pub fn max(&self) -> u64 {
        match *self {
            DelayDist::Fixed(d) => d,
            DelayDist::Uniform(_, hi) => hi,
        }
    }
}

/// Whole-network configuration.
///
/// Loss and duplication are sampled independently per transmission, as in
/// the paper's model ("messages can be lost or duplicated but not
/// corrupted").
#[derive(Clone, Debug, PartialEq)]
pub struct NetConfig {
    /// Link delay distribution applied to every message.
    pub delay: DelayDist,
    /// Probability that a transmission is silently dropped.
    pub loss: f64,
    /// Probability that a transmission is delivered twice.
    pub duplicate: f64,
}

impl NetConfig {
    /// Lockstep network: unit delay, no loss, no duplication. Elapsed
    /// ticks equal message steps — used for the latency experiments.
    pub fn lockstep() -> Self {
        NetConfig {
            delay: DelayDist::Fixed(1),
            loss: 0.0,
            duplicate: 0.0,
        }
    }

    /// A mildly chaotic LAN: jittered delays that reorder messages, no
    /// loss. Models the paper's "clustered system" scenario where
    /// spontaneous ordering mostly holds (§4.5).
    pub fn lan() -> Self {
        NetConfig {
            delay: DelayDist::Uniform(1, 3),
            loss: 0.0,
            duplicate: 0.0,
        }
    }

    /// A lossy, high-jitter WAN: the paper's "conflict prone" scenario
    /// (§4.5) where message inversions are common.
    pub fn wan() -> Self {
        NetConfig {
            delay: DelayDist::Uniform(2, 20),
            loss: 0.01,
            duplicate: 0.005,
        }
    }

    /// Returns `self` with the given loss probability.
    pub fn with_loss(mut self, loss: f64) -> Self {
        self.loss = loss;
        self
    }

    /// Returns `self` with the given duplication probability.
    pub fn with_duplicate(mut self, duplicate: f64) -> Self {
        self.duplicate = duplicate;
        self
    }

    /// Returns `self` with the given delay distribution.
    pub fn with_delay(mut self, delay: DelayDist) -> Self {
        self.delay = delay;
        self
    }
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig::lockstep()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fixed_delay_is_constant() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10 {
            assert_eq!(DelayDist::Fixed(3).sample(&mut rng), 3);
        }
        assert_eq!(DelayDist::Fixed(3).max(), 3);
    }

    #[test]
    fn uniform_delay_within_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        let d = DelayDist::Uniform(2, 5);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..200 {
            let s = d.sample(&mut rng);
            assert!((2..=5).contains(&s));
            seen.insert(s);
        }
        assert!(seen.len() > 1, "uniform delay should vary");
        assert_eq!(d.max(), 5);
    }

    #[test]
    fn builders_compose() {
        let c = NetConfig::lockstep()
            .with_loss(0.5)
            .with_duplicate(0.25)
            .with_delay(DelayDist::Uniform(1, 2));
        assert_eq!(c.loss, 0.5);
        assert_eq!(c.duplicate, 0.25);
        assert_eq!(c.delay, DelayDist::Uniform(1, 2));
        assert_eq!(NetConfig::default(), NetConfig::lockstep());
    }
}
