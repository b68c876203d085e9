//! Biased input-pattern sampling for the sampled weight, pair and
//! observability passes.
//!
//! Those passes default to the uniform input distribution (every input is
//! 1 with probability ½ — the paper's setting). [`InputSampler`]
//! generalizes this to independent per-input biases through
//! [`BiasedBits`]. The input stream is one `SmallRng(seed)` sequence read
//! in input-position order, block after block, so every sampled count is
//! a pure function of `(input probabilities, patterns, seed)`. Monte Carlo
//! does not use it: the tape kernel draws its input words from a
//! position-based stream instead.

use crate::bits::{BiasedBits, DEFAULT_RESOLUTION};
use rand::RngCore;

/// Draws 64-pattern input words under independent per-input biases.
#[derive(Clone, Debug)]
pub(crate) struct InputSampler {
    /// One generator per input position; `None` means unbiased (p = ½),
    /// which costs a single RNG word.
    gens: Vec<Option<BiasedBits>>,
}

impl InputSampler {
    /// Independent per-input biases: input `i` is 1 with probability
    /// `probs[i]`.
    ///
    /// # Panics
    ///
    /// Panics if any probability is outside `[0, 1]`.
    pub(crate) fn independent(probs: &[f64]) -> Self {
        InputSampler {
            gens: probs
                .iter()
                .map(|&p| {
                    if (p - 0.5).abs() < f64::EPSILON {
                        None
                    } else {
                        Some(BiasedBits::new(p, DEFAULT_RESOLUTION))
                    }
                })
                .collect(),
        }
    }

    /// Writes one sampled block into the slot-indexed `words`: input
    /// position `i` goes to slot `input_slots[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `input_slots` covers fewer inputs than the sampler.
    pub(crate) fn fill<R: RngCore + ?Sized>(
        &self,
        words: &mut [u64],
        input_slots: &[u32],
        rng: &mut R,
    ) {
        for (gen, &slot) in self.gens.iter().zip(input_slots) {
            words[slot as usize] = match gen {
                None => rng.next_u64(),
                Some(g) => g.next_word(rng),
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CircuitTape;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use relogic_netlist::Circuit;

    fn two_input_circuit() -> Circuit {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g = c.and([a, b]);
        c.add_output("y", g);
        c
    }

    /// Mean of every input word over `blocks` sampled blocks.
    fn input_means(probs: &[f64], blocks: u32, seed: u64) -> Vec<f64> {
        let tape = CircuitTape::compile(&two_input_circuit());
        let sampler = InputSampler::independent(probs);
        let mut words = vec![0u64; tape.n_slots()];
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut ones = [0u32; 2];
        for _ in 0..blocks {
            sampler.fill(&mut words, tape.input_slots(), &mut rng);
            for (k, &s) in tape.input_slots().iter().enumerate() {
                ones[k] += words[s as usize].count_ones();
            }
        }
        ones.iter()
            .map(|&o| f64::from(o) / (f64::from(blocks) * 64.0))
            .collect()
    }

    #[test]
    fn uniform_sampler_is_unbiased() {
        let means = input_means(&[0.5, 0.5], 4096, 2);
        assert!((means[0] - 0.5).abs() < 0.01, "{means:?}");
    }

    #[test]
    fn biased_sampler_hits_targets() {
        let means = input_means(&[0.2, 0.8], 8192, 3);
        assert!((means[0] - 0.2).abs() < 0.01, "{means:?}");
        assert!((means[1] - 0.8).abs() < 0.01, "{means:?}");
    }

    #[test]
    fn gate_statistics_follow_bias() {
        // AND of (0.9, 0.9)-biased inputs is 1 with probability 0.81.
        let c = two_input_circuit();
        let tape = CircuitTape::compile(&c);
        let sampler = InputSampler::independent(&[0.9, 0.9]);
        let mut words = vec![0u64; tape.n_slots()];
        let mut rng = SmallRng::seed_from_u64(4);
        let g = tape.slot_of_node(c.outputs()[0].node().index());
        let mut ones = 0u32;
        for _ in 0..8192 {
            sampler.fill(&mut words, tape.input_slots(), &mut rng);
            tape.eval_block(&mut words, None);
            ones += words[g].count_ones();
        }
        let mean = f64::from(ones) / (8192.0 * 64.0);
        assert!((mean - 0.81).abs() < 0.01, "{mean}");
    }

    #[test]
    #[should_panic(expected = "out of [0,1]")]
    fn invalid_bias_rejected() {
        let _ = InputSampler::independent(&[1.5]);
    }
}
