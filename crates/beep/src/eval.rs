//! Monte-Carlo evaluation of BEEP's success rate (Figures 8 and 9).
//!
//! Each evaluated word draws a random SEC code of the configured codeword
//! length, plants `errors_injected` weak cells at random positions, runs
//! BEEP, and counts success when the discovered set equals the planted set
//! exactly.

use crate::profiler::{profile_word, BeepConfig};
use crate::target::SimWordTarget;
use beer_ecc::hamming;
use rand::rngs::StdRng;
use rand::seq::index::sample;
use rand::SeedableRng;

/// Configuration of one evaluation point (one bar of Figure 8/9).
#[derive(Clone, Copy, Debug)]
pub struct EvalConfig {
    /// Codeword length `n` (31, 63, 127 and 255 in the paper — full-length
    /// Hamming codes).
    pub codeword_len: usize,
    /// Number of weak cells injected per codeword.
    pub errors_injected: usize,
    /// Per-trial failure probability of each weak cell.
    pub p_error: f64,
    /// BEEP passes.
    pub passes: usize,
    /// Retention trials per crafted pattern.
    pub trials_per_pattern: usize,
    /// Codewords evaluated (100 in the paper).
    pub words: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl EvalConfig {
    /// A Figure-8-style point: deterministic weak cells.
    pub fn figure8(
        codeword_len: usize,
        errors_injected: usize,
        passes: usize,
        words: usize,
    ) -> Self {
        EvalConfig {
            codeword_len,
            errors_injected,
            p_error: 1.0,
            passes,
            trials_per_pattern: 2,
            words,
            seed: 0xF18_8EE9,
        }
    }

    /// A Figure-9-style point: probabilistic weak cells, single pass.
    pub fn figure9(
        codeword_len: usize,
        errors_injected: usize,
        p_error: f64,
        words: usize,
    ) -> Self {
        EvalConfig {
            codeword_len,
            errors_injected,
            p_error,
            passes: 1,
            trials_per_pattern: 4,
            words,
            seed: 0xF19_8EE9,
        }
    }
}

/// Aggregate outcome of an evaluation point.
#[derive(Clone, Copy, Debug)]
pub struct EvalOutcome {
    /// Words where BEEP identified the planted set exactly.
    pub successes: usize,
    /// Words evaluated.
    pub words: usize,
    /// Words with at least one false positive (never expected).
    pub false_positive_words: usize,
    /// Mean fraction of planted cells discovered (recall).
    pub mean_recall: f64,
}

impl EvalOutcome {
    /// Success rate in `[0, 1]`.
    pub fn success_rate(&self) -> f64 {
        if self.words == 0 {
            0.0
        } else {
            self.successes as f64 / self.words as f64
        }
    }
}

/// Parity bits of the full-length code with codeword length `n = 2^p − 1`.
///
/// # Panics
///
/// Panics if `n` is not of the form `2^p − 1` with `p ∈ 3..=8`.
pub fn parity_bits_of_len(n: usize) -> usize {
    for p in 3..=8 {
        if n == (1 << p) - 1 {
            return p;
        }
    }
    panic!("codeword length {n} is not 2^p - 1");
}

/// Runs one evaluation point.
///
/// # Panics
///
/// Panics if `codeword_len` is not of the form `2^p − 1` with `p ∈ 3..=8`,
/// or more errors are requested than codeword bits.
pub fn evaluate(config: &EvalConfig) -> EvalOutcome {
    let p = parity_bits_of_len(config.codeword_len);
    let k = hamming::full_length_k(p);
    assert!(
        config.errors_injected <= config.codeword_len,
        "more errors than codeword bits"
    );
    let mut rng = StdRng::seed_from_u64(config.seed);
    let beep = BeepConfig {
        passes: config.passes,
        trials_per_pattern: config.trials_per_pattern,
        seed_patterns: 16,
        seed: config.seed ^ 0x5EED,
    };

    let mut successes = 0;
    let mut false_positive_words = 0;
    let mut recall_sum = 0.0;
    for w in 0..config.words {
        // A fresh random full-length code per word samples the design
        // space, as the paper's simulations do.
        let code = hamming::random_sec(k, &mut rng);
        let weak: Vec<usize> = {
            let mut v: Vec<usize> = sample(&mut rng, code.n(), config.errors_injected)
                .into_iter()
                .collect();
            v.sort_unstable();
            v
        };
        let mut target = SimWordTarget::new(
            code.clone(),
            weak.clone(),
            config.p_error,
            config.seed ^ (w as u64).wrapping_mul(0x9E37_79B9),
        );
        let result = profile_word(&code, &mut target, &beep);
        let found = result.discovered_sorted();
        let true_positives = found.iter().filter(|f| weak.contains(f)).count();
        if found.iter().any(|f| !weak.contains(f)) {
            false_positive_words += 1;
        }
        recall_sum += true_positives as f64 / weak.len().max(1) as f64;
        if found == weak {
            successes += 1;
        }
    }
    EvalOutcome {
        successes,
        words: config.words,
        false_positive_words,
        mean_recall: recall_sum / config.words.max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parity_bits_for_paper_lengths() {
        assert_eq!(parity_bits_of_len(31), 5);
        assert_eq!(parity_bits_of_len(63), 6);
        assert_eq!(parity_bits_of_len(127), 7);
        assert_eq!(parity_bits_of_len(255), 8);
    }

    #[test]
    #[should_panic(expected = "not 2^p - 1")]
    fn rejects_non_hamming_lengths() {
        parity_bits_of_len(64);
    }

    #[test]
    fn deterministic_errors_on_31_bit_codes_mostly_succeed() {
        let outcome = evaluate(&EvalConfig::figure8(31, 2, 1, 12));
        assert!(
            outcome.success_rate() >= 0.5,
            "success rate {} too low",
            outcome.success_rate()
        );
        assert_eq!(outcome.false_positive_words, 0);
    }

    #[test]
    fn recall_degrades_gracefully_with_low_p_error() {
        let high = evaluate(&EvalConfig::figure9(31, 3, 1.0, 8));
        let low = evaluate(&EvalConfig::figure9(31, 3, 0.25, 8));
        assert!(high.mean_recall >= low.mean_recall);
    }
}
