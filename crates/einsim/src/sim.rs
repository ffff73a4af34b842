//! The word-level Monte-Carlo simulation loop.

use crate::error_model::ErrorModel;
use beer_ecc::LinearCode;
use beer_gf2::BitVec;
use rand::Rng;

/// Parameters of one simulation run.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Number of ECC words to simulate.
    pub words: u64,
    /// Pre-correction error model.
    pub model: ErrorModel,
}

/// Aggregated per-bit error statistics from a simulation run.
#[derive(Clone, Debug)]
pub struct PerBitStats {
    /// Codeword length.
    pub n: usize,
    /// Dataword length.
    pub k: usize,
    /// Words simulated.
    pub words: u64,
    /// Pre-correction error count per codeword position (length `n`).
    pub pre_errors: Vec<u64>,
    /// Post-correction error count per dataword position (length `k`).
    pub post_errors: Vec<u64>,
    /// Miscorrection count per dataword position (length `k`): how often
    /// the decoder flipped this bit although it had no error. This is the
    /// purely ECC-function-specific component of the post-correction
    /// distribution (§4.2.2).
    pub miscorrections: Vec<u64>,
    /// Words with at least one pre-correction error.
    pub words_with_pre_errors: u64,
    /// Words whose post-correction dataword was wrong.
    pub uncorrectable_words: u64,
    /// Words where the decoder flipped a bit that had no error.
    pub miscorrected_words: u64,
}

impl PerBitStats {
    fn new(n: usize, k: usize) -> Self {
        PerBitStats {
            n,
            k,
            words: 0,
            pre_errors: vec![0; n],
            post_errors: vec![0; k],
            miscorrections: vec![0; k],
            words_with_pre_errors: 0,
            uncorrectable_words: 0,
            miscorrected_words: 0,
        }
    }

    /// Merges another run's counts into this one.
    ///
    /// # Panics
    ///
    /// Panics if the code dimensions differ.
    pub fn merge(&mut self, other: &PerBitStats) {
        assert_eq!((self.n, self.k), (other.n, other.k), "dimension mismatch");
        self.words += other.words;
        for (a, b) in self.pre_errors.iter_mut().zip(&other.pre_errors) {
            *a += b;
        }
        for (a, b) in self.post_errors.iter_mut().zip(&other.post_errors) {
            *a += b;
        }
        for (a, b) in self.miscorrections.iter_mut().zip(&other.miscorrections) {
            *a += b;
        }
        self.words_with_pre_errors += other.words_with_pre_errors;
        self.uncorrectable_words += other.uncorrectable_words;
        self.miscorrected_words += other.miscorrected_words;
    }

    /// Total pre-correction errors.
    pub fn total_pre_errors(&self) -> u64 {
        self.pre_errors.iter().sum()
    }

    /// Total post-correction errors.
    pub fn total_post_errors(&self) -> u64 {
        self.post_errors.iter().sum()
    }

    /// Per-bit share of all post-correction errors (Figure 1's "relative
    /// error probability"); all-zero if no errors were observed.
    pub fn post_error_shares(&self) -> Vec<f64> {
        let total = self.total_post_errors();
        if total == 0 {
            return vec![0.0; self.k];
        }
        self.post_errors
            .iter()
            .map(|&c| c as f64 / total as f64)
            .collect()
    }

    /// Per-bit share of all observed data-bit miscorrections; all-zero if
    /// none were observed.
    pub fn miscorrection_shares(&self) -> Vec<f64> {
        let total: u64 = self.miscorrections.iter().sum();
        if total == 0 {
            return vec![0.0; self.k];
        }
        self.miscorrections
            .iter()
            .map(|&c| c as f64 / total as f64)
            .collect()
    }

    /// Raw pre-correction bit error rate over the run.
    pub fn pre_ber(&self) -> f64 {
        if self.words == 0 {
            return 0.0;
        }
        self.total_pre_errors() as f64 / (self.words as f64 * self.n as f64)
    }
}

/// Appends positions drawn by geometric gap sampling: each of `limit`
/// slots is selected independently with probability `p`.
fn sample_positions<R: Rng + ?Sized>(p: f64, limit: usize, rng: &mut R, out: &mut Vec<usize>) {
    if p <= 0.0 || limit == 0 {
        return;
    }
    if p >= 1.0 {
        out.extend(0..limit);
        return;
    }
    let ln_q = (1.0 - p).ln(); // < 0
    let mut pos = 0usize;
    loop {
        let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
        let gap = (u.ln() / ln_q).floor();
        if gap >= (limit - pos) as f64 {
            return;
        }
        pos += gap as usize;
        out.push(pos);
        pos += 1;
        if pos >= limit {
            return;
        }
    }
}

/// Simulates `cfg.words` ECC words holding `data`, injecting errors from
/// `cfg.model`, and decoding with `code`'s syndrome decoder.
///
/// # Panics
///
/// Panics if `data.len() != code.k()` or the model fails validation.
pub fn simulate<R: Rng + ?Sized>(
    code: &LinearCode,
    data: &BitVec,
    cfg: &SimConfig,
    rng: &mut R,
) -> PerBitStats {
    assert_eq!(data.len(), code.k(), "dataword length mismatch");
    cfg.model.validate(code.n());
    let n = code.n();
    let k = code.k();
    let mut stats = PerBitStats::new(n, k);
    stats.words = cfg.words;

    // The stored codeword (identical for every simulated word).
    let codeword = code.encode(data);
    let charged: Vec<usize> = codeword.iter_ones().collect();

    let mut positions: Vec<usize> = Vec::with_capacity(8);
    let mut scratch: Vec<usize> = Vec::with_capacity(8);
    for _ in 0..cfg.words {
        positions.clear();
        match &cfg.model {
            ErrorModel::UniformRandom { ber } => {
                sample_positions(*ber, n, rng, &mut positions);
            }
            ErrorModel::Retention { ber } => {
                scratch.clear();
                sample_positions(*ber, charged.len(), rng, &mut scratch);
                positions.extend(scratch.iter().map(|&i| charged[i]));
            }
            ErrorModel::WeakCells {
                cells,
                fail_probability,
            } => {
                for &c in cells {
                    // Retention semantics: only charged cells can fail.
                    if codeword.get(c) && rng.random::<f64>() < *fail_probability {
                        positions.push(c);
                    }
                }
            }
        }
        if positions.is_empty() {
            continue;
        }
        stats.words_with_pre_errors += 1;
        let mut syndrome = beer_gf2::SynMask::zero(code.parity_bits());
        for &pos in &positions {
            stats.pre_errors[pos] += 1;
            syndrome ^= code.column(pos);
        }
        // Post-correction error set = pre-correction errors, with the
        // decoder's flip toggling membership of one position.
        let correction = code.position_of_syndrome(syndrome);
        let mut uncorrectable = false;
        if let Some(cpos) = correction {
            if let Some(idx) = positions.iter().position(|&p| p == cpos) {
                positions.swap_remove(idx); // genuine correction
            } else {
                positions.push(cpos); // miscorrection
                stats.miscorrected_words += 1;
                if cpos < k {
                    stats.miscorrections[cpos] += 1;
                }
            }
        }
        for &pos in &positions {
            if pos < k {
                stats.post_errors[pos] += 1;
                uncorrectable = true;
            }
        }
        if uncorrectable {
            stats.uncorrectable_words += 1;
        }
    }
    stats
}

/// Runs `batches` independent simulations of `words_per_batch` words each,
/// returning per-batch statistics (the batching feeds the bootstrap
/// confidence intervals of Figure 1).
pub fn simulate_batches<R: Rng + ?Sized>(
    code: &LinearCode,
    data: &BitVec,
    model: &ErrorModel,
    words_per_batch: u64,
    batches: usize,
    rng: &mut R,
) -> Vec<PerBitStats> {
    (0..batches)
        .map(|_| {
            let cfg = SimConfig {
                words: words_per_batch,
                model: model.clone(),
            };
            simulate(code, data, &cfg, rng)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use beer_ecc::hamming;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed)
    }

    #[test]
    fn zero_ber_means_zero_errors() {
        let code = hamming::eq1_code();
        let data = BitVec::ones(4);
        let cfg = SimConfig {
            words: 10_000,
            model: ErrorModel::UniformRandom { ber: 0.0 },
        };
        let s = simulate(&code, &data, &cfg, &mut rng(1));
        assert_eq!(s.total_pre_errors(), 0);
        assert_eq!(s.total_post_errors(), 0);
        assert_eq!(s.words_with_pre_errors, 0);
    }

    #[test]
    fn pre_ber_matches_configured_rate() {
        let code = hamming::shortened(32);
        let data = BitVec::ones(32);
        let ber = 1e-2;
        let cfg = SimConfig {
            words: 200_000,
            model: ErrorModel::UniformRandom { ber },
        };
        let s = simulate(&code, &data, &cfg, &mut rng(2));
        let measured = s.pre_ber();
        assert!(
            (measured / ber - 1.0).abs() < 0.05,
            "measured {measured:e} vs configured {ber:e}"
        );
    }

    #[test]
    fn single_errors_never_reach_post_correction() {
        // With BER so low that multi-error words are negligible, the SEC
        // code corrects everything.
        let code = hamming::eq1_code();
        let data = BitVec::ones(4);
        let cfg = SimConfig {
            // Expect ~35 raw errors: a zero-error run is astronomically
            // unlikely for any healthy RNG stream.
            words: 500_000,
            model: ErrorModel::UniformRandom { ber: 1e-5 },
        };
        let s = simulate(&code, &data, &cfg, &mut rng(3));
        assert!(s.words_with_pre_errors > 0, "expected some raw errors");
        assert_eq!(
            s.total_post_errors(),
            0,
            "single errors must all be corrected"
        );
    }

    #[test]
    fn retention_errors_only_hit_charged_cells() {
        let code = hamming::eq1_code();
        // Data 1000 → codeword 1000111: charged cells {0, 4, 5, 6}.
        let data = BitVec::from_bits(&[true, false, false, false]);
        let cfg = SimConfig {
            words: 20_000,
            model: ErrorModel::Retention { ber: 0.3 },
        };
        let s = simulate(&code, &data, &cfg, &mut rng(4));
        for (pos, &count) in s.pre_errors.iter().enumerate() {
            let charged = [0usize, 4, 5, 6].contains(&pos);
            if charged {
                assert!(count > 0, "charged cell {pos} never failed");
            } else {
                assert_eq!(count, 0, "discharged cell {pos} failed");
            }
        }
    }

    #[test]
    fn high_ber_produces_miscorrections() {
        let code = hamming::shortened(16);
        let data = BitVec::ones(16);
        let cfg = SimConfig {
            words: 20_000,
            model: ErrorModel::Retention { ber: 0.1 },
        };
        let s = simulate(&code, &data, &cfg, &mut rng(5));
        assert!(s.miscorrected_words > 0);
        assert!(s.uncorrectable_words > 0);
        assert!(s.total_post_errors() > 0);
    }

    #[test]
    fn weak_cells_fail_at_configured_rate() {
        let code = hamming::shortened(8);
        let data = BitVec::ones(8);
        let cfg = SimConfig {
            words: 100_000,
            model: ErrorModel::WeakCells {
                cells: vec![3],
                fail_probability: 0.25,
            },
        };
        let s = simulate(&code, &data, &cfg, &mut rng(6));
        let rate = s.pre_errors[3] as f64 / s.words as f64;
        assert!((rate - 0.25).abs() < 0.01, "rate {rate}");
        // A single weak cell is always corrected by the SEC code.
        assert_eq!(s.total_post_errors(), 0);
    }

    #[test]
    fn weak_cells_respect_charge() {
        let code = hamming::shortened(8);
        let data = BitVec::zeros(8); // all cells discharged
        let cfg = SimConfig {
            words: 10_000,
            model: ErrorModel::WeakCells {
                cells: vec![0, 5],
                fail_probability: 1.0,
            },
        };
        let s = simulate(&code, &data, &cfg, &mut rng(7));
        assert_eq!(s.total_pre_errors(), 0, "discharged cells cannot decay");
    }

    #[test]
    fn different_ecc_functions_shape_miscorrections_differently() {
        // The Figure 1 observation, in miniature: the miscorrection
        // component of the post-correction distribution is ECC-function
        // specific.
        use beer_ecc::design::{vendor_code, Manufacturer};
        let data = BitVec::ones(16);
        let model = ErrorModel::UniformRandom { ber: 3e-2 };
        let shares: Vec<Vec<f64>> = [Manufacturer::B, Manufacturer::C]
            .iter()
            .map(|&m| {
                let code = vendor_code(m, 16, 0);
                let cfg = SimConfig {
                    words: 150_000,
                    model: model.clone(),
                };
                simulate(&code, &data, &cfg, &mut rng(8)).miscorrection_shares()
            })
            .collect();
        let diff: f64 = shares[0]
            .iter()
            .zip(&shares[1])
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff > 0.05, "profiles too similar: L1 distance {diff}");
    }

    #[test]
    fn merge_accumulates() {
        let code = hamming::eq1_code();
        let data = BitVec::ones(4);
        let cfg = SimConfig {
            words: 5_000,
            model: ErrorModel::UniformRandom { ber: 1e-2 },
        };
        let mut a = simulate(&code, &data, &cfg, &mut rng(9));
        let b = simulate(&code, &data, &cfg, &mut rng(10));
        let total = a.total_pre_errors() + b.total_pre_errors();
        a.merge(&b);
        assert_eq!(a.words, 10_000);
        assert_eq!(a.total_pre_errors(), total);
    }

    #[test]
    fn batches_are_independent_but_same_size() {
        let code = hamming::eq1_code();
        let data = BitVec::ones(4);
        let batches = simulate_batches(
            &code,
            &data,
            &ErrorModel::UniformRandom { ber: 1e-2 },
            1_000,
            8,
            &mut rng(11),
        );
        assert_eq!(batches.len(), 8);
        assert!(batches.iter().all(|b| b.words == 1_000));
        let counts: Vec<u64> = batches.iter().map(|b| b.total_pre_errors()).collect();
        assert!(counts.windows(2).any(|w| w[0] != w[1]), "batches identical");
    }

    #[test]
    fn sample_positions_density() {
        let mut out = Vec::new();
        let mut r = rng(12);
        let trials = 20_000;
        let mut total = 0usize;
        for _ in 0..trials {
            out.clear();
            sample_positions(0.05, 40, &mut r, &mut out);
            total += out.len();
            assert!(out.windows(2).all(|w| w[0] < w[1]), "not sorted/unique");
            assert!(out.iter().all(|&p| p < 40));
        }
        let mean = total as f64 / trials as f64;
        assert!((mean - 2.0).abs() < 0.1, "mean errors {mean}, expected 2.0");
    }
}
