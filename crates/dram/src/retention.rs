//! The data-retention error model.
//!
//! Implements the three properties BEER relies on (§3.2):
//!
//! 1. *Controllable*: the failure probability of a cell grows with the
//!    refresh window and ambient temperature.
//! 2. *Uniform-random and repeatable*: each cell draws a fixed retention
//!    time from a heavy-tailed distribution, derived deterministically from
//!    a hash of the cell's identity — so the same cell fails the same way
//!    across trials (repeatability), while failures are spatially uniform
//!    across the chip.
//! 3. *Unidirectional*: only CHARGED cells decay (enforced by the chip, not
//!    here — this module only decides *whether* a cell fails).
//!
//! The model is calibrated so a 2-minute refresh window at 80 °C produces a
//! raw bit error rate near 10⁻⁷ and a 22-minute window near 10⁻³, the range
//! the paper sweeps (§5.1.3). Temperature acceleration halves retention
//! time per +10 °C, a standard DRAM rule of thumb the paper's references
//! report.

/// Deterministic per-cell retention behaviour.
///
/// # Examples
///
/// ```
/// use beer_dram::RetentionModel;
///
/// let m = RetentionModel::paper_calibrated(7);
/// // BER grows with the refresh window.
/// let short = m.expected_ber(120.0, 80.0);
/// let long = m.expected_ber(1320.0, 80.0);
/// assert!(long > short);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct RetentionModel {
    /// Seed mixed into every cell hash (the chip's identity).
    chip_seed: u64,
    /// Log-normal location of the retention-time distribution, ln seconds
    /// at the reference temperature.
    mu: f64,
    /// Log-normal scale.
    sigma: f64,
    /// Reference temperature in °C at which `mu`/`sigma` apply.
    reference_celsius: f64,
}

impl RetentionModel {
    /// A model calibrated to the paper's experimental range: BER ≈ 10⁻⁷ at
    /// tREFW = 2 min and ≈ 10⁻³ at 22 min, both at 80 °C.
    pub fn paper_calibrated(chip_seed: u64) -> Self {
        // Solve Φ((ln t − μ)/σ) = BER at the two calibration points:
        //   ln 120 s  ↦ Φ⁻¹(1e−7) = −5.199,  ln 1320 s ↦ Φ⁻¹(1e−3) = −3.090.
        let (t1, z1) = (120.0f64.ln(), -5.199);
        let (t2, z2) = (1320.0f64.ln(), -3.090);
        let sigma = (t2 - t1) / (z2 - z1);
        let mu = t1 - sigma * z1;
        RetentionModel {
            chip_seed,
            mu,
            sigma,
            reference_celsius: 80.0,
        }
    }

    /// The temperature-scaled effective refresh window: retention time
    /// halves every +10 °C, so the window effectively doubles.
    pub fn effective_window(&self, trefw_seconds: f64, celsius: f64) -> f64 {
        trefw_seconds * 2f64.powf((celsius - self.reference_celsius) / 10.0)
    }

    /// The retention time (seconds at the reference temperature) of the
    /// cell with global index `cell`. Deterministic per (chip, cell).
    pub fn retention_seconds(&self, cell: u64) -> f64 {
        let z = standard_normal_from_hash(mix64(
            self.chip_seed ^ cell.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        ));
        (self.mu + self.sigma * z).exp()
    }

    /// Does this CHARGED cell decay within a refresh window of
    /// `trefw_seconds` at `celsius`?
    #[inline]
    pub fn fails(&self, cell: u64, trefw_seconds: f64, celsius: f64) -> bool {
        self.retention_seconds(cell) < self.effective_window(trefw_seconds, celsius)
    }

    /// The model's expected raw bit error rate among CHARGED cells: the
    /// fraction of cells whose retention time is below the effective
    /// window.
    pub fn expected_ber(&self, trefw_seconds: f64, celsius: f64) -> f64 {
        let t = self.effective_window(trefw_seconds, celsius);
        if t <= 0.0 {
            return 0.0;
        }
        standard_normal_cdf((t.ln() - self.mu) / self.sigma)
    }

    /// Smallest refresh window (seconds) at `celsius` whose expected BER
    /// reaches `target_ber` — used by experiment planners to pick sweeps.
    pub fn window_for_ber(&self, target_ber: f64, celsius: f64) -> f64 {
        assert!((0.0..0.5).contains(&target_ber) && target_ber > 0.0);
        let z = standard_normal_quantile(target_ber);
        let t_ref = (self.mu + self.sigma * z).exp();
        t_ref / 2f64.powf((celsius - self.reference_celsius) / 10.0)
    }
}

/// Rare bidirectional bit flips from transient mechanisms (particle
/// strikes, variable retention time, voltage noise — §5.2). Unlike
/// retention errors these are *not* repeatable: each trial draws fresh
/// flips.
#[derive(Clone, Copy, Debug)]
pub struct TransientNoise {
    /// Per-cell, per-trial flip probability (both directions).
    pub flip_probability: f64,
}

impl TransientNoise {
    /// No transient noise.
    pub fn none() -> Self {
        TransientNoise {
            flip_probability: 0.0,
        }
    }

    /// Does `cell` flip in trial `trial`? Deterministic per
    /// (seed, trial, cell) so experiments are reproducible.
    #[inline]
    pub fn flips(&self, seed: u64, trial: u64, cell: u64) -> bool {
        if self.flip_probability <= 0.0 {
            return false;
        }
        let h = mix64(
            seed ^ trial.wrapping_mul(0xD6E8_FEB8_6659_FD93)
                ^ cell.wrapping_mul(0xA076_1D64_78BD_642F),
        );
        (h as f64 / u64::MAX as f64) < self.flip_probability
    }
}

/// SplitMix64 finalizer: a high-quality 64-bit mixing function.
#[inline]
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A standard-normal sample derived from a hash via Box–Muller (accurate
/// far into the tails, which matters for the 10⁻⁷ calibration point).
fn standard_normal_from_hash(h: u64) -> f64 {
    let u1 = ((h >> 11) as f64 + 1.0) / (1u64 << 53) as f64; // (0, 1]
    let h2 = mix64(h ^ 0x5851_F42D_4C95_7F2D);
    let u2 = (h2 >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Φ(x): standard normal CDF via the complementary error function
/// (Abramowitz–Stegun 7.1.26 rational approximation, |ε| < 1.5·10⁻⁷).
pub(crate) fn standard_normal_cdf(x: f64) -> f64 {
    0.5 * erfc_as(-x / std::f64::consts::SQRT_2)
}

fn erfc_as(x: f64) -> f64 {
    let sign_neg = x < 0.0;
    let ax = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * ax);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    let erf = 1.0 - poly * (-ax * ax).exp();
    let erfc = 1.0 - erf;
    if sign_neg {
        2.0 - erfc
    } else {
        erfc
    }
}

/// Φ⁻¹(p): standard normal quantile (Acklam's rational approximation,
/// relative error < 1.15·10⁻⁹).
pub(crate) fn standard_normal_quantile(p: f64) -> f64 {
    assert!((0.0..1.0).contains(&p) && p > 0.0, "p must be in (0, 1)");
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    let p_low = 0.02425;
    if p < p_low {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - p_low {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        -standard_normal_quantile(1.0 - p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_points_are_respected() {
        let m = RetentionModel::paper_calibrated(1);
        let ber_2min = m.expected_ber(120.0, 80.0);
        let ber_22min = m.expected_ber(1320.0, 80.0);
        assert!(
            (5e-8..2e-7).contains(&ber_2min),
            "2-minute BER {ber_2min:e} out of expected range"
        );
        assert!(
            (5e-4..2e-3).contains(&ber_22min),
            "22-minute BER {ber_22min:e} out of expected range"
        );
    }

    #[test]
    fn ber_is_monotone_in_window_and_temperature() {
        let m = RetentionModel::paper_calibrated(3);
        assert!(m.expected_ber(600.0, 80.0) > m.expected_ber(300.0, 80.0));
        assert!(m.expected_ber(300.0, 90.0) > m.expected_ber(300.0, 80.0));
        assert!(m.expected_ber(300.0, 40.0) < m.expected_ber(300.0, 80.0));
    }

    #[test]
    fn failures_are_repeatable() {
        // §3.2 property 2: the same cell gives the same answer every trial.
        let m = RetentionModel::paper_calibrated(9);
        for cell in 0..1000u64 {
            assert_eq!(m.fails(cell, 1320.0, 80.0), m.fails(cell, 1320.0, 80.0));
        }
    }

    #[test]
    fn failures_are_monotone_in_window() {
        // A cell that fails at a short window must fail at a longer one.
        let m = RetentionModel::paper_calibrated(11);
        let mut any_failed = false;
        for cell in 0..200_000u64 {
            if m.fails(cell, 600.0, 80.0) {
                any_failed = true;
                assert!(m.fails(cell, 1320.0, 80.0), "cell {cell} not monotone");
            }
        }
        // At BER ≈ 1e-4, 200k cells should contain some failures.
        assert!(any_failed, "no failures sampled at a 10-minute window");
    }

    #[test]
    fn empirical_ber_matches_expectation() {
        let m = RetentionModel::paper_calibrated(5);
        let trefw = 1320.0;
        let n = 2_000_000u64;
        let failed = (0..n).filter(|&c| m.fails(c, trefw, 80.0)).count() as f64;
        let empirical = failed / n as f64;
        let expected = m.expected_ber(trefw, 80.0);
        assert!(
            (empirical / expected) > 0.7 && (empirical / expected) < 1.4,
            "empirical {empirical:e} vs expected {expected:e}"
        );
    }

    #[test]
    fn window_for_ber_inverts_expected_ber() {
        let m = RetentionModel::paper_calibrated(2);
        for &target in &[1e-6, 1e-5, 1e-4, 1e-3] {
            let w = m.window_for_ber(target, 80.0);
            let achieved = m.expected_ber(w, 80.0);
            assert!(
                (achieved / target - 1.0).abs() < 0.05,
                "target {target:e} got {achieved:e}"
            );
        }
    }

    #[test]
    fn different_chips_have_different_weak_cells() {
        let m1 = RetentionModel::paper_calibrated(100);
        let m2 = RetentionModel::paper_calibrated(101);
        let w1: Vec<u64> = (0..3_000_000u64)
            .filter(|&c| m1.fails(c, 1320.0, 80.0))
            .collect();
        let w2: Vec<u64> = (0..3_000_000u64)
            .filter(|&c| m2.fails(c, 1320.0, 80.0))
            .collect();
        assert!(!w1.is_empty() && !w2.is_empty());
        assert_ne!(w1, w2);
    }

    #[test]
    fn transient_noise_rate_is_roughly_right() {
        let noise = TransientNoise {
            flip_probability: 1e-3,
        };
        let n = 1_000_000u64;
        let flips = (0..n).filter(|&c| noise.flips(7, 0, c)).count() as f64;
        let rate = flips / n as f64;
        assert!((5e-4..2e-3).contains(&rate), "rate {rate:e}");
        // Different trials flip different cells (not repeatable).
        let t0: Vec<u64> = (0..100_000).filter(|&c| noise.flips(7, 0, c)).collect();
        let t1: Vec<u64> = (0..100_000).filter(|&c| noise.flips(7, 1, c)).collect();
        assert_ne!(t0, t1);
    }

    #[test]
    fn normal_cdf_and_quantile_are_inverses() {
        for &p in &[1e-7, 1e-4, 0.01, 0.3, 0.5, 0.9, 0.999] {
            let x = standard_normal_quantile(p);
            let back = standard_normal_cdf(x);
            assert!(
                (back - p).abs() < 2e-4 + p * 0.15,
                "p={p:e} x={x} back={back:e}"
            );
        }
    }
}
