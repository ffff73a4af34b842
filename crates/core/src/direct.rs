//! The §4.1 baseline: systematic parity-check extraction when syndromes
//! are visible.
//!
//! For rank-level ECC, Cojocar et al. \[26\] inject a 1-hot error at every
//! codeword position and read the reported syndrome, which *is* the
//! corresponding column of `H` (Equation 2). This module implements that
//! baseline so the reproduction can demonstrate both why it works in the
//! §4.1 setting and why BEER is needed for on-die ECC (no injection into
//! parity bits, no syndrome visibility — §4.2).

use beer_dram::RankLevelEcc;
use beer_ecc::{CodeError, LinearCode};
use beer_gf2::{BitMatrix, BitVec};

/// Extracts the full parity-check matrix of a visible-syndrome ECC by
/// 1-hot error injection (Equation 2), and reconstructs the code.
///
/// Unlike BEER, the result is exact — not merely up to parity-bit
/// relabeling — because parity positions are directly addressable on the
/// bus.
///
/// # Errors
///
/// Returns a [`CodeError`] if the observed columns do not form a valid SEC
/// code (which would indicate the device under test is not a systematic
/// SEC code in standard form).
pub fn extract_by_injection(dut: &RankLevelEcc) -> Result<LinearCode, CodeError> {
    let n = dut.code().n();
    let k = dut.code().k();
    let stored = dut.store(&BitVec::zeros(k));
    let mut columns: Vec<BitVec> = Vec::with_capacity(k);
    for pos in 0..k {
        let report = dut.load_with_injected_errors(&stored, &[pos]);
        columns.push(report.syndrome.to_bitvec());
    }
    // The parity positions k..n reveal the identity block; observing them
    // confirms standard form but adds no degrees of freedom.
    for pos in k..n {
        let report = dut.load_with_injected_errors(&stored, &[pos]);
        debug_assert_eq!(report.syndrome.weight(), 1, "parity column not 1-hot");
    }
    LinearCode::from_parity_submatrix(BitMatrix::from_cols(&columns))
}

/// Number of injection experiments [`extract_by_injection`] performs: one
/// per codeword bit (the paper's "testing across all 1-hot error
/// patterns").
pub fn injection_experiments(code_n: usize) -> usize {
    code_n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::analytic_profile;
    use crate::pattern::PatternSet;
    use crate::solve::{solve_profile, BeerSolverOptions};
    use beer_ecc::{equivalence, hamming};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn injection_recovers_the_exact_code() {
        let mut rng = StdRng::seed_from_u64(41);
        for k in [4usize, 11, 16, 32] {
            let code = hamming::random_sec(k, &mut rng);
            let dut = RankLevelEcc::new(code.clone());
            let extracted = extract_by_injection(&dut).expect("valid code");
            // Exact equality — not just equivalence.
            assert_eq!(
                extracted.parity_submatrix(),
                code.parity_submatrix(),
                "k={k}"
            );
        }
    }

    #[test]
    fn injection_and_beer_agree_up_to_equivalence() {
        // The same physical code seen through both methodologies: the §4.1
        // baseline nails the representation; BEER gets the equivalence
        // class. They must agree.
        let code = hamming::shortened(11);
        let dut = RankLevelEcc::new(code.clone());
        let injected = extract_by_injection(&dut).expect("valid code");

        let profile = analytic_profile(&code, &PatternSet::OneTwo.patterns(11));
        let report = solve_profile(
            11,
            code.parity_bits(),
            &profile,
            &BeerSolverOptions::default(),
        )
        .expect("valid profile");
        assert_eq!(report.solutions.len(), 1);
        assert!(equivalence::equivalent(&report.solutions[0], &injected));
    }

    #[test]
    fn experiment_count_is_linear_not_combinatorial() {
        // §4.1 needs n experiments; BEER's {1,2}-CHARGED needs k + C(k,2)
        // patterns (and cannot touch parity bits at all).
        assert_eq!(injection_experiments(136), 136);
        let beer_patterns = PatternSet::OneTwo.len(128);
        assert!(beer_patterns > injection_experiments(136));
    }
}
