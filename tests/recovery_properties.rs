//! Property-based cross-crate tests: BEER's solver against randomly drawn
//! ECC functions from the §3.3 design space.

use beer::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The §6.1 claim in miniature: for random SEC codes, the analytic
    /// {1,2}-CHARGED profile admits exactly one ECC function — the
    /// original (up to parity relabeling).
    #[test]
    fn beer_uniquely_recovers_random_codes(k in 4usize..14, seed in any::<u64>()) {
        let code = hamming::random_sec(k, &mut StdRng::seed_from_u64(seed));
        let profile = analytic_profile(&code, &PatternSet::OneTwo.patterns(k));
        let report = solve_profile(
            k,
            code.parity_bits(),
            &profile,
            &BeerSolverOptions { max_solutions: 3, ..BeerSolverOptions::default() },
        ).expect("well-formed profile");
        prop_assert_eq!(report.solutions.len(), 1);
        prop_assert!(equivalent(&report.solutions[0], &code));
    }

    /// Every solution the solver enumerates reproduces the profile it was
    /// given (1-CHARGED may be ambiguous; all candidates must be valid).
    #[test]
    fn every_enumerated_solution_matches_the_profile(k in 4usize..10, seed in any::<u64>()) {
        let code = hamming::random_sec(k, &mut StdRng::seed_from_u64(seed));
        let profile = analytic_profile(&code, &PatternSet::One.patterns(k));
        let report = solve_profile(
            k,
            code.parity_bits(),
            &profile,
            &BeerSolverOptions { max_solutions: 16, ..BeerSolverOptions::default() },
        ).expect("well-formed profile");
        prop_assert!(!report.solutions.is_empty());
        let mut found_original = false;
        for s in &report.solutions {
            prop_assert!(code_matches_constraints(s, &profile));
            if equivalent(s, &code) {
                found_original = true;
            }
        }
        prop_assert!(found_original, "original code missing from enumeration");
    }

    /// Dropping negative facts (unknown instead of "no miscorrection")
    /// never excludes the true code, though it may add candidates.
    #[test]
    fn weakened_profiles_still_contain_the_truth(k in 4usize..10, seed in any::<u64>()) {
        let code = hamming::random_sec(k, &mut StdRng::seed_from_u64(seed));
        let profile = analytic_profile(&code, &PatternSet::OneTwo.patterns(k)).weaken_negatives();
        let report = solve_profile(
            k,
            code.parity_bits(),
            &profile,
            &BeerSolverOptions { max_solutions: 32, ..BeerSolverOptions::default() },
        ).expect("well-formed profile");
        prop_assert!(
            report.truncated || report.solutions.iter().any(|s| equivalent(s, &code)),
            "true code excluded by a weaker profile"
        );
    }

    /// BEEP decodes exact pre-correction patterns for random codes and
    /// random double errors whenever a definite miscorrection shows up.
    #[test]
    fn beep_decoding_is_exact_on_random_codes(
        k in 6usize..16,
        seed in any::<u64>(),
        data_bits in prop::collection::vec(any::<bool>(), 16),
        e1_frac in 0.0f64..1.0,
        e2_frac in 0.0f64..1.0,
    ) {
        let code = hamming::random_sec(k, &mut StdRng::seed_from_u64(seed));
        let data = BitVec::from_bits(&data_bits[..k]);
        let codeword = code.encode(&data);
        let charged: Vec<usize> = codeword.iter_ones().collect();
        prop_assume!(charged.len() >= 2);
        let e1 = charged[((charged.len() - 1) as f64 * e1_frac) as usize];
        let mut e2 = charged[((charged.len() - 1) as f64 * e2_frac) as usize];
        prop_assume!(e1 != e2 || charged.len() > 1);
        if e1 == e2 {
            e2 = *charged.iter().find(|&&c| c != e1).unwrap();
        }
        let mut erroneous = codeword.clone();
        erroneous.set(e1, false);
        erroneous.set(e2, false);
        let read = code.decode(&erroneous).data;
        let trial = beer::beep::decode_read(&code, &data, &read);
        if let Some(errors) = trial.errors {
            let mut expected = vec![e1, e2];
            expected.sort_unstable();
            prop_assert_eq!(errors, expected);
        }
    }
}
