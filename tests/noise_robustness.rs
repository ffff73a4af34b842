//! §5.2: BEER's threshold filter versus transient noise.
//!
//! Transient errors (particle strikes, VRT, voltage noise) can pollute the
//! miscorrection profile with spurious observations. The paper's defense
//! is a simple threshold filter: real miscorrections recur across the
//! refresh-window sweep, transient flips do not.

use beer::prelude::*;

/// Collects the raw 1-CHARGED profile of a noisy test chip, returning it
/// with the chip's secret code and the code's exact analytic profile.
fn noisy_profile(
    chip_seed: u64,
    flip_probability: f64,
) -> (MiscorrectionProfile, LinearCode, ProfileConstraints) {
    let chip = SimChip::new(
        ChipConfig::small_test_chip(chip_seed).with_noise(TransientNoise { flip_probability }),
    );
    let secret = chip.reveal_code().clone();
    let patterns = PatternSet::One.patterns(chip.k());
    let truth = analytic_profile(&secret, &patterns);
    let knowledge = ChipKnowledge::uniform(
        chip.config().word_layout,
        CellType::True,
        chip.geometry().total_rows(),
    );
    let profile = try_collect_with(
        &mut ChipBackend::new(Box::new(chip), knowledge),
        &patterns,
        &CollectionPlan::quick(),
        &EngineOptions::serial(),
    )
    .expect("simulated chips cannot fail collection");
    (profile, secret, truth)
}

fn pipeline_with_noise(flip_probability: f64, chip_seed: u64) -> (SolveReport, LinearCode) {
    let (profile, secret, _) = noisy_profile(chip_seed, flip_probability);
    let constraints = profile.to_constraints(&ThresholdFilter::default());
    let report = solve_profile(
        secret.k(),
        hamming::parity_bits_for(secret.k()),
        &constraints,
        &BeerSolverOptions::default(),
    )
    .expect("well-formed constraints");
    (report, secret)
}

#[test]
fn recovery_survives_realistic_transient_noise() {
    // ~1e-6 per cell per retention test is far above real transient rates;
    // the filter must still isolate the true profile.
    let (report, secret) = pipeline_with_noise(1e-6, 71);
    assert!(
        report.solutions.iter().any(|s| equivalent(s, &secret)),
        "noise broke recovery: {} solutions",
        report.solutions.len()
    );
}

#[test]
fn recovery_survives_heavy_transient_noise() {
    // 1e-5 per cell per test: a strongly pessimistic rate.
    let (report, secret) = pipeline_with_noise(1e-5, 72);
    assert!(
        report.solutions.iter().any(|s| equivalent(s, &secret)),
        "heavy noise broke recovery: {} solutions",
        report.solutions.len()
    );
}

#[test]
fn unfiltered_noisy_profile_contains_spurious_observations() {
    // Demonstrates the filter is actually doing work: with noise enabled,
    // raw counts contain observations the true function forbids, and the
    // threshold filter removes them.
    let (profile, _, truth) = noisy_profile(73, 1e-5);
    let mut spurious_raw = 0u64;
    for (pi, (_, obs)) in truth.entries.iter().enumerate() {
        for (bit, &o) in obs.iter().enumerate() {
            if o == Observation::NoMiscorrection && profile.count(pi, bit) > 0 {
                spurious_raw += profile.count(pi, bit);
            }
        }
    }
    assert!(
        spurious_raw > 0,
        "noise produced no spurious raw observations — test is vacuous"
    );

    // After filtering, no spurious facts survive.
    let filtered = profile.to_constraints(&ThresholdFilter::default());
    for (pi, (_, obs)) in truth.entries.iter().enumerate() {
        for (bit, &o) in obs.iter().enumerate() {
            if o == Observation::NoMiscorrection {
                assert_ne!(
                    filtered.entries[pi].1[bit],
                    Observation::Miscorrection,
                    "spurious observation survived the filter (pattern {pi}, bit {bit})"
                );
            }
        }
    }
}

#[test]
fn under_tested_profiles_do_not_poison_the_sat_instance() {
    // Regression: ThresholdFilter used to assert hard NoMiscorrection
    // facts for every discharged bit of any pattern with at least one
    // trial. An under-tested pattern (too few trials to have observed the
    // code's real miscorrections) then excluded the true code from the
    // SAT instance. With the min_trials guard, such patterns yield
    // Unknown and the true code always survives.
    let code = hamming::shortened(8);
    let patterns = PatternSet::One.patterns(8);
    let mut profile = MiscorrectionProfile::new(8, patterns.clone());
    // Pattern 0 gets one trial and — by bad luck — no observations,
    // even though the code may allow miscorrections under it. The other
    // patterns are untouched (zero trials).
    profile.record_trials(0, 1);

    let filter = ThresholdFilter::default();
    assert!(filter.min_trials >= 2, "default must guard under-testing");
    let constraints = profile.to_constraints(&filter);
    assert_eq!(
        constraints.definite_facts(),
        0,
        "a single-trial pattern's silence must not become evidence"
    );
    assert!(
        code_matches_constraints(&code, &constraints),
        "under-tested profile excluded the true code"
    );

    // The same profile through the pre-guard behavior shows the poison:
    // every discharged bit of pattern 0 becomes a hard NoMiscorrection.
    let trusting = profile.to_constraints(&ThresholdFilter::trusting());
    assert_eq!(trusting.definite_facts(), 7);

    // End to end: solving with the guarded constraints keeps the true
    // code among the candidates.
    let report = solve_profile(
        8,
        code.parity_bits(),
        &constraints,
        &BeerSolverOptions {
            max_solutions: 64,
            ..BeerSolverOptions::default()
        },
    )
    .expect("well-formed constraints");
    assert!(
        report.truncated || report.solutions.iter().any(|s| equivalent(s, &code)),
        "true code missing from the guarded solve"
    );
}

#[test]
fn filter_separation_mirrors_figure_4() {
    // Figure 4: per-bit miscorrection probability mass is bimodal — zero
    // vs. clearly nonzero — so a simple threshold separates the classes.
    let (profile, _, truth) = noisy_profile(74, 1e-6);

    // Pool the per-(pattern, bit) observation counts by ground truth class.
    let mut possible_counts: Vec<u64> = Vec::new();
    let mut impossible_counts: Vec<u64> = Vec::new();
    for (pi, (_, obs)) in truth.entries.iter().enumerate() {
        for (bit, &o) in obs.iter().enumerate() {
            match o {
                Observation::Miscorrection => possible_counts.push(profile.count(pi, bit)),
                Observation::NoMiscorrection => impossible_counts.push(profile.count(pi, bit)),
                Observation::Unknown => {}
            }
        }
    }
    let min_possible = possible_counts.iter().min().copied().unwrap_or(0);
    let max_impossible = impossible_counts.iter().max().copied().unwrap_or(0);
    assert!(
        min_possible > max_impossible,
        "classes overlap: min(real) = {min_possible}, max(spurious) = {max_impossible}"
    );
}
