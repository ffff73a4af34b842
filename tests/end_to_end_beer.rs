//! End-to-end BEER: simulated chip in, ECC function out.
//!
//! Exercises the full §5 pipeline — pattern programming, retention-error
//! induction, miscorrection profiling, threshold filtering, SAT solving,
//! and uniqueness checking — through the unified `RecoverySession` entry
//! point, against simulated chips from all three manufacturer design
//! styles, and validates the recovered function against the simulator's
//! ground truth (§6.1).

use beer::prelude::*;

/// A backend over `chip`, known to be all true cells.
fn true_cell_backend(chip: SimChip) -> ChipBackend {
    let knowledge = ChipKnowledge::uniform(
        chip.config().word_layout,
        CellType::True,
        chip.geometry().total_rows(),
    );
    ChipBackend::new(Box::new(chip), knowledge)
}

fn collect(backend: &mut ChipBackend, patterns: &[ChargedSet]) -> MiscorrectionProfile {
    try_collect_with(
        backend,
        patterns,
        &CollectionPlan::quick(),
        &EngineOptions::default(),
    )
    .expect("simulated chips cannot fail collection")
}

fn run_pipeline(chip: SimChip, set: PatternSet) -> SolveReport {
    let k = chip.k();
    let mut backend = true_cell_backend(chip);
    RecoveryConfig::new()
        .with_parity_bits(hamming::parity_bits_for(k))
        .with_pattern_family(set)
        .session(&mut backend)
        .run_to_completion()
        .expect("simulated chips cannot fail collection")
        .last_check
        .expect("one round always runs")
}

#[test]
fn recovers_manufacturer_a_function() {
    let chip = SimChip::new(
        ChipConfig::lpddr4_like(Manufacturer::A, 0, 11)
            .with_geometry(Geometry::new(1, 64, 128))
            .with_word_bytes(2),
    );
    let secret = chip.reveal_code().clone();
    let report = run_pipeline(chip, PatternSet::One);
    assert!(
        report.solutions.iter().any(|s| equivalent(s, &secret)),
        "true function not among {} solutions",
        report.solutions.len()
    );
}

#[test]
fn recovers_manufacturer_b_function_uniquely() {
    let chip = SimChip::new(ChipConfig::small_test_chip(22));
    let secret = chip.reveal_code().clone();
    let report = run_pipeline(chip, PatternSet::One);
    assert!(report.is_unique(), "{} solutions", report.solutions.len());
    assert!(equivalent(&report.solutions[0], &secret));
}

#[test]
fn progressive_engine_recovers_manufacturer_b_uniquely() {
    // The same recovery as above, through the unified engine: parallel
    // batched collection interleaved with incremental solving, stopping as
    // soon as the profile pins the function down.
    let chip = SimChip::new(ChipConfig::small_test_chip(22));
    let secret = chip.reveal_code().clone();
    let mut backend = true_cell_backend(chip);
    let report = RecoveryConfig::new()
        .with_chunked_schedule(32)
        .session(&mut backend)
        .run_to_completion()
        .expect("simulated chips cannot fail collection");
    let check = report.last_check.expect("at least one round ran");
    assert!(check.is_unique(), "{} solutions", check.solutions.len());
    assert!(equivalent(&check.solutions[0], &secret));
    assert!(
        report.stats.patterns_used <= report.stats.patterns_available,
        "bookkeeping: {} of {}",
        report.stats.patterns_used,
        report.stats.patterns_available
    );
}

#[test]
fn recovers_manufacturer_c_function_with_anti_cells() {
    let config = ChipConfig {
        cell_layout: CellLayout::AlternatingBlocks {
            block_rows: vec![16],
        },
        ..ChipConfig::lpddr4_like(Manufacturer::C, 0, 33)
            .with_geometry(Geometry::new(1, 64, 128))
            .with_word_bytes(2)
    };
    let chip = SimChip::new(config);
    let secret = chip.reveal_code().clone();
    let k = chip.k();
    // Knowledge must reflect the mixed cell layout.
    let knowledge = ChipKnowledge {
        word_layout: chip.config().word_layout,
        row_cell_types: (0..chip.geometry().total_rows())
            .map(|r| chip.config().cell_layout.cell_type_of_row(r))
            .collect(),
    };
    let mut backend = ChipBackend::new(Box::new(chip), knowledge);
    let profile = collect(&mut backend, &PatternSet::One.patterns(k));
    let constraints = profile.to_constraints(&ThresholdFilter::default());
    let report = solve_profile(
        k,
        hamming::parity_bits_for(k),
        &constraints,
        &BeerSolverOptions::default(),
    )
    .expect("well-formed constraints");
    assert!(
        report.solutions.iter().any(|s| equivalent(s, &secret)),
        "true function not among solutions"
    );
}

#[test]
fn different_chips_same_model_yield_identical_profiles() {
    // §5.1.3: chips of the same model number produce identical
    // miscorrection profiles (the basis for attributing the profile to the
    // design rather than the chip instance).
    let profile_of = |chip_seed: u64| {
        let chip = SimChip::new(ChipConfig::small_test_chip(chip_seed));
        let patterns = PatternSet::One.patterns(chip.k());
        collect(&mut true_cell_backend(chip), &patterns).to_constraints(&ThresholdFilter::default())
    };
    let a = profile_of(100);
    let b = profile_of(200);
    assert!(
        a.disagreements(&b).is_empty(),
        "same-model chips disagree: {:?}",
        a.disagreements(&b)
    );
}

#[test]
fn recovered_function_predicts_held_out_observations() {
    // Train on the 1-CHARGED patterns, then check the recovered function
    // predicts measurements of *held-out* 2-CHARGED patterns it never saw.
    let chip = SimChip::new(ChipConfig::small_test_chip(44));
    let secret = chip.reveal_code().clone();
    let k = chip.k();
    let train = PatternSet::One.patterns(k);
    let test: Vec<ChargedSet> = PatternSet::Two
        .patterns(k)
        .into_iter()
        .step_by(17)
        .collect();

    // One backend serves both collections, so the held-out run draws
    // fresh trials rather than replaying the training run's.
    let mut backend = true_cell_backend(chip);
    let profile = collect(&mut backend, &train);
    let constraints = profile.to_constraints(&ThresholdFilter::default());
    let report = solve_profile(
        k,
        hamming::parity_bits_for(k),
        &constraints,
        &BeerSolverOptions {
            max_solutions: 4,
            ..BeerSolverOptions::default()
        },
    )
    .expect("well-formed constraints");
    assert!(!report.solutions.is_empty());

    // Held-out validation: measured test-pattern profile must match the
    // recovered function's analytic prediction.
    let held_out = collect(&mut backend, &test).to_constraints(&ThresholdFilter::default());
    let truth_like = report
        .solutions
        .iter()
        .find(|s| equivalent(s, &secret))
        .expect("true function recovered");
    let predicted = analytic_profile(truth_like, &test);
    for (pattern, bit) in held_out.disagreements(&predicted) {
        // Only tolerable direction: a rare possible miscorrection that the
        // held-out experiment did not happen to sample. The reverse
        // (observing something predicted impossible) is a failure.
        let idx = test.iter().position(|p| *p == pattern).unwrap();
        assert_ne!(
            held_out.entries[idx].1[bit],
            Observation::Miscorrection,
            "observed a miscorrection the recovered function forbids: {pattern} bit {bit}"
        );
    }
}
