//! Parallel collection determinism: for every backend, a seeded
//! multi-threaded run must produce a **bit-identical** merged profile to
//! the single-threaded run — the contract that makes the sharded engine a
//! drop-in replacement for the serial loop.

use beer::prelude::*;

fn raw_counts(profile: &MiscorrectionProfile) -> (Vec<Vec<u64>>, Vec<u64>) {
    let n = profile.patterns().len();
    let k = profile.k();
    let counts = (0..n)
        .map(|pi| (0..k).map(|j| profile.count(pi, j)).collect())
        .collect();
    let trials = (0..n).map(|pi| profile.trials(pi)).collect();
    (counts, trials)
}

fn collect(
    source: &mut dyn ProfileSource,
    patterns: &[ChargedSet],
    plan: &CollectionPlan,
    threads: usize,
) -> MiscorrectionProfile {
    try_collect_with(
        source,
        patterns,
        plan,
        &EngineOptions::with_threads(threads),
    )
    .expect("simulated backends cannot fail collection")
}

fn assert_identical(a: &MiscorrectionProfile, b: &MiscorrectionProfile, what: &str) {
    assert_eq!(raw_counts(a), raw_counts(b), "{what}: profiles differ");
}

fn chip_backend(seed: u64, noise: Option<f64>) -> ChipBackend {
    let mut config = ChipConfig::small_test_chip(seed).with_geometry(Geometry::new(1, 128, 128));
    if let Some(p) = noise {
        config = config.with_noise(TransientNoise {
            flip_probability: p,
        });
    }
    let chip = SimChip::new(config);
    let knowledge = ChipKnowledge::uniform(
        chip.config().word_layout,
        CellType::True,
        chip.geometry().total_rows(),
    );
    ChipBackend::new(Box::new(chip), knowledge)
}

#[test]
fn chip_collection_is_thread_count_invariant() {
    let patterns = PatternSet::One.patterns(32);
    let plan = CollectionPlan::quick();
    let serial = collect(&mut chip_backend(0xD0_01, None), &patterns, &plan, 1);
    for threads in [2usize, 3, 8] {
        let parallel = collect(&mut chip_backend(0xD0_01, None), &patterns, &plan, threads);
        assert_identical(&serial, &parallel, &format!("{threads} threads"));
    }
}

#[test]
fn noisy_chip_collection_is_still_deterministic() {
    // Transient noise depends on the chip's trial counter; the sharded
    // engine seeks the counter per unit, so even the noise stream must be
    // reproduced exactly across thread counts.
    let patterns = PatternSet::One.patterns(32);
    let plan = CollectionPlan::quick();
    let serial = collect(&mut chip_backend(0xD0_02, Some(1e-5)), &patterns, &plan, 1);
    let noise_total: u64 = serial.per_bit_totals().iter().sum();
    assert!(noise_total > 0, "sweep observed nothing — vacuous test");
    let parallel = collect(&mut chip_backend(0xD0_02, Some(1e-5)), &patterns, &plan, 4);
    assert_identical(&serial, &parallel, "noisy chip, 4 threads");
}

#[test]
fn einsim_and_replay_backends_are_thread_count_invariant() {
    let chip = SimChip::new(ChipConfig::small_test_chip(0xD0_04));
    let secret = chip.reveal_code().clone();
    let patterns = PatternSet::One.patterns(secret.k());
    let plan = CollectionPlan::quick();

    let mut einsim = EinsimBackend::new(secret.clone(), 1500, 0xD0_04);
    let serial = collect(&mut einsim, &patterns, &plan, 1);
    let parallel = collect(&mut einsim, &patterns, &plan, 6);
    assert_identical(&serial, &parallel, "einsim");

    let trace = ProfileTrace::record(&mut AnalyticBackend::new(secret), &patterns, &plan);
    let mut replay = ReplayBackend::new(trace);
    let serial = collect(&mut replay, &patterns, &plan, 1);
    let parallel = collect(&mut replay, &patterns, &plan, 5);
    assert_identical(&serial, &parallel, "replay");
}
