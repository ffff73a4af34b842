//! The paper's flagship configuration: recovering a (136, 128) SEC Hamming
//! code — the 128-bit on-die ECC word size of §5.1.2 — from 1- and
//! 2-CHARGED analytic constraints.
//!
//! The paper reports a 57-hour median for this solve on Z3 over the raw
//! error-pattern encoding; the reduced closed-form encoding, the GF(2)
//! preprocessing pass, lazy column distinctness, and progressive solving
//! bring it into CI territory — but only in release builds, so these tests
//! are ignored under `debug_assertions` (CI runs them with
//! `cargo test --release --test k128_recovery`).

use beer::prelude::*;

/// Runs a (136, 128) recovery over `schedule`, asserting it recovers
/// `code` uniquely.
fn recover_128(code: &LinearCode, schedule: PatternSchedule, what: &str) -> RecoveryStats {
    let mut backend = AnalyticBackend::new(code.clone());
    let report = RecoveryConfig::new()
        .with_parity_bits(8)
        .with_schedule(schedule)
        .session(&mut backend)
        .run_to_completion()
        .expect("analytic backends cannot fail");
    let check = report.last_check.expect("at least one round ran");
    assert!(
        check.is_unique(),
        "(136, 128) {what}: expected a unique solution, got {}",
        check.solutions.len()
    );
    assert!(
        equivalent(&check.solutions[0], code),
        "(136, 128) {what}: wrong code recovered"
    );
    report.stats
}

fn flagship_stats(seed: u64, chunk: usize) -> RecoveryStats {
    let code = hamming::random_sec(128, &mut rand::rngs::StdRng::seed_from_u64(seed));
    assert_eq!(code.parity_bits(), 8, "(136, 128) has 8 parity bits");
    recover_128(
        &code,
        PatternSchedule::Progressive { chunk },
        &format!("seed {seed}"),
    )
}

use rand::SeedableRng;

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: full-size k = 128 solve")]
fn recovers_a_random_136_128_code_progressively() {
    let stats = flagship_stats(0xBEE9, 64);
    // §6.3's point at full scale: a fraction of the 8256-pattern schedule
    // suffices once preprocessing and the profile pin the code down.
    assert!(
        stats.patterns_used < stats.patterns_available,
        "used the whole schedule ({} of {})",
        stats.patterns_used,
        stats.patterns_available
    );
    assert!(stats.facts_encoded > 0);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: full-size k = 128 solve")]
fn recovers_several_136_128_codes() {
    for seed in [1u64, 2, 3] {
        flagship_stats(seed, 64);
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: full-size k = 128 solve")]
fn recovers_136_128_code_needing_2charged_evidence() {
    // The full 1-CHARGED profile often suffices on its own for (136, 128)
    // codes; withhold a quarter of it (as if those patterns were
    // under-tested) so the run must consume 2-CHARGED batches — the path
    // that exercises the order-2 observation encoding at full scale.
    let code = hamming::random_sec(128, &mut rand::rngs::StdRng::seed_from_u64(0x2C));
    let one: Vec<ChargedSet> = beer::core::pattern::one_charged(128)
        .into_iter()
        .take(96)
        .collect();
    let mut batches = vec![one];
    for chunk in beer::core::pattern::two_charged(128).chunks(64) {
        batches.push(chunk.to_vec());
    }
    let stats = recover_128(&code, PatternSchedule::Batches(batches), "seed 0x2C");
    assert!(
        stats.rounds > 1,
        "partial 1-CHARGED profile unexpectedly sufficed — no 2-CHARGED \
         batch was consumed"
    );
}
