//! The paper's flagship configuration: recovering a (136, 128) SEC Hamming
//! code — the 128-bit on-die ECC word size of §5.1.2 — from 1- and
//! 2-CHARGED analytic constraints.
//!
//! The paper reports a 57-hour median for this solve on Z3 over the raw
//! error-pattern encoding; the reduced closed-form encoding, encoding only
//! the 1-CHARGED negative facts the rest do not imply, lazy column
//! distinctness, and progressive solving bring it to seconds even in debug
//! builds.

use beer::prelude::*;

/// Runs a (136, 128) recovery over `schedule`, asserting it recovers
/// `code` uniquely; returns the session's stats and the last check's CNF
/// variable count.
fn recover_128(code: &LinearCode, schedule: PatternSchedule, what: &str) -> (RecoveryStats, usize) {
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
    (report.stats, check.num_vars)
}

fn flagship_stats(seed: u64, chunk: usize) -> RecoveryStats {
    let code = hamming::random_sec(128, &mut rand::rngs::StdRng::seed_from_u64(seed));
    assert_eq!(code.parity_bits(), 8, "(136, 128) has 8 parity bits");
    let (stats, num_vars) = recover_128(
        &code,
        PatternSchedule::Progressive { chunk },
        &format!("seed {seed}"),
    );
    // Encoding every 1-CHARGED negative fact costs about 125k variables;
    // only the few hundred the other facts do not imply are encoded. These
    // seeds read 3.8k–4.4k; per-column weight-bound counters would add
    // about 3k more.
    assert!(
        num_vars <= 5_000,
        "seed {seed}: {num_vars} CNF variables — implied negative facts or weight-bound counters encoded?"
    );
    stats
}

use rand::SeedableRng;

#[test]
fn recovers_a_random_136_128_code_progressively() {
    let stats = flagship_stats(0xBEE9, 64);
    // §6.3's point at full scale: a fraction of the 8256-pattern schedule
    // suffices once the profile pins the code down.
    assert!(
        stats.patterns_used < stats.patterns_available,
        "used the whole schedule ({} of {})",
        stats.patterns_used,
        stats.patterns_available
    );
    assert!(stats.facts_encoded > 0);
}

#[test]
fn recovers_several_136_128_codes() {
    for seed in [1u64, 2, 3] {
        flagship_stats(seed, 64);
    }
}

#[test]
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
    let (stats, _) = recover_128(&code, PatternSchedule::Batches(batches), "seed 0x2C");
    assert!(
        stats.rounds > 1,
        "partial 1-CHARGED profile unexpectedly sufficed — no 2-CHARGED \
         batch was consumed"
    );
}
