//! Quickstart: recover a hidden on-die ECC function end to end.
//!
//! Builds a simulated DRAM chip whose on-die ECC function is "secret",
//! runs the whole BEER pipeline through one [`RecoverySession`], and
//! checks the recovered parity-check matrix against the ground truth
//! (something the paper's authors could not do on real chips — §6.1
//! explains why simulation is the only place this check is possible).
//!
//! Run with: `cargo run --release --example quickstart`

use beer::prelude::*;

fn main() {
    // A small chip with 32-bit datawords. In the paper's setting this
    // would be a real LPDDR4 part with 128-bit words; the methodology is
    // identical (and `reverse_engineer_chip.rs` runs the full pipeline on
    // an LPDDR4-like configuration).
    let chip = SimChip::new(ChipConfig::small_test_chip(0xC0FFEE));
    println!(
        "chip: {} datawords x {} bits (+{} hidden parity bits)",
        chip.num_words(),
        chip.k(),
        chip.n() - chip.k()
    );
    let secret = chip.reveal_code().clone();

    // The experimenter's knowledge: dataword layout and cell types (here
    // assumed; `reverse_engineer_chip.rs` probes both from scratch).
    let knowledge = ChipKnowledge::uniform(
        chip.config().word_layout,
        CellType::True,
        chip.geometry().total_rows(),
    );
    let mut backend = ChipBackend::new(Box::new(chip), knowledge);

    // One typed entry point for the whole pipeline: the config owns the
    // pattern schedule, collection plan, threshold filter, and solver
    // options; the session interleaves collection and solving (§6.3) and
    // reports progress through typed events instead of ad-hoc printing.
    let config = RecoveryConfig::new()
        .with_parity_bits(secret.parity_bits())
        .with_pattern_family(PatternSet::One);
    let report = config
        .session(&mut backend)
        .with_observer(|event| match event {
            RecoveryEvent::BatchCollected {
                patterns,
                observations,
                ..
            } => println!("step 1: {patterns} patterns tested, {observations} miscorrections"),
            RecoveryEvent::FactsPushed {
                new_facts,
                pinned_vars,
                ..
            } => println!("step 2: {new_facts} definite facts ({pinned_vars} P entries fixed)"),
            RecoveryEvent::CheckCompleted {
                solutions, elapsed, ..
            } => println!("step 3: {solutions} solution(s) in {elapsed:?}"),
            RecoveryEvent::CounterexampleRepaired { pairs, .. } => {
                println!("        ({pairs} distinctness counterexamples repaired)")
            }
        })
        .run_to_completion()
        .expect("simulated chips cannot fail collection");

    // Ground-truth validation (possible only in simulation).
    match &report.outcome {
        RecoveryOutcome::Unique(code) => {
            println!("\nrecovered parity-check sub-matrix P (canonical form):");
            println!("{}", canonicalize(code).parity_submatrix());
            if equivalent(code, &secret) {
                println!("SUCCESS: recovered function matches the chip's secret ECC");
            } else {
                println!("FAILURE: unique function does not match ground truth");
            }
            println!("uniqueness: the profile admits exactly this one function");
        }
        RecoveryOutcome::Ambiguous {
            count, witnesses, ..
        } => {
            match witnesses.iter().find(|s| equivalent(s, &secret)) {
                Some(_) => println!("\nthe secret function is among the candidates"),
                None => println!("\nFAILURE: no candidate matches ground truth"),
            }
            println!("uniqueness: {count} candidate functions (try PatternSet::OneTwo)");
        }
        other => println!("\nunexpected outcome: {other:?}"),
    }
}
