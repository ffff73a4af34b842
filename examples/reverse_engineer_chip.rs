//! The full §5 pipeline on a manufacturer-C-style chip: nothing about the
//! chip is assumed — cell layout, dataword layout, and the ECC function
//! are all reverse engineered from the data interface.
//!
//! Manufacturer C is the interesting case: its chips mix true- and
//! anti-cells in alternating row blocks (§5.1.1), so even *writing a test
//! pattern* requires first learning which rows invert data.
//!
//! The recovery itself runs through a checkpointing [`RecoverySession`]:
//! every collected unit is recorded into a [`ProfileTrace`], and the
//! example replays that trace through a [`ReplayBackend`] session to show
//! the archived experiment reproduces the outcome bit for bit.
//!
//! Run with: `cargo run --release --example reverse_engineer_chip`

use beer::prelude::*;

fn main() {
    // An LPDDR4-like chip, shrunk for a fast demonstration: 32-bit words,
    // alternating true/anti blocks every 32 rows.
    let config = ChipConfig {
        cell_layout: CellLayout::AlternatingBlocks {
            block_rows: vec![32],
        },
        ..ChipConfig::lpddr4_like(Manufacturer::C, 1, 0xC44)
            .with_geometry(Geometry::new(1, 128, 256))
            .with_word_bytes(4)
    };
    let mut chip = SimChip::new(config);
    println!(
        "chip under test: manufacturer C, {} x {}-bit words, {} rows",
        chip.num_words(),
        chip.k(),
        chip.geometry().total_rows()
    );

    // ---------------------------------------------------------------
    // §5.1.1 + §5.1.2: reverse engineer the cell and dataword layouts.
    // ---------------------------------------------------------------
    println!("\n[1] probing cell + dataword layout (§5.1.1, §5.1.2)...");
    let knowledge =
        ChipKnowledge::probe(&mut chip, 4, 4.0 * 3600.0).expect("layout probe failed to decide");
    let anti_rows = knowledge
        .row_cell_types
        .iter()
        .filter(|&&t| t == CellType::Anti)
        .count();
    println!(
        "    cell layout: {anti_rows}/{} anti-cell rows detected",
        knowledge.row_cell_types.len()
    );
    println!("    word layout: {:?}", knowledge.word_layout);

    // ---------------------------------------------------------------
    // §5.1.3 + §5.3, interleaved: one session drives progressive batch
    // collection (sharded over worker threads), streams the thresholded
    // constraints into a live SAT session, and stops at the first batch
    // that pins the ECC function down uniquely (§6.3). Trace recording is
    // on, so the whole experiment is checkpointed as it runs.
    // ---------------------------------------------------------------
    println!("\n[2] recovery session: progressive collect-and-solve (§5.1.3 + §5.3 + §6.3)...");
    let secret = chip.reveal_code().clone();
    let k = chip.k();
    let mut backend = ChipBackend::new(Box::new(chip), knowledge);
    let session_config = RecoveryConfig::new()
        .with_parity_bits(hamming::parity_bits_for(k))
        .with_chunked_schedule(64)
        .with_trace_recording(true);
    let report = session_config
        .session(&mut backend)
        .with_observer(|event| {
            if let RecoveryEvent::CheckCompleted {
                round,
                solutions,
                elapsed,
                ..
            } = event
            {
                println!("    round {round}: {solutions} candidate function(s) ({elapsed:?})");
            }
        })
        .run_to_completion()
        .expect("simulated chips cannot fail collection");
    let stats = &report.stats;
    println!(
        "    {} round(s), {} of {} patterns collected, {} facts encoded, {} P entries fixed",
        stats.rounds,
        stats.patterns_used,
        stats.patterns_available,
        stats.facts_encoded,
        stats.pinned_vars
    );
    if let Some(check) = &report.last_check {
        println!(
            "    final check: {} vars / {} clauses, total {:?}",
            check.num_vars, check.num_clauses, stats.elapsed
        );
    }

    // ---------------------------------------------------------------
    // Validation against ground truth (simulation-only luxury), plus the
    // paper's §5.1.3 EINSim-style cross-check: the recovered function's
    // *analytic* profile must reproduce the measured one — here taken
    // straight from the session's own checkpoint.
    // ---------------------------------------------------------------
    let trace = report.trace.as_ref().expect("recording was enabled");
    match report.outcome.unique_code() {
        Some(found) if equivalent(found, &secret) => {
            println!("\n[3] ground truth check: MATCH");
            let measured = trace
                .to_profile()
                .to_constraints(&ThresholdFilter::default());
            let cross = analytic_profile(found, &trace.patterns);
            println!(
                "    EINSim cross-check: {} disagreements between measured and simulated profiles",
                measured.disagreements(&cross).len()
            );
        }
        Some(_) => println!("\n[3] ground truth check: MISMATCH"),
        None => println!("\n[3] no unique function: {:?}", report.outcome),
    }

    // ---------------------------------------------------------------
    // Checkpoint replay: the recorded trace stands in for the chip — the
    // same session config over a ReplayBackend reproduces the recovery
    // bit for bit, without touching hardware (profile a fleet once,
    // re-analyze forever).
    // ---------------------------------------------------------------
    println!("\n[4] replaying the checkpoint through a ReplayBackend session...");
    let mut replay = ReplayBackend::new(trace.clone());
    let replayed = RecoveryConfig::new()
        .with_parity_bits(hamming::parity_bits_for(k))
        .with_chunked_schedule(64)
        .session(&mut replay)
        .run_to_completion()
        .expect("the checkpoint covers every batch the session re-requests");
    let identical = match (report.outcome.unique_code(), replayed.outcome.unique_code()) {
        (Some(a), Some(b)) => a.parity_submatrix() == b.parity_submatrix(),
        _ => false,
    };
    println!(
        "    replayed outcome identical to the live run: {}",
        if identical { "YES" } else { "NO" }
    );
}
