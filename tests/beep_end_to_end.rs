//! End-to-end BEEP on a simulated chip: the §7.1 flow with the ECC
//! function recovered by BEER (not read from ground truth), profiling
//! words whose weak cells come from the chip's own retention model.

use beer::prelude::*;

/// Ground truth: the chip's weak cells for `word` at window `trefw`,
/// straight from the (secret) retention model configuration.
fn true_weak_cells(chip: &SimChip, word: usize, trefw: f64) -> Vec<usize> {
    let model = chip.config().retention;
    let n = chip.n();
    (0..n)
        .filter(|&bit| model.fails((word * n + bit) as u64, trefw, 80.0))
        .collect()
}

#[test]
fn beep_finds_chip_weak_cells_using_beer_recovered_function() {
    let mut chip = SimChip::new(ChipConfig::small_test_chip(0xBEE9));

    // Phase 0: BEER recovers the ECC function from the chip interface —
    // through a fork (same code, same weak cells), since the backend owns
    // the chip it drives.
    let knowledge = ChipKnowledge::uniform(
        chip.config().word_layout,
        CellType::True,
        chip.geometry().total_rows(),
    );
    let patterns = PatternSet::One.patterns(chip.k());
    let profile = try_collect_with(
        &mut ChipBackend::new(chip.fork().expect("simulated chips fork"), knowledge),
        &patterns,
        &CollectionPlan::quick(),
        &EngineOptions::serial(),
    )
    .expect("simulated chips cannot fail collection");
    let report = solve_profile(
        chip.k(),
        hamming::parity_bits_for(chip.k()),
        &profile.to_constraints(&ThresholdFilter::default()),
        &BeerSolverOptions::default(),
    )
    .expect("well-formed constraints");
    let recovered = report
        .solutions
        .iter()
        .find(|s| equivalent(s, chip.reveal_code()))
        .expect("BEER failed to recover the function")
        .clone();

    // Pick a window giving each word a couple of weak cells, then find
    // words with 2–4 weak *data* cells to profile. (BEEP locates parity
    // weak cells too, but the recovered code's parity ordering is only
    // unique up to relabeling, so ground-truth comparison uses data bits —
    // see §5.4 "Disambiguating equivalent codes".)
    let trefw = chip.config().retention.window_for_ber(0.05, 80.0);
    let n = chip.n();
    let k = chip.k();
    let mut words_checked = 0;
    for word in 0..chip.num_words() {
        let weak = true_weak_cells(&chip, word, trefw);
        let data_weak: Vec<usize> = weak.iter().copied().filter(|&c| c < k).collect();
        if weak.len() < 2 || weak.len() > 4 || data_weak.len() != weak.len() {
            continue; // want all-data weak sets for exact comparison
        }
        let layout = chip.config().word_layout;
        let mut target = DramWordTarget::new(&mut chip, layout, word, trefw);
        let result = profile_word(&recovered, &mut target, &BeepConfig::default());
        let found_data: Vec<usize> = result
            .discovered_sorted()
            .into_iter()
            .filter(|&c| c < k)
            .collect();
        assert_eq!(
            found_data, data_weak,
            "word {word}: BEEP missed or invented data weak cells"
        );
        words_checked += 1;
        if words_checked >= 3 {
            break;
        }
    }
    assert!(
        words_checked > 0,
        "no suitable word found for the BEEP check (n={n})"
    );
}

#[test]
fn beep_word_count_matches_retention_model_density() {
    // Sanity-check the test harness itself: the number of weak cells per
    // word at a window targeting BER b should average ~ b·n.
    let chip = SimChip::new(ChipConfig::small_test_chip(0xBEEA));
    let trefw = chip.config().retention.window_for_ber(0.05, 80.0);
    let words = chip.num_words().min(512);
    let total: usize = (0..words)
        .map(|w| true_weak_cells(&chip, w, trefw).len())
        .sum();
    let mean = total as f64 / words as f64;
    let expected = 0.05 * chip.n() as f64;
    assert!(
        (mean / expected - 1.0).abs() < 0.35,
        "mean weak cells {mean:.2} vs expected {expected:.2}"
    );
}
