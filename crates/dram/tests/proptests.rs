//! Property-based tests for the simulated chip's external behaviour.

use beer_dram::{CellLayout, ChipConfig, DramInterface, Geometry, SimChip, WordLayout};
use proptest::prelude::*;

fn chip(seed: u64) -> SimChip {
    SimChip::new(ChipConfig::small_test_chip(seed).with_geometry(Geometry::new(1, 32, 64)))
}

/// The small test chip under the drawn word layout (`0`: interleaved
/// pairs, `1`: contiguous) and cell layout (`0`: all true, `1`: all anti,
/// `2`: alternating blocks of 3 and 5 rows).
fn chip_with(seed: u64, word_layout: usize, cell_layout: usize) -> SimChip {
    let base = ChipConfig::small_test_chip(seed).with_geometry(Geometry::new(1, 32, 64));
    let word_bytes = base.word_bytes;
    let word_layout = [
        WordLayout::InterleavedPairs { word_bytes },
        WordLayout::Contiguous { word_bytes },
    ][word_layout];
    let cell_layout = [
        CellLayout::AllTrue,
        CellLayout::AllAnti,
        CellLayout::AlternatingBlocks {
            block_rows: vec![3, 5],
        },
    ][cell_layout]
        .clone();
    SimChip::new(ChipConfig {
        cell_layout,
        ..base.with_word_layout(word_layout)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Writes followed by reads return exactly the written bytes at any
    /// alignment, including partial-word (read-modify-write) updates.
    #[test]
    fn byte_interface_roundtrips(
        seed in any::<u64>(),
        word_layout in 0usize..2,
        cell_layout in 0usize..3,
        offset in 0usize..1024,
        data in prop::collection::vec(any::<u8>(), 1..128),
    ) {
        let mut c = chip_with(seed, word_layout, cell_layout);
        let offset = offset.min(c.geometry().total_bytes() - data.len());
        c.write_bytes(offset, &data);
        prop_assert_eq!(c.read_bytes(offset, data.len()), data);
    }

    /// Overlapping writes behave like a byte array: the last write wins
    /// per byte.
    #[test]
    fn overlapping_writes_last_wins(
        seed in any::<u64>(),
        word_layout in 0usize..2,
        cell_layout in 0usize..3,
        a in prop::collection::vec(any::<u8>(), 32),
        b in prop::collection::vec(any::<u8>(), 16),
        shift in 0usize..16,
    ) {
        let mut c = chip_with(seed, word_layout, cell_layout);
        c.write_bytes(0, &a);
        c.write_bytes(shift, &b);
        let mut expect = a.clone();
        expect[shift..shift + 16].copy_from_slice(&b);
        prop_assert_eq!(c.read_bytes(0, 32), expect);
    }

    /// The all-zero pattern in a true-cell chip is immune to any retention
    /// pause: its codeword stores no charge anywhere.
    #[test]
    fn zero_pattern_is_retention_immune(
        seed in any::<u64>(),
        hours in 1u32..200,
    ) {
        let mut c = chip(seed);
        let len = c.geometry().total_bytes();
        c.write_bytes(0, &vec![0u8; len]);
        c.retention_test(hours as f64 * 3600.0);
        prop_assert_eq!(c.read_bytes(0, len), vec![0u8; len]);
    }

    /// Retention failures are deterministic per chip: two identical chips
    /// running the same schedule observe identical data.
    #[test]
    fn same_chip_same_errors(
        seed in any::<u64>(),
        pattern in any::<u8>(),
        window in 600u32..100_000,
    ) {
        let run = |s: u64| {
            let mut c = chip(s);
            let len = c.geometry().total_bytes();
            c.write_bytes(0, &vec![pattern; len]);
            c.retention_test(window as f64);
            c.read_bytes(0, len)
        };
        prop_assert_eq!(run(seed), run(seed));
    }

    /// Observed error counts never decrease when the refresh window grows
    /// (per-cell retention times are fixed; decay is monotone in time).
    #[test]
    fn errors_monotone_in_window(seed in any::<u64>()) {
        let count = |window: f64| {
            let mut c = chip(seed);
            let len = c.geometry().total_bytes();
            c.write_bytes(0, &vec![0xFFu8; len]);
            c.retention_test(window);
            c.read_bytes(0, len)
                .iter()
                .map(|b| (b ^ 0xFF).count_ones() as usize)
                .sum::<usize>()
        };
        // Pre-correction errors are monotone; post-correction counts can
        // wobble slightly through the decoder, so compare an order of
        // magnitude apart.
        let short = count(1800.0);
        let long = count(1800.0 * 32.0);
        prop_assert!(long >= short, "short={short} long={long}");
    }

    /// Word layouts are bijections: every byte address maps to a unique
    /// (word, offset) and back.
    #[test]
    fn word_layouts_are_bijective(word_bytes in 1usize..32, addrs in 0usize..4096) {
        for layout in [
            WordLayout::InterleavedPairs { word_bytes },
            WordLayout::Contiguous { word_bytes },
        ] {
            let (w, b) = layout.locate(addrs);
            prop_assert_eq!(layout.addr_of(w, b), addrs, "{:?}", layout);
        }
    }

    /// Cell layouts tile the row space: alternating blocks repeat their
    /// cycle exactly.
    #[test]
    fn alternating_blocks_cycle(
        block in 1usize..64,
        row in 0usize..10_000,
    ) {
        let layout = CellLayout::AlternatingBlocks { block_rows: vec![block] };
        let expect_true = (row / block) % 2 == 0;
        prop_assert_eq!(
            layout.cell_type_of_row(row) == beer_dram::CellType::True,
            expect_true
        );
    }
}
