//! Figure 3: observed error counts per (1-CHARGED pattern, bit position)
//! for a representative chip of each manufacturer, across the refresh
//! window sweep.
//!
//! Expected shape (paper): the three manufacturers' profiles differ
//! visibly; B's and C's show regular repeating structure while A's looks
//! unstructured; chips of the same model produce identical profiles.

use beer_bench::{ascii_heatmap, banner, CsvArtifact, Scale};
use beer_core::collect::{ChipKnowledge, CollectionPlan};
use beer_core::pattern::PatternSet;
use beer_core::{
    try_collect_with, ChipBackend, EngineOptions, MiscorrectionProfile, ThresholdFilter,
};
use beer_dram::{CellType, ChipConfig, DramInterface, Geometry, SimChip};
use beer_ecc::design::Manufacturer;

fn profile_chip(
    m: Manufacturer,
    chip_seed: u64,
    k_bytes: usize,
    geometry: Geometry,
) -> MiscorrectionProfile {
    let chip = SimChip::new(
        ChipConfig::lpddr4_like(m, 0, chip_seed)
            .with_geometry(geometry)
            .with_word_bytes(k_bytes),
    );
    // Fig. 3's data comes from true-cell regions; give every chip a known
    // all-true layout knowledge (manufacturer C's probe path is exercised
    // in sec51).
    let knowledge = ChipKnowledge::uniform(
        chip.config().word_layout,
        CellType::True,
        chip.geometry().total_rows(),
    );
    let patterns = PatternSet::One.patterns(chip.k());
    let mut backend = ChipBackend::new(Box::new(chip), knowledge);
    try_collect_with(
        &mut backend,
        &patterns,
        &CollectionPlan::quick(),
        &EngineOptions::default(),
    )
    .expect("simulated chips cannot fail collection")
}

fn main() {
    let scale = Scale::from_env();
    banner(
        "fig3",
        "per-(pattern, bit) miscorrection counts per manufacturer",
        "manufacturers differ; B/C structured, A unstructured; same model => same profile",
    );
    // Paper scale: the real 128-bit datawords. Quick scale: 32-bit words
    // (same methodology, 16x fewer patterns).
    let k_bytes = scale.pick(4, 16);
    let geometry = scale.pick(Geometry::new(1, 128, 256), Geometry::new(1, 512, 1024));
    let k = k_bytes * 8;
    println!("chips: {k}-bit datawords, geometry {geometry:?}\n");

    let mut csv = CsvArtifact::new(
        "fig03_manufacturer_profiles",
        &["manufacturer", "pattern", "bit", "count"],
    );
    let mut matrices = Vec::new();
    for m in Manufacturer::ALL {
        let profile = profile_chip(m, 0xF3 + m as u64, k_bytes, geometry);
        let matrix: Vec<Vec<u64>> = (0..k)
            .map(|pi| (0..k).map(|bit| profile.count(pi, bit)).collect())
            .collect();
        for (pi, row) in matrix.iter().enumerate() {
            for (bit, &c) in row.iter().enumerate() {
                if c > 0 {
                    csv.row_display(&[
                        m.to_string(),
                        pi.to_string(),
                        bit.to_string(),
                        c.to_string(),
                    ]);
                }
            }
        }
        let susceptible: usize = matrix
            .iter()
            .map(|row| row.iter().filter(|&&c| c >= 2).count())
            .sum();
        println!("manufacturer {m}: {susceptible} miscorrection-susceptible (pattern, bit) pairs");
        println!(
            "  (Y: 1-CHARGED pattern id, X: bit index; darker = more errors)\n{}",
            ascii_heatmap(&matrix, 32, 64)
        );
        matrices.push(matrix);
    }
    csv.write();

    // Same-model check: a second chip of manufacturer B.
    let again = profile_chip(Manufacturer::B, 0x1234_5678, k_bytes, geometry);
    let b_first = profile_chip(
        Manufacturer::B,
        0xF3 + Manufacturer::B as u64,
        k_bytes,
        geometry,
    );
    let filter = ThresholdFilter::default();
    let disagreements = b_first
        .to_constraints(&filter)
        .disagreements(&again.to_constraints(&filter));
    println!(
        "same-model check (two manufacturer-B chips): {} disagreements",
        disagreements.len()
    );

    // Shape checks: pairwise-different thresholded profiles.
    let binarize = |m: &Vec<Vec<u64>>| -> Vec<Vec<bool>> {
        m.iter()
            .map(|row| row.iter().map(|&c| c >= 2).collect())
            .collect()
    };
    let ba = binarize(&matrices[0]);
    let bb = binarize(&matrices[1]);
    let bc = binarize(&matrices[2]);
    let differs = ba != bb && bb != bc && ba != bc;
    println!(
        "\nshape {}: manufacturers {} distinguishable, same-model profiles {}",
        if differs && disagreements.is_empty() {
            "HOLDS"
        } else {
            "UNCLEAR"
        },
        if differs { "are" } else { "are NOT" },
        if disagreements.is_empty() {
            "match"
        } else {
            "MISMATCH"
        },
    );
}
