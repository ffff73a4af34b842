//! The inputs of experimental miscorrection-profile collection (paper
//! §5.1): what the experimenter knows about a chip ([`ChipKnowledge`]) and
//! the refresh-window sweep to run ([`CollectionPlan`]).
//!
//! [`crate::engine::ChipBackend`] runs the experiment over any
//! [`DramInterface`]: it programs every ECC word with a test pattern (an
//! equal share of words per pattern, rotated across trials so each pattern
//! samples many different words), pauses refresh across the sweep, and
//! records every unambiguous miscorrection — a post-correction error at a
//! DISCHARGED data bit.

use crate::layout_probe;
use crate::pattern::ChargedSet;
use beer_dram::{CellType, DramInterface, WordLayout};
use beer_gf2::BitVec;

/// What the experimenter knows about a chip before profiling: the dataword
/// layout and the per-row cell types — either assumed from prior knowledge
/// or reverse engineered with [`layout_probe`].
#[derive(Clone, Debug)]
pub struct ChipKnowledge {
    /// Dataword-to-address mapping.
    pub word_layout: WordLayout,
    /// Cell type of each global row.
    pub row_cell_types: Vec<CellType>,
}

impl ChipKnowledge {
    /// Knowledge for a chip with a uniform cell type.
    pub fn uniform(word_layout: WordLayout, cell_type: CellType, total_rows: usize) -> Self {
        ChipKnowledge {
            word_layout,
            row_cell_types: vec![cell_type; total_rows],
        }
    }

    /// Acquires the knowledge experimentally: runs the §5.1.1 cell-layout
    /// probe and the §5.1.2 word-layout probe.
    ///
    /// Returns `None` if the word-layout probe cannot decide between the
    /// candidate layouts (see [`layout_probe::probe_word_layout`]).
    pub fn probe(
        chip: &mut dyn DramInterface,
        word_bytes: usize,
        probe_trefw: f64,
    ) -> Option<Self> {
        let row_cell_types = layout_probe::probe_cell_layout(chip, probe_trefw);
        let candidates = [
            WordLayout::InterleavedPairs { word_bytes },
            WordLayout::Contiguous { word_bytes },
        ];
        let report =
            layout_probe::probe_word_layout(chip, &row_cell_types, &candidates, probe_trefw);
        report.decided().map(|word_layout| ChipKnowledge {
            word_layout,
            row_cell_types,
        })
    }

    /// Number of datawords on the chip.
    pub fn num_words(&self, chip: &dyn DramInterface) -> usize {
        chip.geometry().total_bytes() / self.word_layout.word_bytes()
    }

    /// Cell type of every cell in a word (words do not straddle rows).
    pub fn cell_type_of_word(&self, chip: &dyn DramInterface, word: usize) -> CellType {
        let addr = self.word_layout.addr_of(word, 0);
        self.row_cell_types[chip.geometry().row_of_addr(addr)]
    }
}

/// The refresh-window sweep of a collection run.
#[derive(Clone, Debug)]
pub struct CollectionPlan {
    /// Refresh windows to test, in seconds.
    pub trefw_schedule: Vec<f64>,
    /// Ambient temperature for the whole run.
    pub celsius: f64,
    /// Pattern-assignment rotations per refresh window (each trial
    /// re-programs the chip with patterns shifted to different words).
    pub trials_per_step: usize,
}

impl Default for CollectionPlan {
    /// The simulation-scale sweep ([`CollectionPlan::quick`]).
    fn default() -> Self {
        CollectionPlan::quick()
    }
}

impl CollectionPlan {
    /// Total retention trials in the plan (refresh windows × trials each)
    /// — the number of independent work units the engine can shard.
    pub fn num_trials(&self) -> usize {
        self.trefw_schedule.len() * self.trials_per_step
    }

    /// The paper's §5.1.3 sweep: 2 to 22 minutes in 1-minute steps at
    /// 80 °C.
    pub fn paper_sweep() -> Self {
        CollectionPlan {
            trefw_schedule: crate::runtime::paper_sweep_schedule(),
            celsius: 80.0,
            trials_per_step: 1,
        }
    }

    /// A sweep for simulation-scale experiments, targeting raw BERs from
    /// 10⁻³ up to 0.5 at 80 °C under the calibrated retention model.
    ///
    /// The paper completes each pattern's profile with *sample count*
    /// (millions of ECC words per pattern, §5.1.3). A simulated chip has
    /// thousands of words, so this plan compensates with *error rate*: at
    /// a raw BER near 0.5 every subset of a pattern's ≤ `n−k+1` charged
    /// cells occurs with probability ≥ 2^−(n−k+1) per word, so a few
    /// thousand samples per pattern observe every possible miscorrection
    /// many times. The observable-miscorrection predicate itself is
    /// BER-independent, so the recovered profile is identical.
    pub fn quick() -> Self {
        let model = beer_dram::RetentionModel::paper_calibrated(0);
        let targets = [1e-3, 1e-2, 0.1, 0.25, 0.4, 0.499];
        CollectionPlan {
            trefw_schedule: targets
                .iter()
                .map(|&b| model.window_for_ber(b, 80.0))
                .collect(),
            celsius: 80.0,
            trials_per_step: 8,
        }
    }
}

/// Validates a pattern list and returns its common dataword length.
///
/// # Panics
///
/// Panics if `patterns` is empty or the dataword lengths differ.
pub(crate) fn validate_patterns(patterns: &[ChargedSet]) -> usize {
    assert!(!patterns.is_empty(), "no test patterns given");
    let k = patterns[0].k();
    for p in patterns {
        assert_eq!(p.k(), k, "patterns of differing dataword lengths");
    }
    k
}

/// Serializes a dataword into the chip image at its mapped addresses.
pub(crate) fn write_word_into_image(
    image: &mut [u8],
    layout: &WordLayout,
    word: usize,
    data: &BitVec,
) {
    let wb = layout.word_bytes();
    for byte in 0..wb {
        let mut v = 0u8;
        for bit in 0..8 {
            if data.get(byte * 8 + bit) {
                v |= 1 << bit;
            }
        }
        image[layout.addr_of(word, byte)] = v;
    }
}

/// Extracts a dataword from a chip image.
pub(crate) fn read_word_from_image(
    image: &[u8],
    layout: &WordLayout,
    word: usize,
    k: usize,
) -> BitVec {
    let wb = layout.word_bytes();
    let mut data = BitVec::zeros(k);
    for byte in 0..wb {
        let v = image[layout.addr_of(word, byte)];
        for bit in 0..8 {
            if v >> bit & 1 == 1 {
                data.set(byte * 8 + bit, true);
            }
        }
    }
    data
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::analytic_profile;
    use crate::engine::{try_collect_with, ChipBackend, EngineOptions};
    use crate::pattern::PatternSet;
    use crate::profile::{MiscorrectionProfile, ProfileConstraints, ThresholdFilter};
    use beer_dram::{ChipConfig, Geometry, SimChip};

    /// Collects `patterns` from a fresh quick chip, returning the profile
    /// and the chip's ground-truth analytic profile.
    fn collect_quick(
        seed: u64,
        patterns: &[ChargedSet],
    ) -> (MiscorrectionProfile, ProfileConstraints) {
        let chip = SimChip::new(
            ChipConfig::small_test_chip(seed).with_geometry(Geometry::new(1, 128, 128)),
        );
        let truth = analytic_profile(chip.reveal_code(), patterns);
        let knowledge = ChipKnowledge::uniform(
            chip.config().word_layout,
            CellType::True,
            chip.geometry().total_rows(),
        );
        let mut backend = ChipBackend::new(Box::new(chip), knowledge);
        let plan = CollectionPlan::quick();
        let profile = try_collect_with(&mut backend, patterns, &plan, &EngineOptions::serial())
            .expect("simulated chips cannot fail collection");
        (profile, truth)
    }

    #[test]
    fn image_word_roundtrip() {
        let layout = WordLayout::InterleavedPairs { word_bytes: 4 };
        let mut image = vec![0u8; 64];
        let data = BitVec::from_indices(32, &[0, 9, 31]);
        write_word_into_image(&mut image, &layout, 3, &data);
        assert_eq!(read_word_from_image(&image, &layout, 3, 32), data);
        // Other words untouched.
        assert!(read_word_from_image(&image, &layout, 2, 32).is_zero());
    }

    #[test]
    fn collected_profile_is_subset_of_analytic() {
        // Every experimentally observed miscorrection must be analytically
        // possible for the chip's true code.
        let patterns = PatternSet::One.patterns(32);
        let (profile, truth) = collect_quick(31, &patterns);
        for (pi, (pattern, obs)) in truth.entries.iter().enumerate() {
            for (j, &o) in obs.iter().enumerate() {
                if profile.count(pi, j) > 0 {
                    assert_eq!(
                        o,
                        crate::profile::Observation::Miscorrection,
                        "observed impossible miscorrection: {pattern} bit {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn collection_observes_many_real_miscorrections() {
        let patterns = PatternSet::One.patterns(32);
        let (profile, _) = collect_quick(32, &patterns);
        let total: u64 = profile.per_bit_totals().iter().sum();
        assert!(
            total > 50,
            "only {total} miscorrections observed — sweep too weak"
        );
        // Trials are recorded for every pattern.
        for pi in 0..patterns.len() {
            assert!(profile.trials(pi) > 0);
        }
    }

    #[test]
    fn thresholded_collection_has_no_false_positives() {
        let patterns = PatternSet::One.patterns(32);
        let (profile, truth) = collect_quick(33, &patterns);
        let constraints = profile.to_constraints(&ThresholdFilter::default());
        // No definite observation may contradict the ground truth in the
        // Miscorrection direction (missing observations are fine).
        for (pattern, bit) in constraints.disagreements(&truth) {
            let idx = truth
                .entries
                .iter()
                .position(|(p, _)| *p == pattern)
                .unwrap();
            assert_ne!(
                constraints.entries[idx].1[bit],
                crate::profile::Observation::Miscorrection,
                "false positive at {pattern} bit {bit}"
            );
        }
    }
}
