//! The simulated DRAM chip.

use crate::cells::{CellLayout, CellType};
use crate::geometry::Geometry;
use crate::on_die_ecc::OnDieEcc;
use crate::retention::{RetentionModel, TransientNoise};
use crate::word_layout::WordLayout;
use beer_ecc::design::{vendor_code, Manufacturer};
use beer_gf2::BitVec;

/// The externally visible interface of a DRAM chip under test.
///
/// This is everything BEER is allowed to touch (paper §5): byte-granular
/// data access through the hidden on-die ECC, refresh-window control, and
/// ambient-temperature control. A real deployment would implement this
/// trait on top of an FPGA test platform; the reproduction implements it
/// with [`SimChip`].
pub trait DramInterface {
    /// Physical geometry (knowable from the datasheet).
    fn geometry(&self) -> Geometry;

    /// Writes bytes starting at `addr` (read-modify-write through on-die
    /// ECC for partial words, exactly like a real chip).
    fn write_bytes(&mut self, addr: usize, data: &[u8]);

    /// Reads `len` bytes starting at `addr` through the on-die ECC decoder.
    fn read_bytes(&self, addr: usize, len: usize) -> Vec<u8>;

    /// Pauses refresh for `trefw_seconds` at the current temperature,
    /// letting data-retention errors accumulate in the stored charges
    /// (§4.2.2: the mechanism BEER uses to induce uncorrectable errors).
    fn retention_test(&mut self, trefw_seconds: f64);

    /// Sets the ambient temperature in °C.
    fn set_temperature(&mut self, celsius: f64);

    /// Current ambient temperature in °C.
    fn temperature(&self) -> f64;

    /// Positions the chip's trial counter (the index that seeds per-trial
    /// transient noise) so a batch scheduler can run retention tests out of
    /// order yet bit-identically to a serial sweep. Real hardware has no
    /// such counter; the default is a no-op.
    fn seek_trial(&mut self, _trial: u64) {}

    /// Current position of the trial counter (see
    /// [`DramInterface::seek_trial`]): schedulers resume from here so
    /// successive collections draw *independent* noise rather than
    /// replaying the same stream. Real hardware reports 0.
    fn trial_counter(&self) -> u64 {
        0
    }

    /// Clones this chip into an independent, identically configured
    /// instance for a parallel worker, if the device supports it. All cells
    /// start DISCHARGED, exactly like a fresh [`SimChip`]; collection
    /// drivers rewrite the full array before every trial, so worker forks
    /// observe the same errors as the original chip. A physical chip cannot
    /// be forked, hence the `None` default.
    fn fork(&self) -> Option<Box<dyn DramInterface + Send>> {
        None
    }
}

/// Configuration of a [`SimChip`].
///
/// `manufacturer` and `model_seed` determine the secret ECC function (chips
/// of the same model share it, §5.1.3); `chip_seed` determines this
/// individual chip's weak cells.
#[derive(Clone, Debug)]
pub struct ChipConfig {
    /// Which manufacturer's design style the chip uses.
    pub manufacturer: Manufacturer,
    /// Model number stand-in: same model ⇒ same ECC function.
    pub model_seed: u64,
    /// Individual chip identity: governs which cells are weak.
    pub chip_seed: u64,
    /// Dataword size in bytes (16 for the LPDDR4 chips the paper tests).
    pub word_bytes: usize,
    /// Bank/row organization.
    pub geometry: Geometry,
    /// True/anti-cell arrangement.
    pub cell_layout: CellLayout,
    /// Dataword-to-address mapping.
    pub word_layout: WordLayout,
    /// Data-retention error model.
    pub retention: RetentionModel,
    /// Transient (non-retention) noise model.
    pub noise: TransientNoise,
    /// Initial ambient temperature in °C.
    pub initial_celsius: f64,
}

impl ChipConfig {
    /// A small chip for unit tests: 32-bit datawords, 8 KiB, all true
    /// cells, manufacturer B's deterministic design.
    pub fn small_test_chip(chip_seed: u64) -> Self {
        ChipConfig {
            manufacturer: Manufacturer::B,
            model_seed: 0,
            chip_seed,
            word_bytes: 4,
            geometry: Geometry::new(1, 64, 128),
            cell_layout: CellLayout::AllTrue,
            word_layout: WordLayout::InterleavedPairs { word_bytes: 4 },
            retention: RetentionModel::paper_calibrated(chip_seed),
            noise: TransientNoise::none(),
            initial_celsius: 80.0,
        }
    }

    /// An LPDDR4-like chip as characterized in §5.1: 128-bit datawords in
    /// byte-interleaved 16-byte pairs; manufacturer C additionally gets its
    /// measured alternating true/anti-cell block layout.
    pub fn lpddr4_like(manufacturer: Manufacturer, model_seed: u64, chip_seed: u64) -> Self {
        let cell_layout = match manufacturer {
            Manufacturer::A | Manufacturer::B => CellLayout::AllTrue,
            Manufacturer::C => CellLayout::manufacturer_c(),
        };
        ChipConfig {
            manufacturer,
            model_seed,
            chip_seed,
            word_bytes: 16,
            geometry: Geometry::new(2, 2048, 1024),
            cell_layout,
            word_layout: WordLayout::InterleavedPairs { word_bytes: 16 },
            retention: RetentionModel::paper_calibrated(chip_seed),
            noise: TransientNoise::none(),
            initial_celsius: 80.0,
        }
    }

    /// Returns the configuration with a different geometry.
    pub fn with_geometry(mut self, geometry: Geometry) -> Self {
        self.geometry = geometry;
        self
    }

    /// Returns the configuration with transient noise enabled.
    pub fn with_noise(mut self, noise: TransientNoise) -> Self {
        self.noise = noise;
        self
    }

    /// Returns the configuration with a different dataword size (bytes).
    pub fn with_word_bytes(mut self, word_bytes: usize) -> Self {
        self.word_bytes = word_bytes;
        self.word_layout = match self.word_layout {
            WordLayout::InterleavedPairs { .. } => WordLayout::InterleavedPairs { word_bytes },
            WordLayout::Contiguous { .. } => WordLayout::Contiguous { word_bytes },
        };
        self
    }

    /// Returns the configuration with a different word layout.
    pub fn with_word_layout(mut self, word_layout: WordLayout) -> Self {
        self.word_layout = word_layout;
        self
    }
}

/// A simulated DRAM chip with on-die ECC (see the crate docs for the
/// modeled behaviours and DESIGN.md §3 for why this substitutes for the
/// paper's real chips).
///
/// # Examples
///
/// ```
/// use beer_dram::{ChipConfig, DramInterface, SimChip};
///
/// let mut chip = SimChip::new(ChipConfig::small_test_chip(1));
/// let pattern = vec![0xFFu8; 64];
/// chip.write_bytes(0, &pattern);
/// chip.set_temperature(80.0);
/// chip.retention_test(20.0 * 60.0); // pause refresh for 20 minutes
/// let read = chip.read_bytes(0, 64);
/// // Retention errors may now be visible wherever ECC could not correct.
/// assert_eq!(read.len(), 64);
/// ```
pub struct SimChip {
    config: ChipConfig,
    ecc: OnDieEcc,
    /// Charge state of every cell, packed per codeword into
    /// `limbs_per_cw` limbs; bits past `n` in a codeword's last limb stay
    /// zero.
    charges: Vec<u64>,
    limbs_per_cw: usize,
    /// All `n` codeword bits set: the charge inversion of anti-cell words.
    anti_mask: BitVec,
    num_words: usize,
    celsius: f64,
    trial: u64,
}

impl SimChip {
    /// Builds the chip and initializes every cell to the DISCHARGED state.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide evenly into datawords.
    pub fn new(config: ChipConfig) -> Self {
        let k = config.word_bytes * 8;
        let code = vendor_code(config.manufacturer, k, config.model_seed);
        let ecc = OnDieEcc::new(code);
        let total = config.geometry.total_bytes();
        assert!(
            total.is_multiple_of(config.word_bytes),
            "geometry does not hold whole datawords"
        );
        let num_words = total / config.word_bytes;
        let limbs_per_cw = ecc.n().div_ceil(64);
        let anti_mask = BitVec::ones(ecc.n());
        let celsius = config.initial_celsius;
        SimChip {
            config,
            ecc,
            charges: vec![0; num_words * limbs_per_cw],
            limbs_per_cw,
            anti_mask,
            num_words,
            celsius,
            trial: 0,
        }
    }

    /// Number of ECC datawords on the chip.
    pub fn num_words(&self) -> usize {
        self.num_words
    }

    /// Dataword size in bits.
    pub fn k(&self) -> usize {
        self.ecc.k()
    }

    /// Codeword size in bits (includes the hidden parity bits).
    pub fn n(&self) -> usize {
        self.ecc.n()
    }

    /// The chip's configuration.
    pub fn config(&self) -> &ChipConfig {
        &self.config
    }

    /// Ground-truth access to the secret ECC function — only for verifying
    /// recovery results in simulation (see [`OnDieEcc::reveal_code`]).
    pub fn reveal_code(&self) -> &beer_ecc::LinearCode {
        self.ecc.reveal_code()
    }

    /// Expected raw (pre-correction) bit error rate among CHARGED cells for
    /// a refresh window at the current temperature.
    pub fn expected_ber(&self, trefw_seconds: f64) -> f64 {
        self.config
            .retention
            .expected_ber(trefw_seconds, self.celsius)
    }

    /// Cell type of all cells in the word (a word never straddles rows,
    /// paper footnote 8).
    fn cell_type_of_word(&self, word: usize) -> CellType {
        let addr = self.config.word_layout.addr_of(word, 0);
        let row = self.config.geometry.row_of_addr(addr);
        self.config.cell_layout.cell_type_of_row(row)
    }

    /// The charge limbs of a word's codeword.
    fn cw_limbs(&self, word: usize) -> std::ops::Range<usize> {
        word * self.limbs_per_cw..(word + 1) * self.limbs_per_cw
    }

    /// The stored codeword of a word, translated from charges to logical
    /// bits via the word's cell type (anti cells invert every bit).
    fn stored_codeword(&self, word: usize) -> BitVec {
        let mut cw = BitVec::from_limbs(self.ecc.n(), &self.charges[self.cw_limbs(word)]);
        if self.cell_type_of_word(word) == CellType::Anti {
            cw ^= &self.anti_mask;
        }
        cw
    }

    fn store_codeword(&mut self, word: usize, cw: &BitVec) {
        let invert = self.cell_type_of_word(word) == CellType::Anti;
        let limbs = self.cw_limbs(word);
        let slots = &mut self.charges[limbs];
        for ((slot, &bits), &mask) in slots.iter_mut().zip(cw.limbs()).zip(self.anti_mask.limbs()) {
            *slot = if invert { bits ^ mask } else { bits };
        }
    }

    /// Post-correction dataword of `word`.
    fn read_word(&self, word: usize) -> BitVec {
        self.ecc.decode(&self.stored_codeword(word))
    }

    /// Encodes and stores a full dataword.
    fn write_word(&mut self, word: usize, data: &BitVec) {
        let cw = self.ecc.encode(data);
        self.store_codeword(word, &cw);
    }

    /// Writes a dataword directly by index (bypasses address arithmetic but
    /// still goes through the ECC encoder — a convenience for experiment
    /// drivers that already know the word layout).
    ///
    /// # Panics
    ///
    /// Panics if `word >= num_words()` or `data.len() != k()`.
    pub fn write_dataword(&mut self, word: usize, data: &BitVec) {
        assert!(word < self.num_words, "word index out of range");
        self.write_word(word, data);
    }

    /// Reads the post-correction dataword by index (see
    /// [`SimChip::write_dataword`]).
    ///
    /// # Panics
    ///
    /// Panics if `word >= num_words()`.
    pub fn read_dataword(&self, word: usize) -> BitVec {
        assert!(word < self.num_words, "word index out of range");
        self.read_word(word)
    }
}

/// Converts bytes into a dataword: bit `i` of byte `b` becomes dataword
/// bit `8·b + i`, so the bytes pack little-endian into the limbs.
fn bytes_to_bits(bytes: &[u8]) -> BitVec {
    let limbs: Vec<u64> = bytes
        .chunks(8)
        .map(|chunk| {
            let mut le = [0u8; 8];
            le[..chunk.len()].copy_from_slice(chunk);
            u64::from_le_bytes(le)
        })
        .collect();
    BitVec::from_limbs(bytes.len() * 8, &limbs)
}

/// Byte `byte` of a dataword (the inverse of [`bytes_to_bits`]).
fn byte_of(bits: &BitVec, byte: usize) -> u8 {
    (bits.limbs()[byte / 8] >> (byte % 8 * 8)) as u8
}

impl DramInterface for SimChip {
    fn geometry(&self) -> Geometry {
        self.config.geometry
    }

    fn write_bytes(&mut self, addr: usize, data: &[u8]) {
        assert!(
            addr + data.len() <= self.config.geometry.total_bytes(),
            "write beyond end of chip"
        );
        let layout = self.config.word_layout;
        let range = addr..addr + data.len();
        let mut bytes = vec![0u8; layout.word_bytes()];
        for word in layout.words_spanning(addr, data.len()) {
            if !layout.word_addrs(word).all(|a| range.contains(&a)) {
                // Partial write: read-modify-write through the decoder,
                // exactly like a real on-die-ECC chip.
                let current = self.read_word(word);
                for (byte, slot) in bytes.iter_mut().enumerate() {
                    *slot = byte_of(&current, byte);
                }
            }
            for (slot, a) in bytes.iter_mut().zip(layout.word_addrs(word)) {
                if range.contains(&a) {
                    *slot = data[a - addr];
                }
            }
            self.write_word(word, &bytes_to_bits(&bytes));
        }
    }

    fn read_bytes(&self, addr: usize, len: usize) -> Vec<u8> {
        assert!(
            addr + len <= self.config.geometry.total_bytes(),
            "read beyond end of chip"
        );
        let layout = self.config.word_layout;
        let range = addr..addr + len;
        let mut out = vec![0u8; len];
        for word in layout.words_spanning(addr, len) {
            let data = self.read_word(word);
            for (byte, a) in layout.word_addrs(word).enumerate() {
                if range.contains(&a) {
                    out[a - addr] = byte_of(&data, byte);
                }
            }
        }
        out
    }

    fn retention_test(&mut self, trefw_seconds: f64) {
        let n = self.ecc.n();
        let retention = self.config.retention;
        let window = retention.effective_window(trefw_seconds, self.celsius);
        let trial = self.trial;
        self.trial += 1;
        // Unidirectional decay: only CHARGED cells can fail (§3.2), so
        // visit the set bits only. Same comparison as
        // `RetentionModel::fails`, with the window computed once.
        for (word, limbs) in self.charges.chunks_exact_mut(self.limbs_per_cw).enumerate() {
            for (li, limb) in limbs.iter_mut().enumerate() {
                let mut charged = *limb;
                while charged != 0 {
                    let bit = charged.trailing_zeros() as usize;
                    charged &= charged - 1;
                    let cell = (word * n + li * 64 + bit) as u64;
                    if retention.retention_seconds(cell) < window {
                        *limb &= !(1 << bit);
                    }
                }
            }
        }
        // Rare transient noise is bidirectional (§5.2). It acts on each
        // cell after that cell's own decay, so a second pass over every
        // cell is exact.
        let noise = self.config.noise;
        if noise.flip_probability > 0.0 {
            let seed = self.config.chip_seed;
            for word in 0..self.num_words {
                for bit in 0..n {
                    if noise.flips(seed, trial, (word * n + bit) as u64) {
                        self.charges[word * self.limbs_per_cw + bit / 64] ^= 1 << (bit % 64);
                    }
                }
            }
        }
    }

    fn set_temperature(&mut self, celsius: f64) {
        self.celsius = celsius;
    }

    fn temperature(&self) -> f64 {
        self.celsius
    }

    fn seek_trial(&mut self, trial: u64) {
        self.trial = trial;
    }

    fn trial_counter(&self) -> u64 {
        self.trial
    }

    fn fork(&self) -> Option<Box<dyn DramInterface + Send>> {
        let mut clone = SimChip::new(self.config.clone());
        clone.celsius = self.celsius;
        clone.trial = self.trial;
        Some(Box::new(clone))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_chip(seed: u64) -> SimChip {
        SimChip::new(ChipConfig::small_test_chip(seed))
    }

    #[test]
    fn write_read_roundtrip_bytes() {
        let mut chip = test_chip(1);
        let data: Vec<u8> = (0..128).map(|i| (i * 37 % 256) as u8).collect();
        chip.write_bytes(0, &data);
        assert_eq!(chip.read_bytes(0, 128), data);
    }

    #[test]
    fn unaligned_partial_writes_are_rmw() {
        let mut chip = test_chip(2);
        chip.write_bytes(0, &[0xFF; 16]);
        chip.write_bytes(3, &[0x00, 0x11, 0x22]);
        let read = chip.read_bytes(0, 16);
        assert_eq!(&read[0..3], &[0xFF, 0xFF, 0xFF]);
        assert_eq!(&read[3..6], &[0x00, 0x11, 0x22]);
        assert_eq!(&read[6..16], &[0xFF; 10]);
    }

    #[test]
    fn no_errors_without_retention_pause() {
        let mut chip = test_chip(3);
        let data = vec![0xA5u8; 256];
        chip.write_bytes(0, &data);
        assert_eq!(chip.read_bytes(0, 256), data);
    }

    #[test]
    fn short_pause_is_fully_corrected_or_clean() {
        // At a 2-minute window the expected raw BER is ~1e-7: on an 8 KiB
        // chip virtually no cell fails, and any single failure per word is
        // corrected by the on-die ECC.
        let mut chip = test_chip(4);
        let data = vec![0xFFu8; 8192];
        chip.write_bytes(0, &data);
        chip.retention_test(120.0);
        assert_eq!(chip.read_bytes(0, 8192), data);
    }

    #[test]
    fn long_pause_produces_uncorrectable_errors() {
        // Hours without refresh at 80 °C must corrupt data beyond what the
        // SEC code can repair.
        let mut chip = test_chip(5);
        let data = vec![0xFFu8; 8192];
        chip.write_bytes(0, &data);
        chip.retention_test(3600.0 * 24.0);
        let read = chip.read_bytes(0, 8192);
        assert_ne!(read, data, "24h retention pause produced zero errors");
    }

    #[test]
    fn retention_errors_are_repeatable() {
        let trefw = 3600.0;
        let observe = |seed: u64| -> Vec<u8> {
            let mut chip = test_chip(seed);
            chip.write_bytes(0, &vec![0xFFu8; 8192]);
            chip.retention_test(trefw);
            chip.read_bytes(0, 8192)
        };
        assert_eq!(observe(6), observe(6), "same chip must fail identically");
        assert_ne!(observe(6), observe(7), "different chips must differ");
    }

    #[test]
    fn true_cells_decay_ones_to_zeros_only() {
        // With all-true cells and an all-ones pattern, every post-correction
        // change must be 1 → 0 … except where the decoder miscorrected a 0
        // bit — which cannot happen here because all data bits are 1, so
        // any flip observed in data is 1 → 0.
        let mut chip = test_chip(8);
        chip.write_bytes(0, &vec![0xFFu8; 8192]);
        chip.retention_test(3600.0 * 4.0);
        let read = chip.read_bytes(0, 8192);
        // All-zero pattern in true cells never decays at all.
        let mut chip2 = test_chip(8);
        chip2.write_bytes(0, &vec![0x00u8; 8192]);
        chip2.retention_test(3600.0 * 4.0);
        assert_eq!(
            chip2.read_bytes(0, 8192),
            vec![0x00u8; 8192],
            "zero pattern in true cells must be immune to retention errors"
        );
        // Sanity: the all-ones pattern did see decay at this window.
        assert_ne!(read, vec![0xFFu8; 8192]);
    }

    #[test]
    fn anti_cell_regions_decay_zeros_to_ones() {
        let config = ChipConfig {
            cell_layout: CellLayout::AllAnti,
            ..ChipConfig::small_test_chip(9)
        };
        let count_errors = |pattern: u8| -> usize {
            let mut chip = SimChip::new(config.clone());
            chip.write_bytes(0, &vec![pattern; 8192]);
            chip.retention_test(3600.0 * 4.0);
            chip.read_bytes(0, 8192)
                .iter()
                .map(|b| (b ^ pattern).count_ones() as usize)
                .sum()
        };
        // 0-data in anti cells is CHARGED: heavy decay.
        let zeros = count_errors(0x00);
        assert!(zeros > 0, "anti cells: 0-data is CHARGED and must decay");
        // 1-data leaves only (some) parity cells charged; far fewer errors
        // reach the data (only via parity-driven miscorrections). Note the
        // all-ones *dataword* is NOT fully immune — immunity requires the
        // all-DISCHARGED *codeword*.
        let ones = count_errors(0xFF);
        assert!(
            ones < zeros / 4,
            "expected far fewer errors with discharged data cells: {ones} vs {zeros}"
        );
    }

    #[test]
    fn temperature_accelerates_failures() {
        let count_errors = |celsius: f64| -> usize {
            let mut chip = test_chip(10);
            chip.set_temperature(celsius);
            chip.write_bytes(0, &vec![0xFFu8; 8192]);
            chip.retention_test(1800.0);
            chip.read_bytes(0, 8192)
                .iter()
                .map(|b| (b ^ 0xFF).count_ones() as usize)
                .sum()
        };
        assert!(count_errors(95.0) > count_errors(45.0));
    }

    #[test]
    fn same_model_chips_share_the_ecc_function() {
        let c1 = SimChip::new(ChipConfig::lpddr4_like(Manufacturer::A, 3, 100));
        let c2 = SimChip::new(ChipConfig::lpddr4_like(Manufacturer::A, 3, 200));
        let c3 = SimChip::new(ChipConfig::lpddr4_like(Manufacturer::A, 4, 100));
        assert_eq!(
            c1.reveal_code().parity_submatrix(),
            c2.reveal_code().parity_submatrix()
        );
        assert_ne!(
            c1.reveal_code().parity_submatrix(),
            c3.reveal_code().parity_submatrix()
        );
    }

    #[test]
    fn dataword_index_api_matches_byte_api() {
        let mut chip = test_chip(11);
        let data = bytes_to_bits(&[0xDE, 0xAD, 0xBE, 0xEF]);
        chip.write_dataword(2, &data);
        // Word 2 under interleaved pairs of 4 bytes: region 1, even offsets.
        let addr0 = chip.config().word_layout.addr_of(2, 0);
        let b = chip.read_bytes(addr0, 1);
        assert_eq!(b[0], 0xDE);
        assert_eq!(chip.read_dataword(2), data);
    }

    #[test]
    fn rewriting_clears_accumulated_errors() {
        let mut chip = test_chip(12);
        chip.write_bytes(0, &vec![0xFFu8; 8192]);
        chip.retention_test(3600.0 * 24.0);
        // Rewrite restores every cell.
        chip.write_bytes(0, &vec![0xFFu8; 8192]);
        assert_eq!(chip.read_bytes(0, 8192), vec![0xFFu8; 8192]);
    }

    #[test]
    fn forked_chip_fails_identically() {
        let mut chip = test_chip(14);
        let mut fork = chip.fork().expect("SimChip must be forkable");
        let data = vec![0xFFu8; 8192];
        chip.write_bytes(0, &data);
        fork.write_bytes(0, &data);
        chip.retention_test(3600.0);
        fork.retention_test(3600.0);
        assert_eq!(chip.read_bytes(0, 8192), fork.read_bytes(0, 8192));
    }

    #[test]
    fn seek_trial_replays_the_noise_stream() {
        let config = ChipConfig::small_test_chip(15).with_noise(TransientNoise {
            flip_probability: 1e-3,
        });
        let data = vec![0x00u8; 8192];
        // Serial run: trials 0 and 1 back to back; capture trial 1's view.
        let serial = {
            let mut chip = SimChip::new(config.clone());
            chip.write_bytes(0, &data);
            chip.retention_test(1.0);
            chip.write_bytes(0, &data);
            chip.retention_test(1.0);
            chip.read_bytes(0, 8192)
        };
        // Out-of-order worker: jump straight to trial 1.
        let seeked = {
            let mut chip = SimChip::new(config);
            chip.seek_trial(1);
            chip.write_bytes(0, &data);
            chip.retention_test(1.0);
            chip.read_bytes(0, 8192)
        };
        assert_eq!(
            serial, seeked,
            "trial seek must reproduce the serial stream"
        );
    }

    #[test]
    fn transient_noise_can_flip_against_the_gradient() {
        let config = ChipConfig::small_test_chip(13).with_noise(TransientNoise {
            flip_probability: 1e-3,
        });
        let mut chip = SimChip::new(config);
        // All-zero data in true cells: retention alone can never corrupt it.
        chip.write_bytes(0, &vec![0x00u8; 8192]);
        let mut any = false;
        for _ in 0..20 {
            chip.retention_test(1.0);
            if chip.read_bytes(0, 8192) != vec![0x00u8; 8192] {
                any = true;
                break;
            }
        }
        assert!(any, "transient noise never flipped any observable bit");
    }
}
