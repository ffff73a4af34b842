//! Golden vectors for the simulated chip: everything a collection or a
//! byte-level user can observe of a `SimChip` is pinned to values computed
//! once, so any rewrite of the chip's storage, decode or decay paths must
//! reproduce them bit for bit.
//!
//! Two observables are pinned per chip configuration:
//!
//! * the `ProfileTrace` fingerprint of a short collection, once through the
//!   untimed `ChipBackend::new` and once through the LPDDR4-3200 timed
//!   backend (whose trials decay for the window the command stream spent;
//!   on chips this small that adds microseconds, so both backends observe
//!   the same failures and the timed pin guards the `with_params` path);
//! * an FNV-1a digest of every byte read back after a full write, unaligned
//!   partial writes that cross word and region boundaries, a retention
//!   pause, a read-modify-write into decayed words, and reads at odd
//!   offsets.

use beer::prelude::*;
use beer::timing::TimingParams;

/// A named chip configuration with its pinned observables.
struct Golden {
    name: &'static str,
    config: ChipConfig,
    /// Fingerprint through `ChipBackend::new`.
    untimed: u128,
    /// Fingerprint through `ChipBackend::with_params(.., lpddr4_3200())`.
    timed: u128,
    /// Digest of the byte-interface script.
    bytes: u64,
}

fn base(chip_seed: u64, word_bytes: usize, layout: WordLayout, cells: CellLayout) -> ChipConfig {
    ChipConfig {
        word_layout: layout,
        cell_layout: cells,
        ..ChipConfig::small_test_chip(chip_seed).with_word_bytes(word_bytes)
    }
}

fn goldens() -> Vec<Golden> {
    let interleaved = |wb| WordLayout::InterleavedPairs { word_bytes: wb };
    let contiguous = |wb| WordLayout::Contiguous { word_bytes: wb };
    vec![
        Golden {
            name: "interleaved, all true",
            config: base(0x601D_0001, 4, interleaved(4), CellLayout::AllTrue),
            untimed: 0x08ac_8006_ee52_2e00_893e_e542_f39f_96b1,
            timed: 0x08ac_8006_ee52_2e00_893e_e542_f39f_96b1,
            bytes: 0xa896_dfbb_6a0e_f9c3,
        },
        Golden {
            name: "contiguous, all true",
            config: base(0x601D_0002, 4, contiguous(4), CellLayout::AllTrue),
            untimed: 0x1696_8448_3345_43cd_f8de_2509_019e_775a,
            timed: 0x1696_8448_3345_43cd_f8de_2509_019e_775a,
            bytes: 0x9790_364d_0134_0be7,
        },
        Golden {
            name: "interleaved, all anti",
            config: base(0x601D_0003, 4, interleaved(4), CellLayout::AllAnti),
            untimed: 0x11fa_b172_e055_12f9_64b8_f062_03c8_556e,
            timed: 0x11fa_b172_e055_12f9_64b8_f062_03c8_556e,
            bytes: 0xe20c_b365_19c1_4c88,
        },
        Golden {
            name: "contiguous, all anti",
            config: base(0x601D_0004, 2, contiguous(2), CellLayout::AllAnti),
            untimed: 0x7906_56f8_a28b_cba1_186e_3501_f219_f270,
            timed: 0x7906_56f8_a28b_cba1_186e_3501_f219_f270,
            bytes: 0x7168_f419_5bcb_b514,
        },
        Golden {
            // 1664 rows of 32 bytes: a true block, an anti block, and the
            // start of the next true block.
            name: "interleaved, manufacturer C blocks",
            config: base(0x601D_0005, 2, interleaved(2), CellLayout::manufacturer_c())
                .with_geometry(Geometry::new(1, 1664, 32)),
            untimed: 0x23d0_5642_6f1a_9373_352d_4f88_fdc2_a2e4,
            timed: 0x23d0_5642_6f1a_9373_352d_4f88_fdc2_a2e4,
            bytes: 0xf91b_2859_4686_9959,
        },
        Golden {
            name: "interleaved, all true, transient noise",
            config: base(0x601D_0006, 4, interleaved(4), CellLayout::AllTrue).with_noise(
                TransientNoise {
                    flip_probability: 1e-4,
                },
            ),
            untimed: 0x1b57_415e_4b47_de09_bf17_5422_d559_e79e,
            timed: 0x1b57_415e_4b47_de09_bf17_5422_d559_e79e,
            bytes: 0xfce4_118c_d1ce_5327,
        },
        Golden {
            // k = 71 bits: codewords span two charge limbs.
            name: "interleaved, all true, two-limb codewords",
            config: base(0x601D_0007, 8, interleaved(8), CellLayout::AllTrue),
            untimed: 0x77e5_a7ef_723f_b3e7_f735_1905_c6ee_2b6a,
            timed: 0x77e5_a7ef_723f_b3e7_f735_1905_c6ee_2b6a,
            bytes: 0x23c4_3913_8489_cb87,
        },
    ]
}

/// Two windows (raw BER 10 % and 45 %) of two trials each.
fn plan(config: &ChipConfig) -> CollectionPlan {
    CollectionPlan {
        trefw_schedule: [0.1, 0.45]
            .iter()
            .map(|&ber| config.retention.window_for_ber(ber, 80.0))
            .collect(),
        celsius: 80.0,
        trials_per_step: 2,
    }
}

/// What the experimenter knows. An all-anti chip has no true-cell word to
/// profile, so its collection runs with a (wrong) all-true belief: the
/// engine still drives every anti-cell path of the chip.
fn knowledge(chip: &SimChip) -> ChipKnowledge {
    let rows = chip.geometry().total_rows();
    let layout = chip.config().word_layout;
    match chip.config().cell_layout {
        CellLayout::AllAnti => ChipKnowledge::uniform(layout, CellType::True, rows),
        ref cells => ChipKnowledge {
            word_layout: layout,
            row_cell_types: (0..rows).map(|r| cells.cell_type_of_row(r)).collect(),
        },
    }
}

fn fingerprint(config: &ChipConfig, timed: bool) -> u128 {
    let chip = SimChip::new(config.clone());
    let k = chip.k();
    let knowledge = knowledge(&chip);
    let mut backend = if timed {
        ChipBackend::with_params(Box::new(chip), knowledge, TimingParams::lpddr4_3200())
    } else {
        ChipBackend::new(Box::new(chip), knowledge)
    };
    let patterns = PatternSet::One.patterns(k);
    ProfileTrace::record(&mut backend, &patterns, &plan(config))
        .fingerprint()
        .0
}

fn fnv1a(digest: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *digest ^= u64::from(b);
        *digest = digest.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// Deterministic filler bytes.
fn filler(len: usize, salt: u64) -> Vec<u8> {
    let mut x = salt | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 24) as u8
        })
        .collect()
}

fn byte_digest(config: &ChipConfig) -> u64 {
    let mut chip = SimChip::new(config.clone());
    let total = chip.geometry().total_bytes();
    let region = 2 * config.word_bytes;
    let mut digest = 0xCBF2_9CE4_8422_2325;

    chip.write_bytes(0, &filler(total, 1));
    // Unaligned partial writes: an odd offset inside the first word, one
    // spanning a region boundary, and a single byte at the far end.
    chip.write_bytes(3, &filler(2 * region + 3, 2));
    chip.write_bytes(5 * region - 1, &filler(region + 2, 3));
    chip.write_bytes(total - 1, &[0x5A]);
    fnv1a(&mut digest, &chip.read_bytes(0, total));

    chip.set_temperature(85.0);
    chip.retention_test(config.retention.window_for_ber(0.3, 85.0));
    fnv1a(&mut digest, &chip.read_bytes(0, total));
    // Read-modify-write into decayed words, then reads at odd offsets.
    chip.write_bytes(7, &filler(3 * region + 1, 4));
    fnv1a(&mut digest, &chip.read_bytes(1, total - 2));
    fnv1a(&mut digest, &chip.read_bytes(region + 1, 2 * region + 3));
    fnv1a(&mut digest, &chip.read_bytes(total - 3, 3));
    for word in [0, 1, chip.num_words() - 1] {
        let data = chip.read_dataword(word);
        let bits: Vec<u8> = data.iter().map(u8::from).collect();
        fnv1a(&mut digest, &bits);
    }
    // A second pause decays what the first left standing.
    chip.retention_test(config.retention.window_for_ber(0.1, 85.0));
    fnv1a(&mut digest, &chip.read_bytes(0, total));
    digest
}

#[test]
fn sim_chip_golden_vectors() {
    let mut report = String::new();
    let mut mismatches = 0;
    for g in goldens() {
        let got = (
            fingerprint(&g.config, false),
            fingerprint(&g.config, true),
            byte_digest(&g.config),
        );
        if got != (g.untimed, g.timed, g.bytes) {
            mismatches += 1;
        }
        report.push_str(&format!(
            "{}: untimed 0x{:032x}, timed 0x{:032x}, bytes 0x{:016x}\n",
            g.name, got.0, got.1, got.2
        ));
    }
    assert_eq!(mismatches, 0, "golden vectors moved:\n{report}");
}
