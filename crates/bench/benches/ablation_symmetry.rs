//! Ablation: the canonical row-order (symmetry-breaking) constraint.
//!
//! DESIGN.md §2 argues that within standard form the only residual freedom
//! is a permutation of the parity rows, and that lexicographic row
//! ordering is a *complete* symmetry break — making SAT-model counts equal
//! equivalence-class counts (what Figure 5 reports). This ablation removes
//! the constraint and checks both effects:
//!
//! * solution counts inflate by the number of distinct row arrangements,
//! * every extra solution is equivalent to a canonical one,
//! * enumeration gets slower for no informational gain.

use beer_bench::{banner, fmt_duration, CsvArtifact, Scale};
use beer_core::analytic::analytic_profile;
use beer_core::pattern::PatternSet;
use beer_core::solve::{solve_profile, BeerSolverOptions};
use beer_ecc::{equivalence, hamming};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let scale = Scale::from_env();
    banner(
        "ablation-symmetry",
        "canonical row ordering on vs. off",
        "without it, each function reappears once per distinct row arrangement",
    );
    let ks: Vec<usize> = scale.pick(vec![4, 6, 8, 11], vec![4, 6, 8, 11, 14, 16]);
    let codes_per_k = scale.pick(4, 10);
    let cap = 200;

    let mut csv = CsvArtifact::new(
        "ablation_symmetry",
        &[
            "k",
            "sym_solutions_med",
            "nosym_solutions_med",
            "sym_time_us_med",
            "nosym_time_us_med",
            "all_equivalent",
        ],
    );
    println!(
        "{:>4} | {:>12} {:>12} | {:>12} {:>12} | raw sols all equivalent to canonical?",
        "k", "sols (sym)", "sols (raw)", "time (sym)", "time (raw)"
    );

    let mut all_consistent = true;
    for &k in &ks {
        let mut sym_counts = Vec::new();
        let mut raw_counts = Vec::new();
        let mut sym_times = Vec::new();
        let mut raw_times = Vec::new();
        let mut equivalent_ok = true;
        for ci in 0..codes_per_k {
            let mut rng = StdRng::seed_from_u64(0xAB1A + (k * 100 + ci) as u64);
            let code = hamming::random_sec(k, &mut rng);
            let profile = analytic_profile(&code, &PatternSet::OneTwo.patterns(k));

            let sym = solve_profile(
                k,
                code.parity_bits(),
                &profile,
                &BeerSolverOptions {
                    max_solutions: cap,
                    ..BeerSolverOptions::default()
                },
            )
            .expect("well-formed profile");
            let raw = solve_profile(
                k,
                code.parity_bits(),
                &profile,
                &BeerSolverOptions {
                    max_solutions: cap,
                    symmetry_breaking: false,
                },
            )
            .expect("well-formed profile");
            sym_counts.push(sym.solutions.len());
            raw_counts.push(raw.solutions.len());
            sym_times.push(sym.total_time);
            raw_times.push(raw.total_time);
            // Every raw solution must collapse onto a canonical one.
            for s in &raw.solutions {
                if !sym.solutions.iter().any(|c| equivalence::equivalent(c, s)) {
                    equivalent_ok = false;
                }
            }
            // With {1,2}-CHARGED the canonical count must be exactly 1.
            if sym.solutions.len() != 1 {
                equivalent_ok = false;
            }
        }
        sym_counts.sort_unstable();
        raw_counts.sort_unstable();
        sym_times.sort_unstable();
        raw_times.sort_unstable();
        let mid = codes_per_k / 2;
        println!(
            "{k:>4} | {:>12} {:>12} | {:>12} {:>12} | {}",
            sym_counts[mid],
            raw_counts[mid],
            fmt_duration(sym_times[mid]),
            fmt_duration(raw_times[mid]),
            equivalent_ok
        );
        csv.row_display(&[
            k.to_string(),
            sym_counts[mid].to_string(),
            raw_counts[mid].to_string(),
            sym_times[mid].as_micros().to_string(),
            raw_times[mid].as_micros().to_string(),
            equivalent_ok.to_string(),
        ]);
        all_consistent &= equivalent_ok;
        all_consistent &= raw_counts[mid] >= sym_counts[mid];
    }
    csv.write();

    println!(
        "\nshape {}: symmetry breaking collapses row-permutation duplicates without losing functions",
        if all_consistent { "HOLDS" } else { "VIOLATED" }
    );
}
