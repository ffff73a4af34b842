//! Figure 6: BEER runtime and memory usage versus ECC code length, split
//! into "determine function(s)" and "check uniqueness", using 1-CHARGED
//! profiles as in the paper's measurement — now including the paper's
//! flagship (136, 128) configuration at every scale, plus a dedicated
//! progressive {1,2}-CHARGED recovery of it (fig6c).
//!
//! Expected shape (paper): determine ≪ check-uniqueness; both runtime and
//! memory jump when the code crosses into the next parity-bit count.
//! Absolute numbers are far below the paper's (57 h median for k = 128 on
//! Z3) because this reproduction encodes the closed-form miscorrection
//! predicate instead of quantifying over raw error patterns, encodes only the
//! 1-CHARGED negative facts the other facts do not imply, and derives column
//! distinctness lazily — see EXPERIMENTS.md.

use beer_bench::{banner, fmt_bytes, fmt_duration, CsvArtifact, Scale};
use beer_core::engine::AnalyticBackend;
use beer_core::pattern::{ChargedSet, PatternSet};
use beer_core::recovery::{RecoveryConfig, RecoveryReport};
use beer_core::solve::{solve_profile, BeerSolverOptions};
use beer_ecc::{hamming, LinearCode};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

fn median<T: Copy + Ord>(xs: &mut [T]) -> T {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

/// One-shot 1-CHARGED recovery of `code` through a `RecoverySession` over
/// its analytic backend — the bench's unit of measurement.
fn one_charged_session(code: &LinearCode, p: usize, max_solutions: usize) -> RecoveryReport {
    let mut backend = AnalyticBackend::new(code.clone());
    RecoveryConfig::new()
        .with_parity_bits(p)
        .with_pattern_family(PatternSet::One)
        .with_solver_options(BeerSolverOptions {
            max_solutions,
            ..BeerSolverOptions::default()
        })
        .session(&mut backend)
        .run_to_completion()
        .expect("analytic backends cannot fail")
}

fn main() {
    let start = Instant::now();
    let scale = Scale::from_env();
    banner(
        "fig6",
        "BEER runtime and memory vs. code length (1-CHARGED)",
        "determine << check-uniqueness; jumps at each added parity bit",
    );
    let ks: Vec<usize> = scale.pick3(
        vec![4, 8, 16, 32, 91, 120, 128],
        vec![4, 8, 11, 16, 26, 32, 45, 57, 64, 91, 120, 128],
        vec![
            4, 8, 11, 16, 26, 32, 45, 57, 64, 80, 91, 100, 120, 128, 180, 247,
        ],
    );
    let codes_per_k = scale.pick3(2, 5, 10);
    println!("sweep: k in {ks:?}, {codes_per_k} random codes per k\n");

    let mut csv = CsvArtifact::new(
        "fig06_beer_performance",
        &[
            "k",
            "parity_bits",
            "determine_us_min",
            "determine_us_med",
            "determine_us_max",
            "total_us_min",
            "total_us_med",
            "total_us_max",
            "memory_bytes_med",
            "vars",
            "clauses",
        ],
    );
    println!(
        "{:>5} {:>3} | {:>12} {:>12} | {:>12} {:>12} | {:>10} {:>9} {:>9}",
        "k",
        "p",
        "determine",
        "uniqueness",
        "total(med)",
        "total(max)",
        "memory",
        "vars",
        "clauses"
    );

    let mut prev_total_med = Duration::ZERO;
    let mut monotone_jumps = true;
    let mut prev_p = 0usize;
    for &k in &ks {
        let p = hamming::parity_bits_for(k);
        let mut determines: Vec<Duration> = Vec::new();
        let mut totals: Vec<Duration> = Vec::new();
        let mut memories: Vec<usize> = Vec::new();
        let mut vars = 0;
        let mut clauses = 0;
        for ci in 0..codes_per_k {
            let mut rng = StdRng::seed_from_u64(0xF6_0000 + (k * 100 + ci) as u64);
            let code = hamming::random_sec(k, &mut rng);
            let report = one_charged_session(&code, p, 64);
            let check = report.last_check.expect("one round always runs");
            determines.push(check.determine_time);
            totals.push(check.total_time);
            memories.push(check.solver_stats.memory_bytes);
            vars = check.num_vars;
            clauses = check.num_clauses;
        }
        let d_med = median(&mut determines.clone());
        let t_med = median(&mut totals.clone());
        let m_med = median(&mut memories.clone());
        println!(
            "{k:>5} {p:>3} | {:>12} {:>12} | {:>12} {:>12} | {:>10} {:>9} {:>9}",
            fmt_duration(d_med),
            fmt_duration(t_med.saturating_sub(d_med)),
            fmt_duration(t_med),
            fmt_duration(*totals.iter().max().unwrap()),
            fmt_bytes(m_med),
            vars,
            clauses
        );
        determines.sort_unstable();
        totals.sort_unstable();
        csv.row_display(&[
            k.to_string(),
            p.to_string(),
            determines[0].as_micros().to_string(),
            d_med.as_micros().to_string(),
            determines[determines.len() - 1].as_micros().to_string(),
            totals[0].as_micros().to_string(),
            t_med.as_micros().to_string(),
            totals[totals.len() - 1].as_micros().to_string(),
            m_med.to_string(),
            vars.to_string(),
            clauses.to_string(),
        ]);
        if p > prev_p && prev_p != 0 && t_med < prev_total_med {
            // A parity-bit jump should not *reduce* the median runtime.
            monotone_jumps = false;
        }
        prev_total_med = t_med;
        prev_p = p;
    }
    csv.meta(
        "wall_clock_s",
        format!("{:.3}", start.elapsed().as_secs_f64()),
    );
    csv.write();

    println!(
        "\nshape {}: runtime grows with code length{}",
        if monotone_jumps { "HOLDS" } else { "UNCLEAR" },
        if monotone_jumps {
            ", with jumps at parity-bit boundaries"
        } else {
            " (non-monotone at some parity-bit boundary)"
        }
    );
    println!(
        "note: absolute numbers are orders of magnitude below the paper's Z3\n\
         measurements by design — the reduced encoding solves the same problem."
    );

    progressive_vs_reencoding(scale);
    k128_flagship(scale);
}

/// §6.3: the progressive pipeline (a `RecoverySession` streaming batches
/// into its incremental SAT session, stop at uniqueness) versus the same
/// schedule with one-shot re-encoding of every accumulated constraint each
/// round (`solve_profile`, i.e. a fresh `ProgressiveSolver` per round with
/// one push and one check — the low-level baseline this comparison exists
/// to beat). The EXPERIMENTS.md table for this section predates
/// `solve_profile` running through `ProgressiveSolver`.
fn progressive_vs_reencoding(scale: Scale) {
    println!("\n================================================================");
    println!("fig6b: progressive (incremental session) vs one-shot re-encoding");
    println!("================================================================");
    let ks: Vec<usize> = scale.pick3(
        vec![8, 16],
        vec![8, 11, 16, 24, 32],
        vec![8, 11, 16, 24, 32, 48, 64],
    );
    let codes_per_k = scale.pick3(2, 5, 10);
    let options = BeerSolverOptions {
        max_solutions: 2,
        ..BeerSolverOptions::default()
    };

    let mut csv = CsvArtifact::new(
        "fig06_progressive_speedup",
        &[
            "k",
            "rounds_med",
            "patterns_used_med",
            "patterns_available",
            "incremental_us_med",
            "reencode_us_med",
            "speedup_med",
        ],
    );
    println!(
        "{:>5} | {:>6} {:>9} | {:>12} {:>12} | {:>8}",
        "k", "rounds", "patterns", "incremental", "re-encode", "speedup"
    );

    let mut overall: Vec<f64> = Vec::new();
    for &k in &ks {
        let p = hamming::parity_bits_for(k);
        let mut inc_times: Vec<Duration> = Vec::new();
        let mut re_times: Vec<Duration> = Vec::new();
        let mut rounds_used: Vec<usize> = Vec::new();
        let mut patterns_used: Vec<usize> = Vec::new();
        let mut patterns_available = 0usize;
        for ci in 0..codes_per_k {
            let mut rng = StdRng::seed_from_u64(0xF6B_0000 + (k * 100 + ci) as u64);
            let code = hamming::random_sec(k, &mut rng);
            // Small batches model interleaved collection: a handful of
            // patterns arrive, a uniqueness check runs, repeat. This is
            // where re-encoding hurts — every round pays for all prior
            // constraints again.
            let chunk = (k / 4).max(4);
            let all: Vec<ChargedSet> = PatternSet::OneTwo.patterns(k);
            let batches: Vec<Vec<ChargedSet>> = all.chunks(chunk).map(|c| c.to_vec()).collect();
            patterns_available = batches.iter().map(|b| b.len()).sum();

            // Incremental arm: a RecoverySession streams each batch into
            // its live SAT session, reusing the encoding and every learned
            // clause across rounds.
            let start = Instant::now();
            let mut backend = AnalyticBackend::new(code.clone());
            let report = RecoveryConfig::new()
                .with_parity_bits(p)
                .with_batches(batches.clone())
                .with_solver_options(options)
                .session(&mut backend)
                .run_to_completion()
                .expect("analytic backends cannot fail");
            inc_times.push(start.elapsed());
            rounds_used.push(report.stats.rounds);
            patterns_used.push(report.stats.patterns_used);

            // Baseline: identical schedule and (analytic) constraints, but
            // every round re-encodes all accumulated facts into a fresh
            // solver via the low-level one-shot entry point.
            let start = Instant::now();
            let mut accumulated = beer_core::profile::ProfileConstraints {
                k,
                entries: Vec::new(),
            };
            for batch in &batches {
                let constraints = beer_core::analytic::analytic_profile(&code, batch);
                accumulated.entries.extend(constraints.entries);
                if solve_profile(k, p, &accumulated, &options)
                    .expect("well-formed constraints")
                    .is_unique()
                {
                    break;
                }
            }
            re_times.push(start.elapsed());
        }
        let inc_med = median(&mut inc_times.clone());
        let re_med = median(&mut re_times.clone());
        let rounds_med = median(&mut rounds_used.clone());
        let patterns_med = median(&mut patterns_used.clone());
        let speedup = re_med.as_secs_f64() / inc_med.as_secs_f64().max(1e-12);
        overall.push(speedup);
        println!(
            "{k:>5} | {rounds_med:>6} {:>9} | {:>12} {:>12} | {speedup:>7.2}x",
            format!("{patterns_med}/{patterns_available}"),
            fmt_duration(inc_med),
            fmt_duration(re_med),
        );
        csv.row_display(&[
            k.to_string(),
            rounds_med.to_string(),
            patterns_med.to_string(),
            patterns_available.to_string(),
            inc_med.as_micros().to_string(),
            re_med.as_micros().to_string(),
            format!("{speedup:.3}"),
        ]);
    }
    csv.write();
    overall.sort_by(|a, b| a.partial_cmp(b).unwrap());
    println!(
        "\nmedian speedup across k: {:.2}x (incremental sessions reuse the\n\
         encoding and learned clauses instead of re-encoding each round)",
        overall[overall.len() / 2]
    );
}

/// fig6c: the paper's flagship configuration — progressive {1,2}-CHARGED
/// recovery of random (136, 128) SEC codes, the scenario the paper reports
/// at a 57-hour median on Z3 (§6.3).
fn k128_flagship(scale: Scale) {
    println!("\n================================================================");
    println!("fig6c: flagship (136, 128) progressive {{1,2}}-CHARGED recovery");
    println!("================================================================");
    let codes = scale.pick3(1, 3, 10);
    let mut csv = CsvArtifact::new(
        "fig06_k128_flagship",
        &[
            "seed",
            "unique",
            "rounds",
            "patterns_used",
            "patterns_available",
            "facts_encoded",
            "pinned_vars",
            "vars",
            "clauses",
            "total_us",
        ],
    );
    println!(
        "{:>5} | {:>6} {:>7} {:>13} {:>7} {:>7} | {:>9} {:>9} | {:>10}",
        "seed", "unique", "rounds", "patterns", "facts", "pinned", "vars", "clauses", "total"
    );
    let start = Instant::now();
    let mut all_unique = true;
    for seed in 0..codes {
        let mut rng = StdRng::seed_from_u64(0xF6C_0000 + seed as u64);
        let code = hamming::random_sec(128, &mut rng);
        let mut backend = AnalyticBackend::new(code.clone());
        let report = RecoveryConfig::new()
            .with_parity_bits(8)
            .with_chunked_schedule(64)
            .session(&mut backend)
            .run_to_completion()
            .expect("analytic backends cannot fail");
        let unique = report.outcome.is_unique();
        all_unique &= unique;
        let stats = &report.stats;
        let check = report.last_check.as_ref().expect("one round always runs");
        println!(
            "{seed:>5} | {:>6} {:>7} {:>13} {:>7} {:>7} | {:>9} {:>9} | {:>10}",
            unique,
            stats.rounds,
            format!("{}/{}", stats.patterns_used, stats.patterns_available),
            stats.facts_encoded,
            stats.pinned_vars,
            check.num_vars,
            check.num_clauses,
            fmt_duration(stats.elapsed),
        );
        csv.row_display(&[
            seed.to_string(),
            unique.to_string(),
            stats.rounds.to_string(),
            stats.patterns_used.to_string(),
            stats.patterns_available.to_string(),
            stats.facts_encoded.to_string(),
            stats.pinned_vars.to_string(),
            check.num_vars.to_string(),
            check.num_clauses.to_string(),
            stats.elapsed.as_micros().to_string(),
        ]);
    }
    csv.meta("k", 128);
    csv.meta("parity_bits", 8);
    csv.meta(
        "wall_clock_s",
        format!("{:.3}", start.elapsed().as_secs_f64()),
    );
    csv.write();
    println!(
        "\nflagship {}: every (136, 128) code recovered uniquely from\n\
         progressive {{1,2}}-CHARGED constraints (paper: 57 h median on Z3)",
        if all_unique { "HOLDS" } else { "FAILS" }
    );
    // The CI smoke step relies on this bench's exit status.
    assert!(all_unique, "flagship (136, 128) recovery regressed");
}
