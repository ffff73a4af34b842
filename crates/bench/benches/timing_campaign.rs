//! Simulated campaign cost under cycle-accurate timing: cost-aware
//! pattern scheduling vs. a naive family order.
//!
//! Every collection round costs the same simulated DRAM time (the plan's
//! refresh-window sweep, priced by executing it on a scratch
//! `beer_timing` controller), so a campaign's simulated cost is
//! `rounds × round_cost` — the scheduler earns its keep purely by
//! reaching uniqueness in fewer rounds. The naive order runs the
//! facts-poor families first (ALL-charged, then checkerboard, leaving
//! 1-CHARGED last); `PatternSchedule::cost_aware` ranks families by
//! projected facts per simulated second and front-loads the facts-rich
//! ones, so the campaign converges before paying for the cheap-looking
//! but uninformative rounds.
//!
//! Artifact: per refresh window × temperature trial-cost breakdown, plus
//! naive/cost-aware campaign totals and their ratio (gated in CI by
//! `ci/check_timing_campaign.py` — cost-aware must keep beating naive).

use beer_bench::{banner, CsvArtifact, Scale};
use beer_core::collect::{ChipKnowledge, CollectionPlan};
use beer_core::{
    ChipBackend, PatternSchedule, PatternSet, RecoveryConfig, ThresholdFilter, TimedCostModel,
};
use beer_dram::{CellType, ChipConfig, DramInterface, Geometry, SimChip};
use beer_ecc::equivalence::equivalent;
use beer_timing::{trial_cost, ArrayGeometry, TimingParams};

/// BER targets of the refresh-window ladder (the quick plan's sweep).
const BER_TARGETS: [f64; 6] = [1e-3, 1e-2, 0.1, 0.25, 0.4, 0.499];

/// Naive "simple patterns first" family order the scheduler competes
/// against: facts-poor families lead.
const NAIVE_ORDER: [PatternSet; 3] = [PatternSet::All, PatternSet::Checkered, PatternSet::One];

const SEED: u64 = 0x7C_A1;

fn chip() -> SimChip {
    SimChip::new(ChipConfig::small_test_chip(SEED).with_geometry(Geometry::new(1, 128, 128)))
}

fn plan_at(chip: &SimChip, celsius: f64) -> CollectionPlan {
    CollectionPlan {
        trefw_schedule: BER_TARGETS
            .iter()
            .map(|&b| chip.config().retention.window_for_ber(b, celsius))
            .collect(),
        celsius,
        trials_per_step: 8,
    }
}

/// Runs one full recovery campaign under `schedule`, returning
/// `(rounds, simulated ns)`.
fn run_campaign(plan: &CollectionPlan, schedule: PatternSchedule) -> (usize, u64) {
    let c = chip();
    let secret = c.reveal_code().clone();
    let knowledge = ChipKnowledge::uniform(
        c.config().word_layout,
        CellType::True,
        c.geometry().total_rows(),
    );
    let mut backend = ChipBackend::with_params(Box::new(c), knowledge, TimingParams::ddr4_3200());
    // The simulator is noise-free: one observation is a real
    // miscorrection, and silence at this sampling depth is real absence.
    let report = RecoveryConfig::new()
        .with_parity_bits(secret.parity_bits())
        .with_filter(ThresholdFilter {
            min_count: 1,
            min_fraction: 0.0,
            min_trials: 1,
        })
        .with_plan(plan.clone())
        .with_schedule(schedule)
        .session(&mut backend)
        .run_to_completion()
        .expect("simulated chips cannot fail collection");
    assert!(
        report
            .outcome
            .unique_code()
            .is_some_and(|code| equivalent(code, &secret)),
        "campaign did not uniquely recover the planted code: {:?}",
        report.outcome
    );
    (report.stats.rounds, report.stats.dram_sim_ns)
}

fn main() {
    banner(
        "timing",
        "campaign cost: cost-aware vs naive pattern order",
        "same facts either way; cost-aware reaches uniqueness in fewer rounds, so fewer simulated hours",
    );
    let scale = Scale::from_env();
    let temperatures: &[f64] = scale.pick3(&[80.0], &[45.0, 80.0], &[45.0, 80.0]);

    let probe = chip();
    let k = probe.k();
    let params = TimingParams::ddr4_3200();
    let geom = ArrayGeometry::of_chip(&probe.geometry());
    let model = TimedCostModel::new(params, geom);

    let mut csv = CsvArtifact::new(
        "timing_campaign",
        &[
            "celsius",
            "target_ber",
            "window_s",
            "write_ms",
            "wait_ms",
            "read_ms",
            "trial_total_ms",
            "commands",
        ],
    );

    let mut worst_ratio = 0.0f64;
    for &celsius in temperatures {
        let plan = plan_at(&probe, celsius);

        // Per-window trial-cost breakdown: the same executed streams the
        // backend runs, priced on scratch controllers.
        println!("\n-- {celsius} °C: per-window trial cost --");
        println!(
            "{:>10} {:>10} {:>12} {:>12} {:>12} {:>14}",
            "target BER", "window s", "write ms", "wait ms", "read ms", "trial total ms"
        );
        for (&ber, &window) in BER_TARGETS.iter().zip(&plan.trefw_schedule) {
            let cost = trial_cost(&params, &geom, window);
            println!(
                "{ber:>10} {:>10.1} {:>12.3} {:>12.1} {:>12.3} {:>14.1}",
                cost.window_seconds,
                cost.write_ns as f64 / 1e6,
                cost.wait_ns as f64 / 1e6,
                cost.read_ns as f64 / 1e6,
                cost.total_ns() as f64 / 1e6,
            );
            csv.row_display(&[
                format!("{celsius}"),
                format!("{ber}"),
                format!("{:.3}", cost.window_seconds),
                format!("{:.3}", cost.write_ns as f64 / 1e6),
                format!("{:.3}", cost.wait_ns as f64 / 1e6),
                format!("{:.3}", cost.read_ns as f64 / 1e6),
                format!("{:.3}", cost.total_ns() as f64 / 1e6),
                format!("{}", cost.commands),
            ]);
        }

        // The scheduler's view of the family ranking.
        let (aware_schedule, cost_report) =
            PatternSchedule::cost_aware(&NAIVE_ORDER, k, &plan, &model);
        println!("\n-- {celsius} °C: cost-aware family ranking --");
        for est in &cost_report.families {
            println!(
                "    {:?}: {} patterns, {} projected facts, {:.1} facts/sim-h",
                est.family,
                est.patterns,
                est.projected_facts,
                est.facts_per_sim_second * 3600.0
            );
        }

        let naive_schedule =
            PatternSchedule::Batches(NAIVE_ORDER.iter().map(|f| f.patterns(k)).collect());
        let (naive_rounds, naive_ns) = run_campaign(&plan, naive_schedule);
        let (aware_rounds, aware_ns) = run_campaign(&plan, aware_schedule);
        let ratio = aware_ns as f64 / naive_ns as f64;
        worst_ratio = worst_ratio.max(ratio);
        println!(
            "\n-- {celsius} °C: naive {naive_rounds} rounds = {:.2} sim h, \
             cost-aware {aware_rounds} rounds = {:.2} sim h (ratio {ratio:.3}) --",
            naive_ns as f64 / 3.6e12,
            aware_ns as f64 / 3.6e12,
        );
        csv.meta(&format!("naive_sim_ns_{celsius}"), naive_ns);
        csv.meta(&format!("aware_sim_ns_{celsius}"), aware_ns);
        csv.meta(&format!("naive_rounds_{celsius}"), naive_rounds);
        csv.meta(&format!("aware_rounds_{celsius}"), aware_rounds);
        csv.meta(&format!("ratio_{celsius}"), format!("{ratio:.6}"));
    }

    csv.meta("ratio", format!("{worst_ratio:.6}"));
    csv.write();

    println!(
        "\nshape {}",
        if worst_ratio < 1.0 {
            "HOLDS"
        } else {
            "VIOLATED"
        }
    );
}
