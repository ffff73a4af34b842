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
//! one, so the campaign converges in one round instead of three. The
//! simulator is deterministic, so the round counts and the exact 3:1
//! simulated-time ratio are pinned, at a warm and a hot temperature.

use beer::prelude::*;
use beer::timing::trial_cost;

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

/// Runs one full recovery campaign under `schedule`, asserting it
/// recovers the planted code, and returns `(rounds, simulated ns)`.
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

fn assert_cost_aware_beats_naive(celsius: f64) {
    let probe = chip();
    let k = probe.k();
    let model = TimedCostModel::new(
        TimingParams::ddr4_3200(),
        ArrayGeometry::of_chip(&probe.geometry()),
    );
    let plan = plan_at(&probe, celsius);

    let naive = PatternSchedule::Batches(NAIVE_ORDER.iter().map(|f| f.patterns(k)).collect());
    let (aware, _) = PatternSchedule::cost_aware(&NAIVE_ORDER, k, &plan, &model);
    let (naive_rounds, naive_ns) = run_campaign(&plan, naive);
    let (aware_rounds, aware_ns) = run_campaign(&plan, aware);

    assert_eq!(naive_rounds, 3, "{celsius} °C: naive order rounds");
    assert_eq!(aware_rounds, 1, "{celsius} °C: cost-aware order rounds");
    // Every round costs the same simulated time, so one round in three
    // is exactly a third of the naive campaign.
    assert_eq!(
        aware_ns * 3,
        naive_ns,
        "{celsius} °C: cost-aware {aware_ns} sim ns vs naive {naive_ns} sim ns"
    );
}

#[test]
fn cost_aware_campaign_takes_a_third_of_the_naive_time_at_45c() {
    assert_cost_aware_beats_naive(45.0);
}

#[test]
fn cost_aware_campaign_takes_a_third_of_the_naive_time_at_80c() {
    assert_cost_aware_beats_naive(80.0);
}

#[test]
fn retention_wait_dominates_every_trial() {
    // A trial's cost is its refresh-paused wait: programming and reading
    // the array back are over a million times cheaper at every window.
    let probe = chip();
    let params = TimingParams::ddr4_3200();
    let geom = ArrayGeometry::of_chip(&probe.geometry());
    for celsius in [45.0, 80.0] {
        for window in plan_at(&probe, celsius).trefw_schedule {
            let cost = trial_cost(&params, &geom, window);
            assert!(
                cost.wait_ns > 1_000_000 * (cost.write_ns + cost.read_ns),
                "{celsius} °C, {window} s window: {cost:?}"
            );
        }
    }
}
