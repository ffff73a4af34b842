//! What a BEER campaign *costs*: recover a (136, 128) LPDDR4-style on-die
//! ECC function over the cycle-accurate timed backend at two temperatures,
//! and compare the simulated DRAM hours against the host-side solve
//! milliseconds.
//!
//! The paper prices its experiments in DRAM time — every retention trial
//! pins the array for a full refresh window while the SAT solve takes
//! milliseconds (§6.3). Here both numbers come from one execution: a
//! clocked `ChipBackend` (`ChipBackend::with_params`) drives every trial
//! through a `beer_timing` controller (program sweep → refresh-paused
//! decay → readback), so each round's error profile and its simulated
//! nanoseconds derive from the same command stream. Temperature sets the exchange rate: the retention
//! model needs exponentially longer refresh windows at lower temperature
//! to reach the same raw bit-error rates, so the *same facts* cost vastly
//! more simulated hours at 45 °C than at 80 °C.
//!
//! Run with: `cargo run --release --example timed_campaign`

use beer::prelude::*;
use beer::timing::TimingParams;

/// BER targets of the refresh-window sweep (the quick plan's ladder).
const BER_TARGETS: [f64; 10] = [1e-3, 1e-2, 0.05, 0.1, 0.15, 0.25, 0.35, 0.4, 0.45, 0.499];

/// A (136, 128)-code chip, shrunk geometrically for a fast demo.
fn chip() -> SimChip {
    SimChip::new(
        ChipConfig::lpddr4_like(Manufacturer::A, 2, 0x7E_D5)
            .with_geometry(Geometry::new(2, 128, 512)),
    )
}

/// The refresh-window sweep reaching `BER_TARGETS` at `celsius` — same
/// error rates (same facts), temperature-dependent windows (different
/// cost).
fn plan_at(model: &RetentionModel, celsius: f64) -> CollectionPlan {
    CollectionPlan {
        trefw_schedule: BER_TARGETS
            .iter()
            .map(|&b| model.window_for_ber(b, celsius))
            .collect(),
        celsius,
        trials_per_step: 8,
    }
}

fn main() {
    let probe = chip();
    let secret = probe.reveal_code().clone();
    let model = probe.config().retention;
    println!(
        "chip under test: ({}, {}) on-die ECC, {} x {}-bit words, {} banks",
        secret.n(),
        secret.k(),
        probe.num_words(),
        probe.k(),
        probe.geometry().banks(),
    );

    for celsius in [45.0, 80.0] {
        println!("\n=== campaign at {celsius} °C ===");
        let plan = plan_at(&model, celsius);
        println!(
            "    refresh windows: {:.1} s .. {:.1} s ({} trials/round)",
            plan.trefw_schedule.first().unwrap(),
            plan.trefw_schedule.last().unwrap(),
            plan.num_trials(),
        );

        let c = chip();
        let knowledge = ChipKnowledge::uniform(
            c.config().word_layout,
            CellType::True,
            c.geometry().total_rows(),
        );
        // Price one round up front by *executing* the plan on a scratch
        // controller — the same streams the backend will run.
        let round_ns = TimedCostModel::for_chip(TimingParams::lpddr4_3200(), &c.geometry())
            .round_sim_ns(&plan);
        let mut backend =
            ChipBackend::with_params(Box::new(c), knowledge, TimingParams::lpddr4_3200());
        println!(
            "    cost model: one collection round = {:.2} simulated hours",
            round_ns as f64 / 3.6e12
        );

        // The simulator is noise-free, so any single observation is a real
        // miscorrection and silence at this sampling depth is real absence
        // — the default filter's noise margins would only discard facts.
        let report = RecoveryConfig::new()
            .with_parity_bits(secret.parity_bits())
            .with_filter(ThresholdFilter {
                min_count: 1,
                min_fraction: 0.0,
                min_trials: 1,
            })
            .with_plan(plan)
            .session(&mut backend)
            .with_observer(|event| {
                if let RecoveryEvent::CheckCompleted {
                    round,
                    solutions,
                    sim_ns,
                    phases,
                    ..
                } = event
                {
                    println!(
                        "    round {round}: {solutions} candidate(s) — {:.2} simulated h \
                         of DRAM time, {} ms of host solve",
                        *sim_ns as f64 / 3.6e12,
                        phases.solve.as_millis(),
                    );
                }
            })
            .run_to_completion()
            .expect("simulated chips cannot fail collection");

        match report.outcome.unique_code() {
            Some(code) if equivalent(code, &secret) => println!("    recovered: MATCH"),
            Some(_) => println!("    recovered: MISMATCH"),
            None => println!("    outcome: {:?}", report.outcome),
        }
        let sim_hours = report.stats.dram_sim_ns as f64 / 3.6e12;
        println!(
            "    campaign total: {:.2} simulated DRAM hours for {:?} of host wall-clock \
             ({} rounds, {} facts)",
            sim_hours, report.stats.elapsed, report.stats.rounds, report.stats.facts_encoded,
        );
    }

    println!(
        "\nSame facts, different bill: the 45 °C campaign needs the same sweep of raw \
         bit-error rates, but each window is exponentially longer — the simulated hours \
         above are the cost the paper's §6.3 runtime model prices."
    );
}
