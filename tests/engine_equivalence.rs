//! Cross-backend equivalence: the profiling engine must extract the same
//! miscorrection facts from every backend — live simulated chip, exact
//! analytic model, EINSim Monte-Carlo, and recorded-trace replay — and a
//! chunked recovery session must agree with a solve of the full schedule
//! while encoding strictly less.

use beer::prelude::*;
use beer::timing::TimingParams;

fn collect(
    source: &mut dyn ProfileSource,
    patterns: &[ChargedSet],
    plan: &CollectionPlan,
) -> MiscorrectionProfile {
    try_collect_with(source, patterns, plan, &EngineOptions::default())
        .expect("simulated backends cannot fail collection")
}

fn chip_and_secret(seed: u64) -> (ChipBackend, beer::ecc::LinearCode) {
    let chip =
        SimChip::new(ChipConfig::small_test_chip(seed).with_geometry(Geometry::new(1, 128, 128)));
    let secret = chip.reveal_code().clone();
    let knowledge = ChipKnowledge::uniform(
        chip.config().word_layout,
        CellType::True,
        chip.geometry().total_rows(),
    );
    (ChipBackend::new(Box::new(chip), knowledge), secret)
}

#[test]
fn all_backends_produce_identical_constraints() {
    let (mut chip_backend, secret) = chip_and_secret(0xE0_01);
    let k = secret.k();
    let patterns = PatternSet::One.patterns(k);
    let plan = CollectionPlan::quick();
    let filter = ThresholdFilter::default();

    let from_chip = collect(&mut chip_backend, &patterns, &plan).to_constraints(&filter);

    let mut analytic = AnalyticBackend::new(secret.clone());
    let from_analytic = collect(&mut analytic, &patterns, &plan).to_constraints(&filter);

    let mut einsim = EinsimBackend::new(secret.clone(), 3000, 0xE1);
    let from_einsim = collect(&mut einsim, &patterns, &plan).to_constraints(&filter);

    // Record the chip run and replay it through the trace backend.
    let trace = ProfileTrace::record(&mut chip_backend, &patterns, &plan);
    let text = trace.to_text();
    let mut replay = ReplayBackend::new(ProfileTrace::from_text(&text).expect("trace roundtrip"));
    let from_replay = collect(&mut replay, &patterns, &plan).to_constraints(&filter);

    // The analytic profile is the exact ground truth; every backend must
    // reproduce it fact for fact.
    let truth = analytic_profile(&secret, &patterns);
    assert_eq!(from_analytic, truth, "analytic backend diverged");
    assert_eq!(from_chip, truth, "chip backend diverged");
    assert_eq!(from_einsim, truth, "einsim backend diverged");
    assert_eq!(from_replay, truth, "replay backend diverged");
}

#[test]
fn every_backend_recovers_the_same_code() {
    let (mut chip_backend, secret) = chip_and_secret(0xE0_02);
    let k = secret.k();
    let patterns = PatternSet::One.patterns(k);
    let plan = CollectionPlan::quick();

    let mut backends: Vec<Box<dyn ProfileSource>> = vec![
        Box::new(AnalyticBackend::new(secret.clone())),
        Box::new(EinsimBackend::new(secret.clone(), 3000, 0xE2)),
        Box::new(ReplayBackend::new(ProfileTrace::record(
            &mut chip_backend,
            &patterns,
            &plan,
        ))),
    ];

    for backend in &mut backends {
        let profile = collect(backend.as_mut(), &patterns, &plan);
        let report = solve_profile(
            k,
            secret.parity_bits(),
            &profile.to_constraints(&ThresholdFilter::default()),
            &BeerSolverOptions::default(),
        )
        .expect("well-formed profile");
        assert!(
            report.is_unique(),
            "backend {} did not yield a unique solution",
            backend.label()
        );
        assert!(
            equivalent(&report.solutions[0], &secret),
            "backend {} recovered the wrong code",
            backend.label()
        );
    }
}

fn timed_chip_and_secret(seed: u64) -> (ChipBackend, beer::ecc::LinearCode) {
    let chip =
        SimChip::new(ChipConfig::small_test_chip(seed).with_geometry(Geometry::new(1, 128, 128)));
    let secret = chip.reveal_code().clone();
    let knowledge = ChipKnowledge::uniform(
        chip.config().word_layout,
        CellType::True,
        chip.geometry().total_rows(),
    );
    (
        ChipBackend::with_params(Box::new(chip), knowledge, TimingParams::ddr4_3200()),
        secret,
    )
}

#[test]
fn timed_backend_is_bit_identical_to_chip_backend() {
    // The timed backend executes every trial through a cycle-accurate
    // controller and derives its refresh window from the command stream —
    // timing must change the campaign's *cost*, never its *facts*.
    let (mut plain, secret) = chip_and_secret(0xE0_05);
    let (mut timed, _) = timed_chip_and_secret(0xE0_05);
    let k = secret.k();
    let patterns = PatternSet::One.patterns(k);
    let plan = CollectionPlan::quick();
    let filter = ThresholdFilter::default();

    let from_plain = collect(&mut plain, &patterns, &plan).to_constraints(&filter);
    let from_timed = collect(&mut timed, &patterns, &plan).to_constraints(&filter);
    assert_eq!(
        from_plain, from_timed,
        "timed and untimed backends extracted different facts"
    );

    // The untimed backend models no time; the timed one metered the
    // campaign — tens of simulated seconds for the quick plan's sweep.
    assert_eq!(plain.sim_elapsed_ns(), None);
    let sim_ns = timed.sim_elapsed_ns().expect("timed backends meter time");
    assert!(sim_ns > 1_000_000_000, "campaign cost only {sim_ns} ns");
}

#[test]
fn timed_backend_recovers_the_same_code_with_cost_accounted() {
    let (mut plain, secret) = chip_and_secret(0xE0_06);
    let (mut timed, _) = timed_chip_and_secret(0xE0_06);

    let config = RecoveryConfig::new().with_parity_bits(secret.parity_bits());
    let plain_report = config
        .session(&mut plain)
        .run_to_completion()
        .expect("untimed session");
    let timed_report = config
        .session(&mut timed)
        .run_to_completion()
        .expect("timed session");

    let a = plain_report.outcome.unique_code().expect("unique (plain)");
    let b = timed_report.outcome.unique_code().expect("unique (timed)");
    assert!(equivalent(a, b), "backends recovered different codes");
    assert!(equivalent(a, &secret), "recovered the wrong code");

    // Identical facts ⇒ identical round counts; only the timed session
    // carries simulated DRAM cost, in both its stats and its last check.
    assert_eq!(plain_report.stats.rounds, timed_report.stats.rounds);
    assert_eq!(plain_report.stats.dram_sim_ns, 0);
    assert!(timed_report.stats.dram_sim_ns > 0);
    let last = timed_report.last_check.expect("at least one check ran");
    assert_eq!(last.sim_ns, timed_report.stats.dram_sim_ns);
}

#[test]
fn progressive_matches_one_shot_with_fewer_constraints() {
    let (_, secret) = chip_and_secret(0xE0_03);
    let k = secret.k();
    let parity = secret.parity_bits();

    // The full {1,2}-CHARGED schedule, pushed and checked once.
    let full = PatternSet::OneTwo.patterns(k);
    let full_constraints = analytic_profile(&secret, &full);
    let one_shot = solve_profile(k, parity, &full_constraints, &BeerSolverOptions::default())
        .expect("well-formed profile");
    assert!(one_shot.is_unique());

    // Chunked: batches stream in until the solution is unique.
    let mut backend = AnalyticBackend::new(secret.clone());
    let report = RecoveryConfig::new()
        .with_parity_bits(parity)
        .with_chunked_schedule(k)
        .session(&mut backend)
        .run_to_completion()
        .expect("analytic backends cannot fail");
    let check = report.last_check.expect("at least one round ran");
    assert!(check.is_unique());
    assert!(
        equivalent(&check.solutions[0], &one_shot.solutions[0]),
        "progressive and one-shot recovered different codes"
    );
    assert!(
        equivalent(&check.solutions[0], &secret),
        "progressive recovered the wrong code"
    );
    assert!(
        report.stats.facts_encoded < full_constraints.definite_facts(),
        "progressive encoded {} facts, one-shot {} — no savings",
        report.stats.facts_encoded,
        full_constraints.definite_facts()
    );
    assert!(
        report.stats.patterns_used < report.stats.patterns_available,
        "progressive consumed the whole pattern schedule"
    );
}

#[test]
fn beep_runs_against_the_chip_interface() {
    // BEEP through the same DramInterface the engine drives: plant no
    // noise, let the chip's own retention model supply weak cells, and
    // check the adapter faithfully programs and reads words.
    let mut chip = SimChip::new(ChipConfig::small_test_chip(0xE0_04));
    let secret = chip.reveal_code().clone();
    let layout = chip.config().word_layout;
    let trefw = chip.config().retention.window_for_ber(0.05, 80.0);
    let k = chip.k();
    let n = chip.n();

    // Find a word with exactly two weak data cells whose combined syndrome
    // lands on a *data* column — the condition under which their joint
    // failure produces an observable miscorrection BEEP can decode.
    let model = chip.config().retention;
    let word = (0..chip.num_words())
        .find(|&w| {
            let weak: Vec<usize> = (0..n)
                .filter(|&b| model.fails((w * n + b) as u64, trefw, 80.0))
                .collect();
            weak.len() == 2
                && weak.iter().all(|&c| c < k)
                && secret
                    .position_of_syndrome(secret.column(weak[0]) ^ secret.column(weak[1]))
                    .is_some_and(|p| p < k)
        })
        .expect("no suitable word");
    let expected: Vec<usize> = (0..n)
        .filter(|&b| model.fails((word * n + b) as u64, trefw, 80.0))
        .collect();

    let mut target = DramWordTarget::new(&mut chip, layout, word, trefw);
    let result = profile_word(&secret, &mut target, &BeepConfig::default());
    assert_eq!(result.discovered_sorted(), expected);
}
