//! Semantics of the unified recovery session: deadline and cancellation,
//! checkpoint → replay reproducibility, panic containment, and typed
//! error propagation from the engine.

use beer::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn random_code(k: usize, seed: u64) -> beer::ecc::LinearCode {
    hamming::random_sec(k, &mut StdRng::seed_from_u64(seed))
}

/// A config whose schedule takes several rounds for a k-bit code: one
/// 1-CHARGED batch, then tiny 2-CHARGED chunks.
fn slow_schedule() -> RecoveryConfig {
    RecoveryConfig::new().with_chunked_schedule(2)
}

#[test]
fn session_advances_step_wise_and_matches_progressive_recover() {
    let code = random_code(11, 0x5E55_0001);
    let config = slow_schedule().with_parity_bits(code.parity_bits());

    // Step-wise: drive the state machine by hand.
    let mut stepped = AnalyticBackend::new(code.clone());
    let mut session = config.session(&mut stepped);
    let mut rounds = 0;
    while session.advance().expect("analytic") == SessionStatus::Running {
        rounds += 1;
        assert!(session.outcome().is_none());
        assert!(session.last_check().is_some());
    }
    assert_eq!(session.stats().rounds, rounds + 1);
    let stepped_report = session.into_report();
    let stepped_code = stepped_report.outcome.unique_code().expect("unique");

    // A one-call progressive run must reach the identical outcome.
    let mut backend = AnalyticBackend::new(code.clone());
    let report = config
        .session(&mut backend)
        .run_to_completion()
        .expect("analytic");
    let code = report.outcome.unique_code().expect("unique");
    assert_eq!(
        code.parity_submatrix(),
        stepped_code.parity_submatrix(),
        "one-call and step-wise sessions disagree"
    );
    assert_eq!(report.stats.rounds, stepped_report.stats.rounds);
    assert_eq!(
        report.stats.patterns_used,
        stepped_report.stats.patterns_used
    );
}

#[test]
fn zero_deadline_exhausts_before_any_round() {
    let code = random_code(10, 0x5E55_0002);
    let mut backend = AnalyticBackend::new(code.clone());
    let report = slow_schedule()
        .with_parity_bits(code.parity_bits())
        .with_deadline(Duration::ZERO)
        .session(&mut backend)
        .run_to_completion()
        .expect("budget exhaustion is an outcome, not an error");
    match report.outcome {
        RecoveryOutcome::BudgetExhausted { reason, partial } => {
            assert_eq!(reason, BudgetReason::Deadline);
            assert!(partial.is_empty(), "no check ran, so no candidates");
        }
        other => panic!("expected BudgetExhausted, got {other:?}"),
    }
    assert_eq!(report.stats.rounds, 0);
    assert!(report.last_check.is_none());
}

#[test]
fn cancellation_mid_session_reports_partial_candidates() {
    // k=6 shortened codes are typically ambiguous after 1-CHARGED alone
    // (Fig. 5), so the first round leaves candidates for `partial`.
    let code = random_code(6, 0x5E55_0003);
    let mut backend = AnalyticBackend::new(code.clone());
    let mut session = slow_schedule()
        .with_parity_bits(code.parity_bits())
        .with_max_solutions(50)
        .session(&mut backend);
    let token = session.cancel_token();
    let status = session.advance().expect("analytic");
    if status == SessionStatus::Finished {
        // Rare: already unique after round 1 — nothing to cancel.
        return;
    }
    let after_round_one = session.last_check().expect("one check ran").solutions.len();
    assert!(after_round_one > 1, "expected ambiguity after 1-CHARGED");
    token.cancel();
    assert_eq!(
        session.advance().expect("analytic"),
        SessionStatus::Finished
    );
    match session.into_report().outcome {
        RecoveryOutcome::BudgetExhausted { reason, partial } => {
            assert_eq!(reason, BudgetReason::Cancelled);
            assert_eq!(partial.len(), after_round_one);
            assert!(
                partial.iter().any(|c| equivalent(c, &code)),
                "true code must be among the partial candidates"
            );
        }
        other => panic!("expected cancellation, got {other:?}"),
    }
    // Cancelling again is idempotent.
    assert!(token.is_cancelled());
}

#[test]
fn checkpoint_replay_reproduces_the_outcome_bit_identically() {
    // Chip-backed session with trace recording; the checkpoint replayed
    // through a ReplayBackend must reproduce outcome and bookkeeping
    // exactly.
    let chip = SimChip::new(ChipConfig::small_test_chip(0x5E55_0005));
    let secret = chip.reveal_code().clone();
    let knowledge = ChipKnowledge::uniform(
        chip.config().word_layout,
        CellType::True,
        chip.geometry().total_rows(),
    );
    let mut backend = ChipBackend::new(Box::new(chip), knowledge);
    let config = RecoveryConfig::new()
        .with_parity_bits(secret.parity_bits())
        .with_chunked_schedule(16);
    let live = config
        .clone()
        .with_trace_recording(true)
        .session(&mut backend)
        .run_to_completion()
        .expect("simulated chip");
    let live_code = live.outcome.unique_code().expect("unique live recovery");
    assert!(equivalent(live_code, &secret));

    let trace = live.trace.expect("recording was on");
    // The checkpoint itself round-trips through the text format.
    let parsed = ProfileTrace::from_text(&trace.to_text()).expect("roundtrip");
    let mut replay = ReplayBackend::new(parsed);
    let replayed = config
        .session(&mut replay)
        .run_to_completion()
        .expect("checkpoint covers every batch the session re-requests");
    let replayed_code = replayed.outcome.unique_code().expect("unique replay");
    assert_eq!(
        live_code.parity_submatrix(),
        replayed_code.parity_submatrix(),
        "replayed recovery differs from the live run"
    );
    assert_eq!(live.stats.rounds, replayed.stats.rounds);
    assert_eq!(live.stats.patterns_used, replayed.stats.patterns_used);
    assert_eq!(live.stats.facts_encoded, replayed.stats.facts_encoded);
}

#[test]
fn replay_exhaustion_surfaces_as_a_typed_engine_error() {
    // Record only the 1-CHARGED family of an ambiguous (k = 6, shortened)
    // code; a progressive session over the replay needs 2-CHARGED evidence
    // the trace lacks — a typed error, not a panic or an empty profile.
    let code = random_code(6, 0x5E55_0007);
    let mut backend = AnalyticBackend::new(code.clone());
    let recording = RecoveryConfig::new()
        .with_parity_bits(code.parity_bits())
        .with_max_solutions(50)
        .with_pattern_family(PatternSet::One)
        .with_trace_recording(true)
        .session(&mut backend)
        .run_to_completion()
        .expect("analytic");
    match &recording.outcome {
        RecoveryOutcome::Ambiguous { count, .. } => assert!(*count > 1),
        RecoveryOutcome::Unique(_) => return, // rare seed: nothing to exhaust
        other => panic!("unexpected outcome {other:?}"),
    }

    let mut replay = ReplayBackend::new(recording.trace.expect("recording was on"));
    let err = RecoveryConfig::new()
        .with_parity_bits(code.parity_bits())
        .with_max_solutions(50)
        .with_chunked_schedule(4)
        .session(&mut replay)
        .run_to_completion()
        .expect_err("the trace lacks 2-CHARGED patterns");
    match err {
        RecoveryError::Engine(EngineError::TraceMissingPattern { pattern, recorded }) => {
            assert_eq!(recorded, 6, "six 1-CHARGED patterns were recorded");
            assert!(pattern.contains("2-CHARGED"), "got {pattern}");
        }
        other => panic!("expected TraceMissingPattern, got {other:?}"),
    }
}

#[test]
fn inconsistent_profiles_finish_with_a_typed_outcome() {
    // A trace claiming a physically impossible miscorrection (order-0
    // pattern with an observation) drives the session to Inconsistent.
    let text = "beer-trace v2\nk 4\npattern\nunit\nm 0 1 8\nt 0 8\n";
    let trace = ProfileTrace::from_text(text).expect("well-formed trace");
    let patterns = trace.patterns.clone();
    let mut replay = ReplayBackend::new(trace);
    let report = RecoveryConfig::new()
        .with_parity_bits(3)
        .with_batches(vec![patterns])
        .with_filter(ThresholdFilter::trusting())
        .session(&mut replay)
        .run_to_completion()
        .expect("replay serves the recorded pattern");
    assert!(matches!(report.outcome, RecoveryOutcome::Inconsistent));
}

#[test]
fn observer_sees_every_round_in_order() {
    let code = random_code(8, 0x5E55_0008);
    let mut backend = AnalyticBackend::new(code.clone());
    let mut log: Vec<String> = Vec::new();
    let report = RecoveryConfig::new()
        .with_parity_bits(code.parity_bits())
        .with_chunked_schedule(4)
        .session(&mut backend)
        .with_observer(|event| {
            log.push(match event {
                RecoveryEvent::BatchCollected { round, .. } => format!("collect:{round}"),
                RecoveryEvent::FactsPushed { round, .. } => format!("push:{round}"),
                RecoveryEvent::CounterexampleRepaired { round, .. } => format!("repair:{round}"),
                RecoveryEvent::CheckCompleted { round, .. } => format!("check:{round}"),
            });
        })
        .run_to_completion()
        .expect("analytic");
    let rounds = report.stats.rounds;
    assert!(rounds >= 1);
    // Each round emits collect → push → [repair] → check, in order.
    let mut expected_round = 0;
    for entry in &log {
        let (kind, round) = entry.split_once(':').unwrap();
        let round: usize = round.parse().unwrap();
        if kind == "collect" {
            expected_round += 1;
        }
        assert_eq!(round, expected_round, "event out of order: {log:?}");
    }
    assert_eq!(
        log.iter().filter(|e| e.starts_with("check:")).count(),
        rounds
    );
    assert_eq!(
        log.iter().filter(|e| e.starts_with("collect:")).count(),
        rounds
    );
}

/// A panic payload whose own `Drop` panics — the worst-case backend
/// failure. Dropping it after `catch_unwind` without a second guard would
/// unwind out of the worker that ran the session, poisoning shared locks
/// and killing that worker; it must surface as the session's typed error.
struct VenomousPayload;

impl Drop for VenomousPayload {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            panic!("venomous payload dropped");
        }
    }
}

struct VenomousBackend;

impl ProfileSource for VenomousBackend {
    fn k(&self) -> usize {
        8
    }

    fn label(&self) -> String {
        "venomous".to_string()
    }

    fn num_units(&self, _patterns: &[ChargedSet], _plan: &CollectionPlan) -> usize {
        1
    }

    fn run_unit(
        &mut self,
        _unit: usize,
        _patterns: &[ChargedSet],
        _plan: &CollectionPlan,
        _profile: &mut MiscorrectionProfile,
    ) -> Result<(), EngineError> {
        std::panic::panic_any(VenomousPayload);
    }
}

#[test]
fn guarded_session_contains_a_panic_payload_that_panics_on_drop() {
    let result = run_session_guarded(
        &RecoveryConfig::new(),
        "chip 7 (venomous)",
        &mut VenomousBackend,
        CancelToken::new(),
        |_| {},
    );
    match result {
        Err(RecoveryError::Engine(EngineError::Backend { backend, message })) => {
            assert_eq!(
                backend, "chip 7 (venomous)",
                "attributed to the passed label"
            );
            assert_eq!(message, "non-string panic payload");
        }
        other => panic!("expected the session's typed error, got {other:?}"),
    }
}

#[test]
fn service_worker_survives_a_job_whose_panic_payload_panics_on_drop() {
    let code = random_code(8, 0x5E55_0009);
    let trace = ProfileTrace::record(
        &mut AnalyticBackend::new(code.clone()),
        &PatternSet::OneTwo.patterns(code.k()),
        &CollectionPlan::quick(),
    );
    // One worker: the healthy job can only finish if the worker that ran
    // the venomous job is still alive.
    let service =
        RecoveryService::start(ServiceConfig::new().with_workers(1)).expect("valid config");
    let venomous = service
        .submit(JobRequest::source(
            "lab",
            "venomous",
            Box::new(VenomousBackend),
        ))
        .expect("admitted");
    let healthy = service
        .submit(JobRequest::trace("lab", trace))
        .expect("admitted");

    match service.wait(venomous) {
        Err(JobError::Recovery(RecoveryError::Engine(EngineError::Backend {
            backend,
            message,
        }))) => {
            assert!(backend.contains("venomous"), "got {backend:?}");
            assert_eq!(message, "non-string panic payload");
        }
        other => panic!("expected the job's typed failure, got {other:?}"),
    }
    assert_eq!(service.status(venomous), Some(JobState::Failed));
    let output = service.wait(healthy).expect("the worker survived");
    assert_eq!(service.status(healthy), Some(JobState::Done));
    let recovered = output.outcome.unique_code().expect("unique");
    assert!(equivalent(recovered, &code));
    service.shutdown();
}
