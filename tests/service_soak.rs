//! Service soak: 240 mixed jobs from 4 concurrent submitters —
//! duplicates, cancellations, deadline expiries, and one poisoned
//! backend — asserting no deadlock (a watchdog aborts a hung run),
//! deterministic registry contents, and service-equals-serial results.

use beer::prelude::*;
use beer::service::Registry;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

const SUBMITTERS: usize = 4;
const JOBS_PER_SUBMITTER: usize = 60;
const MAIN_POOL: usize = 12;
const EXPIRED_POOL: usize = 3;

fn record_trace(code: &LinearCode) -> ProfileTrace {
    let patterns = PatternSet::OneTwo.patterns(code.k());
    let mut backend = AnalyticBackend::new(code.clone());
    ProfileTrace::record(&mut backend, &patterns, &CollectionPlan::quick())
}

/// Distinct (pairwise inequivalent) random SEC codes.
fn distinct_codes(count: usize, seed: u64) -> Vec<LinearCode> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut codes: Vec<LinearCode> = Vec::new();
    while codes.len() < count {
        let candidate = hamming::random_sec(8, &mut rng);
        if !codes.iter().any(|c| equivalent(c, &candidate)) {
            codes.push(candidate);
        }
    }
    codes
}

/// A cancellable backend: many small units, so a cancel token always lands
/// mid-batch; records nothing.
#[derive(Clone)]
struct SlowSource;

impl ProfileSource for SlowSource {
    fn k(&self) -> usize {
        8
    }

    fn label(&self) -> String {
        "slow".to_string()
    }

    fn num_units(&self, _patterns: &[ChargedSet], _plan: &CollectionPlan) -> usize {
        2048
    }

    fn run_unit(
        &mut self,
        _unit: usize,
        _patterns: &[ChargedSet],
        _plan: &CollectionPlan,
        _profile: &mut MiscorrectionProfile,
    ) -> Result<(), EngineError> {
        std::thread::sleep(Duration::from_millis(1));
        Ok(())
    }
}

/// The poisoned backend: panics on its first unit.
#[derive(Clone)]
struct PoisonedSource;

impl ProfileSource for PoisonedSource {
    fn k(&self) -> usize {
        8
    }

    fn label(&self) -> String {
        "poisoned".to_string()
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
        panic!("poisoned backend detonated");
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Main(usize),
    Expired(usize),
    Cancelled,
    Poisoned,
}

#[test]
fn soak_240_mixed_jobs() {
    // No-deadlock guarantee: a hung run is aborted loudly instead of
    // wedging the test harness.
    std::thread::spawn(|| {
        std::thread::sleep(Duration::from_secs(240));
        eprintln!("service_soak watchdog fired: deadlock suspected");
        std::process::abort();
    });

    let registry_path =
        std::env::temp_dir().join(format!("beer_service_soak_{}.log", std::process::id()));
    let _ = std::fs::remove_file(&registry_path);
    let _ = std::fs::remove_dir_all(&registry_path);

    let main_codes = distinct_codes(MAIN_POOL, 0x50AC);
    let main_traces: Vec<ProfileTrace> = main_codes.iter().map(record_trace).collect();
    // Deadline-doomed profiles are distinct from the main pool so their
    // (never-recorded) fingerprints stay out of the registry.
    let expired_codes = distinct_codes(MAIN_POOL + EXPIRED_POOL, 0x50AC).split_off(MAIN_POOL);
    let expired_traces: Vec<ProfileTrace> = expired_codes.iter().map(record_trace).collect();

    let service = Arc::new(
        RecoveryService::start(
            ServiceConfig::new()
                .with_workers(4)
                .with_queue_capacity(512)
                .with_compact_after(24) // exercise auto-compaction mid-soak
                .with_registry_path(&registry_path),
        )
        .expect("start service"),
    );

    let poisoned_submitted = Arc::new(AtomicUsize::new(0));
    let mut submitters = Vec::new();
    for s in 0..SUBMITTERS {
        let service = Arc::clone(&service);
        let main_traces = main_traces.clone();
        let expired_traces = expired_traces.clone();
        let poisoned_submitted = Arc::clone(&poisoned_submitted);
        submitters.push(std::thread::spawn(move || {
            let tenant = format!("tenant-{s}");
            let mut jobs: Vec<(JobId, Kind)> = Vec::new();
            let mut main_count = 0usize;
            for i in 0..JOBS_PER_SUBMITTER {
                match i % 6 {
                    // Bulk of the load: every submitter sweeps the whole
                    // pool (offset per submitter), so every profile is
                    // duplicated across submitters.
                    0..=3 => {
                        let which = (s + main_count) % main_traces.len();
                        main_count += 1;
                        let id = service
                            .submit(JobRequest::trace(&tenant, main_traces[which].clone()))
                            .expect("main job admitted");
                        jobs.push((id, Kind::Main(which)));
                    }
                    // Deadline expiries: a zero deadline covers queue wait,
                    // so these always fail typed.
                    4 => {
                        let which = i % expired_traces.len();
                        let id = service
                            .submit(
                                JobRequest::trace(&tenant, expired_traces[which].clone())
                                    .with_deadline(Duration::ZERO),
                            )
                            .expect("expiring job admitted");
                        jobs.push((id, Kind::Expired(which)));
                    }
                    // Cancellations (plus exactly one poisoned backend).
                    _ => {
                        if poisoned_submitted.fetch_add(1, Ordering::SeqCst) == 0 {
                            let id = service
                                .submit(JobRequest::source(
                                    &tenant,
                                    "poisoned",
                                    Box::new(PoisonedSource),
                                ))
                                .expect("poisoned job admitted");
                            jobs.push((id, Kind::Poisoned));
                        } else {
                            let id = service
                                .submit(JobRequest::source(&tenant, "slow", Box::new(SlowSource)))
                                .expect("slow job admitted");
                            service.cancel(id);
                            jobs.push((id, Kind::Cancelled));
                        }
                    }
                }
            }
            jobs
        }));
    }
    let jobs: Vec<(JobId, Kind)> = submitters
        .into_iter()
        .flat_map(|h| h.join().expect("submitter thread"))
        .collect();
    assert_eq!(jobs.len(), SUBMITTERS * JOBS_PER_SUBMITTER);
    assert!(jobs.len() >= 200, "soak must drive at least 200 jobs");

    // Serial ground truth: what one session over each trace recovers.
    let serial: Vec<LinearCode> = main_traces
        .iter()
        .map(|trace| {
            let mut backend = ReplayBackend::new(trace.clone());
            let report = RecoveryConfig::new()
                .session(&mut backend)
                .run_to_completion()
                .expect("serial recovery");
            canonicalize(report.outcome.unique_code().expect("clean profile"))
        })
        .collect();

    // Every job terminates with its deterministic result class.
    for &(id, kind) in &jobs {
        let result = service.wait(id);
        match kind {
            Kind::Main(which) => {
                let output = result.unwrap_or_else(|e| panic!("main job {id}: {e}"));
                let code = output.outcome.unique_code().expect("unique recovery");
                // Fleet-equals-serial: the pooled, deduped, multi-worker
                // answer is the serial session's answer.
                assert!(
                    equivalent(code, &serial[which]),
                    "job {id} disagrees with the serial recovery of trace {which}"
                );
            }
            Kind::Expired(_) => {
                assert_eq!(result, Err(JobError::DeadlineExpired), "job {id}");
                assert_eq!(service.status(id), Some(JobState::Failed));
            }
            Kind::Cancelled => {
                assert_eq!(result, Err(JobError::Cancelled), "job {id}");
                assert_eq!(service.status(id), Some(JobState::Cancelled));
            }
            Kind::Poisoned => {
                match result {
                    Err(JobError::Recovery(RecoveryError::Engine(EngineError::Backend {
                        message,
                        ..
                    }))) => assert!(message.contains("detonated"), "got {message:?}"),
                    other => panic!("poisoned backend must fail typed, got {other:?}"),
                }
                assert_eq!(service.status(id), Some(JobState::Failed));
            }
        }
    }

    // The whole point of dedup: 160 main submissions over 12 profiles cost
    // at most 12 solves.
    let stats = service.stats();
    assert_eq!(stats.submitted, jobs.len() as u64);
    assert!(
        stats.coalesced + stats.cache_hits
            >= (stats.submitted - stats.failed - stats.cancelled)
                .saturating_sub(MAIN_POOL as u64 + 1),
        "dedup must absorb duplicate main jobs: {stats:?}"
    );
    assert_eq!(stats.queued, 0);
    assert_eq!(stats.running, 0);

    // Deterministic registry contents: exactly the main pool's recoveries,
    // regardless of scheduling, coalescing, or compaction timing.
    let (records, codes) = service.registry_size();
    assert_eq!(records, MAIN_POOL, "one record per distinct profile");
    assert_eq!(codes, MAIN_POOL, "one code per distinct profile");
    for (trace, expected) in main_traces.iter().zip(&serial) {
        let record = service
            .lookup_fingerprint(trace.fingerprint())
            .expect("every main profile is recorded");
        let stored = record.outcome.unique_code().expect("unique");
        assert!(equivalent(stored, expected));
        assert!(service.lookup_code(expected).is_some());
    }
    drop(jobs);
    match Arc::try_unwrap(service) {
        Ok(service) => service.shutdown(),
        Err(_) => panic!("all submitters joined; the Arc must be unique"),
    }

    // The log replays to the same deterministic state (and compaction ran,
    // so it replays from a snapshot + tail).
    let registry = Registry::open(&registry_path).expect("replay soak log");
    assert_eq!(registry.record_count(), MAIN_POOL);
    assert_eq!(registry.code_count(), MAIN_POOL);
    assert_eq!(registry.skipped_lines(), 0);
    for expected in &serial {
        assert!(registry.lookup_code(expected).is_some());
    }
    let _ = std::fs::remove_file(&registry_path);
    let _ = std::fs::remove_dir_all(&registry_path);
}

/// Sixty-four submitters share one service and draw traces from a small
/// pool of distinct profiles (the "manufacturers reuse a few ECC
/// functions" scenario): every duplicate is coalesced onto the in-flight
/// solve or answered from the registry cache, so each profile is solved
/// exactly once. Cache lookup, coalescing and completion all change
/// under the service's state lock, which is what makes the count exact.
#[test]
fn sixty_four_submitters_solve_each_distinct_profile_once() {
    const DEDUP_SUBMITTERS: usize = 64;
    const DEDUP_JOBS_EACH: usize = 24;
    const DEDUP_POOL: usize = 8;
    // Every job stays retained (the service keeps the newest 4096
    // terminal jobs), so each id below still answers `wait`.
    const _: () = assert!(DEDUP_SUBMITTERS * DEDUP_JOBS_EACH + DEDUP_POOL < 4096);

    let codes = distinct_codes(DEDUP_POOL, 0x5EE7);
    let traces: Arc<Vec<ProfileTrace>> = Arc::new(codes.iter().map(record_trace).collect());
    let codes = Arc::new(codes);
    let service = Arc::new(
        RecoveryService::start(ServiceConfig::new().with_workers(4)).expect("start service"),
    );

    let submitters: Vec<_> = (0..DEDUP_SUBMITTERS)
        .map(|s| {
            let service = Arc::clone(&service);
            let codes = Arc::clone(&codes);
            let traces = Arc::clone(&traces);
            std::thread::spawn(move || {
                let tenant = format!("tenant-{s}");
                let ids: Vec<(usize, JobId)> = (0..DEDUP_JOBS_EACH)
                    .map(|j| {
                        let which = (s + j) % DEDUP_POOL;
                        let request = JobRequest::trace(&tenant, traces[which].clone());
                        (which, service.submit(request).expect("admitted"))
                    })
                    .collect();
                for (which, id) in ids {
                    let output = service.wait(id).unwrap_or_else(|e| panic!("job {id}: {e}"));
                    let code = output.outcome.unique_code().expect("unique recovery");
                    assert!(
                        equivalent(code, &codes[which]),
                        "job {id} disagrees with profiled code {which}"
                    );
                }
            })
        })
        .collect();
    for submitter in submitters {
        submitter.join().expect("submitter thread");
    }

    let stats = service.stats();
    assert_eq!(
        stats.submitted,
        (DEDUP_SUBMITTERS * DEDUP_JOBS_EACH) as u64,
        "{stats:?}"
    );
    assert_eq!(stats.failed + stats.cancelled, 0, "{stats:?}");
    assert_eq!(
        stats.completed - stats.coalesced - stats.cache_hits,
        DEDUP_POOL as u64,
        "one solve per distinct profile: {stats:?}"
    );

    // The warm service answers every profile from its registry.
    for (which, trace) in traces.iter().enumerate() {
        let id = service
            .submit(JobRequest::trace("prober", trace.clone()))
            .expect("admitted");
        let output = service.wait(id).expect("cache answers");
        assert!(
            output.from_cache,
            "profile {which} was not answered from cache"
        );
        let code = output.outcome.unique_code().expect("unique recovery");
        assert!(equivalent(code, &codes[which]));
    }
    assert_eq!(
        service.stats().cache_hits,
        stats.cache_hits + DEDUP_POOL as u64
    );
}
