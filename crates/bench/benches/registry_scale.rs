//! Registry scale proof: the segmented LSM-lite store against a single
//! append-only log at up to a million records.
//!
//! Two variants populate the same synthetic workload — mostly distinct
//! `Ambiguous` job records with ~1% `Unique` recoveries drawn from a
//! small pool of real SEC codes (the paper's "manufacturers reuse a few
//! ECC functions" shape):
//!
//! * **segmented** — the production path: the active log seals at a size
//!   threshold and a worker-cadence [`Registry::maybe_roll`] folds the
//!   tail into sorted binary snapshots, so startup replays one snapshot
//!   plus a short tail. The longest single roll call is reported as the
//!   max compaction pause — the stall an in-flight `record()` could
//!   observe.
//! * **monolith** — the pre-segmentation behaviour, recreated by an
//!   unreachable seal threshold and no compaction: startup replays every
//!   record ever written from one giant text log.
//!
//! Both stores then reopen cold. The headline number is the startup
//! ratio (monolith / segmented) — the acceptance target is ≥10x at
//! paper scale — plus lookup p50/p99 over the reopened segmented store.
//!
//! Artifacts land in `bench_results/registry_scale.{csv,json}`; CI gates
//! `startup_segmented_ms` against `ci/registry_scale.baseline.json`.

use beer_bench::{banner, fmt_duration, CsvArtifact, Scale};
use beer_core::trace::Fingerprint;
use beer_ecc::{hamming, LinearCode};
use beer_service::{CodeOutcome, Registry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn temp_dir(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("beer_registry_scale_{name}_{}", std::process::id()))
}

fn code_pool(count: usize, k: usize) -> Vec<LinearCode> {
    let mut rng = StdRng::seed_from_u64(0xC0DE);
    (0..count)
        .map(|_| hamming::random_sec(k, &mut rng))
        .collect()
}

/// One synthetic record: a distinct fingerprint, and an outcome that is
/// `Unique` (re-recovering a pooled code) once per ~100 jobs, an
/// inconsistent answer once per ~50, and a plain ambiguous answer
/// otherwise.
fn outcome_for(i: usize, codes: &[LinearCode]) -> CodeOutcome {
    match i % 100 {
        0 => CodeOutcome::Unique(codes[(i / 100) % codes.len()].clone()),
        1 | 51 => CodeOutcome::Inconsistent,
        _ => CodeOutcome::Ambiguous {
            count: 2 + (i % 7),
            truncated: i.is_multiple_of(13),
        },
    }
}

fn fp(i: usize) -> Fingerprint {
    // Spread bits so snapshot runs exercise the sparse index, not one
    // dense prefix.
    let x = (i as u128).wrapping_mul(0x9E37_79B9_7F4A_7C15_F39C_C060_5CED_C835);
    Fingerprint(x ^ (i as u128) << 96)
}

struct Populated {
    wall: Duration,
    max_pause: Duration,
}

/// Writes `records` jobs; `roll_every > 0` drives the worker-cadence
/// seal/compact path and tracks the longest single roll.
fn populate(
    dir: &PathBuf,
    records: usize,
    codes: &[LinearCode],
    seal_bytes: u64,
    roll_every: usize,
    compact_after: usize,
) -> Populated {
    let _ = std::fs::remove_dir_all(dir);
    let mut registry = Registry::open(dir).expect("open fresh registry");
    registry.set_seal_bytes(seal_bytes);
    let start = Instant::now();
    let mut max_pause = Duration::ZERO;
    for i in 0..records {
        registry
            .record(fp(i), "bench", &outcome_for(i, codes))
            .expect("record");
        if roll_every > 0 && i % roll_every == roll_every - 1 {
            let t = Instant::now();
            registry.maybe_roll(compact_after, 4).expect("roll");
            max_pause = max_pause.max(t.elapsed());
        }
    }
    Populated {
        wall: start.elapsed(),
        max_pause,
    }
}

struct Reopened {
    registry: Registry,
    startup: Duration,
}

fn reopen(dir: &PathBuf) -> Reopened {
    let start = Instant::now();
    let registry = Registry::open(dir).expect("reopen");
    Reopened {
        registry,
        startup: start.elapsed(),
    }
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

fn main() {
    let bench_start = Instant::now();
    let scale = Scale::from_env();
    let records = scale.pick3(20_000, 100_000, 1_000_000);
    banner(
        "registry_scale",
        "segmented registry startup and lookup at scale",
        "snapshot+tail startup >=10x faster than full-log replay at 1M records",
    );

    let codes = code_pool(50, 12);
    let seg_dir = temp_dir("segmented");
    let mono_dir = temp_dir("monolith");

    // Segmented: seal roughly every records/16 appends' worth of bytes
    // (a ~60-byte job line), roll at worker cadence.
    let seal_bytes = ((records as u64) * 60 / 16).max(64 * 1024);
    let compact_after = (records / 64).max(1024);
    println!("populating segmented store ({records} records)...");
    let seg_pop = populate(&seg_dir, records, &codes, seal_bytes, 512, compact_after);
    println!(
        "  wall {}  max roll pause {}",
        fmt_duration(seg_pop.wall),
        fmt_duration(seg_pop.max_pause)
    );

    println!("populating monolith store ({records} records)...");
    let mono_pop = populate(&mono_dir, records, &codes, u64::MAX, 0, usize::MAX);
    println!("  wall {}", fmt_duration(mono_pop.wall));

    let seg = reopen(&seg_dir);
    let mono = reopen(&mono_dir);
    assert_eq!(
        seg.registry.record_count(),
        mono.registry.record_count(),
        "both stores must replay to the same record count"
    );
    let speedup = mono.startup.as_secs_f64() / seg.startup.as_secs_f64().max(1e-9);
    println!(
        "startup: segmented {} ({} snapshots, {} logs, {} tail records) vs monolith {} -> {:.1}x",
        fmt_duration(seg.startup),
        seg.registry.snapshot_count(),
        seg.registry.log_segments(),
        seg.registry.tail_records(),
        fmt_duration(mono.startup),
        speedup
    );

    // Lookup latency over the reopened segmented store: uniform sampled
    // fingerprints, so most probes land in snapshots, some in the tail.
    let samples = 2_000.min(records);
    let mut rng = StdRng::seed_from_u64(7);
    let mut lookups: Vec<Duration> = (0..samples)
        .map(|_| {
            let which = rng.random_range(0..records);
            let t = Instant::now();
            let hit = seg.registry.lookup_fingerprint(fp(which));
            let elapsed = t.elapsed();
            assert!(hit.is_some(), "recorded fingerprint must resolve");
            elapsed
        })
        .collect();
    lookups.sort();
    let p50 = percentile(&lookups, 0.50);
    let p99 = percentile(&lookups, 0.99);
    println!(
        "lookup over {samples} samples: p50 {}  p99 {}",
        fmt_duration(p50),
        fmt_duration(p99)
    );

    let mut artifact = CsvArtifact::new(
        "registry_scale",
        &[
            "variant",
            "records",
            "populate_ms",
            "startup_ms",
            "snapshots",
            "log_segments",
            "tail_records",
        ],
    );
    artifact.row(&[
        "segmented".to_string(),
        records.to_string(),
        seg_pop.wall.as_millis().to_string(),
        seg.startup.as_millis().to_string(),
        seg.registry.snapshot_count().to_string(),
        seg.registry.log_segments().to_string(),
        seg.registry.tail_records().to_string(),
    ]);
    artifact.row(&[
        "monolith".to_string(),
        records.to_string(),
        mono_pop.wall.as_millis().to_string(),
        mono.startup.as_millis().to_string(),
        mono.registry.snapshot_count().to_string(),
        mono.registry.log_segments().to_string(),
        mono.registry.tail_records().to_string(),
    ]);
    artifact.meta("records", records);
    artifact.meta(
        "startup_segmented_ms",
        format!("{:.3}", seg.startup.as_secs_f64() * 1e3),
    );
    artifact.meta(
        "startup_monolith_ms",
        format!("{:.3}", mono.startup.as_secs_f64() * 1e3),
    );
    artifact.meta("startup_speedup", format!("{speedup:.2}"));
    artifact.meta(
        "max_roll_pause_ms",
        format!("{:.3}", seg_pop.max_pause.as_secs_f64() * 1e3),
    );
    artifact.meta("lookup_p50_us", format!("{:.1}", p50.as_secs_f64() * 1e6));
    artifact.meta("lookup_p99_us", format!("{:.1}", p99.as_secs_f64() * 1e6));
    artifact.meta(
        "wall_clock_s",
        format!("{:.1}", bench_start.elapsed().as_secs_f64()),
    );
    let path = artifact.write();
    println!("artifact: {}", path.display());

    if scale == Scale::Paper {
        assert!(
            speedup >= 10.0,
            "acceptance: segmented startup must be >=10x faster at paper scale, got {speedup:.1}x"
        );
    }

    let _ = std::fs::remove_dir_all(&seg_dir);
    let _ = std::fs::remove_dir_all(&mono_dir);
}
