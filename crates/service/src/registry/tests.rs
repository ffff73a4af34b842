use super::*;
use crate::job::CodeOutcome;
use beer_ecc::hamming;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("beer_registry_{name}_{}", std::process::id()))
}

fn scrub(path: &Path) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_dir_all(path);
}

fn fp(n: u128) -> Fingerprint {
    Fingerprint(n)
}

fn ambiguous(count: usize) -> CodeOutcome {
    CodeOutcome::Ambiguous {
        count,
        truncated: false,
    }
}

/// The active log segment's path, per the manifest.
fn active_log(dir: &Path) -> PathBuf {
    let manifest = Manifest::read(dir).expect("manifest").expect("present");
    dir.join(&manifest.logs.last().expect("active log").1)
}

#[test]
fn row_hex_roundtrip_covers_odd_widths() {
    for k in [1, 4, 7, 11, 64, 91, 128] {
        let mut row = beer_gf2::BitVec::zeros(k);
        for i in (0..k).step_by(3) {
            row.set(i, true);
        }
        let hex = format::row_to_hex(&row);
        assert_eq!(
            format::row_from_hex(&hex, k).expect("roundtrip"),
            row,
            "k={k}"
        );
    }
    // Padding bits must be zero.
    assert!(format::row_from_hex("f", 2).is_none());
    assert!(format::row_from_hex("zz", 8).is_none());
}

#[test]
fn persists_and_replays_across_reopen() {
    let path = temp_path("reopen");
    scrub(&path);
    let code = hamming::shortened(8);
    {
        let mut reg = Registry::open(&path).expect("open fresh");
        reg.record(fp(1), "alice", &CodeOutcome::Unique(code.clone()))
            .expect("record");
        reg.record(fp(2), "bob", &ambiguous(3)).expect("record");
        reg.record(fp(3), "bob", &CodeOutcome::Inconsistent)
            .expect("record");
    }
    let reg = Registry::open(&path).expect("reopen");
    assert_eq!(reg.record_count(), 3);
    assert_eq!(reg.code_count(), 1);
    assert_eq!(reg.skipped_lines(), 0);
    let rec = reg.lookup_fingerprint(fp(1)).expect("record survives");
    assert_eq!(rec.tenant, "alice");
    let recovered = rec.outcome.unique_code().expect("unique");
    assert!(equivalence::equivalent(recovered, &code));
    assert_eq!(reg.lookup_fingerprint(fp(2)).unwrap().outcome, ambiguous(3));
    scrub(&path);
}

#[test]
fn code_is_stored_once_across_equivalent_recoveries() {
    let mut reg = Registry::in_memory();
    let code = hamming::shortened(10);
    let relabeled = equivalence::permute_parity_rows(&code, &[3, 0, 2, 1]);
    reg.record(fp(10), "a", &CodeOutcome::Unique(code.clone()))
        .expect("record");
    reg.record(fp(11), "b", &CodeOutcome::Unique(relabeled))
        .expect("record");
    assert_eq!(reg.code_count(), 1, "equivalent codes share one entry");
    let entry = reg.lookup_code(&code).expect("by canonical equality");
    assert_eq!(entry.fingerprints, vec![fp(10), fp(11)]);
    assert_eq!(reg.lookup_dims(code.n(), code.k()).len(), 1);
    assert!(reg.lookup_dims(99, 98).is_empty());
}

#[test]
fn corrupt_tail_is_skipped_not_fatal() {
    let path = temp_path("torn");
    scrub(&path);
    {
        let mut reg = Registry::open(&path).expect("open");
        reg.record(fp(7), "t", &CodeOutcome::Unique(hamming::shortened(8)))
            .expect("record");
    }
    // Simulate a crash mid-append: a torn job line and pure garbage at
    // the active segment's tail, after a job line whose outcome kind
    // (the retired `exhausted`) no longer exists.
    let log = active_log(&path);
    let mut text = std::fs::read_to_string(&log).expect("read");
    text.push_str(&format!("job {} t exhausted deadline\n", fp(9)));
    text.push_str("job deadbeef\n");
    text.push_str("???\n");
    std::fs::write(&log, &text).expect("write");

    let reg = Registry::open(&path).expect("reopen with torn tail");
    assert_eq!(reg.record_count(), 1, "intact records survive");
    assert_eq!(reg.skipped_lines(), 3, "torn lines are counted");
    scrub(&path);
}

#[test]
fn unknown_header_version_is_refused() {
    let path = temp_path("future");
    scrub(&path);
    drop(Registry::open(&path).expect("create"));
    let log = active_log(&path);
    std::fs::write(&log, "beer-registry v9\n").expect("write");
    let err = match Registry::open(&path) {
        Err(e) => e,
        Ok(_) => panic!("future versions must not replay"),
    };
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    assert_eq!(
        std::fs::read_to_string(&log).expect("read"),
        "beer-registry v9\n",
        "refused segment must be left untouched"
    );
    scrub(&path);
}

#[test]
fn a_regular_file_at_the_registry_path_is_refused() {
    let path = temp_path("plainfile");
    scrub(&path);
    // A well-formed log line in a plain file: still not a registry.
    let text = format!("{REGISTRY_HEADER}\njob {} t ambiguous 4 1\n", fp(1));
    std::fs::write(&path, &text).expect("write");
    let err = match Registry::open(&path) {
        Err(e) => e,
        Ok(_) => panic!("a regular file must not open as a registry"),
    };
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    assert!(path.is_file(), "refused file must stay a file");
    assert_eq!(
        std::fs::read_to_string(&path).expect("read"),
        text,
        "refused file must be left untouched"
    );
    scrub(&path);
}

#[test]
fn compact_produces_a_minimal_equivalent_snapshot() {
    let path = temp_path("compact");
    scrub(&path);
    let mut rng = StdRng::seed_from_u64(7);
    let codes: Vec<LinearCode> = (0..3).map(|_| hamming::random_sec(12, &mut rng)).collect();
    {
        let mut reg = Registry::open(&path).expect("open");
        // Every record appended twice (an upsert re-appends): the log
        // grows, the state doesn't — exactly what compaction reclaims.
        for round in 0..2 {
            for i in 0..20u128 {
                let code = &codes[(i % 3) as usize];
                reg.record(fp(100 + i), "t", &CodeOutcome::Unique(code.clone()))
                    .unwrap_or_else(|e| panic!("record round {round}: {e}"));
            }
        }
        assert_eq!(reg.appended_since_compact(), 40);
        assert_eq!(reg.record_count(), 20, "upserts do not double-count");
        reg.compact().expect("compact");
        assert_eq!(reg.appended_since_compact(), 0);
        assert_eq!(reg.tail_records(), 0, "compaction drains the tail");
        assert_eq!(reg.snapshot_count(), 1);
        assert_eq!(reg.log_segments(), 1);
        assert_eq!(reg.compactions(), 1);
        // Post-compaction lookups are served by snapshot probes.
        assert!(reg.lookup_fingerprint(fp(100)).is_some());
        assert!(reg.lookup_fingerprint(fp(999)).is_none());
    }
    let reg = Registry::open(&path).expect("reopen snapshot");
    assert_eq!(reg.record_count(), 20);
    assert_eq!(reg.code_count(), codes.len());
    assert_eq!(reg.skipped_lines(), 0);
    for code in &codes {
        assert!(reg.lookup_code(code).is_some());
    }
    for i in 0..20u128 {
        let rec = reg.lookup_fingerprint(fp(100 + i)).expect("disk probe");
        assert_eq!(rec.tenant, "t");
        assert!(rec.outcome.unique_code().is_some());
    }
    scrub(&path);
}

#[test]
fn sealing_rolls_the_active_segment() {
    let path = temp_path("seal");
    scrub(&path);
    {
        let mut reg = Registry::open(&path).expect("open");
        reg.set_seal_bytes(1); // every append crosses the threshold
        for i in 0..5u128 {
            reg.record(fp(i), "t", &ambiguous(i as usize))
                .expect("record");
        }
        assert_eq!(reg.log_segments(), 6, "five sealed + one active");
        assert_eq!(reg.record_count(), 5);
    }
    let reg = Registry::open(&path).expect("reopen");
    assert_eq!(reg.log_segments(), 6);
    assert_eq!(reg.record_count(), 5);
    assert_eq!(reg.skipped_lines(), 0);
    for i in 0..5u128 {
        assert_eq!(
            reg.lookup_fingerprint(fp(i)).unwrap().outcome,
            ambiguous(i as usize)
        );
    }
    scrub(&path);
}

#[test]
fn minor_then_major_compaction_keeps_exact_counts() {
    let path = temp_path("tiers");
    scrub(&path);
    let mut reg = Registry::open(&path).expect("open");
    for i in 0..10u128 {
        reg.record(fp(i), "t", &ambiguous(1)).expect("record");
    }
    reg.compact_minor().expect("minor 1");
    // Overwrite half the old fingerprints and add new ones: exercises
    // newest-wins and exact distinct counting across generations.
    for i in 5..15u128 {
        reg.record(fp(i), "t", &ambiguous(2)).expect("record");
    }
    reg.compact_minor().expect("minor 2");
    assert_eq!(reg.snapshot_count(), 2);
    assert_eq!(reg.record_count(), 15);
    assert_eq!(reg.lookup_fingerprint(fp(7)).unwrap().outcome, ambiguous(2));
    assert_eq!(reg.lookup_fingerprint(fp(2)).unwrap().outcome, ambiguous(1));

    // The budget-driven roll: at budget 2 with 2 generations, a major
    // merge collapses everything.
    for i in 15..18u128 {
        reg.record(fp(i), "t", &ambiguous(3)).expect("record");
    }
    reg.maybe_roll(1, 2).expect("major roll");
    assert_eq!(reg.snapshot_count(), 1);
    assert_eq!(reg.record_count(), 18);
    assert_eq!(reg.compactions(), 3);
    drop(reg);

    let reg = Registry::open(&path).expect("reopen");
    assert_eq!(reg.record_count(), 18);
    assert_eq!(reg.lookup_fingerprint(fp(7)).unwrap().outcome, ambiguous(2));
    assert_eq!(
        reg.lookup_fingerprint(fp(16)).unwrap().outcome,
        ambiguous(3)
    );
    scrub(&path);
}

/// Satellite: crash-mid-compaction at every step — temp-file write, new
/// active log, manifest swap — must reopen to a consistent state with no
/// lost records, for both compaction tiers, even with a torn tail on top.
#[test]
fn crash_mid_compaction_recovers_every_step() {
    let code = hamming::shortened(8);
    for major in [false, true] {
        for crash in [
            CrashPoint::SnapshotWritten,
            CrashPoint::NewLogLive,
            CrashPoint::ManifestSwapped,
        ] {
            let path = temp_path(&format!("crash_{major}_{crash:?}"));
            scrub(&path);
            let mut reg = Registry::open(&path).expect("open");
            for i in 0..8u128 {
                reg.record(fp(i), "t", &ambiguous(i as usize))
                    .expect("record");
            }
            reg.compact_minor().expect("seed generation");
            for i in 4..12u128 {
                reg.record(fp(i), "u", &CodeOutcome::Unique(code.clone()))
                    .expect("record");
            }
            let dir = path.clone();
            if major {
                reg.compact_major_inner(&dir, Some(crash))
                    .expect("crashing major");
            } else {
                reg.compact_minor_inner(&dir, Some(crash))
                    .expect("crashing minor");
            }
            drop(reg); // the "kill"

            // Reuse the torn-line harness: garbage on whatever log the
            // surviving manifest considers active.
            let log = active_log(&path);
            let mut text = std::fs::read_to_string(&log).expect("read");
            text.push_str("job deadbeef\n");
            std::fs::write(&log, &text).expect("write");

            let reg = Registry::open(&path)
                .unwrap_or_else(|e| panic!("reopen major={major} {crash:?}: {e}"));
            assert_eq!(reg.record_count(), 12, "major={major} {crash:?}");
            assert_eq!(reg.skipped_lines(), 1, "major={major} {crash:?}");
            for i in 0..12u128 {
                let rec = reg
                    .lookup_fingerprint(fp(i))
                    .unwrap_or_else(|| panic!("fp {i} lost, major={major} {crash:?}"));
                if i >= 4 {
                    assert!(
                        rec.outcome.unique_code().is_some(),
                        "newest wins for fp {i}"
                    );
                } else {
                    assert_eq!(rec.outcome, ambiguous(i as usize));
                }
            }
            scrub(&path);
        }
    }
}

/// Satellite: a failed compaction must not silently reset accounting.
#[test]
fn failed_compaction_counts_and_keeps_accounting() {
    let path = temp_path("failcompact");
    scrub(&path);
    let mut reg = Registry::open(&path).expect("open");
    for i in 0..3u128 {
        reg.record(fp(i), "t", &ambiguous(1)).expect("record");
    }
    assert_eq!(reg.appended_since_compact(), 3);
    // Yank the directory out from under the snapshot write.
    std::fs::remove_dir_all(&path).expect("remove dir");
    assert!(reg.compact().is_err(), "compaction must fail");
    assert_eq!(reg.compaction_failures(), 1);
    assert_eq!(reg.compactions(), 0);
    assert_eq!(
        reg.appended_since_compact(),
        3,
        "failure must not reset the appended counter"
    );
    assert_eq!(reg.record_count(), 3, "in-memory state intact");
    scrub(&path);
}

#[test]
fn orphan_segments_are_garbage_collected_at_open() {
    let path = temp_path("gc");
    scrub(&path);
    {
        let mut reg = Registry::open(&path).expect("open");
        reg.record(fp(1), "t", &ambiguous(1)).expect("record");
    }
    std::fs::write(path.join("snap-000099.snap"), b"orphan").expect("orphan snap");
    std::fs::write(path.join("seg-000099.log"), b"orphan").expect("orphan log");
    std::fs::write(path.join("snap-000098.tmp"), b"tmp").expect("tmp");
    let reg = Registry::open(&path).expect("reopen GCs orphans");
    assert_eq!(reg.record_count(), 1);
    assert!(!path.join("snap-000099.snap").exists());
    assert!(!path.join("seg-000099.log").exists());
    assert!(!path.join("snap-000098.tmp").exists());
    scrub(&path);
}

#[test]
fn dims_pagination_is_stable_while_records_append() {
    let mut reg = Registry::in_memory();
    let mut rng = StdRng::seed_from_u64(11);
    let mut codes = Vec::new();
    while reg.code_count() < 9 {
        let code = hamming::random_sec(12, &mut rng);
        reg.record(
            fp(1000 + codes.len() as u128),
            "t",
            &CodeOutcome::Unique(code.clone()),
        )
        .expect("record");
        codes.push(code);
    }
    let (n, k) = (codes[0].n(), codes[0].k());
    let initial: Vec<u64> = reg.lookup_dims(n, k).iter().map(|e| e.hash).collect();
    assert_eq!(initial.len(), 9);

    // Page through with limit 2, appending fresh codes mid-iteration.
    let mut seen = Vec::new();
    let mut cursor = None;
    let mut injected = 0u128;
    loop {
        let (page, next) = reg.lookup_dims_page(n, k, cursor, 2);
        assert!(page.len() <= 2);
        seen.extend(page.iter().map(|e| e.hash));
        if injected < 3 {
            // Appends between pages must not disturb the cursor.
            let code = hamming::random_sec(12, &mut rng);
            reg.record(fp(5000 + injected), "t", &CodeOutcome::Unique(code))
                .expect("record");
            injected += 1;
        }
        match next {
            Some(c) => cursor = Some(c),
            None => break,
        }
    }
    // Every entry present at iteration start appears exactly once.
    for hash in &initial {
        assert_eq!(
            seen.iter().filter(|h| *h == hash).count(),
            1,
            "hash {hash:016x} must appear exactly once"
        );
    }
    // And nothing appears twice, including injected entries.
    let mut dedup = seen.clone();
    dedup.sort_unstable();
    dedup.dedup();
    assert_eq!(dedup.len(), seen.len(), "no entry may repeat across pages");

    // Hash-bucket pagination: bucket of size 1 pages out in one step.
    let hash = initial[0];
    let (page, next) = reg.lookup_hash_page(hash, None, 5);
    assert_eq!(page.len(), 1);
    assert!(next.is_none());
    let (page, next) = reg.lookup_hash_page(hash, Some(0), 5);
    assert!(page.is_empty());
    assert!(next.is_none());
}

#[test]
fn evidence_is_capped() {
    let mut entry = CodeEntry {
        hash: 1,
        code: hamming::shortened(8),
        fingerprints: Vec::new(),
    };
    for i in 0..(EVIDENCE_CAP as u128 + 50) {
        push_evidence(&mut entry, fp(i));
    }
    assert_eq!(entry.fingerprints.len(), EVIDENCE_CAP);
    // Duplicates never double-count.
    push_evidence(&mut entry, fp(0));
    assert_eq!(entry.fingerprints.len(), EVIDENCE_CAP);
}

#[test]
fn bloom_filter_has_no_false_negatives() {
    let mut bloom = segment::Bloom::with_capacity(500);
    for i in 0..500u64 {
        bloom.insert(i.wrapping_mul(0x9e3779b97f4a7c15));
    }
    for i in 0..500u64 {
        assert!(bloom.contains(i.wrapping_mul(0x9e3779b97f4a7c15)));
    }
    let false_positives = (0..10_000u64)
        .filter(|i| bloom.contains(i.wrapping_mul(0x517cc1b727220a95).wrapping_add(3)))
        .count();
    assert!(
        false_positives < 500,
        "bloom false-positive rate implausibly high: {false_positives}/10000"
    );
}
