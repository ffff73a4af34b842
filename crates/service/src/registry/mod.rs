//! The persistent code registry: segmented LSM-lite storage for
//! completed job records and recovered canonical codes.
//!
//! The BEER paper's key economic observation is that manufacturers reuse
//! a small set of on-die ECC functions across many chips — so a recovered
//! function is a durable, fleet-scale artifact. That makes the registry
//! the long-lived heart of the service, and a single append-only file
//! that replays its whole history at startup stops scaling long before
//! "millions of records". The registry is therefore a directory:
//!
//! ```text
//! registry/
//!   MANIFEST          authoritative list of live segments (+ record count)
//!   snap-000003.snap  sorted binary snapshot segments (older generations)
//!   snap-000007.snap
//!   seg-000012.log    text log segments; the last one is the active
//!   seg-000013.log    append target, earlier ones are sealed
//! ```
//!
//! * **Appends** go to the active text log (same torn-line-tolerant
//!   `beer-registry v1` line format as ever), which **seals** at a size
//!   threshold: a new active segment is created and the manifest swapped.
//! * **Compaction** drains the in-memory tail into a snapshot segment:
//!   a *minor* compaction writes just the tail as a new generation (an
//!   O(tail) pause), and once generations reach the compaction budget a
//!   *major* compaction k-way-merges every snapshot plus the tail into
//!   one (newest record wins per fingerprint). Segments become visible
//!   only via temp-file + rename and a manifest swap, then obsolete files
//!   are deleted — a crash at any step leaves orphans for the next open
//!   to garbage-collect, never a manifest naming missing data.
//! * **Startup** is O(snapshot indexes + log tail): the manifest names
//!   the segments, snapshot indexes (sparse fingerprint index + bloom
//!   filters) and the newest snapshot's code section are loaded, and only
//!   the log segments are replayed line-by-line through a `BufReader`.
//! * **Lookups** by fingerprint check the tail map, then probe snapshots
//!   newest-first — bloom filter, sparse-index binary search, one bounded
//!   block read. Codes are few (the paper's point), so the code index and
//!   sorted `(n, k)` dims runs stay in memory; dims/hash queries support
//!   stable cursor pagination over those runs.

mod format;
mod manifest;
mod segment;

use crate::job::CodeOutcome;
use beer_core::trace::Fingerprint;
use beer_ecc::{equivalence, LinearCode};
pub use format::REGISTRY_HEADER;
use format::{LineOutcome, LogLine};
use manifest::{log_name, snap_name, Manifest};
use segment::{SnapRecord, Snapshot};
use std::collections::{BTreeMap, HashMap};
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, Write as _};
use std::path::{Path, PathBuf};

/// Default size at which the active log segment seals (bytes).
pub const DEFAULT_SEAL_BYTES: u64 = 8 * 1024 * 1024;

/// Evidence fingerprints retained per code entry. Capping keeps a code
/// entry bounded (it must also fit a wire frame); the paper's evidence
/// argument needs "many chips", not an unbounded roster.
pub const EVIDENCE_CAP: usize = 1024;

/// A completed job's durable record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobRecord {
    /// Fingerprint of the normalized profile the job solved.
    pub fingerprint: Fingerprint,
    /// The submitting tenant.
    pub tenant: String,
    /// The outcome summary (`Unique` resolved to the canonical code).
    pub outcome: CodeOutcome,
}

/// One recovered ECC function (equivalence class), stored once no matter
/// how many profiles recovered it.
#[derive(Clone, Debug)]
pub struct CodeEntry {
    /// [`equivalence::canonical_hash`] of the code.
    pub hash: u64,
    /// The canonical representative.
    pub code: LinearCode,
    /// Profile fingerprints that recovered this function (the first
    /// `EVIDENCE_CAP` seen) — the "same ECC function across many
    /// chips" evidence.
    pub fingerprints: Vec<Fingerprint>,
}

/// One not-yet-compacted record, held in memory. `Unique` is a
/// `(hash, bucket idx)` reference into the code index, not a code clone.
struct TailRecord {
    tenant: String,
    outcome: LineOutcome,
}

/// Where a simulated crash interrupts a compaction (test failpoints; the
/// steps are real, the early return stands in for the process dying).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(dead_code)]
enum CrashPoint {
    /// After the snapshot segment is written and renamed into place.
    SnapshotWritten,
    /// After the fresh active log segment is created.
    NewLogLive,
    /// After the manifest swap, before obsolete segments are deleted.
    ManifestSwapped,
}

/// The registry (see the module docs).
pub struct Registry {
    /// Registry directory; `None` for an in-memory registry.
    path: Option<PathBuf>,
    seal_bytes: u64,
    active_seq: u64,
    active_file: Option<File>,
    active_bytes: u64,
    /// Sealed log segments, oldest first (their records live in `tail`).
    logs: Vec<(u64, String)>,
    /// Snapshot segments, oldest first.
    snapshots: Vec<Snapshot>,
    /// Distinct fingerprints held by `snapshots` (the manifest's count).
    snap_records: u64,
    /// Records not yet compacted into a snapshot, keyed by fingerprint.
    tail: HashMap<Fingerprint, TailRecord>,
    /// canonical hash → entries; the bucket confirms with
    /// [`equivalence::equivalent`], so a hash collision cannot conflate
    /// two functions. Buckets are append-only: a `(hash, idx)` reference
    /// stays valid across seals, compactions, and reopens.
    codes: HashMap<u64, Vec<CodeEntry>>,
    /// Sorted `(n, k)` → `(hash, idx)` runs: the dims index, and the
    /// stable order behind cursor pagination.
    dims: BTreeMap<(usize, usize), Vec<(u64, u32)>>,
    code_count: usize,
    record_count: usize,
    appended: usize,
    skipped_lines: usize,
    next_seq: u64,
    next_gen: u64,
    compactions: u64,
    compaction_failures: u64,
}

impl Registry {
    /// A registry with no backing storage: state lives for the process.
    pub fn in_memory() -> Self {
        Registry {
            path: None,
            seal_bytes: DEFAULT_SEAL_BYTES,
            active_seq: 0,
            active_file: None,
            active_bytes: 0,
            logs: Vec::new(),
            snapshots: Vec::new(),
            snap_records: 0,
            tail: HashMap::new(),
            codes: HashMap::new(),
            dims: BTreeMap::new(),
            code_count: 0,
            record_count: 0,
            appended: 0,
            skipped_lines: 0,
            next_seq: 1,
            next_gen: 1,
            compactions: 0,
            compaction_failures: 0,
        }
    }

    /// Opens (creating if absent) a registry directory at `path`,
    /// loading snapshot indexes and replaying only the log tail.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors. Refuses with [`io::ErrorKind::InvalidData`]
    /// a `path` that is a regular file (left untouched), a log segment
    /// whose header names an unknown format version, a corrupt manifest,
    /// or a corrupt snapshot segment (all written atomically, so damage
    /// there is real corruption). Corrupt log *lines* — e.g. a torn tail
    /// from a crash mid-append — are skipped and counted
    /// ([`Registry::skipped_lines`]), not errors.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Registry> {
        let path = path.as_ref().to_path_buf();
        if path.is_file() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "registry path {} is a regular file, not a registry directory",
                    path.display()
                ),
            ));
        }

        let mut registry = Registry::in_memory();
        registry.path = Some(path.clone());
        let manifest = match Manifest::read(&path)? {
            Some(m) => m,
            None => {
                // Fresh registry (or a crash before the very first
                // manifest write, in which case no record was ever
                // acknowledged): initialize in place.
                std::fs::create_dir_all(&path)?;
                std::fs::write(path.join(log_name(0)), format!("{REGISTRY_HEADER}\n"))?;
                let m = Manifest {
                    records: 0,
                    snaps: Vec::new(),
                    logs: vec![(0, log_name(0))],
                };
                m.write(&path)?;
                m
            }
        };

        // Garbage-collect orphans: segments a crashed seal/compaction
        // wrote but never published, or published-over leftovers it never
        // got to delete. The manifest is the only truth.
        for dir_entry in std::fs::read_dir(&path)? {
            let dir_entry = dir_entry?;
            let name = dir_entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name == manifest::MANIFEST_NAME {
                continue;
            }
            let segment_like = name.starts_with("seg-") || name.starts_with("snap-");
            if name.ends_with(".tmp") || (segment_like && !manifest.references(name)) {
                let _ = std::fs::remove_file(dir_entry.path());
            }
        }

        registry.snap_records = manifest.records;
        registry.record_count = manifest.records as usize;
        for (generation, name) in &manifest.snaps {
            registry
                .snapshots
                .push(Snapshot::open(path.join(name), *generation)?);
            registry.next_gen = registry.next_gen.max(generation + 1);
        }
        // Every snapshot stores the full code state (codes are few), so
        // the newest one alone seeds the in-memory code and dims indexes.
        if let Some(newest) = registry.snapshots.last() {
            for (hash, idx, code, fingerprints) in newest.load_codes()? {
                let bucket = registry.codes.entry(hash).or_default();
                if bucket.len() != idx as usize {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "corrupt snapshot: code bucket indexes out of order",
                    ));
                }
                bucket.push(CodeEntry {
                    hash,
                    code,
                    fingerprints,
                });
                registry.code_count += 1;
            }
            for (dims_key, run) in newest.load_dims()? {
                registry.dims.insert(dims_key, run);
            }
        }

        let (&(active_seq, ref active_name), sealed) =
            manifest.logs.split_last().expect("manifest has a log");
        for (seq, name) in sealed {
            registry.logs.push((*seq, name.clone()));
            registry.replay_log(&path.join(name))?;
            registry.next_seq = registry.next_seq.max(seq + 1);
        }
        let active_path = path.join(active_name);
        registry.replay_log(&active_path)?;
        registry.active_seq = active_seq;
        registry.next_seq = registry.next_seq.max(active_seq + 1);
        registry.active_bytes = std::fs::metadata(&active_path)?.len();
        registry.active_file = Some(OpenOptions::new().append(true).open(&active_path)?);
        Ok(registry)
    }

    /// Streams one log segment through a `BufReader`, line by line.
    fn replay_log(&mut self, path: &Path) -> io::Result<()> {
        let mut reader = BufReader::new(File::open(path)?);
        let mut first = String::new();
        reader.read_line(&mut first)?;
        let first = first.trim_end();
        if !(first.is_empty() || first == REGISTRY_HEADER) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unknown registry header {first:?} (expected {REGISTRY_HEADER:?})"),
            ));
        }
        for line in reader.lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            match format::parse_line(&line) {
                Some(LogLine::Code { hash, code }) => {
                    // parse_line validated hash == canonical_hash(code),
                    // so replay skips recomputing it.
                    self.insert_code_hashed(hash, code);
                }
                Some(LogLine::Job {
                    fingerprint,
                    tenant,
                    outcome,
                }) => {
                    if !self.apply_job(fingerprint, tenant, outcome)? {
                        self.skipped_lines += 1;
                    }
                }
                None => self.skipped_lines += 1,
            }
        }
        Ok(())
    }

    /// Applies a replayed job line to the tail. `Ok(false)` marks a
    /// dangling code reference (treated like a torn line).
    fn apply_job(
        &mut self,
        fingerprint: Fingerprint,
        tenant: String,
        outcome: LineOutcome,
    ) -> io::Result<bool> {
        if let LineOutcome::Unique { hash, idx } = &outcome {
            match self
                .codes
                .get_mut(hash)
                .and_then(|bucket| bucket.get_mut(*idx as usize))
            {
                Some(entry) => push_evidence(entry, fingerprint),
                None => return Ok(false),
            }
        }
        self.count_if_novel(fingerprint)?;
        self.tail
            .insert(fingerprint, TailRecord { tenant, outcome });
        Ok(true)
    }

    /// Bumps `record_count` unless `fingerprint` is already stored (in
    /// the tail, or — bloom-gated probe — in some snapshot).
    fn count_if_novel(&mut self, fingerprint: Fingerprint) -> io::Result<()> {
        if self.tail.contains_key(&fingerprint) {
            return Ok(());
        }
        for snap in self.snapshots.iter().rev() {
            if snap.maybe_contains(fingerprint) && snap.probe(fingerprint)?.is_some() {
                return Ok(());
            }
        }
        self.record_count += 1;
        Ok(())
    }

    /// Inserts a canonical code into the in-memory index if absent;
    /// returns `(was_new, bucket index)` and keeps the dims run sorted.
    fn insert_code(&mut self, code: LinearCode) -> (bool, u32) {
        let hash = equivalence::canonical_hash(&code);
        self.insert_code_hashed(hash, code)
    }

    /// [`Registry::insert_code`] with the canonical hash already known.
    fn insert_code_hashed(&mut self, hash: u64, code: LinearCode) -> (bool, u32) {
        let bucket = self.codes.entry(hash).or_default();
        if let Some(idx) = bucket
            .iter()
            .position(|e| equivalence::equivalent(&e.code, &code))
        {
            return (false, idx as u32);
        }
        let idx = bucket.len() as u32;
        let dims_key = (code.n(), code.k());
        bucket.push(CodeEntry {
            hash,
            code,
            fingerprints: Vec::new(),
        });
        self.code_count += 1;
        let run = self.dims.entry(dims_key).or_default();
        let pos = run.partition_point(|&e| e < (hash, idx));
        run.insert(pos, (hash, idx));
        (true, idx)
    }

    /// Records a completed job, appending to the active log (sealing it
    /// first if it crossed the seal threshold).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the append or seal (in-memory state is
    /// updated regardless, so a full disk degrades durability, not
    /// service).
    pub fn record(
        &mut self,
        fingerprint: Fingerprint,
        tenant: &str,
        outcome: &CodeOutcome,
    ) -> io::Result<()> {
        let mut log = String::new();
        let stored = match outcome {
            CodeOutcome::Unique(code) => {
                let canonical = equivalence::canonicalize(code);
                let hash = equivalence::canonical_hash(&canonical);
                let (was_new, idx) = self.insert_code(canonical);
                let entry = &mut self.codes.get_mut(&hash).expect("just inserted")[idx as usize];
                push_evidence(entry, fingerprint);
                if was_new {
                    log.push_str(&format::code_line(hash, &entry.code));
                }
                LineOutcome::Unique { hash, idx }
            }
            CodeOutcome::Ambiguous { count, truncated } => LineOutcome::Ambiguous {
                count: *count,
                truncated: *truncated,
            },
            CodeOutcome::Inconsistent => LineOutcome::Inconsistent,
        };
        log.push_str(&format::job_line(fingerprint, tenant, &stored));
        self.count_if_novel(fingerprint)?;
        self.tail.insert(
            fingerprint,
            TailRecord {
                tenant: tenant.to_string(),
                outcome: stored,
            },
        );
        self.appended += 1;
        if self.path.is_some() {
            // A registry that lost its append handle (e.g. a failed
            // compaction) re-opens it rather than silently dropping
            // durability.
            self.ensure_active_handle()?;
            let file = self.active_file.as_mut().expect("just ensured");
            file.write_all(log.as_bytes())?;
            file.flush()?;
            self.active_bytes += log.len() as u64;
            if self.active_bytes >= self.seal_bytes {
                self.seal()?;
            }
        }
        Ok(())
    }

    fn ensure_active_handle(&mut self) -> io::Result<()> {
        if self.active_file.is_some() {
            return Ok(());
        }
        let Some(dir) = &self.path else { return Ok(()) };
        let active = dir.join(log_name(self.active_seq));
        self.active_file = Some(OpenOptions::new().append(true).create(true).open(&active)?);
        self.active_bytes = std::fs::metadata(&active)?.len();
        Ok(())
    }

    /// Seals the active log: a fresh active segment is created and
    /// published in the manifest; the sealed segment stays replayable
    /// until the next compaction drains it.
    pub fn seal(&mut self) -> io::Result<()> {
        let Some(dir) = self.path.clone() else {
            return Ok(());
        };
        let new_seq = self.next_seq;
        let new_name = log_name(new_seq);
        std::fs::write(dir.join(&new_name), format!("{REGISTRY_HEADER}\n"))?;
        let mut manifest = self.manifest_view();
        manifest.logs.push((new_seq, new_name.clone()));
        if let Err(e) = manifest.write(&dir) {
            let _ = std::fs::remove_file(dir.join(&new_name));
            return Err(e);
        }
        self.logs.push((self.active_seq, log_name(self.active_seq)));
        self.active_seq = new_seq;
        self.active_file = Some(OpenOptions::new().append(true).open(dir.join(&new_name))?);
        self.active_bytes = (REGISTRY_HEADER.len() + 1) as u64;
        self.next_seq += 1;
        Ok(())
    }

    /// The manifest describing current state (before any change).
    fn manifest_view(&self) -> Manifest {
        Manifest {
            records: self.snap_records,
            snaps: self
                .snapshots
                .iter()
                .map(|s| (s.generation(), snap_name(s.generation())))
                .collect(),
            logs: {
                let mut logs = self.logs.clone();
                logs.push((self.active_seq, log_name(self.active_seq)));
                logs
            },
        }
    }

    /// Seals/compacts as thresholds demand — the worker-path driver.
    /// Once the tail reaches `compact_after` records it is drained into
    /// a snapshot: a minor compaction (new generation, O(tail) pause)
    /// while generations are under `compact_budget`, a major merge of
    /// all generations once the budget is reached.
    pub fn maybe_roll(&mut self, compact_after: usize, compact_budget: usize) -> io::Result<()> {
        if self.path.is_none() || self.tail.len() < compact_after.max(1) {
            return Ok(());
        }
        if self.snapshots.len() >= compact_budget.max(1) {
            self.compact()
        } else {
            self.compact_minor()
        }
    }

    /// Minor compaction: drains the tail into one new snapshot
    /// generation and resets the log to a single fresh active segment.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; on failure the previous state stays fully
    /// intact (and fully accounted — see
    /// [`Registry::compaction_failures`]).
    pub fn compact_minor(&mut self) -> io::Result<()> {
        let Some(dir) = self.path.clone() else {
            self.appended = 0;
            return Ok(());
        };
        self.compact_minor_inner(&dir, None)
    }

    fn compact_minor_inner(&mut self, dir: &Path, crash: Option<CrashPoint>) -> io::Result<()> {
        let generation = self.next_gen;
        let snap_path = dir.join(snap_name(generation));
        let mut sorted: Vec<(&Fingerprint, &TailRecord)> = self.tail.iter().collect();
        sorted.sort_by_key(|(fp, _)| **fp);
        let records = sorted.iter().map(|(fp, rec)| {
            Ok(SnapRecord {
                fingerprint: **fp,
                tenant: rec.tenant.clone(),
                outcome: rec.outcome.clone(),
            })
        });
        let written = segment::write_snapshot(
            &snap_path,
            &self.codes,
            &self.dims,
            records,
            self.tail.len(),
        );
        if let Err(e) = written {
            self.compaction_failures += 1;
            let _ = std::fs::remove_file(&snap_path);
            return Err(e);
        }
        if crash == Some(CrashPoint::SnapshotWritten) {
            return Ok(());
        }
        let new_snaps = {
            let mut snaps = self.manifest_view().snaps;
            snaps.push((generation, snap_name(generation)));
            snaps
        };
        match self.publish(dir, new_snaps, self.record_count as u64, crash)? {
            Published::Crashed => Ok(()),
            Published::Committed { new_seq, obsolete } => {
                self.snapshots
                    .push(match Snapshot::open(snap_path, generation) {
                        Ok(snap) => snap,
                        Err(e) => {
                            // The manifest already names this snapshot; if we
                            // cannot read back what we just wrote, the
                            // registry is genuinely broken — surface it.
                            self.compaction_failures += 1;
                            return Err(e);
                        }
                    });
                self.commit_roll(dir, new_seq, obsolete);
                Ok(())
            }
        }
    }

    /// Major compaction: k-way-merges every snapshot generation plus the
    /// tail (newest wins per fingerprint) into a single snapshot, and
    /// resets the log to one fresh active segment. This is also the
    /// public [`Registry::compact`].
    pub fn compact(&mut self) -> io::Result<()> {
        let Some(dir) = self.path.clone() else {
            self.appended = 0;
            return Ok(());
        };
        self.compact_major_inner(&dir, None)
    }

    fn compact_major_inner(&mut self, dir: &Path, crash: Option<CrashPoint>) -> io::Result<()> {
        let generation = self.next_gen;
        let snap_path = dir.join(snap_name(generation));
        let written = (|| {
            let mut sources: Vec<MergeSource> = Vec::new();
            for snap in &self.snapshots {
                sources.push(MergeSource::new(Box::new(snap.iter_records()?)));
            }
            let mut sorted: Vec<(&Fingerprint, &TailRecord)> = self.tail.iter().collect();
            sorted.sort_by_key(|(fp, _)| **fp);
            let tail_records: Vec<io::Result<SnapRecord>> = sorted
                .into_iter()
                .map(|(fp, rec)| {
                    Ok(SnapRecord {
                        fingerprint: *fp,
                        tenant: rec.tenant.clone(),
                        outcome: rec.outcome.clone(),
                    })
                })
                .collect();
            sources.push(MergeSource::new(Box::new(tail_records.into_iter())));
            let hint = self
                .snapshots
                .iter()
                .map(|s| s.record_count() as usize)
                .sum::<usize>()
                + self.tail.len();
            let merge = Merge::new(sources)?;
            segment::write_snapshot(&snap_path, &self.codes, &self.dims, merge, hint)
        })();
        let written = match written {
            Ok(n) => n,
            Err(e) => {
                self.compaction_failures += 1;
                let _ = std::fs::remove_file(&snap_path);
                return Err(e);
            }
        };
        if crash == Some(CrashPoint::SnapshotWritten) {
            return Ok(());
        }
        let new_snaps = vec![(generation, snap_name(generation))];
        match self.publish(dir, new_snaps, written, crash)? {
            Published::Crashed => Ok(()),
            Published::Committed { new_seq, obsolete } => {
                let mut obsolete = obsolete;
                for snap in &self.snapshots {
                    obsolete.push(snap_name(snap.generation()));
                }
                self.snapshots = vec![match Snapshot::open(snap_path, generation) {
                    Ok(snap) => snap,
                    Err(e) => {
                        self.compaction_failures += 1;
                        return Err(e);
                    }
                }];
                // The merge deduplicated across generations, so its count
                // is authoritative.
                self.record_count = written as usize;
                self.commit_roll(dir, new_seq, obsolete);
                Ok(())
            }
        }
    }

    /// Shared compaction tail: create the fresh active log and swap the
    /// manifest. Failure before the manifest rename leaves prior state
    /// intact; the orphan files are removed best-effort here and by the
    /// next open's GC.
    fn publish(
        &mut self,
        dir: &Path,
        snaps: Vec<(u64, String)>,
        records: u64,
        crash: Option<CrashPoint>,
    ) -> io::Result<Published> {
        let snap_files: Vec<String> = snaps.iter().map(|(_, name)| name.clone()).collect();
        let new_seq = self.next_seq;
        let new_log = log_name(new_seq);
        if let Err(e) = std::fs::write(dir.join(&new_log), format!("{REGISTRY_HEADER}\n")) {
            self.compaction_failures += 1;
            for name in &snap_files {
                if !self
                    .snapshots
                    .iter()
                    .any(|s| snap_name(s.generation()) == *name)
                {
                    let _ = std::fs::remove_file(dir.join(name));
                }
            }
            return Err(e);
        }
        if crash == Some(CrashPoint::NewLogLive) {
            return Ok(Published::Crashed);
        }
        let manifest = Manifest {
            records,
            snaps,
            logs: vec![(new_seq, new_log.clone())],
        };
        if let Err(e) = manifest.write(dir) {
            self.compaction_failures += 1;
            let _ = std::fs::remove_file(dir.join(&new_log));
            for name in &snap_files {
                if !self
                    .snapshots
                    .iter()
                    .any(|s| snap_name(s.generation()) == *name)
                {
                    let _ = std::fs::remove_file(dir.join(name));
                }
            }
            return Err(e);
        }
        if crash == Some(CrashPoint::ManifestSwapped) {
            return Ok(Published::Crashed);
        }
        let mut obsolete: Vec<String> = self.logs.drain(..).map(|(_, name)| name).collect();
        obsolete.push(log_name(self.active_seq));
        Ok(Published::Committed { new_seq, obsolete })
    }

    /// Final in-memory commit after a successful manifest swap.
    fn commit_roll(&mut self, dir: &Path, new_seq: u64, obsolete: Vec<String>) {
        self.tail.clear();
        self.snap_records = self.record_count as u64;
        self.active_seq = new_seq;
        self.active_file = OpenOptions::new()
            .append(true)
            .open(dir.join(log_name(new_seq)))
            .ok();
        self.active_bytes = (REGISTRY_HEADER.len() + 1) as u64;
        self.next_seq += 1;
        self.next_gen += 1;
        self.appended = 0;
        self.compactions += 1;
        for name in obsolete {
            let _ = std::fs::remove_file(dir.join(name));
        }
    }

    /// The record for a profile fingerprint, if one completed before:
    /// tail map first, then snapshot probes newest-first (bloom-gated).
    /// A probe I/O error degrades to "not found" — a lookup miss
    /// recomputes, it never lies.
    pub fn lookup_fingerprint(&self, fingerprint: Fingerprint) -> Option<JobRecord> {
        if let Some(rec) = self.tail.get(&fingerprint) {
            return self.resolve(fingerprint, rec.tenant.clone(), &rec.outcome);
        }
        for snap in self.snapshots.iter().rev() {
            if !snap.maybe_contains(fingerprint) {
                continue;
            }
            match snap.probe(fingerprint) {
                Ok(Some(rec)) => {
                    // Superset invariant: a segment's record can only
                    // reference codes its own code section indexes.
                    if let LineOutcome::Unique { hash, .. } = &rec.outcome {
                        debug_assert!(
                            snap.maybe_contains_hash(*hash),
                            "snapshot record references a code its segment does not index"
                        );
                    }
                    return self.resolve(fingerprint, rec.tenant, &rec.outcome);
                }
                Ok(None) => continue,
                Err(_) => return None,
            }
        }
        None
    }

    /// Resolves a stored reference-form outcome into a [`JobRecord`].
    fn resolve(
        &self,
        fingerprint: Fingerprint,
        tenant: String,
        outcome: &LineOutcome,
    ) -> Option<JobRecord> {
        let outcome = match outcome {
            LineOutcome::Unique { hash, idx } => {
                CodeOutcome::Unique(self.codes.get(hash)?.get(*idx as usize)?.code.clone())
            }
            LineOutcome::Ambiguous { count, truncated } => CodeOutcome::Ambiguous {
                count: *count,
                truncated: *truncated,
            },
            LineOutcome::Inconsistent => CodeOutcome::Inconsistent,
        };
        Some(JobRecord {
            fingerprint,
            tenant,
            outcome,
        })
    }

    /// The stored entry for a code equivalent to `code`, in O(1) via the
    /// canonical hash.
    pub fn lookup_code(&self, code: &LinearCode) -> Option<&CodeEntry> {
        self.codes
            .get(&equivalence::canonical_hash(code))?
            .iter()
            .find(|e| equivalence::equivalent(&e.code, code))
    }

    /// Every stored entry with the given canonical hash, in append order
    /// (more than one only on a 64-bit hash collision between
    /// inequivalent codes).
    pub fn lookup_hash(&self, hash: u64) -> &[CodeEntry] {
        self.codes.get(&hash).map_or(&[], Vec::as_slice)
    }

    /// Every stored code with codeword length `n` and dataword length
    /// `k`, in `(hash, bucket idx)` order via the sorted dims run.
    pub fn lookup_dims(&self, n: usize, k: usize) -> Vec<&CodeEntry> {
        self.dims.get(&(n, k)).map_or_else(Vec::new, |run| {
            run.iter()
                .filter_map(|&(hash, idx)| self.entry_at(hash, idx))
                .collect()
        })
    }

    /// One page of the sorted dims run, resuming strictly after the
    /// `(hash, idx)` cursor. Returns the page and the cursor to pass for
    /// the next page (`None` when the run is exhausted). The run is
    /// append-only and sorted, so a cursor stays valid while new records
    /// arrive: every entry present when iteration began is returned
    /// exactly once.
    pub fn lookup_dims_page(
        &self,
        n: usize,
        k: usize,
        after: Option<(u64, u32)>,
        limit: usize,
    ) -> (Vec<&CodeEntry>, Option<(u64, u32)>) {
        let Some(run) = self.dims.get(&(n, k)) else {
            return (Vec::new(), None);
        };
        let start = after.map_or(0, |cursor| run.partition_point(|&e| e <= cursor));
        let end = start.saturating_add(limit.max(1)).min(run.len());
        let page = run[start..end]
            .iter()
            .filter_map(|&(hash, idx)| self.entry_at(hash, idx))
            .collect();
        let next = (end < run.len()).then(|| run[end - 1]);
        (page, next)
    }

    /// One page of a canonical-hash bucket, resuming strictly after
    /// bucket index `after`. Buckets are append-only, so the cursor is
    /// stable under concurrent appends.
    pub fn lookup_hash_page(
        &self,
        hash: u64,
        after: Option<u32>,
        limit: usize,
    ) -> (Vec<&CodeEntry>, Option<u32>) {
        let bucket = self.lookup_hash(hash);
        let start = after.map_or(0, |idx| idx as usize + 1).min(bucket.len());
        let end = start.saturating_add(limit.max(1)).min(bucket.len());
        let page = bucket[start..end].iter().collect();
        let next = (end < bucket.len()).then(|| (end - 1) as u32);
        (page, next)
    }

    fn entry_at(&self, hash: u64, idx: u32) -> Option<&CodeEntry> {
        self.codes.get(&hash)?.get(idx as usize)
    }

    /// Number of stored job records (distinct fingerprints), exact
    /// across snapshots and tail.
    pub fn record_count(&self) -> usize {
        self.record_count
    }

    /// Number of distinct stored codes (equivalence classes).
    pub fn code_count(&self) -> usize {
        self.code_count
    }

    /// Records appended since the last *successful* compaction (or
    /// open). A failed compaction keeps this intact — accounting is
    /// never silently reset (see [`Registry::compaction_failures`]).
    pub fn appended_since_compact(&self) -> usize {
        self.appended
    }

    /// Corrupt lines skipped during replay.
    pub fn skipped_lines(&self) -> usize {
        self.skipped_lines
    }

    /// Records currently in the in-memory tail (not yet in a snapshot).
    pub fn tail_records(&self) -> usize {
        self.tail.len()
    }

    /// Live log segments (sealed + active).
    pub fn log_segments(&self) -> usize {
        self.logs.len() + usize::from(self.path.is_some())
    }

    /// Live snapshot generations.
    pub fn snapshot_count(&self) -> usize {
        self.snapshots.len()
    }

    /// Live segments of any kind (log + snapshot).
    pub fn segment_count(&self) -> usize {
        self.log_segments() + self.snapshot_count()
    }

    /// Successful compactions (minor + major) over this handle's life.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Failed compactions over this handle's life.
    pub fn compaction_failures(&self) -> u64 {
        self.compaction_failures
    }

    /// Sets the active-log seal threshold (bytes).
    pub fn set_seal_bytes(&mut self, bytes: u64) {
        self.seal_bytes = bytes.max(1);
    }
}

enum Published {
    Crashed,
    Committed { new_seq: u64, obsolete: Vec<String> },
}

fn push_evidence(entry: &mut CodeEntry, fingerprint: Fingerprint) {
    if entry.fingerprints.len() < EVIDENCE_CAP && !entry.fingerprints.contains(&fingerprint) {
        entry.fingerprints.push(fingerprint);
    }
}

// ---- k-way merge for major compaction ------------------------------------

struct MergeSource {
    iter: Box<dyn Iterator<Item = io::Result<SnapRecord>>>,
    head: Option<SnapRecord>,
}

impl MergeSource {
    fn new(iter: Box<dyn Iterator<Item = io::Result<SnapRecord>>>) -> MergeSource {
        MergeSource { iter, head: None }
    }

    fn advance(&mut self) -> io::Result<()> {
        self.head = self.iter.next().transpose()?;
        Ok(())
    }
}

/// Streams the union of sorted sources in fingerprint order. Sources are
/// ordered oldest-first; on a duplicate fingerprint the newest source
/// (highest index — the tail is last) wins.
struct Merge {
    sources: Vec<MergeSource>,
}

impl Merge {
    fn new(mut sources: Vec<MergeSource>) -> io::Result<Merge> {
        for src in &mut sources {
            src.advance()?;
        }
        Ok(Merge { sources })
    }
}

impl Iterator for Merge {
    type Item = io::Result<SnapRecord>;

    fn next(&mut self) -> Option<io::Result<SnapRecord>> {
        let min = self
            .sources
            .iter()
            .filter_map(|s| s.head.as_ref().map(|r| r.fingerprint))
            .min()?;
        let mut winner: Option<SnapRecord> = None;
        // Every source holding `min` advances; the newest (last) copy wins.
        for src in &mut self.sources {
            if src.head.as_ref().is_some_and(|r| r.fingerprint == min) {
                winner = src.head.take();
                if let Err(e) = src.advance() {
                    return Some(Err(e));
                }
            }
        }
        winner.map(Ok)
    }
}

#[cfg(test)]
mod tests;
