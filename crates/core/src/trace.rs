//! Recorded collection traces and the replay backend.
//!
//! A [`ProfileTrace`] captures everything a collection run observed —
//! per-unit miscorrection counts and trial totals — in a plain-text format
//! that can be saved, shipped, and replayed. [`ReplayBackend`] turns a
//! trace back into a [`ProfileSource`], so the whole pipeline (threshold
//! filtering, solving, BEEP) runs against archived experiments exactly as
//! it runs against live chips: profile a fleet once, re-analyze forever.

use crate::collect::CollectionPlan;
use crate::engine::{EngineError, EngineOptions, ProfileSource};
use crate::pattern::ChargedSet;
use crate::profile::MiscorrectionProfile;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// The header line written by [`ProfileTrace::to_text`].
pub const TRACE_HEADER_V2: &str = "beer-trace v2";

/// A typed failure parsing the trace text format.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceParseError {
    /// The header names a format version this build does not understand —
    /// likely a trace written by a newer version of the tool. The body is
    /// not parsed at all: a future version may have changed any record.
    UnsupportedVersion {
        /// The header line as found.
        header: String,
    },
    /// A structural problem at a specific line (1-based).
    Malformed {
        /// 1-based line number of the first offending line.
        line: usize,
        /// What is wrong with it.
        message: String,
    },
}

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceParseError::UnsupportedVersion { header } => write!(
                f,
                "unsupported trace format version {header:?} (this build reads \
                 {TRACE_HEADER_V2:?})"
            ),
            TraceParseError::Malformed { line, message } => {
                write!(f, "line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for TraceParseError {}

/// A 128-bit content hash of a *normalized* trace — see
/// [`ProfileTrace::fingerprint`]. Two traces fingerprint identically iff
/// they carry the same evidence: same dataword length, same pattern set,
/// and the same per-pattern miscorrection counts and trial totals after
/// folding away the unit split and the pattern order.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u128);

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl fmt::Debug for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fingerprint({:032x})", self.0)
    }
}

impl std::str::FromStr for Fingerprint {
    type Err = std::num::ParseIntError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        u128::from_str_radix(s, 16).map(Fingerprint)
    }
}

/// Incremental FNV-1a over 128 bits: cheap, dependency-free, and stable
/// across platforms and releases — the property the persistent registry
/// needs from a fingerprint.
struct Fnv128(u128);

impl Fnv128 {
    const OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013B;

    fn new() -> Self {
        Fnv128(Self::OFFSET)
    }

    /// `PRIME^i` for `i` in `0..=8`.
    const PRIME_POW: [u128; 9] = {
        let mut pow = [1u128; 9];
        let mut i = 1;
        while i < pow.len() {
            pow[i] = pow[i - 1].wrapping_mul(Self::PRIME);
            i += 1;
        }
        pow
    };

    /// Hashes `v` as its 8 little-endian bytes. A zero byte only
    /// multiplies (`(h ^ 0)·P = h·P`), so the high zero bytes fold into
    /// the last non-zero byte's multiply as `PRIME^(1 + zeros)`: most
    /// words hashed are zero counts or small indices, which cost one
    /// multiply instead of eight.
    fn write_u64(&mut self, v: u64) {
        let bytes = v.to_le_bytes();
        // At least one byte, so a zero word takes the same path.
        let n = (8 - (v.leading_zeros() / 8) as usize).max(1);
        let mut h = self.0;
        for &byte in &bytes[..n - 1] {
            h = (h ^ u128::from(byte)).wrapping_mul(Self::PRIME);
        }
        self.0 = (h ^ u128::from(bytes[n - 1])).wrapping_mul(Self::PRIME_POW[9 - n]);
    }

    fn finish(&self) -> u128 {
        self.0
    }
}

/// The observations of one work unit.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct UnitTrace {
    /// `(pattern index, bit, count)` miscorrection records.
    pub miscorrections: Vec<(usize, usize, u64)>,
    /// `(pattern index, trials)` records.
    pub trials: Vec<(usize, u64)>,
}

impl UnitTrace {
    /// Extracts one unit's records from a scratch profile that accumulated
    /// exactly that unit.
    pub fn from_profile(scratch: &MiscorrectionProfile) -> UnitTrace {
        let mut ut = UnitTrace::default();
        for pi in 0..scratch.patterns().len() {
            for bit in 0..scratch.k() {
                let c = scratch.count(pi, bit);
                if c > 0 {
                    ut.miscorrections.push((pi, bit, c));
                }
            }
            let t = scratch.trials(pi);
            if t > 0 {
                ut.trials.push((pi, t));
            }
        }
        ut
    }

    /// Shifts every pattern index by `offset` — used when concatenating
    /// traces recorded over successive pattern batches.
    pub(crate) fn offset_patterns(&mut self, offset: usize) {
        for rec in &mut self.miscorrections {
            rec.0 += offset;
        }
        for rec in &mut self.trials {
            rec.0 += offset;
        }
    }
}

/// A complete recorded collection run (see the module docs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProfileTrace {
    /// Dataword length.
    pub k: usize,
    /// The pattern list the trace was recorded over, in index order.
    pub patterns: Vec<ChargedSet>,
    /// Per-unit observations, in unit order.
    pub units: Vec<UnitTrace>,
}

impl ProfileTrace {
    /// Records a trace by running every unit of `source`, sharded across
    /// worker threads like any collection.
    ///
    /// # Errors
    ///
    /// Returns an [`EngineError`] under the conditions of
    /// [`crate::engine::try_collect_traced`].
    ///
    /// # Panics
    ///
    /// Panics if `patterns` is empty or disagrees with `source.k()`.
    pub fn try_record(
        source: &mut dyn ProfileSource,
        patterns: &[ChargedSet],
        plan: &CollectionPlan,
        options: &EngineOptions,
    ) -> Result<ProfileTrace, EngineError> {
        let (_, units) = crate::engine::try_collect_traced(source, patterns, plan, options)?;
        Ok(ProfileTrace {
            k: patterns[0].k(),
            patterns: patterns.to_vec(),
            units,
        })
    }

    /// The panicking, serial form of [`ProfileTrace::try_record`].
    ///
    /// # Panics
    ///
    /// Panics if `patterns` is empty or disagrees with `source.k()`, or if
    /// the source fails the collection.
    pub fn record(
        source: &mut dyn ProfileSource,
        patterns: &[ChargedSet],
        plan: &CollectionPlan,
    ) -> ProfileTrace {
        ProfileTrace::try_record(source, patterns, plan, &EngineOptions::serial())
            .unwrap_or_else(|e| panic!("trace recording failed: {e}"))
    }

    /// Merges every unit's records into one profile — the same profile a
    /// collection over the recorded patterns produces.
    pub fn to_profile(&self) -> MiscorrectionProfile {
        let mut profile = MiscorrectionProfile::new(self.k, self.patterns.clone());
        for unit in &self.units {
            for &(pi, bit, count) in &unit.miscorrections {
                profile.record_miscorrections(pi, bit, count);
            }
            for &(pi, trials) in &unit.trials {
                profile.record_trials(pi, trials);
            }
        }
        profile
    }

    /// The canonical content fingerprint of the trace's *evidence*.
    ///
    /// Normalization folds away everything that does not change what the
    /// solver would see: the per-unit split collapses into aggregate
    /// per-pattern counts, patterns are ordered canonically (by their
    /// charged-bit sets), and duplicate patterns merge their counts. A
    /// recording sharded across 8 workers therefore fingerprints the same
    /// as its serial twin, while any change to `k`, the pattern set, a
    /// miscorrection count, or a trial total produces a different value.
    ///
    /// The value is FNV-1a-128 over a stream of little-endian `u64`
    /// words: `k`, the number of distinct patterns, then for each
    /// distinct pattern in ascending order of its charged-bit list: the
    /// number of charged bits, each charged bit, the pattern's trial
    /// total, and its `k` per-bit miscorrection counts. Values are
    /// persisted registry keys and cluster routing keys, so this stream
    /// never changes.
    ///
    /// This is the dedup key of `beer_service`: byte-different submissions
    /// of the same profile coalesce onto one recovery job. Hash a trace
    /// once and carry the result in a [`VerifiedTrace`].
    ///
    /// # Panics
    ///
    /// Panics, like [`ProfileTrace::to_profile`], if a pattern's length
    /// is not `k`, a record's pattern index is out of range, or a
    /// miscorrection bit is `>= k`.
    pub fn fingerprint(&self) -> Fingerprint {
        let k = self.k;
        for p in &self.patterns {
            assert_eq!(p.k(), k, "pattern length mismatch");
        }
        // Canonical order; equal charged-bit sets share one row.
        let mut order: Vec<(&[usize], usize)> = self
            .patterns
            .iter()
            .map(ChargedSet::bits)
            .zip(0..)
            .collect();
        order.sort_unstable();
        let mut row_of = vec![0; self.patterns.len()];
        let mut rows: Vec<&[usize]> = Vec::with_capacity(order.len());
        for (bits, pi) in order {
            if rows.last() != Some(&bits) {
                rows.push(bits);
            }
            row_of[pi] = rows.len() - 1;
        }
        // One row per distinct pattern: the trial total, then k counts.
        let stride = k + 1;
        let mut evidence = vec![0u64; rows.len() * stride];
        for unit in &self.units {
            for &(pi, bit, count) in &unit.miscorrections {
                assert!(bit < k, "bit out of range");
                evidence[row_of[pi] * stride + 1 + bit] += count;
            }
            for &(pi, trials) in &unit.trials {
                evidence[row_of[pi] * stride] += trials;
            }
        }
        let mut h = Fnv128::new();
        h.write_u64(k as u64);
        h.write_u64(rows.len() as u64);
        for (bits, row) in rows.iter().zip(evidence.chunks_exact(stride)) {
            h.write_u64(bits.len() as u64);
            for &b in *bits {
                h.write_u64(b as u64);
            }
            for &word in row {
                h.write_u64(word);
            }
        }
        Fingerprint(h.finish())
    }

    /// Serializes the trace to its line-based text format (header
    /// [`TRACE_HEADER_V2`]).
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{TRACE_HEADER_V2}");
        let _ = writeln!(out, "k {}", self.k);
        for p in &self.patterns {
            let bits: Vec<String> = p.bits().iter().map(|b| b.to_string()).collect();
            let _ = writeln!(out, "pattern {}", bits.join(" "));
        }
        for unit in &self.units {
            let _ = writeln!(out, "unit");
            for &(pi, bit, count) in &unit.miscorrections {
                let _ = writeln!(out, "m {pi} {bit} {count}");
            }
            for &(pi, trials) in &unit.trials {
                let _ = writeln!(out, "t {pi} {trials}");
            }
        }
        out
    }

    /// Parses a trace from its text format.
    ///
    /// The first line must be the [`TRACE_HEADER_V2`] header. A header
    /// announcing any other format version is reported as
    /// [`TraceParseError::UnsupportedVersion`] — not as a generic parse
    /// failure of whatever its body happens to contain — and a first line
    /// that is no header at all as [`TraceParseError::Malformed`].
    ///
    /// # Errors
    ///
    /// Returns a [`TraceParseError`] locating the first problem.
    pub fn from_text(text: &str) -> Result<ProfileTrace, TraceParseError> {
        let malformed = |line: usize, message: String| TraceParseError::Malformed { line, message };
        let mut lines = text.lines().enumerate();
        let Some((_, first)) = lines.next() else {
            return Err(malformed(1, "empty trace".to_string()));
        };
        let first = first.trim();
        if first != TRACE_HEADER_V2 {
            if first.starts_with("beer-trace") || first.starts_with("beer-profile-trace") {
                // A recognizable header naming a version we do not read:
                // a future format may have changed any record, so refuse
                // to guess at the body.
                return Err(TraceParseError::UnsupportedVersion {
                    header: first.to_string(),
                });
            }
            return Err(malformed(1, format!("expected {TRACE_HEADER_V2:?} header")));
        }
        let mut k: Option<usize> = None;
        let mut patterns: Vec<ChargedSet> = Vec::new();
        let mut units: Vec<UnitTrace> = Vec::new();
        for (ln, line) in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let mut fields = line.split_whitespace();
            let tag = fields.next().expect("non-empty line has a field");
            let parse = |s: &str| -> Result<usize, TraceParseError> {
                s.parse()
                    .map_err(|_| malformed(ln + 1, format!("bad number {s:?}")))
            };
            let field = |fields: &mut std::str::SplitWhitespace| -> Result<usize, TraceParseError> {
                let s = fields
                    .next()
                    .ok_or_else(|| malformed(ln + 1, "truncated record".to_string()))?;
                parse(s)
            };
            match tag {
                "k" => {
                    if k.is_some() {
                        // A second k line mid-file would silently rescope
                        // every later pattern; reject it.
                        return Err(malformed(ln + 1, "duplicate k line".to_string()));
                    }
                    k = Some(field(&mut fields)?);
                }
                "pattern" => {
                    if !units.is_empty() {
                        // Unit records index into the pattern list; growing
                        // it afterwards would renumber nothing and hide
                        // corrupt files.
                        return Err(malformed(
                            ln + 1,
                            "pattern declared after unit records".to_string(),
                        ));
                    }
                    let k = k.ok_or_else(|| malformed(ln + 1, "pattern before k".to_string()))?;
                    let mut bits: Vec<usize> = fields.map(parse).collect::<Result<_, _>>()?;
                    // Validate here — `ChargedSet::new` asserts, and a
                    // malformed file must yield Err, not a panic.
                    bits.sort_unstable();
                    if bits.windows(2).any(|w| w[0] == w[1]) {
                        return Err(malformed(ln + 1, "duplicate charged bit".to_string()));
                    }
                    if bits.last().is_some_and(|&b| b >= k) {
                        return Err(malformed(ln + 1, "charged bit out of range".to_string()));
                    }
                    patterns.push(ChargedSet::new(bits, k));
                }
                "unit" => units.push(UnitTrace::default()),
                "m" | "t" => {
                    // The pattern list is final once units begin (enforced
                    // above), so records range-check inline.
                    let k = k.ok_or_else(|| malformed(ln + 1, "record before k".to_string()))?;
                    let unit = units
                        .last_mut()
                        .ok_or_else(|| malformed(ln + 1, "record before any unit".to_string()))?;
                    let pi = field(&mut fields)?;
                    if pi >= patterns.len() {
                        return Err(malformed(
                            ln + 1,
                            format!("pattern index {pi} out of range"),
                        ));
                    }
                    if tag == "m" {
                        let bit = field(&mut fields)?;
                        if bit >= k {
                            return Err(malformed(ln + 1, format!("bit {bit} out of range")));
                        }
                        let count = field(&mut fields)?;
                        unit.miscorrections.push((pi, bit, count as u64));
                    } else {
                        let trials = field(&mut fields)?;
                        unit.trials.push((pi, trials as u64));
                    }
                }
                other => {
                    return Err(malformed(ln + 1, format!("unknown tag {other:?}")));
                }
            }
        }
        let k = k.ok_or_else(|| malformed(1, "trace has no k line".to_string()))?;
        Ok(ProfileTrace { k, patterns, units })
    }

    /// Writes the text format to a file.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_text())
    }

    /// Reads a trace from a file.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; malformed content maps to
    /// [`std::io::ErrorKind::InvalidData`].
    pub fn load(path: impl AsRef<std::path::Path>) -> std::io::Result<ProfileTrace> {
        let text = std::fs::read_to_string(path)?;
        ProfileTrace::from_text(&text)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// Splits the text serialization into chunks of at most `max_bytes`
    /// for transfer in bounded frames, returning the evidence
    /// [`fingerprint`](ProfileTrace::fingerprint) that keys the upload.
    /// Reassemble with a [`TraceAssembler`] seeded from the same
    /// fingerprint and chunk count.
    ///
    /// # Panics
    ///
    /// Panics if `max_bytes` is zero.
    pub fn to_chunks(&self, max_bytes: usize) -> (Fingerprint, Vec<Vec<u8>>) {
        (self.fingerprint(), self.to_text_chunks(max_bytes))
    }

    /// The chunks of [`ProfileTrace::to_chunks`] without hashing, for a
    /// sender that already holds the trace's fingerprint.
    ///
    /// # Panics
    ///
    /// Panics if `max_bytes` is zero.
    pub fn to_text_chunks(&self, max_bytes: usize) -> Vec<Vec<u8>> {
        assert!(max_bytes > 0, "chunk size must be positive");
        let text = self.to_text().into_bytes();
        text.chunks(max_bytes).map(<[u8]>::to_vec).collect()
    }
}

/// A shared trace paired with its evidence [`Fingerprint`], so the
/// fingerprint is computed once per trace rather than once per use.
///
/// The pair always agrees: a `VerifiedTrace` is built only by hashing the
/// trace ([`VerifiedTrace::new`]) or by a completed upload whose declared
/// fingerprint [`TraceAssembler::accept`] has checked against the bytes.
#[derive(Clone, Debug)]
pub struct VerifiedTrace {
    trace: Arc<ProfileTrace>,
    fingerprint: Fingerprint,
}

impl VerifiedTrace {
    /// Fingerprints `trace`.
    pub fn new(trace: Arc<ProfileTrace>) -> VerifiedTrace {
        let fingerprint = trace.fingerprint();
        VerifiedTrace { trace, fingerprint }
    }

    /// The trace's evidence fingerprint.
    pub fn fingerprint(&self) -> Fingerprint {
        self.fingerprint
    }

    /// The shared trace.
    pub fn trace(&self) -> &Arc<ProfileTrace> {
        &self.trace
    }
}

impl From<ProfileTrace> for VerifiedTrace {
    fn from(trace: ProfileTrace) -> VerifiedTrace {
        VerifiedTrace::new(Arc::new(trace))
    }
}

/// A typed failure assembling a chunked trace upload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChunkError {
    /// The upload declares no chunks at all.
    Empty,
    /// The declared size exceeds the receiver's limit — rejected up front,
    /// before any buffering.
    Oversized {
        /// Declared total bytes.
        bytes: u64,
        /// The receiver's limit.
        limit: u64,
    },
    /// A chunk index at or past the declared chunk count.
    IndexOutOfRange {
        /// The offending index.
        index: u32,
        /// The declared chunk count.
        total: u32,
    },
    /// The same chunk index arrived twice.
    Duplicate {
        /// The repeated index.
        index: u32,
    },
    /// The assembled bytes disagree with the declared total size.
    SizeMismatch {
        /// Bytes actually received.
        received: u64,
        /// Bytes declared by the upload.
        declared: u64,
    },
    /// The assembled bytes are not UTF-8 text.
    NotText,
    /// The assembled text is not a parseable trace.
    Parse(TraceParseError),
    /// The assembled trace's evidence fingerprint disagrees with the one
    /// the upload was keyed by — a corrupt or mislabeled transfer.
    FingerprintMismatch {
        /// The fingerprint the upload declared.
        declared: Fingerprint,
        /// The fingerprint of what actually arrived.
        actual: Fingerprint,
    },
}

impl fmt::Display for ChunkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChunkError::Empty => write!(f, "upload declares zero chunks"),
            ChunkError::Oversized { bytes, limit } => {
                write!(
                    f,
                    "upload declares {bytes} bytes, over the limit of {limit}"
                )
            }
            ChunkError::IndexOutOfRange { index, total } => {
                write!(f, "chunk index {index} out of range (upload has {total})")
            }
            ChunkError::Duplicate { index } => write!(f, "chunk {index} received twice"),
            ChunkError::SizeMismatch { received, declared } => {
                write!(
                    f,
                    "received {received} bytes but the upload declared {declared}"
                )
            }
            ChunkError::NotText => write!(f, "assembled upload is not UTF-8 text"),
            ChunkError::Parse(e) => write!(f, "assembled upload is not a trace: {e}"),
            ChunkError::FingerprintMismatch { declared, actual } => write!(
                f,
                "assembled trace fingerprints as {actual}, not the declared {declared}"
            ),
        }
    }
}

impl std::error::Error for ChunkError {}

/// Reassembles a chunked trace upload produced by
/// [`ProfileTrace::to_chunks`], verifying size bounds up front and the
/// evidence fingerprint on completion. Chunks may arrive in any order.
#[derive(Debug)]
pub struct TraceAssembler {
    fingerprint: Fingerprint,
    declared_bytes: u64,
    chunks: Vec<Option<Vec<u8>>>,
    received: usize,
    received_bytes: u64,
}

impl TraceAssembler {
    /// Starts an assembly for `total_chunks` chunks of `total_bytes`
    /// declared bytes, keyed by the sender's `fingerprint`. Refuses
    /// declarations over `max_bytes` *before* buffering anything.
    ///
    /// # Errors
    ///
    /// [`ChunkError::Empty`] or [`ChunkError::Oversized`].
    pub fn new(
        fingerprint: Fingerprint,
        total_chunks: u32,
        total_bytes: u64,
        max_bytes: u64,
    ) -> Result<TraceAssembler, ChunkError> {
        if total_chunks == 0 {
            return Err(ChunkError::Empty);
        }
        if total_bytes > max_bytes {
            return Err(ChunkError::Oversized {
                bytes: total_bytes,
                limit: max_bytes,
            });
        }
        // The slot table is sized by the declared chunk count, so the
        // count itself must be consistent with the (already bounded)
        // byte declaration: more chunks than bytes means empty chunks,
        // which no sender produces — refuse before allocating the table.
        if u64::from(total_chunks) > total_bytes {
            return Err(ChunkError::SizeMismatch {
                received: u64::from(total_chunks),
                declared: total_bytes,
            });
        }
        Ok(TraceAssembler {
            fingerprint,
            declared_bytes: total_bytes,
            chunks: vec![None; total_chunks as usize],
            received: 0,
            received_bytes: 0,
        })
    }

    /// The fingerprint the upload is keyed by.
    pub fn fingerprint(&self) -> Fingerprint {
        self.fingerprint
    }

    /// Chunks received so far out of the declared total.
    pub fn progress(&self) -> (usize, usize) {
        (self.received, self.chunks.len())
    }

    /// Accepts one chunk. Returns `Ok(Some(trace))` when the final chunk
    /// completes a trace whose fingerprint matches the declared one,
    /// `Ok(None)` while chunks are missing.
    ///
    /// # Errors
    ///
    /// Any [`ChunkError`]; the assembly is unusable after an error and
    /// should be dropped (the sender restarts the upload).
    pub fn accept(
        &mut self,
        index: u32,
        data: Vec<u8>,
    ) -> Result<Option<VerifiedTrace>, ChunkError> {
        let total = self.chunks.len() as u32;
        let slot = self
            .chunks
            .get_mut(index as usize)
            .ok_or(ChunkError::IndexOutOfRange { index, total })?;
        if slot.is_some() {
            return Err(ChunkError::Duplicate { index });
        }
        // Incremental size guard: a sender whose chunks outgrow its
        // declaration is refused at the first excess byte, not after
        // buffering everything it cares to stream.
        let received_bytes = self.received_bytes + data.len() as u64;
        if received_bytes > self.declared_bytes {
            return Err(ChunkError::SizeMismatch {
                received: received_bytes,
                declared: self.declared_bytes,
            });
        }
        self.received_bytes = received_bytes;
        *slot = Some(data);
        self.received += 1;
        if self.received < self.chunks.len() {
            return Ok(None);
        }
        let mut bytes: Vec<u8> = Vec::with_capacity(self.declared_bytes as usize);
        for chunk in &self.chunks {
            bytes.extend_from_slice(chunk.as_ref().expect("all chunks received"));
        }
        if bytes.len() as u64 != self.declared_bytes {
            return Err(ChunkError::SizeMismatch {
                received: bytes.len() as u64,
                declared: self.declared_bytes,
            });
        }
        let text = String::from_utf8(bytes).map_err(|_| ChunkError::NotText)?;
        let trace = ProfileTrace::from_text(&text).map_err(ChunkError::Parse)?;
        let verified = VerifiedTrace::from(trace);
        if verified.fingerprint != self.fingerprint {
            return Err(ChunkError::FingerprintMismatch {
                declared: self.fingerprint,
                actual: verified.fingerprint,
            });
        }
        Ok(Some(verified))
    }
}

/// A [`ProfileSource`] replaying a recorded [`ProfileTrace`]. One unit of
/// the replay is one unit of the original run; forking is free (the trace
/// is shared), so replays parallelize like any other backend.
///
/// A collection may request any *subset* of the recorded patterns, in any
/// order — the backend maps them onto the trace by value, so a session
/// that collects batch by batch replays a trace recorded across several
/// batches. Requesting a pattern the trace never recorded is a typed
/// [`EngineError::TraceMissingPattern`] (the recording is exhausted), not
/// a panic or a silently empty profile.
///
/// The replayed profile is bit-identical to the recorded run's profile —
/// the property the cross-backend equivalence tests pin down.
#[derive(Clone)]
pub struct ReplayBackend {
    trace: Arc<ProfileTrace>,
    /// Trace pattern index → requested pattern index for the collection in
    /// flight (built by `begin_collection`; `None` = not requested).
    mapping: Arc<Vec<Option<usize>>>,
    /// Trace units holding at least one mapped record — the replay's work
    /// units, so a batch only replays its own share of a long recording.
    active_units: Arc<Vec<usize>>,
}

impl ReplayBackend {
    /// Wraps a trace for replay. Pass an `Arc` to share a trace the
    /// caller already holds without copying it.
    pub fn new(trace: impl Into<Arc<ProfileTrace>>) -> Self {
        ReplayBackend {
            trace: trace.into(),
            mapping: Arc::new(Vec::new()),
            active_units: Arc::new(Vec::new()),
        }
    }

    /// The wrapped trace.
    pub fn trace(&self) -> &ProfileTrace {
        &self.trace
    }
}

impl ProfileSource for ReplayBackend {
    fn k(&self) -> usize {
        self.trace.k
    }

    fn label(&self) -> String {
        "replay".to_string()
    }

    fn num_units(&self, patterns: &[ChargedSet], _plan: &CollectionPlan) -> usize {
        if self.mapping.is_empty() {
            // Driven through the raw unit protocol without
            // `begin_collection` (which builds the subset mapping): only
            // the identity replay is possible, and a mismatch must stay
            // loud rather than yield a silently empty collection.
            assert_eq!(
                patterns,
                &self.trace.patterns[..],
                "replay pattern list differs from the recorded trace \
                 (call begin_collection to replay a subset)"
            );
            self.trace.units.len()
        } else {
            self.active_units.len()
        }
    }

    fn begin_collection(
        &mut self,
        patterns: &[ChargedSet],
        _plan: &CollectionPlan,
    ) -> Result<(), EngineError> {
        let mut by_value: HashMap<&ChargedSet, usize> = HashMap::new();
        let mut duplicated: Vec<&ChargedSet> = Vec::new();
        for (ti, p) in self.trace.patterns.iter().enumerate() {
            if by_value.insert(p, ti).is_some() {
                duplicated.push(p);
            }
        }
        let mut mapping = vec![None; self.trace.patterns.len()];
        for (ri, pattern) in patterns.iter().enumerate() {
            // A pattern recorded (or requested) twice has no unambiguous
            // per-batch share of the recorded counts; silently picking one
            // occurrence would undercount, so refuse loudly instead.
            if duplicated.contains(&pattern) {
                return Err(EngineError::Backend {
                    backend: "replay".to_string(),
                    message: format!(
                        "pattern {pattern} was recorded more than once; replaying it is \
                         ambiguous (replay the trace batch by batch instead)"
                    ),
                });
            }
            match by_value.get(pattern) {
                Some(&ti) => {
                    if mapping[ti].replace(ri).is_some() {
                        return Err(EngineError::Backend {
                            backend: "replay".to_string(),
                            message: format!(
                                "pattern {pattern} requested more than once in one collection"
                            ),
                        });
                    }
                }
                None => {
                    return Err(EngineError::TraceMissingPattern {
                        pattern: pattern.to_string(),
                        recorded: self.trace.patterns.len(),
                    })
                }
            }
        }
        let active_units: Vec<usize> = self
            .trace
            .units
            .iter()
            .enumerate()
            .filter(|(_, ut)| {
                ut.miscorrections
                    .iter()
                    .any(|&(pi, _, _)| mapping[pi].is_some())
                    || ut.trials.iter().any(|&(pi, _)| mapping[pi].is_some())
            })
            .map(|(ui, _)| ui)
            .collect();
        self.mapping = Arc::new(mapping);
        self.active_units = Arc::new(active_units);
        Ok(())
    }

    fn run_unit(
        &mut self,
        unit: usize,
        _patterns: &[ChargedSet],
        _plan: &CollectionPlan,
        profile: &mut MiscorrectionProfile,
    ) -> Result<(), EngineError> {
        // Identity replay when the raw protocol skipped begin_collection
        // (num_units has already asserted the pattern lists match).
        let identity = self.mapping.is_empty();
        let map = |pi: usize| {
            if identity {
                Some(pi)
            } else {
                self.mapping.get(pi).copied().flatten()
            }
        };
        let ut = if identity {
            &self.trace.units[unit]
        } else {
            &self.trace.units[self.active_units[unit]]
        };
        for &(pi, bit, count) in &ut.miscorrections {
            if let Some(ri) = map(pi) {
                profile.record_miscorrections(ri, bit, count);
            }
        }
        for &(pi, trials) in &ut.trials {
            if let Some(ri) = map(pi) {
                profile.record_trials(ri, trials);
            }
        }
        Ok(())
    }

    fn fork(&self) -> Option<Box<dyn ProfileSource + Send>> {
        Some(Box::new(self.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{try_collect_with, AnalyticBackend, EngineOptions};
    use crate::pattern::PatternSet;
    use beer_ecc::hamming;

    fn collect(
        source: &mut dyn ProfileSource,
        patterns: &[ChargedSet],
        plan: &CollectionPlan,
    ) -> MiscorrectionProfile {
        try_collect_with(source, patterns, plan, &EngineOptions::serial())
            .expect("in-memory backends cannot fail collection")
    }

    fn sample_trace() -> (ProfileTrace, MiscorrectionProfile) {
        let code = hamming::shortened(8);
        let patterns = PatternSet::OneTwo.patterns(8);
        let plan = CollectionPlan::quick();
        let mut backend = AnalyticBackend::new(code);
        let profile = collect(&mut backend, &patterns, &plan);
        let trace = ProfileTrace::record(&mut backend, &patterns, &plan);
        (trace, profile)
    }

    #[test]
    fn replay_reproduces_the_recorded_profile() {
        let (trace, original) = sample_trace();
        let patterns = trace.patterns.clone();
        let mut replay = ReplayBackend::new(trace);
        let replayed = collect(&mut replay, &patterns, &CollectionPlan::quick());
        for pi in 0..patterns.len() {
            assert_eq!(original.trials(pi), replayed.trials(pi));
            for j in 0..8 {
                assert_eq!(original.count(pi, j), replayed.count(pi, j));
            }
        }
    }

    #[test]
    fn text_roundtrip_is_lossless() {
        let (trace, _) = sample_trace();
        let text = trace.to_text();
        let parsed = ProfileTrace::from_text(&text).expect("roundtrip parse");
        assert_eq!(parsed, trace);
    }

    #[test]
    fn malformed_traces_are_rejected() {
        assert!(ProfileTrace::from_text("").is_err());
        assert!(ProfileTrace::from_text("not-a-trace").is_err());
        assert!(ProfileTrace::from_text("beer-trace v2\nbogus 1").is_err());
        assert!(ProfileTrace::from_text("beer-trace v2\nk 4\nm 0 0 1").is_err());
        // Out-of-range record.
        assert!(ProfileTrace::from_text("beer-trace v2\nk 4\npattern 0\nunit\nm 5 0 1").is_err());
    }

    #[test]
    fn duplicate_k_line_is_rejected_with_line_number() {
        // Before the fix the second k silently rescoped later patterns.
        let err =
            ProfileTrace::from_text("beer-trace v2\nk 4\npattern 0\nk 8\npattern 7").unwrap_err();
        assert!(
            matches!(err, TraceParseError::Malformed { line: 4, .. }),
            "got {err:?}"
        );
        assert!(err.to_string().contains("duplicate k"), "got {err}");
    }

    #[test]
    fn pattern_after_unit_records_is_rejected_with_line_number() {
        let err = ProfileTrace::from_text("beer-trace v2\nk 4\npattern 0\nunit\nt 0 3\npattern 1")
            .unwrap_err();
        assert!(
            matches!(err, TraceParseError::Malformed { line: 6, .. }),
            "got {err:?}"
        );
        assert!(err.to_string().contains("after unit"), "got {err}");
    }

    #[test]
    fn unknown_future_versions_are_a_typed_error() {
        let versions = [
            "beer-trace v3",
            "beer-profile-trace v9",
            "beer-trace",
            "beer-profile-trace v1",
        ];
        for header in versions {
            let err = ProfileTrace::from_text(&format!("{header}\nk 4\npattern 0\n"))
                .expect_err("other versions must not parse");
            assert_eq!(
                err,
                TraceParseError::UnsupportedVersion {
                    header: header.to_string()
                },
                "header {header:?}"
            );
            assert!(err.to_string().contains(header), "got {err}");
        }
        // A body without any header line is not a trace of any version.
        let err = ProfileTrace::from_text("k 4\npattern 0\nunit\nm 0 1 8\nt 0 8\n")
            .expect_err("headerless bodies must not parse");
        assert!(
            matches!(err, TraceParseError::Malformed { line: 1, .. }),
            "got {err:?}"
        );
    }

    /// Every unit folded into one: same evidence, different split.
    fn folded(trace: &ProfileTrace) -> ProfileTrace {
        ProfileTrace {
            k: trace.k,
            patterns: trace.patterns.clone(),
            units: vec![UnitTrace::from_profile(&trace.to_profile())],
        }
    }

    /// The pattern list reversed, with every record's index remapped.
    fn reversed(trace: &ProfileTrace) -> ProfileTrace {
        let n = trace.patterns.len();
        ProfileTrace {
            k: trace.k,
            patterns: trace.patterns.iter().rev().cloned().collect(),
            units: trace
                .units
                .iter()
                .map(|u| UnitTrace {
                    miscorrections: u
                        .miscorrections
                        .iter()
                        .map(|&(pi, bit, c)| (n - 1 - pi, bit, c))
                        .collect(),
                    trials: u.trials.iter().map(|&(pi, t)| (n - 1 - pi, t)).collect(),
                })
                .collect(),
        }
    }

    #[test]
    fn fingerprint_is_invariant_under_unit_split_and_pattern_order() {
        let (trace, _) = sample_trace();
        let fp = trace.fingerprint();
        let folded = folded(&trace);
        assert_ne!(folded.units.len(), trace.units.len());
        assert_eq!(folded.fingerprint(), fp, "unit split must not matter");
        assert_eq!(
            reversed(&trace).fingerprint(),
            fp,
            "pattern order must not matter"
        );
    }

    /// Fingerprints are persisted registry keys and the cluster's ring
    /// keys: these values were computed by the original map-and-hash
    /// implementation and must never change.
    #[test]
    fn fingerprint_golden_vectors() {
        let golden = |trace: &ProfileTrace, expected: u128, what: &str| {
            assert_eq!(trace.fingerprint(), Fingerprint(expected), "{what}");
        };
        let (sample, _) = sample_trace();
        golden(
            &sample,
            0x0b1e_d2db_afa2_8030_08e6_1250_4bab_15e1,
            "k = 8 sample trace",
        );

        let patterns = PatternSet::OneTwo.patterns(16);
        let mut backend = AnalyticBackend::new(hamming::shortened(16));
        let k16 = ProfileTrace::record(&mut backend, &patterns, &CollectionPlan::quick());
        golden(
            &k16,
            0xd7e2_2d3e_0962_837e_4ece_65b4_0fec_4255,
            "k = 16 OneTwo trace",
        );
        golden(
            &folded(&k16),
            0xd7e2_2d3e_0962_837e_4ece_65b4_0fec_4255,
            "k = 16 unit-folded twin",
        );
        golden(
            &reversed(&k16),
            0xd7e2_2d3e_0962_837e_4ece_65b4_0fec_4255,
            "k = 16 pattern-reversed twin",
        );

        let duplicated = ProfileTrace::from_text(
            "beer-trace v2\nk 4\npattern 1\npattern 0 2\npattern 1\n\
             unit\nm 0 2 5\nt 0 3\nm 1 3 1\nt 1 9\nunit\nm 2 2 7\nm 2 0 1\nt 2 4\n",
        )
        .expect("well-formed");
        golden(
            &duplicated,
            0x38f5_b1ab_7059_0311_1063_1ccb_8922_6569,
            "duplicate-pattern trace",
        );

        let empty_units = ProfileTrace::from_text("beer-trace v2\nk 4\npattern 1\npattern 0 3\n")
            .expect("well-formed");
        golden(
            &empty_units,
            0xbf45_2cd5_a77a_c5c5_3ba0_8b0d_0bcb_7c6a,
            "empty-units trace",
        );

        let wide = ProfileTrace {
            k: 4,
            patterns: vec![ChargedSet::new(vec![0], 4), ChargedSet::new(vec![1, 3], 4)],
            units: vec![UnitTrace {
                miscorrections: vec![(0, 2, 1 << 56), (0, 3, 0x0123_4567_89ab_cdef), (1, 0, 3)],
                trials: vec![(0, u64::MAX), (1, 1 << 60)],
            }],
        };
        golden(
            &wide,
            0xc323_f7df_04c1_9da8_23b7_4be3_7722_0c3e,
            "trace with all-8-byte counts and trial totals",
        );
    }

    /// The original FNV-1a step: every byte of `v`, zero or not.
    fn write_u64_bytewise(h: u128, v: u64) -> u128 {
        v.to_le_bytes().iter().fold(h, |h, &byte| {
            (h ^ u128::from(byte)).wrapping_mul(Fnv128::PRIME)
        })
    }

    fn assert_write_matches_bytewise(state: u128, v: u64) {
        let mut fast = Fnv128(state);
        fast.write_u64(v);
        assert_eq!(fast.finish(), write_u64_bytewise(state, v), "word {v:#x}");
    }

    #[test]
    fn write_u64_matches_bytewise_at_the_byte_boundaries() {
        let edges = [
            0,
            1,
            255,
            256,
            0xffff,
            1 << 55,
            1 << 56,
            u64::MAX - 1,
            u64::MAX,
        ];
        for v in edges {
            assert_write_matches_bytewise(Fnv128::OFFSET, v);
            assert_write_matches_bytewise(u128::MAX, v);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2000))]

        /// The zero-skipping write equals the byte-at-a-time reference for
        /// words of every byte width, from any hash state.
        #[test]
        fn write_u64_matches_bytewise(
            state_hi in proptest::prelude::any::<u64>(),
            state_lo in proptest::prelude::any::<u64>(),
            raw in proptest::prelude::any::<u64>(),
            shift in 0u32..64,
        ) {
            let state = (u128::from(state_hi) << 64) | u128::from(state_lo);
            assert_write_matches_bytewise(state, raw >> shift);
        }
    }

    #[test]
    #[should_panic(expected = "bit out of range")]
    fn fingerprint_panics_on_a_miscorrection_bit_past_k() {
        // Bit k of pattern 0 would land in pattern 1's trial slot of a
        // flat row buffer; it must panic instead.
        let trace = ProfileTrace {
            k: 4,
            patterns: vec![ChargedSet::new(vec![0], 4), ChargedSet::new(vec![1], 4)],
            units: vec![UnitTrace {
                miscorrections: vec![(0, 4, 1)],
                trials: vec![(0, 1)],
            }],
        };
        let _ = trace.fingerprint();
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn fingerprint_panics_on_a_pattern_index_out_of_range() {
        let trace = ProfileTrace {
            k: 4,
            patterns: vec![ChargedSet::new(vec![0], 4)],
            units: vec![UnitTrace {
                miscorrections: vec![(1, 0, 1)],
                trials: vec![],
            }],
        };
        let _ = trace.fingerprint();
    }

    #[test]
    fn fingerprint_changes_with_the_evidence() {
        let (trace, _) = sample_trace();
        let fp = trace.fingerprint();

        let mut bumped = trace.clone();
        bumped.units[0].trials[0].1 += 1;
        assert_ne!(bumped.fingerprint(), fp, "trial totals are evidence");

        let mut grown = trace.clone();
        grown.patterns.push(ChargedSet::new(vec![0, 1, 2], 8));
        assert_ne!(grown.fingerprint(), fp, "the pattern set is evidence");
    }

    #[test]
    fn replay_serves_pattern_subsets_by_value() {
        // A session replaying a multi-batch trace asks for one batch at a
        // time; counts and trials must match the original per batch.
        let (trace, original) = sample_trace();
        let patterns = trace.patterns.clone();
        let subset: Vec<ChargedSet> = patterns.iter().skip(3).cloned().collect();
        let mut replay = ReplayBackend::new(trace);
        let replayed = collect(&mut replay, &subset, &CollectionPlan::quick());
        for (si, pattern) in subset.iter().enumerate() {
            let oi = patterns.iter().position(|p| p == pattern).unwrap();
            assert_eq!(original.trials(oi), replayed.trials(si));
            for j in 0..8 {
                assert_eq!(original.count(oi, j), replayed.count(si, j));
            }
        }
    }

    #[test]
    fn replay_of_unrecorded_pattern_is_a_typed_error() {
        // Exhausting the recording must be an EngineError, not a panic or
        // a silent empty profile.
        let (trace, _) = sample_trace();
        let recorded = trace.patterns.len();
        let mut replay = ReplayBackend::new(trace);
        let missing = vec![ChargedSet::new(vec![0, 1, 2], 8)];
        let err = try_collect_with(
            &mut replay,
            &missing,
            &CollectionPlan::quick(),
            &EngineOptions::serial(),
        )
        .expect_err("unrecorded pattern must not replay");
        assert_eq!(
            err,
            EngineError::TraceMissingPattern {
                pattern: missing[0].to_string(),
                recorded,
            }
        );
        assert!(err.to_string().contains("3-CHARGED"), "got {err}");
    }

    #[test]
    fn replay_of_duplicated_patterns_is_refused_not_undercounted() {
        // The same pattern recorded in two batches has no unambiguous
        // per-batch share; the backend must refuse rather than silently
        // drop one occurrence's counts.
        let text = "beer-trace v2\nk 4\npattern 1\npattern 1\n\
                    unit\nt 0 3\nunit\nt 1 3\n";
        let trace = ProfileTrace::from_text(text).expect("well-formed");
        let request = vec![ChargedSet::new(vec![1], 4)];
        let mut replay = ReplayBackend::new(trace);
        let err = try_collect_with(
            &mut replay,
            &request,
            &CollectionPlan::quick(),
            &EngineOptions::serial(),
        )
        .expect_err("duplicated recording must not replay");
        assert!(
            matches!(&err, EngineError::Backend { backend, .. } if backend == "replay"),
            "got {err:?}"
        );
        assert!(err.to_string().contains("more than once"), "got {err}");

        // Requesting the same pattern twice in one collection is refused
        // for the same reason.
        let trace = ProfileTrace::from_text("beer-trace v2\nk 4\npattern 1\nunit\nt 0 3\n")
            .expect("well-formed");
        let twice = vec![ChargedSet::new(vec![1], 4), ChargedSet::new(vec![1], 4)];
        let mut replay = ReplayBackend::new(trace);
        let err = try_collect_with(
            &mut replay,
            &twice,
            &CollectionPlan::quick(),
            &EngineOptions::serial(),
        )
        .expect_err("duplicate request must not replay");
        assert!(
            err.to_string().contains("requested more than once"),
            "got {err}"
        );
    }

    #[test]
    fn raw_protocol_replay_without_begin_collection_is_identity_and_loud() {
        // Drivers of the bare unit protocol (no begin_collection) get the
        // identity replay with the full unit count — never a silently
        // empty collection.
        let (trace, original) = sample_trace();
        let patterns = trace.patterns.clone();
        let plan = CollectionPlan::quick();
        let mut replay = ReplayBackend::new(trace);
        let n = replay.num_units(&patterns, &plan);
        assert!(n > 0, "raw protocol must see every recorded unit");
        let mut profile = MiscorrectionProfile::new(8, patterns.clone());
        for unit in 0..n {
            replay
                .run_unit(unit, &patterns, &plan, &mut profile)
                .expect("identity replay");
        }
        for pi in 0..patterns.len() {
            assert_eq!(original.trials(pi), profile.trials(pi));
        }
    }

    #[test]
    #[should_panic(expected = "differs from the recorded trace")]
    fn raw_protocol_replay_rejects_mismatched_patterns() {
        let (trace, _) = sample_trace();
        let replay = ReplayBackend::new(trace);
        let other = vec![ChargedSet::new(vec![0, 1, 2], 8)];
        let _ = replay.num_units(&other, &CollectionPlan::quick());
    }

    #[test]
    fn replay_skips_units_belonging_to_other_batches() {
        // A multi-batch trace: batch 1's replay must only execute batch
        // 1's units (no O(batches × units) re-scans).
        let text = "beer-trace v2\nk 4\npattern 0\npattern 1\n\
                    unit\nt 0 5\nunit\nt 1 7\n";
        let trace = ProfileTrace::from_text(text).expect("well-formed");
        let batch1 = vec![ChargedSet::new(vec![0], 4)];
        let mut replay = ReplayBackend::new(trace);
        replay
            .begin_collection(&batch1, &CollectionPlan::quick())
            .expect("batch 1 is recorded");
        assert_eq!(
            replay.num_units(&batch1, &CollectionPlan::quick()),
            1,
            "only the unit carrying pattern 0's records is active"
        );
        let profile = collect(&mut replay, &batch1, &CollectionPlan::quick());
        assert_eq!(profile.trials(0), 5);
    }

    #[test]
    fn to_profile_matches_replayed_collection() {
        let (trace, original) = sample_trace();
        let folded = trace.to_profile();
        for pi in 0..trace.patterns.len() {
            assert_eq!(original.trials(pi), folded.trials(pi));
            for j in 0..8 {
                assert_eq!(original.count(pi, j), folded.count(pi, j));
            }
        }
    }

    #[test]
    fn chunked_upload_roundtrips_in_any_order() {
        let (trace, _) = sample_trace();
        let (fp, chunks) = trace.to_chunks(16);
        assert!(chunks.len() > 1, "sample trace must actually chunk");
        let total_bytes: u64 = chunks.iter().map(|c| c.len() as u64).sum();
        let mut asm =
            TraceAssembler::new(fp, chunks.len() as u32, total_bytes, 1 << 20).expect("fits");
        // Deliver out of order: last first.
        let mut order: Vec<usize> = (0..chunks.len()).collect();
        order.rotate_left(1);
        let mut done = None;
        for i in order {
            let got = asm
                .accept(i as u32, chunks[i].clone())
                .expect("clean chunk");
            assert_eq!(got.is_some(), asm.progress().0 == chunks.len());
            done = got.or(done);
        }
        let done = done.expect("assembled");
        assert_eq!(done.fingerprint(), fp);
        assert_eq!(**done.trace(), trace);
    }

    #[test]
    fn chunk_assembly_failures_are_typed() {
        let (trace, _) = sample_trace();
        let (fp, chunks) = trace.to_chunks(32);
        let total_bytes: u64 = chunks.iter().map(|c| c.len() as u64).sum();
        let total = chunks.len() as u32;

        assert_eq!(
            TraceAssembler::new(fp, 0, 1, 1 << 20).unwrap_err(),
            ChunkError::Empty
        );
        assert_eq!(
            TraceAssembler::new(fp, total, total_bytes, 4).unwrap_err(),
            ChunkError::Oversized {
                bytes: total_bytes,
                limit: 4
            }
        );

        let mut asm = TraceAssembler::new(fp, total, total_bytes, 1 << 20).expect("fits");
        assert_eq!(
            asm.accept(total, vec![]).unwrap_err(),
            ChunkError::IndexOutOfRange {
                index: total,
                total
            }
        );
        asm.accept(0, chunks[0].clone()).expect("first");
        assert_eq!(
            asm.accept(0, chunks[0].clone()).unwrap_err(),
            ChunkError::Duplicate { index: 0 }
        );

        // Declared size disagreeing with the delivered bytes — refused
        // at the first excess byte, before buffering more.
        let mut asm = TraceAssembler::new(fp, 1, 3, 1 << 20).expect("fits");
        assert_eq!(
            asm.accept(0, b"abcd".to_vec()).unwrap_err(),
            ChunkError::SizeMismatch {
                received: 4,
                declared: 3
            }
        );

        // A chunk count the declared bytes cannot fill is refused before
        // the slot table is allocated (no memory proportional to a lying
        // count), and mid-stream overflow is caught incrementally.
        assert_eq!(
            TraceAssembler::new(fp, u32::MAX, 16, 1 << 20).unwrap_err(),
            ChunkError::SizeMismatch {
                received: u64::from(u32::MAX),
                declared: 16
            }
        );
        let mut asm = TraceAssembler::new(fp, 4, 4, 1 << 20).expect("fits");
        asm.accept(0, b"ab".to_vec()).expect("within bounds");
        assert_eq!(
            asm.accept(1, b"cde".to_vec()).unwrap_err(),
            ChunkError::SizeMismatch {
                received: 5,
                declared: 4
            },
            "overflow must be refused at the offending chunk, not at completion"
        );

        // Well-formed trace bytes under the wrong fingerprint.
        let wrong = Fingerprint(fp.0 ^ 1);
        let mut asm = TraceAssembler::new(wrong, total, total_bytes, 1 << 20).expect("fits");
        let mut last = Ok(None);
        for (i, chunk) in chunks.iter().enumerate() {
            last = asm.accept(i as u32, chunk.clone());
        }
        assert_eq!(
            last.unwrap_err(),
            ChunkError::FingerprintMismatch {
                declared: wrong,
                actual: fp
            }
        );

        // Garbage payloads: non-UTF-8, then unparseable text.
        let mut asm = TraceAssembler::new(fp, 1, 2, 1 << 20).expect("fits");
        assert_eq!(
            asm.accept(0, vec![0xFF, 0xFE]).unwrap_err(),
            ChunkError::NotText
        );
        let mut asm = TraceAssembler::new(fp, 1, 9, 1 << 20).expect("fits");
        assert!(matches!(
            asm.accept(0, b"bogus 1 2".to_vec()).unwrap_err(),
            ChunkError::Parse(_)
        ));
    }

    #[test]
    fn file_roundtrip() {
        let (trace, _) = sample_trace();
        let path = std::env::temp_dir().join("beer_trace_test.txt");
        trace.save(&path).expect("save");
        let loaded = ProfileTrace::load(&path).expect("load");
        let _ = std::fs::remove_file(&path);
        assert_eq!(loaded, trace);
    }
}
