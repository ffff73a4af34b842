//! The `beer-registry v1` plain-text line codec.
//!
//! Log segments are sequences of these lines. The codec is torn-line tolerant by
//! construction: every parser returns `Option`, and a line that fails to
//! parse is skipped and counted by the replayer, never propagated — a
//! crash mid-append must cost at most the line it tore.

use beer_core::trace::Fingerprint;
use beer_ecc::{equivalence, LinearCode};
use beer_gf2::{BitMatrix, BitVec};

/// First line of every log segment.
pub const REGISTRY_HEADER: &str = "beer-registry v1";

/// A parsed log line, before it is applied to the in-memory state.
pub enum LogLine {
    /// A `code` line: a canonical code keyed by its canonical hash.
    Code {
        /// [`equivalence::canonical_hash`] of the code (validated).
        hash: u64,
        /// The canonical representative.
        code: LinearCode,
    },
    /// A `job` line: one completed record.
    Job {
        /// The solved profile's fingerprint.
        fingerprint: Fingerprint,
        /// The submitting tenant.
        tenant: String,
        /// The outcome, with `Unique` still a `(hash, bucket idx)`
        /// reference into the code index.
        outcome: LineOutcome,
    },
}

/// A job line's outcome field. `Unique` stays a reference — resolving it
/// against the code index (and validating the bucket exists) is the
/// replayer's job. This is also the in-memory tail and on-disk snapshot
/// representation: storing references instead of code clones keeps a
/// million records to tens of bytes each.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LineOutcome {
    /// `unique <hash> <idx>`.
    Unique {
        /// Canonical hash of the recovered code.
        hash: u64,
        /// Bucket index disambiguating 64-bit hash collisions.
        idx: u32,
    },
    /// `ambiguous <count> <0|1>`.
    Ambiguous {
        /// Witnesses found.
        count: usize,
        /// True if enumeration hit the solver's cap.
        truncated: bool,
    },
    /// `inconsistent`.
    Inconsistent,
}

/// Parses one body line. `None` marks a torn or corrupt line (the caller
/// counts and skips it).
pub fn parse_line(line: &str) -> Option<LogLine> {
    let mut fields = line.split_whitespace();
    match fields.next()? {
        "code" => {
            let hash = u64::from_str_radix(fields.next()?, 16).ok()?;
            let p: usize = fields.next()?.parse().ok()?;
            let k: usize = fields.next()?.parse().ok()?;
            let rows: Vec<BitVec> = (0..p)
                .map(|_| fields.next().and_then(|hex| row_from_hex(hex, k)))
                .collect::<Option<_>>()?;
            let code = LinearCode::from_parity_submatrix(BitMatrix::from_rows(&rows)).ok()?;
            // The stored form must already be canonical and must hash to
            // its own key — otherwise the line is corrupt.
            if equivalence::canonical_hash(&code) != hash {
                return None;
            }
            Some(LogLine::Code { hash, code })
        }
        "job" => {
            let fingerprint: Fingerprint = fields.next()?.parse().ok()?;
            let tenant = fields.next()?.to_string();
            let outcome = match fields.next()? {
                "unique" => LineOutcome::Unique {
                    hash: u64::from_str_radix(fields.next()?, 16).ok()?,
                    idx: fields.next()?.parse().ok()?,
                },
                "ambiguous" => LineOutcome::Ambiguous {
                    count: fields.next()?.parse().ok()?,
                    truncated: fields.next()? == "1",
                },
                "inconsistent" => LineOutcome::Inconsistent,
                _ => return None,
            };
            Some(LogLine::Job {
                fingerprint,
                tenant,
                outcome,
            })
        }
        _ => None,
    }
}

/// Renders a `code` line.
pub fn code_line(hash: u64, code: &LinearCode) -> String {
    use std::fmt::Write as _;
    let p = code.parity_submatrix();
    let mut line = format!("code {hash:016x} {} {}", p.rows(), p.cols());
    for row in p.iter_rows() {
        let _ = write!(line, " {}", row_to_hex(row));
    }
    line.push('\n');
    line
}

/// Renders a `job` line from a reference-form outcome.
pub fn job_line(fingerprint: Fingerprint, tenant: &str, outcome: &LineOutcome) -> String {
    match outcome {
        LineOutcome::Unique { hash, idx } => {
            format!("job {fingerprint} {tenant} unique {hash:016x} {idx}\n")
        }
        LineOutcome::Ambiguous { count, truncated } => {
            format!(
                "job {fingerprint} {tenant} ambiguous {count} {}\n",
                u8::from(*truncated)
            )
        }
        LineOutcome::Inconsistent => format!("job {fingerprint} {tenant} inconsistent\n"),
    }
}

/// Bits → hex nibbles, bit `j` at weight `1 << (j % 4)` of nibble `j / 4`.
pub fn row_to_hex(row: &BitVec) -> String {
    let mut s = String::with_capacity(row.len().div_ceil(4));
    for nib in 0..row.len().div_ceil(4) {
        let mut v = 0u32;
        for b in 0..4 {
            let i = nib * 4 + b;
            if i < row.len() && row.get(i) {
                v |= 1 << b;
            }
        }
        s.push(char::from_digit(v, 16).expect("nibble"));
    }
    s
}

/// Hex nibbles → bits; `None` if the width disagrees with `k` or a
/// padding bit is set.
pub fn row_from_hex(s: &str, k: usize) -> Option<BitVec> {
    if s.len() != k.div_ceil(4) {
        return None;
    }
    let mut row = BitVec::zeros(k);
    for (nib, c) in s.chars().enumerate() {
        let v = c.to_digit(16)?;
        for b in 0..4 {
            let i = nib * 4 + b;
            if v & (1 << b) != 0 {
                if i >= k {
                    return None; // padding bits must be zero
                }
                row.set(i, true);
            }
        }
    }
    Some(row)
}

/// Outcome discriminants shared with the binary snapshot record layout.
pub const OUTCOME_UNIQUE: u8 = 0;
pub const OUTCOME_AMBIGUOUS: u8 = 1;
pub const OUTCOME_INCONSISTENT: u8 = 2;
