//! `beer-wire`: the versioned, length-prefixed binary wire format.
//!
//! Every frame is `u32 length (big-endian) ‖ u8 tag ‖ payload`. The
//! length counts the tag and payload, and a receiver caps it *before*
//! allocating — an oversized declaration is a typed
//! [`WireError::FrameTooLarge`], never an allocation. Decoding is total:
//! truncated, trailing, corrupt, and unknown-future-tag bodies all map to
//! typed [`WireError`]s, mirroring the style of
//! [`TraceParseError::UnsupportedVersion`](beer_core::trace::TraceParseError).
//!
//! The format is hand-rolled over `std` only (this workspace vendors no
//! serde); integers are big-endian, strings are `u32 length ‖ UTF-8
//! bytes`, options are a `u8` presence flag, and ECC codes travel as
//! their bit-packed parity submatrix. See `DESIGN.md` §"The wire
//! protocol" for the full frame grammar and the error mapping table.

use crate::ring::{Ring, RingMember};
use beer_core::trace::Fingerprint;
use beer_ecc::LinearCode;
use beer_gf2::{BitMatrix, BitVec};
use beer_service::{JobState, Priority, Rejected};
use std::fmt;
use std::io::{self, Read, Write};

/// The protocol version this build speaks — the only one. A `Hello`
/// whose `[min, max]` range does not contain it is refused with a typed
/// [`ErrorKind::UnsupportedVersion`], so a peer built for a different
/// frame layout is turned away at the handshake instead of misread
/// later.
pub const WIRE_VERSION: u16 = 7;
/// Magic bytes opening every [`Message::Hello`] payload.
pub const WIRE_MAGIC: [u8; 4] = *b"BEER";
/// Default per-frame size cap. Large traces cross the wire as
/// [`Message::TraceChunk`]s well under this, so a frame this large is a
/// protocol violation, not a workload.
pub const DEFAULT_MAX_FRAME_BYTES: usize = 4 << 20;
/// Default chunk size for trace uploads — comfortably under any frame cap.
pub const DEFAULT_CHUNK_BYTES: usize = 64 << 10;

/// A typed failure decoding a frame. Decoding never panics: every way a
/// frame can be wrong has a variant here.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The body ended before its fields did.
    Truncated,
    /// The body continued past its last field.
    TrailingBytes {
        /// Unconsumed bytes.
        extra: usize,
    },
    /// The length prefix declares a frame over the receiver's cap —
    /// refused before any allocation.
    FrameTooLarge {
        /// Declared length.
        len: u64,
        /// The receiver's cap.
        limit: u64,
    },
    /// A tag this protocol version does not define — likely a frame from
    /// a newer peer. The body is not interpreted at all.
    UnknownTag {
        /// The tag as found.
        tag: u8,
    },
    /// A Hello frame not opening with [`WIRE_MAGIC`] — the peer is not
    /// speaking beer-wire.
    BadMagic,
    /// A string field holding invalid UTF-8.
    BadUtf8,
    /// A field holding a value outside its domain (bad enum
    /// discriminant, non-boolean flag, unbuildable code matrix, …).
    BadValue {
        /// Which field.
        what: &'static str,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated mid-field"),
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after the last field")
            }
            WireError::FrameTooLarge { len, limit } => {
                write!(f, "declared frame length {len} over the cap of {limit}")
            }
            WireError::UnknownTag { tag } => write!(
                f,
                "unknown frame tag {tag:#04x} (this build speaks beer-wire v{WIRE_VERSION})"
            ),
            WireError::BadMagic => write!(f, "hello does not open with the beer-wire magic"),
            WireError::BadUtf8 => write!(f, "string field is not UTF-8"),
            WireError::BadValue { what } => write!(f, "field {what:?} holds an invalid value"),
        }
    }
}

impl std::error::Error for WireError {}

/// Why reading the next message from a stream failed.
#[derive(Debug)]
pub enum RecvError {
    /// The peer closed the stream cleanly at a frame boundary.
    Closed,
    /// Transport failure (including read timeouts).
    Io(io::Error),
    /// The bytes arrived but are not a valid frame.
    Frame(WireError),
}

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecvError::Closed => write!(f, "connection closed"),
            RecvError::Io(e) => write!(f, "transport error: {e}"),
            RecvError::Frame(e) => write!(f, "bad frame: {e}"),
        }
    }
}

impl std::error::Error for RecvError {}

// ---------------------------------------------------------------------------
// Primitive encode/decode
// ---------------------------------------------------------------------------

struct Writer<'a>(&'a mut Vec<u8>);

impl Writer<'_> {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.0.extend_from_slice(&v.to_be_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_be_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_be_bytes());
    }
    fn u128(&mut self, v: u128) {
        self.0.extend_from_slice(&v.to_be_bytes());
    }
    fn boolean(&mut self, v: bool) {
        self.u8(u8::from(v));
    }
    fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.0.extend_from_slice(v);
    }
    fn string(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
    fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            None => self.u8(0),
            Some(v) => {
                self.u8(1);
                self.u64(v);
            }
        }
    }
    fn opt_u128(&mut self, v: Option<u128>) {
        match v {
            None => self.u8(0),
            Some(v) => {
                self.u8(1);
                self.u128(v);
            }
        }
    }
    fn opt_bytes(&mut self, v: Option<&[u8]>) {
        match v {
            None => self.u8(0),
            Some(v) => {
                self.u8(1);
                self.bytes(v);
            }
        }
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_be_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn u128(&mut self) -> Result<u128, WireError> {
        Ok(u128::from_be_bytes(self.take(16)?.try_into().unwrap()))
    }

    fn boolean(&mut self, what: &'static str) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::BadValue { what }),
        }
    }

    /// A length-prefixed byte field. The declared length is checked
    /// against the *remaining frame bytes* before any allocation, so a
    /// lying prefix cannot trigger an allocation bomb.
    fn bytes(&mut self) -> Result<Vec<u8>, WireError> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    fn string(&mut self) -> Result<String, WireError> {
        String::from_utf8(self.bytes()?).map_err(|_| WireError::BadUtf8)
    }

    fn opt_u64(&mut self, what: &'static str) -> Result<Option<u64>, WireError> {
        Ok(if self.boolean(what)? {
            Some(self.u64()?)
        } else {
            None
        })
    }

    fn opt_u128(&mut self, what: &'static str) -> Result<Option<u128>, WireError> {
        Ok(if self.boolean(what)? {
            Some(self.u128()?)
        } else {
            None
        })
    }

    fn opt_bytes(&mut self, what: &'static str) -> Result<Option<Vec<u8>>, WireError> {
        Ok(if self.boolean(what)? {
            Some(self.bytes()?)
        } else {
            None
        })
    }

    fn finish(self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes {
                extra: self.buf.len() - self.pos,
            })
        }
    }
}

// ---------------------------------------------------------------------------
// Domain sub-encodings
// ---------------------------------------------------------------------------

fn put_priority(w: &mut Writer<'_>, p: Priority) {
    w.u8(match p {
        Priority::Low => 0,
        Priority::Normal => 1,
        Priority::High => 2,
    });
}

fn get_priority(r: &mut Reader) -> Result<Priority, WireError> {
    Ok(match r.u8()? {
        0 => Priority::Low,
        1 => Priority::Normal,
        2 => Priority::High,
        _ => return Err(WireError::BadValue { what: "priority" }),
    })
}

fn put_job_state(w: &mut Writer<'_>, s: JobState) {
    w.u8(match s {
        JobState::Queued => 0,
        JobState::Running => 1,
        JobState::Done => 2,
        JobState::Failed => 3,
        JobState::Cancelled => 4,
    });
}

fn get_job_state(r: &mut Reader) -> Result<JobState, WireError> {
    Ok(match r.u8()? {
        0 => JobState::Queued,
        1 => JobState::Running,
        2 => JobState::Done,
        3 => JobState::Failed,
        4 => JobState::Cancelled,
        _ => return Err(WireError::BadValue { what: "job state" }),
    })
}

/// A linear code travels as its parity submatrix: `u16 parity rows ‖ u32
/// k ‖ rows`, each row `⌈k/8⌉` bit-packed bytes (bit `j` at weight
/// `1 << (j % 8)` of byte `j / 8`, padding bits zero).
fn put_code(w: &mut Writer<'_>, code: &LinearCode) {
    let p = code.parity_submatrix();
    w.u16(p.rows() as u16);
    w.u32(p.cols() as u32);
    for row in p.iter_rows() {
        let mut bytes = vec![0u8; p.cols().div_ceil(8)];
        for j in 0..p.cols() {
            if row.get(j) {
                bytes[j / 8] |= 1 << (j % 8);
            }
        }
        w.0.extend_from_slice(&bytes);
    }
}

fn get_code(r: &mut Reader) -> Result<LinearCode, WireError> {
    let rows = r.u16()? as usize;
    let k = r.u32()? as usize;
    if rows == 0 || k == 0 {
        return Err(WireError::BadValue {
            what: "code dimensions",
        });
    }
    let row_bytes = k.div_ceil(8);
    let mut parity_rows = Vec::with_capacity(rows);
    for _ in 0..rows {
        let bytes = r.take(row_bytes)?;
        let mut row = BitVec::zeros(k);
        for j in 0..k {
            if bytes[j / 8] & (1 << (j % 8)) != 0 {
                row.set(j, true);
            }
        }
        // Padding bits past k must be zero — a nonzero pad is corruption.
        for (i, &b) in bytes.iter().enumerate() {
            for bit in 0..8 {
                if i * 8 + bit >= k && b & (1 << bit) != 0 {
                    return Err(WireError::BadValue {
                        what: "code row padding",
                    });
                }
            }
        }
        parity_rows.push(row);
    }
    LinearCode::from_parity_submatrix(BitMatrix::from_rows(&parity_rows)).map_err(|_| {
        WireError::BadValue {
            what: "parity submatrix",
        }
    })
}

/// The summary of a job's recovery outcome, as it travels on the wire —
/// the network twin of [`beer_service::CodeOutcome`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireOutcome {
    /// Exactly one ECC function is consistent: its canonical form.
    Unique(LinearCode),
    /// Several functions remain consistent.
    Ambiguous {
        /// Witnesses found.
        count: u64,
        /// True if enumeration stopped at the solver's cap.
        truncated: bool,
    },
    /// No function is consistent with the evidence.
    Inconsistent,
}

impl WireOutcome {
    /// Converts the service's outcome for the wire.
    pub fn from_outcome(outcome: &beer_service::CodeOutcome) -> WireOutcome {
        use beer_service::CodeOutcome;
        match outcome {
            CodeOutcome::Unique(code) => WireOutcome::Unique(code.clone()),
            CodeOutcome::Ambiguous { count, truncated } => WireOutcome::Ambiguous {
                count: *count as u64,
                truncated: *truncated,
            },
            CodeOutcome::Inconsistent => WireOutcome::Inconsistent,
        }
    }

    /// The recovered canonical code, if unique.
    pub fn unique_code(&self) -> Option<&LinearCode> {
        match self {
            WireOutcome::Unique(code) => Some(code),
            _ => None,
        }
    }
}

fn put_outcome(w: &mut Writer<'_>, outcome: &WireOutcome) {
    match outcome {
        WireOutcome::Unique(code) => {
            w.u8(0);
            put_code(w, code);
        }
        WireOutcome::Ambiguous { count, truncated } => {
            w.u8(1);
            w.u64(*count);
            w.boolean(*truncated);
        }
        WireOutcome::Inconsistent => w.u8(2),
    }
}

fn get_outcome(r: &mut Reader) -> Result<WireOutcome, WireError> {
    Ok(match r.u8()? {
        0 => WireOutcome::Unique(get_code(r)?),
        1 => WireOutcome::Ambiguous {
            count: r.u64()?,
            truncated: r.boolean("ambiguous truncated")?,
        },
        2 => WireOutcome::Inconsistent,
        // Tag 3 (v6's budget-exhausted outcome) is retired, not reused.
        _ => return Err(WireError::BadValue { what: "outcome" }),
    })
}

/// Why a job failed, as it travels on the wire. Structured causes
/// flatten to their rendered message — the remote caller cannot retry a
/// solver internals anyway.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireJobError {
    /// The recovery session failed (message preserved).
    Recovery {
        /// The rendered session error.
        message: String,
    },
    /// The job's deadline expired.
    DeadlineExpired,
    /// The job was cancelled.
    Cancelled,
    /// The service shut down before the job ran.
    ShutDown,
    /// The job id is unknown to the service.
    Unknown,
}

impl WireJobError {
    /// Converts the service's job error for the wire.
    pub fn from_error(e: &beer_service::JobError) -> WireJobError {
        use beer_service::JobError;
        match e {
            JobError::Recovery(e) => WireJobError::Recovery {
                message: e.to_string(),
            },
            JobError::DeadlineExpired => WireJobError::DeadlineExpired,
            JobError::Cancelled => WireJobError::Cancelled,
            JobError::ShutDown => WireJobError::ShutDown,
            JobError::Unknown => WireJobError::Unknown,
        }
    }
}

impl fmt::Display for WireJobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireJobError::Recovery { message } => write!(f, "recovery failed: {message}"),
            WireJobError::DeadlineExpired => write!(f, "deadline expired"),
            WireJobError::Cancelled => write!(f, "cancelled"),
            WireJobError::ShutDown => write!(f, "service shut down before the job ran"),
            WireJobError::Unknown => write!(f, "unknown job id"),
        }
    }
}

impl std::error::Error for WireJobError {}

fn put_job_error(w: &mut Writer<'_>, e: &WireJobError) {
    match e {
        WireJobError::Recovery { message } => {
            w.u8(0);
            w.string(message);
        }
        WireJobError::DeadlineExpired => w.u8(1),
        WireJobError::Cancelled => w.u8(2),
        WireJobError::ShutDown => w.u8(3),
        WireJobError::Unknown => w.u8(4),
    }
}

fn get_job_error(r: &mut Reader) -> Result<WireJobError, WireError> {
    Ok(match r.u8()? {
        0 => WireJobError::Recovery {
            message: r.string()?,
        },
        1 => WireJobError::DeadlineExpired,
        2 => WireJobError::Cancelled,
        3 => WireJobError::ShutDown,
        4 => WireJobError::Unknown,
        _ => return Err(WireError::BadValue { what: "job error" }),
    })
}

/// A completed job's product on the wire — the network twin of
/// [`beer_service::JobOutput`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireOutput {
    /// The recovery outcome summary.
    pub outcome: WireOutcome,
    /// True if served from the persistent registry without solving.
    pub from_cache: bool,
    /// Set if the job coalesced onto another in-flight job.
    pub coalesced_into: Option<u64>,
}

/// How a remote job ended.
pub type WireResult = Result<WireOutput, WireJobError>;

fn put_result(w: &mut Writer<'_>, result: &WireResult) {
    match result {
        Ok(output) => {
            w.u8(0);
            put_outcome(w, &output.outcome);
            w.boolean(output.from_cache);
            w.opt_u64(output.coalesced_into);
        }
        Err(e) => {
            w.u8(1);
            put_job_error(w, e);
        }
    }
}

fn get_result(r: &mut Reader) -> Result<WireResult, WireError> {
    Ok(match r.u8()? {
        0 => Ok(WireOutput {
            outcome: get_outcome(r)?,
            from_cache: r.boolean("from_cache")?,
            coalesced_into: r.opt_u64("coalesced_into")?,
        }),
        1 => Err(get_job_error(r)?),
        _ => return Err(WireError::BadValue { what: "result" }),
    })
}

/// A job lifecycle event on the wire — the network twin of
/// [`beer_service::JobEvent`]. Session progress events flatten to a
/// rendered detail string (their numeric payloads are service-internal).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireEvent {
    /// The job was admitted under the given tenant.
    Submitted {
        /// The tenant.
        tenant: String,
    },
    /// The job entered a new lifecycle state.
    State {
        /// The new state.
        state: JobState,
    },
    /// The job coalesced onto an in-flight job with the same fingerprint.
    Coalesced {
        /// The primary job.
        primary: u64,
    },
    /// The job was answered from the registry cache.
    CacheHit,
    /// The job was promoted back into the queue after its primary was
    /// cancelled.
    Requeued,
    /// A progress event from the job's recovery session.
    Progress {
        /// Rendered description of the session event.
        detail: String,
    },
}

fn put_event(w: &mut Writer<'_>, event: &WireEvent) {
    match event {
        WireEvent::Submitted { tenant } => {
            w.u8(0);
            w.string(tenant);
        }
        WireEvent::State { state } => {
            w.u8(1);
            put_job_state(w, *state);
        }
        WireEvent::Coalesced { primary } => {
            w.u8(2);
            w.u64(*primary);
        }
        WireEvent::CacheHit => w.u8(3),
        WireEvent::Requeued => w.u8(4),
        WireEvent::Progress { detail } => {
            w.u8(5);
            w.string(detail);
        }
    }
}

fn get_event(r: &mut Reader) -> Result<WireEvent, WireError> {
    Ok(match r.u8()? {
        0 => WireEvent::Submitted {
            tenant: r.string()?,
        },
        1 => WireEvent::State {
            state: get_job_state(r)?,
        },
        2 => WireEvent::Coalesced { primary: r.u64()? },
        3 => WireEvent::CacheHit,
        4 => WireEvent::Requeued,
        5 => WireEvent::Progress {
            detail: r.string()?,
        },
        _ => return Err(WireError::BadValue { what: "event" }),
    })
}

/// One registry code entry on the wire.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireCodeEntry {
    /// The code's canonical hash.
    pub hash: u64,
    /// The canonical representative.
    pub code: LinearCode,
    /// Every profile fingerprint that recovered this function.
    pub fingerprints: Vec<Fingerprint>,
}

fn put_code_entry(w: &mut Writer<'_>, entry: &WireCodeEntry) {
    w.u64(entry.hash);
    put_code(w, &entry.code);
    w.u32(entry.fingerprints.len() as u32);
    for fp in &entry.fingerprints {
        w.u128(fp.0);
    }
}

fn get_code_entry(r: &mut Reader) -> Result<WireCodeEntry, WireError> {
    let hash = r.u64()?;
    let code = get_code(r)?;
    let count = r.u32()? as usize;
    // 16 bytes each: bound the declared count by the remaining frame.
    if count.saturating_mul(16) > r.buf.len() - r.pos {
        return Err(WireError::Truncated);
    }
    let mut fingerprints = Vec::with_capacity(count);
    for _ in 0..count {
        fingerprints.push(Fingerprint(r.u128()?));
    }
    Ok(WireCodeEntry {
        hash,
        code,
        fingerprints,
    })
}

fn put_code_entries(w: &mut Writer<'_>, entries: &[WireCodeEntry]) {
    w.u32(entries.len() as u32);
    for entry in entries {
        put_code_entry(w, entry);
    }
}

fn get_code_entries(r: &mut Reader) -> Result<Vec<WireCodeEntry>, WireError> {
    let count = r.u32()? as usize;
    // Each entry is at least 14 bytes; refuse a count the frame cannot hold.
    if count.saturating_mul(14) > r.buf.len() - r.pos {
        return Err(WireError::Truncated);
    }
    (0..count).map(|_| get_code_entry(r)).collect()
}

/// A ring travels as `u64 epoch ‖ u32 vnodes ‖ u32 member count ‖
/// members`, each member `string name ‖ string addr`, members in strict
/// ascending name order (the ring's canonical order — a frame listing
/// them any other way is corrupt, which keeps the encoding bijective).
fn put_ring(w: &mut Writer<'_>, ring: &Ring) {
    w.u64(ring.epoch());
    w.u32(ring.vnodes());
    w.u32(ring.members().len() as u32);
    for member in ring.members() {
        w.string(&member.name);
        w.string(&member.addr);
    }
}

fn get_ring(r: &mut Reader) -> Result<Ring, WireError> {
    let epoch = r.u64()?;
    let vnodes = r.u32()?;
    let count = r.u32()? as usize;
    // Each member is at least 10 bytes (two length prefixes + one byte
    // of name and of addr); refuse a count the frame cannot hold.
    if count.saturating_mul(10) > r.buf.len() - r.pos {
        return Err(WireError::Truncated);
    }
    let mut members = Vec::with_capacity(count);
    for _ in 0..count {
        let name = r.string()?;
        let addr = r.string()?;
        if let Some(RingMember { name: prev, .. }) = members.last() {
            if prev >= &name {
                return Err(WireError::BadValue {
                    what: "ring member order",
                });
            }
        }
        members.push(RingMember { name, addr });
    }
    Ring::new(epoch, vnodes, members).map_err(|_| WireError::BadValue { what: "ring" })
}

/// A completed job's registry record on the wire.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireRecord {
    /// The tenant that completed the profile.
    pub tenant: String,
    /// The recorded outcome.
    pub outcome: WireOutcome,
}

/// The kind of a typed [`Message::Error`] frame. The first five mirror
/// [`beer_service::Rejected`] exactly (the load-shedding map: queue
/// backpressure becomes a wire error, never a dropped socket); the rest
/// are protocol-level refusals.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ErrorKind {
    /// The service queue is at capacity; retry later.
    QueueFull {
        /// The configured capacity.
        capacity: u64,
    },
    /// The job exceeds the service's size ceiling.
    TooLarge {
        /// Patterns the job would collect.
        patterns: u64,
        /// The configured limit.
        limit: u64,
    },
    /// The tenant is unknown or unusable.
    InvalidTenant,
    /// The service's schedule cannot be resolved for this dataword length.
    Unschedulable {
        /// The dataword length.
        k: u64,
    },
    /// The service is draining; no new submissions.
    ShuttingDown,
    /// Version negotiation failed; the server speaks `[min, max]`
    /// (`[WIRE_VERSION, WIRE_VERSION]` from this build).
    UnsupportedVersion {
        /// Oldest version the server speaks.
        min: u16,
        /// Newest version the server speaks.
        max: u16,
    },
    /// The tenant/token pair was refused.
    AuthFailed,
    /// A submit named a fingerprint this server holds no upload for —
    /// upload the trace (again) first.
    UnknownFingerprint {
        /// The fingerprint as submitted.
        fingerprint: Fingerprint,
    },
    /// The job id is not one this connection may touch.
    UnknownJob {
        /// The job id as sent.
        job: u64,
    },
    /// A trace chunk was refused (detail carries the `ChunkError`).
    BadChunk,
    /// The connection limit is reached; retry later.
    Busy,
    /// The frame sequence violates the protocol (e.g. no Hello first).
    BadRequest,
    /// This node does not own the submitted fingerprint under the
    /// current ring — resubmit to `owner`. Sent to a peer routing on a
    /// stale epoch (or submitting a trace this node holds no upload
    /// for), and to a peer whose already-forwarded submit landed on a
    /// non-owner (the loop guard: a forwarded job is never forwarded
    /// again).
    WrongNode {
        /// `host:port` of the owning node.
        owner: String,
    },
}

impl ErrorKind {
    /// The wire mapping of a service rejection.
    pub fn from_rejected(r: &Rejected) -> ErrorKind {
        match r {
            Rejected::QueueFull { capacity } => ErrorKind::QueueFull {
                capacity: *capacity as u64,
            },
            Rejected::TooLarge { patterns, limit } => ErrorKind::TooLarge {
                patterns: *patterns as u64,
                limit: *limit as u64,
            },
            Rejected::InvalidTenant { .. } => ErrorKind::InvalidTenant,
            Rejected::Unschedulable { k } => ErrorKind::Unschedulable { k: *k as u64 },
            Rejected::ShuttingDown => ErrorKind::ShuttingDown,
        }
    }
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ErrorKind::QueueFull { capacity } => {
                write!(f, "queue full ({capacity} jobs)")
            }
            ErrorKind::TooLarge { patterns, limit } => {
                write!(f, "job too large ({patterns} patterns, limit {limit})")
            }
            ErrorKind::InvalidTenant => write!(f, "invalid tenant"),
            ErrorKind::Unschedulable { k } => write!(f, "unschedulable for k = {k}"),
            ErrorKind::ShuttingDown => write!(f, "server shutting down"),
            ErrorKind::UnsupportedVersion { min, max } => {
                write!(
                    f,
                    "unsupported protocol version (server speaks {min}..={max})"
                )
            }
            ErrorKind::AuthFailed => write!(f, "authentication failed"),
            ErrorKind::UnknownFingerprint { fingerprint } => {
                write!(f, "no uploaded trace for fingerprint {fingerprint}")
            }
            ErrorKind::UnknownJob { job } => write!(f, "unknown job {job}"),
            ErrorKind::BadChunk => write!(f, "trace chunk refused"),
            ErrorKind::Busy => write!(f, "connection limit reached"),
            ErrorKind::BadRequest => write!(f, "protocol violation"),
            ErrorKind::WrongNode { owner } => {
                write!(f, "wrong node: the fingerprint is owned by {owner}")
            }
        }
    }
}

fn put_error_kind(w: &mut Writer<'_>, kind: &ErrorKind) {
    match kind {
        ErrorKind::QueueFull { capacity } => {
            w.u8(0);
            w.u64(*capacity);
        }
        ErrorKind::TooLarge { patterns, limit } => {
            w.u8(1);
            w.u64(*patterns);
            w.u64(*limit);
        }
        ErrorKind::InvalidTenant => w.u8(2),
        ErrorKind::Unschedulable { k } => {
            w.u8(3);
            w.u64(*k);
        }
        ErrorKind::ShuttingDown => w.u8(4),
        ErrorKind::UnsupportedVersion { min, max } => {
            w.u8(5);
            w.u16(*min);
            w.u16(*max);
        }
        ErrorKind::AuthFailed => w.u8(6),
        ErrorKind::UnknownFingerprint { fingerprint } => {
            w.u8(7);
            w.u128(fingerprint.0);
        }
        ErrorKind::UnknownJob { job } => {
            w.u8(8);
            w.u64(*job);
        }
        ErrorKind::BadChunk => w.u8(9),
        ErrorKind::Busy => w.u8(10),
        ErrorKind::BadRequest => w.u8(11),
        ErrorKind::WrongNode { owner } => {
            w.u8(12);
            w.string(owner);
        }
    }
}

fn get_error_kind(r: &mut Reader) -> Result<ErrorKind, WireError> {
    Ok(match r.u8()? {
        0 => ErrorKind::QueueFull { capacity: r.u64()? },
        1 => ErrorKind::TooLarge {
            patterns: r.u64()?,
            limit: r.u64()?,
        },
        2 => ErrorKind::InvalidTenant,
        3 => ErrorKind::Unschedulable { k: r.u64()? },
        4 => ErrorKind::ShuttingDown,
        5 => ErrorKind::UnsupportedVersion {
            min: r.u16()?,
            max: r.u16()?,
        },
        6 => ErrorKind::AuthFailed,
        7 => ErrorKind::UnknownFingerprint {
            fingerprint: Fingerprint(r.u128()?),
        },
        8 => ErrorKind::UnknownJob { job: r.u64()? },
        9 => ErrorKind::BadChunk,
        10 => ErrorKind::Busy,
        11 => ErrorKind::BadRequest,
        12 => ErrorKind::WrongNode { owner: r.string()? },
        _ => return Err(WireError::BadValue { what: "error kind" }),
    })
}

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

/// Every beer-wire frame. Client→server and server→client frames
/// share one tag space (a peer receiving a frame it never expects answers
/// [`ErrorKind::BadRequest`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Message {
    /// Client → server, first frame: magic, the version range the client
    /// speaks, and the tenant credentials.
    Hello {
        /// Oldest protocol version the client speaks.
        min_version: u16,
        /// Newest protocol version the client speaks.
        max_version: u16,
        /// Tenant name.
        tenant: String,
        /// Tenant auth token (ignored by open services).
        token: String,
    },
    /// Server → client: negotiation succeeded at `version`.
    HelloAck {
        /// The negotiated protocol version.
        version: u16,
        /// Human-readable server identity.
        server: String,
        /// The cluster ring, when this server is a cluster member (a
        /// presence byte, then the ring).
        ring: Option<Ring>,
    },
    /// Client → server: a chunked trace upload begins.
    TraceBegin {
        /// Evidence fingerprint keying the upload.
        fingerprint: Fingerprint,
        /// Chunks that will follow.
        total_chunks: u32,
        /// Total payload bytes across all chunks.
        total_bytes: u64,
    },
    /// Client → server: one chunk of an upload in progress.
    TraceChunk {
        /// The upload's fingerprint.
        fingerprint: Fingerprint,
        /// 0-based chunk index.
        index: u32,
        /// The chunk's bytes.
        data: Vec<u8>,
    },
    /// Server → client: the upload assembled and verified.
    TraceAck {
        /// The verified fingerprint.
        fingerprint: Fingerprint,
    },
    /// Client → server: submit the uploaded trace with this fingerprint.
    Submit {
        /// Fingerprint of a previously uploaded trace.
        fingerprint: Fingerprint,
        /// Priority within the tenant's queue.
        priority: Priority,
        /// Submission-to-completion deadline in milliseconds.
        deadline_ms: Option<u64>,
        /// Trace id minted at submission, behind a presence byte. When
        /// absent the server mints one at admission.
        trace_id: Option<u128>,
    },
    /// Server → client: the job was admitted.
    SubmitAck {
        /// The job id (scoped to this server instance).
        job: u64,
    },
    /// Client → server: stream the job's events until it completes.
    Watch {
        /// The job to watch.
        job: u64,
    },
    /// Server → client: one job event (during a watch).
    Event {
        /// The job the event concerns.
        job: u64,
        /// The event.
        event: WireEvent,
    },
    /// Server → client: the job reached a terminal state (ends a watch).
    Done {
        /// The job.
        job: u64,
        /// How it ended.
        result: WireResult,
    },
    /// Client → server: request cancellation.
    Cancel {
        /// The job to cancel.
        job: u64,
    },
    /// Server → client: cancellation outcome.
    CancelAck {
        /// The job.
        job: u64,
        /// False if the job was already terminal.
        cancelled: bool,
    },
    /// Client → server: look up a profile fingerprint in the registry.
    QueryFingerprint {
        /// The fingerprint.
        fingerprint: Fingerprint,
    },
    /// Server → client: the registry's answer for a fingerprint.
    FingerprintInfo {
        /// The queried fingerprint.
        fingerprint: Fingerprint,
        /// The completed record, if any.
        record: Option<WireRecord>,
    },
    /// Client → server: one page of the codes with these
    /// dimensions. The cursor is opaque: `None` starts from the
    /// beginning, and each answer's `next_cursor` resumes strictly after
    /// the last entry it returned. A cursor the server did not mint for
    /// this same query is refused with [`ErrorKind::BadRequest`].
    QueryDimsPage {
        /// Codeword length.
        n: u32,
        /// Dataword length.
        k: u32,
        /// Opaque resume cursor from a previous [`Message::DimsPage`].
        cursor: Option<Vec<u8>>,
        /// Entries per page; 0 means the server's own cap.
        limit: u32,
    },
    /// Server → client: one page of a dimension query.
    DimsPage {
        /// This page's entries.
        entries: Vec<WireCodeEntry>,
        /// Send this back to fetch the next page; `None` means done.
        next_cursor: Option<Vec<u8>>,
    },
    /// Client → server: one page of the codes with this canonical
    /// hash. Cursor semantics match [`Message::QueryDimsPage`].
    QueryHashPage {
        /// The canonical hash.
        hash: u64,
        /// Opaque resume cursor from a previous [`Message::HashPage`].
        cursor: Option<Vec<u8>>,
        /// Entries per page; 0 means the server's own cap.
        limit: u32,
    },
    /// Server → client: one page of a hash query.
    HashPage {
        /// This page's entries.
        entries: Vec<WireCodeEntry>,
        /// Send this back to fetch the next page; `None` means done.
        next_cursor: Option<Vec<u8>>,
    },
    /// Server → client, push: the cluster membership changed.
    /// Clients adopt the ring (if its epoch is newer) and re-route
    /// without reconnecting.
    RingChanged {
        /// The new ring.
        ring: Ring,
    },
    /// Node → node: a submit proxied by a non-owning cluster node.
    /// Carries the forwarder's ring epoch; the receiver answers
    /// [`ErrorKind::WrongNode`] instead of forwarding again if it does
    /// not own the fingerprint (the loop guard).
    SubmitForwarded {
        /// Fingerprint of a previously uploaded trace.
        fingerprint: Fingerprint,
        /// Priority within the tenant's queue.
        priority: Priority,
        /// Submission-to-completion deadline in milliseconds.
        deadline_ms: Option<u64>,
        /// The forwarder's ring epoch, for stale-routing diagnostics.
        epoch: u64,
        /// The origin node's trace id for the job, so both ends of a
        /// forwarded submit report the same id. Always present: the
        /// forwarder mints one before the hop if the client did not.
        trace_id: u128,
    },
    /// Client → server: request the node's metrics exposition.
    QueryMetrics {
        /// How many flight-recorder events to include, newest last.
        /// 0 means counters and histograms only.
        tail: u32,
    },
    /// Server → client: the metrics exposition — one
    /// line-oriented text block of counters, gauges, histogram
    /// summaries, and the flight-recorder tail.
    MetricsInfo {
        /// The rendered exposition.
        text: String,
    },
    /// Server → client: a typed refusal (see [`ErrorKind`]).
    Error {
        /// What went wrong.
        kind: ErrorKind,
        /// Human-readable detail.
        detail: String,
    },
    /// Either direction: the peer is closing the connection cleanly.
    Bye,
}

// Tags retired with older protocol versions (6, 15–18, 20, 28, and the
// v5 stats frames 19 `QueryStats` / 29 `StatsInfo`) are never reused:
// they decode as `UnknownTag`.
const TAG_HELLO: u8 = 1;
const TAG_HELLO_ACK: u8 = 2;
const TAG_TRACE_BEGIN: u8 = 3;
const TAG_TRACE_CHUNK: u8 = 4;
const TAG_TRACE_ACK: u8 = 5;
const TAG_SUBMIT_ACK: u8 = 7;
const TAG_WATCH: u8 = 8;
const TAG_EVENT: u8 = 9;
const TAG_DONE: u8 = 10;
const TAG_CANCEL: u8 = 11;
const TAG_CANCEL_ACK: u8 = 12;
const TAG_QUERY_FINGERPRINT: u8 = 13;
const TAG_FINGERPRINT_INFO: u8 = 14;
const TAG_ERROR: u8 = 21;
const TAG_BYE: u8 = 22;
const TAG_QUERY_DIMS_PAGE: u8 = 23;
const TAG_DIMS_PAGE: u8 = 24;
const TAG_QUERY_HASH_PAGE: u8 = 25;
const TAG_HASH_PAGE: u8 = 26;
const TAG_RING_CHANGED: u8 = 27;
const TAG_SUBMIT: u8 = 30;
const TAG_SUBMIT_FORWARDED: u8 = 31;
const TAG_QUERY_METRICS: u8 = 32;
const TAG_METRICS_INFO: u8 = 33;

impl Message {
    /// Encodes the frame body (tag + payload, no length prefix).
    pub fn encode_body(&self) -> Vec<u8> {
        let mut body = Vec::new();
        self.encode_body_into(&mut body);
        body
    }

    /// Encodes the frame body (tag + payload, no length prefix) by
    /// *appending* to `buf` — the allocation-free path for hot frames
    /// (Event, SubmitAck, cache-hit Done) encoding into pooled buffers.
    /// Produces byte-for-byte the same encoding as
    /// [`Message::encode_body`].
    pub fn encode_body_into(&self, buf: &mut Vec<u8>) {
        let mut w = Writer(buf);
        match self {
            Message::Hello {
                min_version,
                max_version,
                tenant,
                token,
            } => {
                w.u8(TAG_HELLO);
                w.0.extend_from_slice(&WIRE_MAGIC);
                w.u16(*min_version);
                w.u16(*max_version);
                w.string(tenant);
                w.string(token);
            }
            Message::HelloAck {
                version,
                server,
                ring,
            } => {
                w.u8(TAG_HELLO_ACK);
                w.u16(*version);
                w.string(server);
                match ring {
                    Some(ring) => {
                        w.u8(1);
                        put_ring(&mut w, ring);
                    }
                    None => w.u8(0),
                }
            }
            Message::TraceBegin {
                fingerprint,
                total_chunks,
                total_bytes,
            } => {
                w.u8(TAG_TRACE_BEGIN);
                w.u128(fingerprint.0);
                w.u32(*total_chunks);
                w.u64(*total_bytes);
            }
            Message::TraceChunk {
                fingerprint,
                index,
                data,
            } => {
                w.u8(TAG_TRACE_CHUNK);
                w.u128(fingerprint.0);
                w.u32(*index);
                w.bytes(data);
            }
            Message::TraceAck { fingerprint } => {
                w.u8(TAG_TRACE_ACK);
                w.u128(fingerprint.0);
            }
            Message::Submit {
                fingerprint,
                priority,
                deadline_ms,
                trace_id,
            } => {
                w.u8(TAG_SUBMIT);
                w.u128(fingerprint.0);
                put_priority(&mut w, *priority);
                w.opt_u64(*deadline_ms);
                w.opt_u128(*trace_id);
            }
            Message::SubmitAck { job } => {
                w.u8(TAG_SUBMIT_ACK);
                w.u64(*job);
            }
            Message::Watch { job } => {
                w.u8(TAG_WATCH);
                w.u64(*job);
            }
            Message::Event { job, event } => {
                w.u8(TAG_EVENT);
                w.u64(*job);
                put_event(&mut w, event);
            }
            Message::Done { job, result } => {
                w.u8(TAG_DONE);
                w.u64(*job);
                put_result(&mut w, result);
            }
            Message::Cancel { job } => {
                w.u8(TAG_CANCEL);
                w.u64(*job);
            }
            Message::CancelAck { job, cancelled } => {
                w.u8(TAG_CANCEL_ACK);
                w.u64(*job);
                w.boolean(*cancelled);
            }
            Message::QueryFingerprint { fingerprint } => {
                w.u8(TAG_QUERY_FINGERPRINT);
                w.u128(fingerprint.0);
            }
            Message::FingerprintInfo {
                fingerprint,
                record,
            } => {
                w.u8(TAG_FINGERPRINT_INFO);
                w.u128(fingerprint.0);
                match record {
                    None => w.u8(0),
                    Some(record) => {
                        w.u8(1);
                        w.string(&record.tenant);
                        put_outcome(&mut w, &record.outcome);
                    }
                }
            }
            Message::QueryDimsPage {
                n,
                k,
                cursor,
                limit,
            } => {
                w.u8(TAG_QUERY_DIMS_PAGE);
                w.u32(*n);
                w.u32(*k);
                w.opt_bytes(cursor.as_deref());
                w.u32(*limit);
            }
            Message::DimsPage {
                entries,
                next_cursor,
            } => {
                w.u8(TAG_DIMS_PAGE);
                put_code_entries(&mut w, entries);
                w.opt_bytes(next_cursor.as_deref());
            }
            Message::QueryHashPage {
                hash,
                cursor,
                limit,
            } => {
                w.u8(TAG_QUERY_HASH_PAGE);
                w.u64(*hash);
                w.opt_bytes(cursor.as_deref());
                w.u32(*limit);
            }
            Message::HashPage {
                entries,
                next_cursor,
            } => {
                w.u8(TAG_HASH_PAGE);
                put_code_entries(&mut w, entries);
                w.opt_bytes(next_cursor.as_deref());
            }
            Message::RingChanged { ring } => {
                w.u8(TAG_RING_CHANGED);
                put_ring(&mut w, ring);
            }
            Message::SubmitForwarded {
                fingerprint,
                priority,
                deadline_ms,
                epoch,
                trace_id,
            } => {
                w.u8(TAG_SUBMIT_FORWARDED);
                w.u128(fingerprint.0);
                put_priority(&mut w, *priority);
                w.opt_u64(*deadline_ms);
                w.u64(*epoch);
                w.u128(*trace_id);
            }
            Message::QueryMetrics { tail } => {
                w.u8(TAG_QUERY_METRICS);
                w.u32(*tail);
            }
            Message::MetricsInfo { text } => {
                w.u8(TAG_METRICS_INFO);
                w.string(text);
            }
            Message::Error { kind, detail } => {
                w.u8(TAG_ERROR);
                put_error_kind(&mut w, kind);
                w.string(detail);
            }
            Message::Bye => w.u8(TAG_BYE),
        }
    }

    /// Decodes a frame body (tag + payload).
    ///
    /// # Errors
    ///
    /// A typed [`WireError`]; never panics, whatever the bytes.
    pub fn decode_body(body: &[u8]) -> Result<Message, WireError> {
        let mut r = Reader::new(body);
        let tag = r.u8()?;
        let message = match tag {
            TAG_HELLO => {
                if r.take(4)? != WIRE_MAGIC {
                    return Err(WireError::BadMagic);
                }
                Message::Hello {
                    min_version: r.u16()?,
                    max_version: r.u16()?,
                    tenant: r.string()?,
                    token: r.string()?,
                }
            }
            TAG_HELLO_ACK => {
                let version = r.u16()?;
                let server = r.string()?;
                let ring = match r.u8()? {
                    0 => None,
                    1 => Some(get_ring(&mut r)?),
                    _ => return Err(WireError::BadValue { what: "ring flag" }),
                };
                Message::HelloAck {
                    version,
                    server,
                    ring,
                }
            }
            TAG_TRACE_BEGIN => Message::TraceBegin {
                fingerprint: Fingerprint(r.u128()?),
                total_chunks: r.u32()?,
                total_bytes: r.u64()?,
            },
            TAG_TRACE_CHUNK => Message::TraceChunk {
                fingerprint: Fingerprint(r.u128()?),
                index: r.u32()?,
                data: r.bytes()?,
            },
            TAG_TRACE_ACK => Message::TraceAck {
                fingerprint: Fingerprint(r.u128()?),
            },
            TAG_SUBMIT => Message::Submit {
                fingerprint: Fingerprint(r.u128()?),
                priority: get_priority(&mut r)?,
                deadline_ms: r.opt_u64("deadline")?,
                trace_id: r.opt_u128("trace id present")?,
            },
            TAG_SUBMIT_ACK => Message::SubmitAck { job: r.u64()? },
            TAG_WATCH => Message::Watch { job: r.u64()? },
            TAG_EVENT => Message::Event {
                job: r.u64()?,
                event: get_event(&mut r)?,
            },
            TAG_DONE => Message::Done {
                job: r.u64()?,
                result: get_result(&mut r)?,
            },
            TAG_CANCEL => Message::Cancel { job: r.u64()? },
            TAG_CANCEL_ACK => Message::CancelAck {
                job: r.u64()?,
                cancelled: r.boolean("cancelled")?,
            },
            TAG_QUERY_FINGERPRINT => Message::QueryFingerprint {
                fingerprint: Fingerprint(r.u128()?),
            },
            TAG_FINGERPRINT_INFO => {
                let fingerprint = Fingerprint(r.u128()?);
                let record = if r.boolean("record present")? {
                    Some(WireRecord {
                        tenant: r.string()?,
                        outcome: get_outcome(&mut r)?,
                    })
                } else {
                    None
                };
                Message::FingerprintInfo {
                    fingerprint,
                    record,
                }
            }
            TAG_QUERY_DIMS_PAGE => Message::QueryDimsPage {
                n: r.u32()?,
                k: r.u32()?,
                cursor: r.opt_bytes("dims cursor present")?,
                limit: r.u32()?,
            },
            TAG_DIMS_PAGE => Message::DimsPage {
                entries: get_code_entries(&mut r)?,
                next_cursor: r.opt_bytes("dims next cursor present")?,
            },
            TAG_QUERY_HASH_PAGE => Message::QueryHashPage {
                hash: r.u64()?,
                cursor: r.opt_bytes("hash cursor present")?,
                limit: r.u32()?,
            },
            TAG_HASH_PAGE => Message::HashPage {
                entries: get_code_entries(&mut r)?,
                next_cursor: r.opt_bytes("hash next cursor present")?,
            },
            TAG_RING_CHANGED => Message::RingChanged {
                ring: get_ring(&mut r)?,
            },
            TAG_SUBMIT_FORWARDED => Message::SubmitForwarded {
                fingerprint: Fingerprint(r.u128()?),
                priority: get_priority(&mut r)?,
                deadline_ms: r.opt_u64("deadline")?,
                epoch: r.u64()?,
                trace_id: r.u128()?,
            },
            TAG_QUERY_METRICS => Message::QueryMetrics { tail: r.u32()? },
            TAG_METRICS_INFO => Message::MetricsInfo { text: r.string()? },
            TAG_ERROR => Message::Error {
                kind: get_error_kind(&mut r)?,
                detail: r.string()?,
            },
            TAG_BYE => Message::Bye,
            tag => return Err(WireError::UnknownTag { tag }),
        };
        r.finish()?;
        Ok(message)
    }

    /// Encodes the complete frame: length prefix + body.
    pub fn encode_frame(&self) -> Vec<u8> {
        let mut frame = Vec::new();
        self.encode_into(&mut frame);
        frame
    }

    /// Encodes the complete frame (length prefix + body) by *appending*
    /// to `buf`. The length prefix is reserved up front and patched
    /// after the body lands, so the frame is built in one buffer with no
    /// intermediate concatenation.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        let start = buf.len();
        buf.extend_from_slice(&[0u8; 4]);
        self.encode_body_into(buf);
        let body_len = (buf.len() - start - 4) as u32;
        buf[start..start + 4].copy_from_slice(&body_len.to_be_bytes());
    }
}

/// Writes one frame to the stream.
///
/// # Errors
///
/// Propagates I/O errors (including write timeouts).
pub fn write_message(w: &mut impl Write, message: &Message) -> io::Result<()> {
    w.write_all(&message.encode_frame())?;
    w.flush()
}

/// Reads one frame from the stream, enforcing `max_frame` *before*
/// allocating the body.
///
/// # Errors
///
/// [`RecvError::Closed`] on clean EOF at a frame boundary,
/// [`RecvError::Io`] for transport failures (including read timeouts),
/// [`RecvError::Frame`] for anything that is not a valid frame.
pub fn read_message(r: &mut impl Read, max_frame: usize) -> Result<Message, RecvError> {
    let mut len_bytes = [0u8; 4];
    // Distinguish a clean close (EOF before any length byte) from a
    // truncation mid-prefix.
    loop {
        match r.read(&mut len_bytes[..1]) {
            Ok(0) => return Err(RecvError::Closed),
            Ok(_) => break,
            // Bare read() does not retry EINTR the way read_exact does;
            // a signal between frames must not look like a dead peer.
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(RecvError::Io(e)),
        }
    }
    r.read_exact(&mut len_bytes[1..]).map_err(RecvError::Io)?;
    let len = u32::from_be_bytes(len_bytes) as usize;
    if len > max_frame {
        return Err(RecvError::Frame(WireError::FrameTooLarge {
            len: len as u64,
            limit: max_frame as u64,
        }));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body).map_err(RecvError::Io)?;
    Message::decode_body(&body).map_err(RecvError::Frame)
}

/// The server side of version negotiation: [`WIRE_VERSION`] if the
/// client's `[min, max]` range contains it, otherwise no version.
pub fn negotiate(client_min: u16, client_max: u16) -> Option<u16> {
    (client_min..=client_max)
        .contains(&WIRE_VERSION)
        .then_some(WIRE_VERSION)
}
