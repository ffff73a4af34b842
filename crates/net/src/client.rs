//! A typed, blocking `beer-wire` client.
//!
//! [`Client`] owns one connection and the state needed to survive losing
//! it: every submitted trace is retained by fingerprint, so when the
//! connection drops mid-wait the client reconnects, re-authenticates,
//! re-uploads if the server no longer holds the trace, and re-submits —
//! and the service's fingerprint dedup re-attaches it to the coalesced
//! in-flight job (or the completed result lands as a cache hit) instead
//! of re-solving anything.

use crate::ring::Ring;
use crate::wire::{
    self, read_message, write_message, ErrorKind, Message, RecvError, WireCodeEntry, WireEvent,
    WireRecord, WireResult,
};
use beer_core::trace::{Fingerprint, ProfileTrace, VerifiedTrace};
use beer_obs::{MetricsSnapshot, TraceId};
use beer_service::{Priority, ServiceStats};
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, Hasher};
use std::io;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// Read deadline per response frame.
const READ_TIMEOUT: Duration = Duration::from_secs(60);
/// Write deadline per request frame.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);
/// Reconnect backoff ceiling (the `cap` of [`backoff_delay`]).
const RECONNECT_BACKOFF_CAP: Duration = Duration::from_secs(2);

/// Configuration of a [`Client`].
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// Trace upload chunk size.
    pub chunk_bytes: usize,
    /// Reconnect attempts after a dropped connection (each attempt
    /// re-submits by fingerprint and resumes the coalesced job).
    pub reconnect_attempts: usize,
    /// First-attempt backoff. Attempt `n` waits a jittered exponential
    /// delay in `[e/2, e]` where `e = min(cap, base × 2^(n−1))` and the
    /// cap is 2 s — see [`backoff_delay`]. The jitter spreads a herd of
    /// clients resuming against a restarted node instead of stampeding
    /// it.
    pub reconnect_backoff_base: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            chunk_bytes: wire::DEFAULT_CHUNK_BYTES,
            reconnect_attempts: 3,
            reconnect_backoff_base: Duration::from_millis(10),
        }
    }
}

impl ClientConfig {
    /// The default configuration (see the field docs).
    pub fn new() -> Self {
        ClientConfig::default()
    }

    /// Overrides the upload chunk size.
    pub fn with_chunk_bytes(mut self, bytes: usize) -> Self {
        self.chunk_bytes = bytes;
        self
    }

    /// Overrides the reconnect policy: the attempt budget and the
    /// *base* of the jittered exponential backoff (the cap stays).
    pub fn with_reconnect(mut self, attempts: usize, base: Duration) -> Self {
        self.reconnect_attempts = attempts;
        self.reconnect_backoff_base = base;
        self
    }
}

/// The reconnect backoff schedule: attempt `n` (1-based) waits a delay
/// drawn uniformly from `[e/2, e]`, where `e = min(cap, base × 2^(n−1))`.
/// `jitter` is caller-supplied entropy (any u64); the function itself is
/// deterministic, which is what lets tests pin the schedule's bounds.
pub fn backoff_delay(attempt: u32, base: Duration, cap: Duration, jitter: u64) -> Duration {
    let shift = attempt.clamp(1, 32) - 1;
    let exp = base.saturating_mul(1u32 << shift.min(31)).min(cap);
    if exp.is_zero() {
        return exp;
    }
    let exp_ns = u64::try_from(exp.as_nanos()).unwrap_or(u64::MAX);
    let half = exp_ns / 2;
    Duration::from_nanos(half + jitter % (exp_ns - half + 1))
}

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure that reconnection did not cure.
    Io(io::Error),
    /// The peer sent bytes that are not a valid frame.
    Wire(wire::WireError),
    /// The server answered with a typed error frame.
    Refused {
        /// The error kind.
        kind: ErrorKind,
        /// The server's detail message.
        detail: String,
    },
    /// The server answered with a frame the protocol does not allow here.
    Protocol {
        /// What was expected.
        expected: &'static str,
    },
    /// The connection dropped and every reconnect attempt failed.
    Disconnected,
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Wire(e) => write!(f, "bad frame from server: {e}"),
            ClientError::Refused { kind, detail } => write!(f, "server refused: {kind} ({detail})"),
            ClientError::Protocol { expected } => {
                write!(f, "protocol violation: expected {expected}")
            }
            ClientError::Disconnected => write!(f, "connection lost and reconnects exhausted"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl ClientError {
    /// True for refusals that are *backpressure* (retry later), as
    /// opposed to permanent errors.
    pub fn is_backpressure(&self) -> bool {
        matches!(
            self,
            ClientError::Refused {
                kind: ErrorKind::QueueFull { .. } | ErrorKind::Busy | ErrorKind::ShuttingDown,
                ..
            }
        )
    }
}

/// A handle to a job submitted over the network. Carries the profile
/// fingerprint so a reconnected client can re-attach to the same work.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RemoteJob {
    /// Server-scoped job id.
    pub id: u64,
    /// The submitted profile's fingerprint (stable across restarts).
    pub fingerprint: Fingerprint,
    /// The priority the job was submitted with — reused when a dropped
    /// connection forces a resume-by-fingerprint.
    pub priority: Priority,
    /// The deadline the job was submitted with. A resume re-applies the
    /// full duration (the clock restarts from the re-submission).
    pub deadline: Option<Duration>,
    /// The trace id the submit carried. A resume re-submits under the
    /// same id, so the whole retry chain correlates in every node's
    /// flight recorder.
    pub trace_id: u128,
}

/// A typed, blocking `beer-wire` client (see the module docs).
pub struct Client {
    addr: String,
    tenant: String,
    token: String,
    config: ClientConfig,
    stream: Option<TcpStream>,
    /// Traces submitted through this client, retained for resume and
    /// keyed by the fingerprint this client computed from each.
    traces: HashMap<Fingerprint, Arc<ProfileTrace>>,
    /// The newest cluster ring learned from HelloAck / RingChanged.
    ring: Option<Ring>,
    /// Backoff jitter state (xorshift64), seeded per client.
    rng: u64,
}

impl Client {
    /// Connects and authenticates.
    ///
    /// # Errors
    ///
    /// Transport errors, or a typed [`ClientError::Refused`] for version
    /// or auth failures.
    pub fn connect(
        addr: impl Into<String>,
        tenant: impl Into<String>,
        token: impl Into<String>,
    ) -> Result<Client, ClientError> {
        Client::connect_with(addr, tenant, token, ClientConfig::default())
    }

    /// [`Client::connect`] with an explicit configuration.
    ///
    /// # Errors
    ///
    /// As [`Client::connect`].
    pub fn connect_with(
        addr: impl Into<String>,
        tenant: impl Into<String>,
        token: impl Into<String>,
        config: ClientConfig,
    ) -> Result<Client, ClientError> {
        let addr = addr.into();
        let mut seeder = RandomState::new().build_hasher();
        seeder.write(addr.as_bytes());
        let mut client = Client {
            addr,
            tenant: tenant.into(),
            token: token.into(),
            config,
            stream: None,
            traces: HashMap::new(),
            ring: None,
            rng: seeder.finish() | 1,
        };
        client.reconnect()?;
        Ok(client)
    }

    /// The tenant this client authenticated as.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// The newest cluster ring this client has learned (from `HelloAck`
    /// or a `RingChanged` push), if the server is a cluster member.
    pub fn ring(&self) -> Option<&Ring> {
        self.ring.as_ref()
    }

    /// Adopts a ring if it is newer than the one held.
    fn adopt_ring(&mut self, ring: Ring) {
        let newer = match &self.ring {
            None => true,
            Some(held) => held.epoch() < ring.epoch(),
        };
        if newer {
            self.ring = Some(ring);
        }
    }

    /// Jittered exponential sleep before reconnect `attempt` (1-based).
    fn backoff(&mut self, attempt: usize) {
        // xorshift64 — cheap, and quality only has to beat "every client
        // sleeping the exact same schedule".
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        std::thread::sleep(backoff_delay(
            attempt.min(u32::MAX as usize) as u32,
            self.config.reconnect_backoff_base,
            RECONNECT_BACKOFF_CAP,
            self.rng,
        ));
    }

    /// (Re)establishes the connection and redoes the Hello handshake.
    fn reconnect(&mut self) -> Result<(), ClientError> {
        self.stream = None;
        let stream = TcpStream::connect(&self.addr)?;
        let _ = stream.set_nodelay(true);
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
        self.stream = Some(stream);
        let hello = Message::Hello {
            min_version: wire::WIRE_VERSION,
            max_version: wire::WIRE_VERSION,
            tenant: self.tenant.clone(),
            token: self.token.clone(),
        };
        match self.roundtrip_raw(&hello)? {
            Message::HelloAck { version, ring, .. } if version == wire::WIRE_VERSION => {
                if let Some(ring) = ring {
                    self.adopt_ring(ring);
                }
                Ok(())
            }
            Message::Error { kind, detail } => {
                self.stream = None;
                Err(ClientError::Refused { kind, detail })
            }
            _ => {
                self.stream = None;
                Err(ClientError::Protocol {
                    expected: "HelloAck",
                })
            }
        }
    }

    fn stream(&mut self) -> Result<&mut TcpStream, ClientError> {
        if self.stream.is_none() {
            self.reconnect()?;
        }
        Ok(self.stream.as_mut().expect("just connected"))
    }

    /// Writes one frame, dropping the connection on failure: a partial
    /// write leaves the stream mid-frame, where any later request would
    /// be parsed as garbage by the server.
    fn write_or_drop(&mut self, message: &Message) -> Result<(), ClientError> {
        let stream = self.stream()?;
        if let Err(e) = write_message(stream, message) {
            self.stream = None;
            return Err(ClientError::Io(e));
        }
        Ok(())
    }

    /// Reads the next frame after a successful write. Asynchronous
    /// `RingChanged` pushes are adopted and skipped — any frame may be
    /// preceded by one on a cluster connection. A closed or failed
    /// transport drops the connection.
    fn read_frame(&mut self) -> Result<Message, ClientError> {
        loop {
            let stream = self
                .stream
                .as_mut()
                .expect("write_or_drop keeps the stream on success");
            match read_message(stream, wire::DEFAULT_MAX_FRAME_BYTES) {
                Ok(Message::RingChanged { ring }) => self.adopt_ring(ring),
                Ok(message) => return Ok(message),
                Err(RecvError::Closed) => {
                    self.stream = None;
                    return Err(ClientError::Disconnected);
                }
                Err(RecvError::Io(e)) => {
                    self.stream = None;
                    return Err(ClientError::Io(e));
                }
                Err(RecvError::Frame(e)) => return Err(ClientError::Wire(e)),
            }
        }
    }

    /// Sends a request and reads the next frame, with no reconnection.
    fn roundtrip_raw(&mut self, request: &Message) -> Result<Message, ClientError> {
        self.write_or_drop(request)?;
        self.read_frame()
    }

    /// Sends a request and reads the next frame, reconnecting (with the
    /// configured attempts, under jittered exponential backoff) on
    /// transport failure.
    fn roundtrip(&mut self, request: &Message) -> Result<Message, ClientError> {
        let mut attempts = 0;
        loop {
            match self.roundtrip_raw(request) {
                Err(ClientError::Io(_) | ClientError::Disconnected)
                    if attempts < self.config.reconnect_attempts =>
                {
                    attempts += 1;
                    self.backoff(attempts);
                    if self.reconnect().is_err() && attempts >= self.config.reconnect_attempts {
                        return Err(ClientError::Disconnected);
                    }
                }
                other => return other,
            }
        }
    }

    /// Keys `trace` by its fingerprint, hashing it once, and retains a
    /// copy if it is new to this client.
    fn retain(&mut self, trace: &ProfileTrace) -> Fingerprint {
        let fingerprint = trace.fingerprint();
        self.traces
            .entry(fingerprint)
            .or_insert_with(|| Arc::new(trace.clone()));
        fingerprint
    }

    /// [`Client::retain`] for a trace that carries its fingerprint.
    fn retain_verified(&mut self, trace: &VerifiedTrace) -> Fingerprint {
        let fingerprint = trace.fingerprint();
        self.traces
            .entry(fingerprint)
            .or_insert_with(|| Arc::clone(trace.trace()));
        fingerprint
    }

    /// Uploads the retained trace keyed by `fingerprint` in chunks; the
    /// server verifies the fingerprint.
    fn upload(&mut self, fingerprint: Fingerprint) -> Result<(), ClientError> {
        let trace = self
            .traces
            .get(&fingerprint)
            .cloned()
            .ok_or(ClientError::Refused {
                kind: ErrorKind::UnknownFingerprint { fingerprint },
                detail: "trace not retained client-side".to_string(),
            })?;
        let chunks = trace.to_text_chunks(self.config.chunk_bytes);
        let total_bytes: u64 = chunks.iter().map(|c| c.len() as u64).sum();
        let begin = Message::TraceBegin {
            fingerprint,
            total_chunks: chunks.len() as u32,
            total_bytes,
        };
        self.write_or_drop(&begin)?;
        for (index, data) in chunks.into_iter().enumerate() {
            let chunk = Message::TraceChunk {
                fingerprint,
                index: index as u32,
                data,
            };
            self.write_or_drop(&chunk)?;
        }
        // Only the final chunk is acknowledged.
        match self.read_frame()? {
            Message::TraceAck { fingerprint: fp } if fp == fingerprint => Ok(()),
            Message::Error { kind, detail } => Err(ClientError::Refused { kind, detail }),
            _ => Err(ClientError::Protocol {
                expected: "TraceAck",
            }),
        }
    }

    /// Submits a trace with default priority and no deadline.
    ///
    /// # Errors
    ///
    /// Typed refusals ([`ClientError::Refused`] mirrors the service's
    /// admission backpressure) and transport failures.
    pub fn submit(&mut self, trace: &ProfileTrace) -> Result<RemoteJob, ClientError> {
        self.submit_with(trace, Priority::Normal, None)
    }

    /// Submits a trace with an explicit priority and optional deadline.
    ///
    /// The trace is uploaded only if the server does not already hold it
    /// (dedup makes re-submission of a known profile a fingerprint-only
    /// exchange), and is retained client-side so a dropped connection can
    /// resume by fingerprint.
    ///
    /// # Errors
    ///
    /// As [`Client::submit`].
    pub fn submit_with(
        &mut self,
        trace: &ProfileTrace,
        priority: Priority,
        deadline: Option<Duration>,
    ) -> Result<RemoteJob, ClientError> {
        let fingerprint = self.retain(trace);
        self.submit_fingerprint(fingerprint, priority, deadline, TraceId::mint().0)
    }

    /// [`Client::submit_with`] for a trace that already carries its
    /// fingerprint: nothing is hashed.
    ///
    /// # Errors
    ///
    /// As [`Client::submit`].
    pub fn submit_verified(
        &mut self,
        trace: &VerifiedTrace,
        priority: Priority,
        deadline: Option<Duration>,
    ) -> Result<RemoteJob, ClientError> {
        let fingerprint = self.retain_verified(trace);
        self.submit_fingerprint(fingerprint, priority, deadline, TraceId::mint().0)
    }

    /// Uploads (and retains) a trace without submitting it. Useful for
    /// pre-staging a trace on a non-owning cluster node — a later
    /// [`Client::submit_with`] there finds the trace present and the
    /// node forwards the job to its owner instead of redirecting.
    ///
    /// # Errors
    ///
    /// Typed refusals and transport failures.
    pub fn upload_trace(&mut self, trace: &ProfileTrace) -> Result<Fingerprint, ClientError> {
        let fingerprint = self.retain(trace);
        self.upload(fingerprint)?;
        Ok(fingerprint)
    }

    /// [`Client::upload_trace`] for a trace that already carries its
    /// fingerprint: nothing is hashed.
    ///
    /// # Errors
    ///
    /// Typed refusals and transport failures.
    pub fn upload_verified(&mut self, trace: &VerifiedTrace) -> Result<(), ClientError> {
        let fingerprint = self.retain_verified(trace);
        self.upload(fingerprint)
    }

    /// Submits a trace as an *already-forwarded* cluster job (the wire's
    /// `SubmitForwarded`): the receiving node must own the fingerprint
    /// and will answer [`ErrorKind::WrongNode`] instead of forwarding
    /// again if it does not — the cluster's loop guard. `epoch` is the
    /// sender's ring epoch and `trace_id` the origin node's id for the
    /// job. This is the node-to-node path; ordinary clients want
    /// [`Client::submit_with`].
    ///
    /// # Errors
    ///
    /// Typed refusals (including `WrongNode` on a misroute) and
    /// transport failures.
    pub fn submit_forwarded(
        &mut self,
        trace: &VerifiedTrace,
        priority: Priority,
        deadline: Option<Duration>,
        epoch: u64,
        trace_id: u128,
    ) -> Result<RemoteJob, ClientError> {
        let fingerprint = self.retain_verified(trace);
        let submit = Message::SubmitForwarded {
            fingerprint,
            priority,
            deadline_ms: deadline.map(|d| d.as_millis() as u64),
            epoch,
            trace_id,
        };
        Ok(RemoteJob {
            id: self.submit_frame(fingerprint, &submit)?,
            fingerprint,
            priority,
            deadline,
            trace_id,
        })
    }

    /// Submits by fingerprint (see [`Client::submit_frame`]). The caller
    /// mints `trace_id` — the submission end of the trace — so the id
    /// exists before the frame leaves this process.
    fn submit_fingerprint(
        &mut self,
        fingerprint: Fingerprint,
        priority: Priority,
        deadline: Option<Duration>,
        trace_id: u128,
    ) -> Result<RemoteJob, ClientError> {
        let submit = Message::Submit {
            fingerprint,
            priority,
            deadline_ms: deadline.map(|d| d.as_millis() as u64),
            trace_id: Some(trace_id),
        };
        Ok(RemoteJob {
            id: self.submit_frame(fingerprint, &submit)?,
            fingerprint,
            priority,
            deadline,
            trace_id,
        })
    }

    /// Sends a submit frame for `fingerprint`, uploading the retained
    /// trace once when the server asks for it, and returns the server's
    /// job id.
    fn submit_frame(
        &mut self,
        fingerprint: Fingerprint,
        submit: &Message,
    ) -> Result<u64, ClientError> {
        let mut uploaded = false;
        loop {
            match self.roundtrip(submit)? {
                Message::SubmitAck { job } => return Ok(job),
                Message::Error {
                    kind: ErrorKind::UnknownFingerprint { .. },
                    ..
                } if !uploaded => {
                    self.upload(fingerprint)?;
                    uploaded = true;
                }
                Message::Error { kind, detail } => {
                    return Err(ClientError::Refused { kind, detail })
                }
                _ => {
                    return Err(ClientError::Protocol {
                        expected: "SubmitAck",
                    })
                }
            }
        }
    }

    /// Blocks until the job completes, discarding intermediate events.
    ///
    /// # Errors
    ///
    /// As [`Client::wait_with`].
    pub fn wait(&mut self, job: RemoteJob) -> Result<WireResult, ClientError> {
        self.wait_with(job, |_| {})
    }

    /// Blocks until the job completes, delivering every streamed
    /// [`WireEvent`] to `on_event` along the way.
    ///
    /// If the connection drops mid-watch, the client reconnects and
    /// *resumes by fingerprint*: the retained trace is re-submitted, the
    /// service's dedup coalesces it onto the still-running job (or
    /// answers from cache), and the watch continues on the new job id —
    /// no work is re-solved.
    ///
    /// # Errors
    ///
    /// Typed refusals and transport failures after reconnects are
    /// exhausted.
    pub fn wait_with(
        &mut self,
        job: RemoteJob,
        mut on_event: impl FnMut(&WireEvent),
    ) -> Result<WireResult, ClientError> {
        let mut current = job;
        let mut attempts = 0;
        loop {
            let err = match self.watch_once(current, &mut on_event) {
                Ok(result) => return Ok(result),
                Err(e @ (ClientError::Io(_) | ClientError::Disconnected)) => e,
                Err(e) => return Err(e),
            };
            // Resume: reconnect and re-attach to the in-flight work (or
            // its cached result) under a fresh job id — never re-watch
            // the stale id, which the new connection is not authorized
            // for. The original priority and deadline are re-applied.
            loop {
                if attempts >= self.config.reconnect_attempts {
                    return Err(err);
                }
                attempts += 1;
                self.backoff(attempts);
                if self.reconnect().is_err() {
                    continue;
                }
                match self.submit_fingerprint(
                    current.fingerprint,
                    current.priority,
                    current.deadline,
                    current.trace_id,
                ) {
                    Ok(resumed) => {
                        // A successful resume restores the full budget:
                        // attempts are per connection drop, not per wait.
                        current = resumed;
                        attempts = 0;
                        break;
                    }
                    // Transport trouble: burn another attempt.
                    Err(ClientError::Io(_) | ClientError::Disconnected) => continue,
                    // A typed refusal is a real answer, not a flaky link.
                    Err(e) => return Err(e),
                }
            }
        }
    }

    /// One watch attempt on the current connection.
    fn watch_once(
        &mut self,
        job: RemoteJob,
        on_event: &mut impl FnMut(&WireEvent),
    ) -> Result<WireResult, ClientError> {
        self.write_or_drop(&Message::Watch { job: job.id })?;
        loop {
            match self.read_frame()? {
                Message::Event { event, .. } => on_event(&event),
                Message::Done { result, .. } => return Ok(result),
                Message::Error { kind, detail } => {
                    return Err(ClientError::Refused { kind, detail })
                }
                Message::Bye => {
                    // Server drain closed the stream mid-watch.
                    self.stream = None;
                    return Err(ClientError::Disconnected);
                }
                _ => return Err(ClientError::Protocol { expected: "Event" }),
            }
        }
    }

    /// Requests cancellation of a job submitted through this client.
    ///
    /// # Errors
    ///
    /// Typed refusals and transport failures.
    pub fn cancel(&mut self, job: RemoteJob) -> Result<bool, ClientError> {
        match self.roundtrip(&Message::Cancel { job: job.id })? {
            Message::CancelAck { cancelled, .. } => Ok(cancelled),
            Message::Error { kind, detail } => Err(ClientError::Refused { kind, detail }),
            _ => Err(ClientError::Protocol {
                expected: "CancelAck",
            }),
        }
    }

    /// The registry record for a profile fingerprint, if any.
    ///
    /// # Errors
    ///
    /// Typed refusals and transport failures.
    pub fn query_fingerprint(
        &mut self,
        fingerprint: Fingerprint,
    ) -> Result<Option<WireRecord>, ClientError> {
        match self.roundtrip(&Message::QueryFingerprint { fingerprint })? {
            Message::FingerprintInfo { record, .. } => Ok(record),
            Message::Error { kind, detail } => Err(ClientError::Refused { kind, detail }),
            _ => Err(ClientError::Protocol {
                expected: "FingerprintInfo",
            }),
        }
    }

    /// One page of the codes with the given dimensions. Pass `None` to
    /// start, then each answer's `next_cursor` to resume; `limit` 0
    /// accepts the server's page cap.
    ///
    /// # Errors
    ///
    /// Typed refusals (including [`ErrorKind::BadRequest`] on a stale or
    /// tampered cursor) and transport failures.
    pub fn query_dims_page(
        &mut self,
        n: u32,
        k: u32,
        cursor: Option<Vec<u8>>,
        limit: u32,
    ) -> Result<(Vec<WireCodeEntry>, Option<Vec<u8>>), ClientError> {
        match self.roundtrip(&Message::QueryDimsPage {
            n,
            k,
            cursor,
            limit,
        })? {
            Message::DimsPage {
                entries,
                next_cursor,
            } => Ok((entries, next_cursor)),
            Message::Error { kind, detail } => Err(ClientError::Refused { kind, detail }),
            _ => Err(ClientError::Protocol {
                expected: "DimsPage",
            }),
        }
    }

    /// One page of the codes with the given canonical hash. Cursor
    /// semantics match [`Client::query_dims_page`].
    ///
    /// # Errors
    ///
    /// Typed refusals and transport failures.
    pub fn query_hash_page(
        &mut self,
        hash: u64,
        cursor: Option<Vec<u8>>,
        limit: u32,
    ) -> Result<(Vec<WireCodeEntry>, Option<Vec<u8>>), ClientError> {
        match self.roundtrip(&Message::QueryHashPage {
            hash,
            cursor,
            limit,
        })? {
            Message::HashPage {
                entries,
                next_cursor,
            } => Ok((entries, next_cursor)),
            Message::Error { kind, detail } => Err(ClientError::Refused { kind, detail }),
            _ => Err(ClientError::Protocol {
                expected: "HashPage",
            }),
        }
    }

    /// Every code with the given dimensions, paging to completion.
    ///
    /// # Errors
    ///
    /// Typed refusals and transport failures.
    pub fn query_dims_all(&mut self, n: u32, k: u32) -> Result<Vec<WireCodeEntry>, ClientError> {
        let mut all = Vec::new();
        let mut cursor = None;
        loop {
            let (mut entries, next) = self.query_dims_page(n, k, cursor, 0)?;
            all.append(&mut entries);
            match next {
                Some(next) => cursor = Some(next),
                None => return Ok(all),
            }
        }
    }

    /// Every code with the given canonical hash, paging to completion.
    ///
    /// # Errors
    ///
    /// Typed refusals and transport failures.
    pub fn query_hash_all(&mut self, hash: u64) -> Result<Vec<WireCodeEntry>, ClientError> {
        let mut all = Vec::new();
        let mut cursor = None;
        loop {
            let (mut entries, next) = self.query_hash_page(hash, cursor, 0)?;
            all.append(&mut entries);
            match next {
                Some(next) => cursor = Some(next),
                None => return Ok(all),
            }
        }
    }

    /// The node's service stats, read from its metrics exposition
    /// (`QueryMetrics { tail: 0 }`) through the same name table as
    /// [`RecoveryService::stats`](beer_service::RecoveryService::stats).
    ///
    /// # Errors
    ///
    /// Typed refusals, transport failures, and an exposition that does
    /// not parse ([`ClientError::Protocol`]).
    pub fn stats(&mut self) -> Result<ServiceStats, ClientError> {
        let text = self.query_metrics(0)?;
        let snapshot = MetricsSnapshot::parse(&text).map_err(|_| ClientError::Protocol {
            expected: "a parseable metrics exposition",
        })?;
        Ok(ServiceStats::from_snapshot(&snapshot))
    }

    /// The node's metrics exposition: one text block of counters,
    /// gauges, histogram summaries, and the newest `tail`
    /// flight-recorder events.
    ///
    /// # Errors
    ///
    /// Typed refusals and transport failures.
    pub fn query_metrics(&mut self, tail: u32) -> Result<String, ClientError> {
        match self.roundtrip(&Message::QueryMetrics { tail })? {
            Message::MetricsInfo { text } => Ok(text),
            Message::Error { kind, detail } => Err(ClientError::Refused { kind, detail }),
            _ => Err(ClientError::Protocol {
                expected: "MetricsInfo",
            }),
        }
    }

    /// Closes the connection cleanly.
    pub fn close(mut self) {
        if let Some(stream) = &mut self.stream {
            let _ = write_message(stream, &Message::Bye);
        }
        self.stream = None;
    }
}

#[cfg(test)]
mod tests {
    use super::backoff_delay;
    use std::time::Duration;

    const BASE: Duration = Duration::from_millis(10);
    const CAP: Duration = Duration::from_secs(2);

    #[test]
    fn backoff_schedule_stays_inside_its_bounds() {
        // Attempt n: delay ∈ [e/2, e] with e = min(cap, base × 2^(n−1)).
        for attempt in 1..=16u32 {
            let expected = BASE.saturating_mul(1u32 << (attempt - 1).min(31)).min(CAP);
            for jitter in [0u64, 1, 7, u64::MAX / 3, u64::MAX] {
                let d = backoff_delay(attempt, BASE, CAP, jitter);
                assert!(
                    d >= expected / 2 && d <= expected,
                    "attempt {attempt} jitter {jitter}: {d:?} outside [{:?}, {expected:?}]",
                    expected / 2
                );
            }
        }
    }

    #[test]
    fn backoff_doubles_then_caps() {
        // With jitter pinned at the top of the band the schedule is the
        // pure exponential: 10, 20, 40, … ms, flat at the 2 s cap.
        let full = |attempt| backoff_delay(attempt, BASE, CAP, 0);
        assert_eq!(full(1), Duration::from_millis(5)); // jitter 0 → e/2
        for attempt in 1..=8u32 {
            let this = backoff_delay(attempt, BASE, CAP, u64::MAX);
            let next = backoff_delay(attempt + 1, BASE, CAP, u64::MAX);
            assert!(next >= this, "schedule must be monotone");
        }
        // Attempt 9 of base 10 ms is 2.56 s raw — capped at 2 s. A
        // jitter hitting the top of the band lands exactly on the cap
        // (band [1 s, 2 s] → span 1e9+1 ns, top at jitter 1e9).
        assert_eq!(backoff_delay(9, BASE, CAP, 1_000_000_000), CAP);
        for attempt in [9u32, 32, u32::MAX] {
            for jitter in [0u64, 123_456_789, u64::MAX] {
                let d = backoff_delay(attempt, BASE, CAP, jitter);
                assert!(d >= CAP / 2 && d <= CAP, "capped band violated: {d:?}");
            }
        }
    }

    #[test]
    fn backoff_handles_degenerate_configs() {
        assert_eq!(backoff_delay(3, Duration::ZERO, CAP, 99), Duration::ZERO);
        // Base over cap clamps to cap.
        let d = backoff_delay(1, Duration::from_secs(10), CAP, 7);
        assert!(d <= CAP && d >= CAP / 2);
    }
}
