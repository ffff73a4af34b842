//! The long-running, multi-tenant recovery service.
//!
//! ```text
//!  tenants ──submit──▶ admission ──▶ fair queue ──▶ worker pool ──▶ registry
//!                        │  │            (bounded,     (guarded        (append-only
//!                        │  │             round-robin,  sessions,       log + cache)
//!                        │  └─ cache hit  priority)     serial engine)
//!                        └──── coalesce onto in-flight fingerprint
//! ```
//!
//! Submissions pass three gates before costing a worker: the *registry
//! cache* (a completed record for the same profile fingerprint answers in
//! O(1) without solving), *in-flight coalescing* (an identical queued or
//! running profile absorbs the submission as a waiter), and *admission
//! control* (typed [`Rejected`] backpressure once the bounded queue is
//! full). Jobs that do run are driven by a fixed worker pool through
//! [`run_session_guarded`], so a panicking backend becomes that job's
//! typed failure, never the pool's. A chip population is one
//! [`JobRequest::source`] per chip: the pool recovers them concurrently.

use crate::job::{
    CodeOutcome, JobError, JobEvent, JobId, JobInput, JobOutput, JobRequest, JobResult, JobState,
    Priority, Rejected,
};
use crate::queue::FairScheduler;
use crate::registry::{CodeEntry, JobRecord, Registry};
use beer_core::engine::ProfileSource;
use beer_core::recovery::{
    lock_unpoisoned, run_session_guarded, BudgetReason, CancelToken, Fanout, FanoutNotify,
    RecoveryConfig, RecoveryEvent, RecoveryOutcome,
};
use beer_core::trace::{Fingerprint, ProfileTrace, ReplayBackend};
use beer_ecc::{equivalence, LinearCode};
use beer_obs::{
    Counter, FlightRecorder, Gauge, Histogram, MetricsRegistry, MetricsSnapshot, TraceId,
};
use std::collections::HashMap;
use std::fmt;
use std::io;
use std::path::PathBuf;
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// A typed configuration error from [`RecoveryService::start`]: the
/// settings describe a service that could never make progress, so the
/// service refuses to spawn instead of wedging.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// `workers == 0`: no thread would ever pop the queue.
    ZeroWorkers,
    /// `queue_capacity == 0`: every submission would be
    /// [`Rejected::QueueFull`].
    ZeroQueueCapacity,
    /// An explicit tenant set with no tenants in it: every submission
    /// would be [`Rejected::InvalidTenant`].
    EmptyTenantSet,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroWorkers => write!(f, "workers must be at least 1"),
            ConfigError::ZeroQueueCapacity => write!(f, "queue capacity must be at least 1"),
            ConfigError::EmptyTenantSet => {
                write!(f, "an explicit tenant set must name at least one tenant")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Why [`RecoveryService::start`] failed.
#[derive(Debug)]
pub enum StartError {
    /// The configuration is unusable (typed; see [`ConfigError`]).
    Config(ConfigError),
    /// Opening or replaying the registry failed.
    Io(io::Error),
}

impl fmt::Display for StartError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StartError::Config(e) => write!(f, "invalid service configuration: {e}"),
            StartError::Io(e) => write!(f, "registry I/O failed: {e}"),
        }
    }
}

impl std::error::Error for StartError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StartError::Config(e) => Some(e),
            StartError::Io(e) => Some(e),
        }
    }
}

impl From<io::Error> for StartError {
    fn from(e: io::Error) -> Self {
        StartError::Io(e)
    }
}

impl From<ConfigError> for StartError {
    fn from(e: ConfigError) -> Self {
        StartError::Config(e)
    }
}

/// Callers in `io::Result` contexts keep working: a config error maps to
/// [`io::ErrorKind::InvalidInput`].
impl From<StartError> for io::Error {
    fn from(e: StartError) -> Self {
        match e {
            StartError::Config(c) => io::Error::new(io::ErrorKind::InvalidInput, c),
            StartError::Io(e) => e,
        }
    }
}

/// Configuration of a [`RecoveryService`].
pub struct ServiceConfig {
    /// Worker threads. Each worker drives one session at a time with a
    /// serial collection engine, so this bounds total parallelism exactly.
    /// Defaults to the machine's available parallelism;
    /// `0` is a typed [`ConfigError::ZeroWorkers`] at start.
    pub workers: usize,
    /// Bounded queue capacity; beyond it, [`Rejected::QueueFull`]. `0` is
    /// a typed [`ConfigError::ZeroQueueCapacity`] at start.
    pub queue_capacity: usize,
    /// Per-job size ceiling in patterns; beyond it,
    /// [`Rejected::TooLarge`].
    pub max_patterns: usize,
    /// Backing path for the persistent registry (`None` = in-memory).
    /// A directory of segments; a regular file here is refused on
    /// start.
    pub registry_path: Option<PathBuf>,
    /// Compact the registry once its in-memory tail holds this many
    /// records (the compaction drains the tail into a snapshot segment).
    pub compact_after: usize,
    /// Registry snapshot generations tolerated before a compaction
    /// majors into a full merge: under the budget, compactions are
    /// cheap minor ones (O(tail) pause); at the budget, one major merge
    /// collapses every generation. Lower = fewer segments probed per
    /// lookup, higher = cheaper steady-state compactions.
    pub compact_budget: usize,
    /// Size (bytes) at which the registry's active log segment seals.
    pub registry_seal_bytes: u64,
    /// The recovery pipeline configuration every job runs under. Trace
    /// jobs replay against this schedule, so submitted traces must cover
    /// the patterns it requests (record them over the same schedule).
    pub recovery: RecoveryConfig,
    /// The admitted tenants and their auth tokens. `None` (the default)
    /// is an *open* service: any well-formed tenant name may submit, and
    /// authentication always succeeds. `Some(set)` is a *closed* service:
    /// submissions from tenants outside the set are
    /// [`Rejected::InvalidTenant`], and
    /// [`RecoveryService::authenticate`] (the network edge's Hello check)
    /// requires the tenant's exact token. An empty set is a typed
    /// [`ConfigError::EmptyTenantSet`] at start.
    pub tenants: Option<HashMap<String, String>>,
    /// Whether the optional observability series record. On (the
    /// default), latency histograms, per-tenant counters, and the flight
    /// recorder are live; off, each of those recording calls is a no-op
    /// branch — the switch the `metrics_overhead` bench compares across.
    /// The [`ServiceStats`] counters and gauges are `beer_obs` series
    /// that record either way.
    pub observability: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            queue_capacity: 256,
            max_patterns: 1 << 16,
            registry_path: None,
            compact_after: 4096,
            compact_budget: 6,
            registry_seal_bytes: crate::registry::DEFAULT_SEAL_BYTES,
            recovery: RecoveryConfig::new(),
            tenants: None,
            observability: true,
        }
    }
}

impl ServiceConfig {
    /// The default configuration (see the field docs).
    pub fn new() -> Self {
        ServiceConfig::default()
    }

    /// Overrides the worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Overrides the queue capacity.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Overrides the per-job pattern ceiling.
    pub fn with_max_patterns(mut self, max_patterns: usize) -> Self {
        self.max_patterns = max_patterns;
        self
    }

    /// Backs the registry with a file, surviving restarts.
    pub fn with_registry_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.registry_path = Some(path.into());
        self
    }

    /// Overrides the auto-compaction threshold.
    pub fn with_compact_after(mut self, records: usize) -> Self {
        self.compact_after = records;
        self
    }

    /// Overrides the snapshot-generation budget before a major merge.
    pub fn with_compact_budget(mut self, generations: usize) -> Self {
        self.compact_budget = generations;
        self
    }

    /// Overrides the active-log seal threshold (bytes).
    pub fn with_registry_seal_bytes(mut self, bytes: u64) -> Self {
        self.registry_seal_bytes = bytes;
        self
    }

    /// Overrides the recovery pipeline configuration.
    pub fn with_recovery(mut self, recovery: RecoveryConfig) -> Self {
        self.recovery = recovery;
        self
    }

    /// Turns the observability layer on or off (see
    /// [`ServiceConfig::observability`]).
    pub fn with_observability(mut self, enabled: bool) -> Self {
        self.observability = enabled;
        self
    }

    /// Closes the service to an explicit `(tenant, auth token)` set.
    pub fn with_tenants<T, U>(mut self, tenants: impl IntoIterator<Item = (T, U)>) -> Self
    where
        T: Into<String>,
        U: Into<String>,
    {
        self.tenants = Some(
            tenants
                .into_iter()
                .map(|(t, u)| (t.into(), u.into()))
                .collect(),
        );
        self
    }

    /// Validates the configuration (also run by
    /// [`RecoveryService::start`]).
    ///
    /// # Errors
    ///
    /// The first applicable [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.workers == 0 {
            return Err(ConfigError::ZeroWorkers);
        }
        if self.queue_capacity == 0 {
            return Err(ConfigError::ZeroQueueCapacity);
        }
        if self.tenants.as_ref().is_some_and(HashMap::is_empty) {
            return Err(ConfigError::EmptyTenantSet);
        }
        Ok(())
    }
}

/// Admission rejections by kind (see [`ServiceStats::rejected`]) — the
/// shape of the backpressure a service is applying.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RejectionStats {
    /// [`Rejected::QueueFull`] rejections.
    pub queue_full: u64,
    /// [`Rejected::TooLarge`] rejections.
    pub too_large: u64,
    /// [`Rejected::InvalidTenant`] rejections.
    pub invalid_tenant: u64,
    /// [`Rejected::Unschedulable`] rejections.
    pub unschedulable: u64,
    /// [`Rejected::ShuttingDown`] rejections.
    pub shutting_down: u64,
}

impl RejectionStats {
    /// Rejections of every kind.
    pub fn total(&self) -> u64 {
        self.queue_full
            + self.too_large
            + self.invalid_tenant
            + self.unschedulable
            + self.shutting_down
    }
}

/// Service counters and gauges (see [`RecoveryService::stats`]): a typed
/// read of the node's `beer_obs` series, built by
/// [`ServiceStats::from_snapshot`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Jobs admitted (including cache hits and coalesced waiters).
    pub submitted: u64,
    /// Jobs that ended `Done`.
    pub completed: u64,
    /// Jobs that ended `Failed`.
    pub failed: u64,
    /// Jobs that ended `Cancelled`.
    pub cancelled: u64,
    /// Submissions answered from the persistent registry without solving.
    pub cache_hits: u64,
    /// Submissions absorbed by an identical in-flight job.
    pub coalesced: u64,
    /// Waiters promoted back into the queue after their primary was
    /// cancelled.
    pub requeued: u64,
    /// Jobs currently queued (gauge).
    pub queued: u64,
    /// Jobs currently running (gauge).
    pub running: u64,
    /// Admission rejections by kind.
    pub rejected: RejectionStats,
    /// Live registry segments of any kind — log + snapshot (gauge).
    pub registry_segments: u64,
    /// Live registry snapshot generations (gauge). Climbing toward the
    /// compaction budget means a major merge is coming.
    pub registry_snapshots: u64,
    /// Successful registry compactions (minor + major).
    pub registry_compactions: u64,
    /// Failed registry compactions. Appended-record accounting is kept
    /// intact on failure, so this climbing is an operator signal, not a
    /// silent reset.
    pub registry_compaction_failures: u64,
    /// Submissions this node proxied to their owning cluster peer
    /// (series [`ServiceStats::FORWARDED_JOBS`], counted by the network
    /// edge). Zero on a standalone node.
    pub forwarded_jobs: u64,
    /// Forwarding attempts that failed — the peer was unreachable or
    /// refused the job (series [`ServiceStats::FORWARD_ERRORS`]).
    pub forward_errors: u64,
}

type StatsField = fn(&mut ServiceStats) -> &mut u64;

/// Every [`ServiceStats`] field and the `beer_obs` series holding it —
/// the one name table both [`RecoveryService::stats`] and remote readers
/// of a node's exposition go through.
const STATS_SERIES: [(&str, StatsField); 20] = [
    ("service_submitted_total", |s| &mut s.submitted),
    ("service_completed_total", |s| &mut s.completed),
    ("service_failed_total", |s| &mut s.failed),
    ("service_cancelled_total", |s| &mut s.cancelled),
    ("service_cache_hits_total", |s| &mut s.cache_hits),
    ("service_coalesced_total", |s| &mut s.coalesced),
    ("service_requeued_total", |s| &mut s.requeued),
    ("service_queued", |s| &mut s.queued),
    ("service_running", |s| &mut s.running),
    ("service_rejected_queue_full_total", |s| {
        &mut s.rejected.queue_full
    }),
    ("service_rejected_too_large_total", |s| {
        &mut s.rejected.too_large
    }),
    ("service_rejected_invalid_tenant_total", |s| {
        &mut s.rejected.invalid_tenant
    }),
    ("service_rejected_unschedulable_total", |s| {
        &mut s.rejected.unschedulable
    }),
    ("service_rejected_shutting_down_total", |s| {
        &mut s.rejected.shutting_down
    }),
    ("registry_segments", |s| &mut s.registry_segments),
    ("registry_snapshots", |s| &mut s.registry_snapshots),
    ("registry_compactions", |s| &mut s.registry_compactions),
    ("registry_compaction_failures", |s| {
        &mut s.registry_compaction_failures
    }),
    (ServiceStats::FORWARDED_JOBS, |s| &mut s.forwarded_jobs),
    (ServiceStats::FORWARD_ERRORS, |s| &mut s.forward_errors),
];

impl ServiceStats {
    /// The counter series behind [`ServiceStats::forwarded_jobs`]; the
    /// network edge registers it in the node's shared registry.
    pub const FORWARDED_JOBS: &'static str = "net_forwarded_jobs_total";
    /// The counter series behind [`ServiceStats::forward_errors`].
    pub const FORWARD_ERRORS: &'static str = "net_forward_errors_total";

    /// Reads the stats out of a node's metrics, whether taken in process
    /// ([`MetricsRegistry::snapshot`]) or parsed from a remote node's
    /// exposition ([`MetricsSnapshot::parse`]). A series the snapshot
    /// lacks reads 0.
    pub fn from_snapshot(snapshot: &MetricsSnapshot) -> ServiceStats {
        let mut stats = ServiceStats::default();
        for (name, field) in STATS_SERIES {
            *field(&mut stats) = snapshot.value(name).unwrap_or(0);
        }
        stats
    }
}

/// The service's observability hub: one metrics registry and one flight
/// recorder per node, shared (by `Arc`) with the network edge so every
/// tier's series land in one exposition.
///
/// The registry is the node's only metrics store. The [`ServiceStats`]
/// counters and gauges are series in it, bumped through handles held
/// from start and recorded whether or not the hub is enabled. Beside
/// them it carries latency *distributions* (queue wait, solve time,
/// cache lookups, per-round pipeline phases), per-tenant counters, and
/// the recent-event ring; when constructed disabled, each of those
/// recording methods is one branch and returns — the `metrics_overhead`
/// bench compares exactly this switch.
pub struct ServiceObs {
    enabled: bool,
    registry: MetricsRegistry,
    recorder: FlightRecorder,
    submitted: Arc<Counter>,
    completed: Arc<Counter>,
    failed: Arc<Counter>,
    cancelled: Arc<Counter>,
    cache_hits: Arc<Counter>,
    coalesced: Arc<Counter>,
    requeued: Arc<Counter>,
    rejected_queue_full: Arc<Counter>,
    rejected_too_large: Arc<Counter>,
    rejected_invalid_tenant: Arc<Counter>,
    rejected_unschedulable: Arc<Counter>,
    rejected_shutting_down: Arc<Counter>,
    queued: Arc<Gauge>,
    running: Arc<Gauge>,
    registry_segments: Arc<Gauge>,
    registry_snapshots: Arc<Gauge>,
    registry_compactions: Arc<Gauge>,
    registry_compaction_failures: Arc<Gauge>,
    queue_wait: Arc<Histogram>,
    solve_time: Arc<Histogram>,
    cache_lookup: Arc<Histogram>,
    phase_collect: Arc<Histogram>,
    phase_preprocess: Arc<Histogram>,
    phase_encode: Arc<Histogram>,
    phase_solve: Arc<Histogram>,
    dram_sim: Arc<Histogram>,
}

/// How many flight-recorder events a node retains.
const FLIGHT_CAPACITY: usize = 256;

impl ServiceObs {
    fn new(enabled: bool) -> Self {
        let registry = MetricsRegistry::new();
        ServiceObs {
            enabled,
            submitted: registry.counter("service_submitted_total"),
            completed: registry.counter("service_completed_total"),
            failed: registry.counter("service_failed_total"),
            cancelled: registry.counter("service_cancelled_total"),
            cache_hits: registry.counter("service_cache_hits_total"),
            coalesced: registry.counter("service_coalesced_total"),
            requeued: registry.counter("service_requeued_total"),
            rejected_queue_full: registry.counter("service_rejected_queue_full_total"),
            rejected_too_large: registry.counter("service_rejected_too_large_total"),
            rejected_invalid_tenant: registry.counter("service_rejected_invalid_tenant_total"),
            rejected_unschedulable: registry.counter("service_rejected_unschedulable_total"),
            rejected_shutting_down: registry.counter("service_rejected_shutting_down_total"),
            queued: registry.gauge("service_queued"),
            running: registry.gauge("service_running"),
            registry_segments: registry.gauge("registry_segments"),
            registry_snapshots: registry.gauge("registry_snapshots"),
            registry_compactions: registry.gauge("registry_compactions"),
            registry_compaction_failures: registry.gauge("registry_compaction_failures"),
            queue_wait: registry.histogram("service_queue_wait_ns"),
            solve_time: registry.histogram("service_solve_ns"),
            cache_lookup: registry.histogram("service_cache_lookup_ns"),
            phase_collect: registry.histogram("pipeline_collect_ns"),
            phase_preprocess: registry.histogram("pipeline_preprocess_ns"),
            phase_encode: registry.histogram("pipeline_encode_ns"),
            phase_solve: registry.histogram("pipeline_solve_ns"),
            dram_sim: registry.histogram("dram_sim_ns"),
            recorder: FlightRecorder::new(FLIGHT_CAPACITY),
            registry,
        }
    }

    /// True when the optional series record; false turns the latency,
    /// per-tenant and flight-recorder records into no-ops (the
    /// exposition then shows empty histograms beside the
    /// [`ServiceStats`] series, which count either way).
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The node's metrics registry. Other tiers (the network edge's
    /// reactor and forwarder) register their own series here so one
    /// `QueryMetrics` answer covers the whole node.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Records a flight-recorder event (no-op when disabled).
    pub fn flight(&self, kind: &'static str, trace: Option<TraceId>, detail: impl Into<String>) {
        if self.enabled {
            self.recorder.record(kind, trace, detail);
        }
    }

    /// The recent-event ring, for direct inspection.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    fn record(&self, histogram: &Histogram, elapsed: std::time::Duration) {
        if self.enabled {
            histogram.record_duration(elapsed);
        }
    }

    fn bump_tenant(&self, tenant: &str, series: &str) {
        if self.enabled {
            self.registry
                .counter(&format!("tenant_{tenant}_{series}"))
                .inc();
        }
    }

    fn rejected(&self, rejected: &Rejected) -> &Counter {
        match rejected {
            Rejected::QueueFull { .. } => &self.rejected_queue_full,
            Rejected::TooLarge { .. } => &self.rejected_too_large,
            Rejected::InvalidTenant { .. } => &self.rejected_invalid_tenant,
            Rejected::Unschedulable { .. } => &self.rejected_unschedulable,
            Rejected::ShuttingDown => &self.rejected_shutting_down,
        }
    }

    /// The gauge counting jobs in `state`, if one does.
    fn jobs_in(&self, state: JobState) -> Option<&Gauge> {
        match state {
            JobState::Queued => Some(&self.queued),
            JobState::Running => Some(&self.running),
            _ => None,
        }
    }

    /// Moves the queued/running gauges with a job's state change.
    fn moved(&self, from: JobState, to: JobState) {
        if let Some(gauge) = self.jobs_in(from) {
            gauge.dec();
        }
        if let Some(gauge) = self.jobs_in(to) {
            gauge.inc();
        }
    }

    /// Sets the registry gauges from the registry's own accounting; runs
    /// wherever the registry changes (open, append/roll, compaction).
    fn publish_registry(&self, registry: &Registry) {
        self.registry_segments.set(registry.segment_count() as u64);
        self.registry_snapshots
            .set(registry.snapshot_count() as u64);
        self.registry_compactions.set(registry.compactions());
        self.registry_compaction_failures
            .set(registry.compaction_failures());
    }
}

struct Job {
    tenant: String,
    priority: Priority,
    state: JobState,
    /// What the job runs: taken by the worker at dispatch, dropped at
    /// finalize for jobs that never dispatch (cache hits, coalesced
    /// waiters), so no terminal job keeps its trace alive.
    input: Option<RunInput>,
    fingerprint: Option<Fingerprint>,
    cancel: CancelToken,
    deadline_at: Option<Instant>,
    /// When the job was admitted — the start of its queue-wait span.
    enqueued_at: Instant,
    /// The job's correlation id: supplied by the submitter (a forwarded
    /// job keeps its origin-node id) or minted at admission.
    trace_id: TraceId,
    /// Jobs coalesced onto this one (present on primaries only).
    waiters: Vec<JobId>,
    /// The primary this job coalesced onto (present on waiters only).
    coalesced_into: Option<JobId>,
    result: Option<JobResult>,
    events: Fanout<JobEvent>,
}

/// How many *terminal* jobs stay in memory for `status`/`wait`/`result`
/// queries; older terminal jobs are evicted (their ids then answer
/// [`JobError::Unknown`](crate::JobError::Unknown)), bounding memory in
/// a long-running service.
const RETAINED_JOBS: usize = 4096;

struct State {
    scheduler: FairScheduler<JobId>,
    jobs: HashMap<JobId, Job>,
    /// Terminal jobs in completion order, for bounded retention.
    terminal_order: std::collections::VecDeque<JobId>,
    /// Fingerprint → the queued/running primary job for it.
    inflight: HashMap<Fingerprint, JobId>,
    registry: Registry,
    next_id: u64,
    shutdown: bool,
}

struct Inner {
    state: Mutex<State>,
    /// Signals workers that the queue gained an entry (or shutdown).
    work_ready: Condvar,
    /// Signals [`RecoveryService::wait`]ers that some job finished.
    finished: Condvar,
    /// Service-wide event stream.
    events: Fanout<JobEvent>,
    recovery: RecoveryConfig,
    queue_capacity: usize,
    max_patterns: usize,
    compact_after: usize,
    compact_budget: usize,
    /// `Some` = closed tenant set with auth tokens; `None` = open.
    tenants: Option<HashMap<String, String>>,
    obs: Arc<ServiceObs>,
}

/// The multi-tenant recovery service (see the module docs and the crate
/// docs for an end-to-end example).
pub struct RecoveryService {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl RecoveryService {
    /// Starts the service: validates the configuration, opens (and
    /// replays) the registry, and spawns the worker pool.
    ///
    /// # Errors
    ///
    /// [`StartError::Config`] for a configuration that could never make
    /// progress (zero workers, zero queue capacity, or an explicit-but-
    /// empty tenant set); [`StartError::Io`] for registry I/O errors.
    pub fn start(config: ServiceConfig) -> Result<RecoveryService, StartError> {
        config.validate()?;
        let mut registry = match &config.registry_path {
            Some(path) => Registry::open(path)?,
            None => Registry::in_memory(),
        };
        registry.set_seal_bytes(config.registry_seal_bytes);
        let obs = Arc::new(ServiceObs::new(config.observability));
        obs.publish_registry(&registry);
        let worker_count = config.workers;
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                scheduler: FairScheduler::new(config.queue_capacity),
                jobs: HashMap::new(),
                terminal_order: std::collections::VecDeque::new(),
                inflight: HashMap::new(),
                registry,
                next_id: 0,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            finished: Condvar::new(),
            events: Fanout::new(),
            recovery: config.recovery,
            queue_capacity: config.queue_capacity,
            max_patterns: config.max_patterns,
            compact_after: config.compact_after,
            compact_budget: config.compact_budget,
            tenants: config.tenants,
            obs,
        });
        let workers = (0..worker_count)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("beer-service-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn service worker")
            })
            .collect();
        Ok(RecoveryService { inner, workers })
    }

    /// Submits a job, passing it through the cache, coalescing, and
    /// admission gates (see the module docs).
    ///
    /// # Errors
    ///
    /// Returns a typed [`Rejected`] — admission backpressure, never a
    /// panic.
    pub fn submit(&self, request: JobRequest) -> Result<JobId, Rejected> {
        let tenant = request.tenant.clone();
        let result = self.submit_inner(request);
        if let Err(rejected) = &result {
            self.inner.obs.rejected(rejected).inc();
            // No per-tenant series for InvalidTenant: arbitrary unvetted
            // names would grow the registry without bound.
            if !matches!(rejected, Rejected::InvalidTenant { .. }) {
                self.inner.obs.bump_tenant(&tenant, "rejected_total");
            }
            self.inner
                .obs
                .flight("shed", None, format!("tenant {tenant}: {rejected}"));
        }
        result
    }

    fn submit_inner(&self, request: JobRequest) -> Result<JobId, Rejected> {
        let JobRequest {
            tenant,
            priority,
            deadline,
            input,
            trace_id,
        } = request;
        if tenant.is_empty() {
            return Err(Rejected::InvalidTenant {
                reason: "tenant name is empty",
            });
        }
        if tenant.chars().any(char::is_whitespace) {
            return Err(Rejected::InvalidTenant {
                reason: "tenant name contains whitespace",
            });
        }
        if let Some(tenants) = &self.inner.tenants {
            if !tenants.contains_key(&tenant) {
                return Err(Rejected::InvalidTenant {
                    reason: "tenant is not in the service's tenant set",
                });
            }
        }
        let (slot, fingerprint, patterns) = match input {
            JobInput::Trace(verified) => {
                let trace = Arc::clone(verified.trace());
                let patterns = trace.patterns.len();
                (
                    RunInput::Trace(trace),
                    Some(verified.fingerprint()),
                    patterns,
                )
            }
            JobInput::Source { label, source } => {
                // `scheduled_patterns` asserts on unschedulable dataword
                // lengths; admission control must reject typed instead of
                // unwinding into the submitter.
                let k = source.k();
                let recovery = &self.inner.recovery;
                let patterns = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    recovery.scheduled_patterns(k)
                }))
                .map_err(|_| Rejected::Unschedulable { k })?;
                (RunInput::Source { label, source }, None, patterns)
            }
        };
        if patterns > self.inner.max_patterns {
            return Err(Rejected::TooLarge {
                patterns,
                limit: self.inner.max_patterns,
            });
        }

        let mut state = lock_unpoisoned(&self.inner.state);
        if state.shutdown {
            return Err(Rejected::ShuttingDown);
        }
        // Cache: a completed record for this fingerprint answers in O(1).
        let lookup_start = Instant::now();
        let cached = fingerprint.and_then(|fp| {
            state
                .registry
                .lookup_fingerprint(fp)
                .map(|record| record.outcome)
        });
        let obs = &self.inner.obs;
        obs.record(&obs.cache_lookup, lookup_start.elapsed());
        // Coalescing: an identical in-flight profile absorbs this job.
        let primary = fingerprint.and_then(|fp| state.inflight.get(&fp).copied());
        // Admission: everything else needs a queue slot.
        if cached.is_none()
            && primary.is_none()
            && state.scheduler.len() >= self.inner.queue_capacity
        {
            return Err(Rejected::QueueFull {
                capacity: self.inner.queue_capacity,
            });
        }

        let id = JobId(state.next_id);
        state.next_id += 1;
        obs.submitted.inc();
        // Every admitted job carries a trace id: the submitter's (a
        // forwarded job keeps its origin-node id) or one minted here.
        let trace_id = trace_id.unwrap_or_else(TraceId::mint);
        state.jobs.insert(
            id,
            Job {
                tenant: tenant.clone(),
                priority,
                state: JobState::Queued,
                input: Some(slot),
                fingerprint,
                cancel: CancelToken::new(),
                deadline_at: deadline.map(|d| Instant::now() + d),
                enqueued_at: Instant::now(),
                trace_id,
                waiters: Vec::new(),
                coalesced_into: None,
                result: None,
                events: Fanout::new(),
            },
        );
        obs.queued.inc();
        obs.bump_tenant(&tenant, "submitted_total");
        obs.flight("admission", Some(trace_id), format!("{id} tenant {tenant}"));
        self.inner
            .emit(&state, JobEvent::Submitted { job: id, tenant });

        if let Some(outcome) = cached {
            obs.cache_hits.inc();
            self.inner.emit(&state, JobEvent::CacheHit { job: id });
            self.inner.finalize(
                &mut state,
                id,
                JobState::Done,
                Ok(JobOutput {
                    outcome,
                    from_cache: true,
                    coalesced_into: None,
                }),
            );
        } else if let Some(primary) = primary {
            state
                .jobs
                .get_mut(&primary)
                .expect("inflight names a live job")
                .waiters
                .push(id);
            state
                .jobs
                .get_mut(&id)
                .expect("just inserted")
                .coalesced_into = Some(primary);
            obs.coalesced.inc();
            self.inner
                .emit(&state, JobEvent::Coalesced { job: id, primary });
        } else {
            let tenant = state.jobs[&id].tenant.clone();
            state
                .scheduler
                .push(&tenant, priority, id)
                .expect("capacity checked above");
            if let Some(fp) = fingerprint {
                state.inflight.insert(fp, id);
            }
            self.inner.work_ready.notify_one();
        }
        Ok(id)
    }

    /// The job's current lifecycle state.
    pub fn status(&self, id: JobId) -> Option<JobState> {
        lock_unpoisoned(&self.inner.state)
            .jobs
            .get(&id)
            .map(|j| j.state)
    }

    /// The job's result, if it reached a terminal state (non-blocking).
    pub fn result(&self, id: JobId) -> Option<JobResult> {
        lock_unpoisoned(&self.inner.state)
            .jobs
            .get(&id)
            .and_then(|j| j.result.clone())
    }

    /// Blocks until the job reaches a terminal state and returns its
    /// result ([`JobError::Unknown`] for an id this instance never
    /// issued).
    pub fn wait(&self, id: JobId) -> JobResult {
        let mut state = lock_unpoisoned(&self.inner.state);
        loop {
            match state.jobs.get(&id) {
                None => return Err(JobError::Unknown),
                Some(job) => {
                    if let Some(result) = &job.result {
                        return result.clone();
                    }
                }
            }
            state = self
                .inner
                .finished
                .wait(state)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }

    /// Requests cancellation. Queued jobs (and coalesced waiters) land
    /// `Cancelled` immediately; a running job's session stops at the next
    /// unit boundary. Returns `false` if the job is unknown or already
    /// terminal.
    pub fn cancel(&self, id: JobId) -> bool {
        let mut state = lock_unpoisoned(&self.inner.state);
        let Some(job) = state.jobs.get(&id) else {
            return false;
        };
        if job.state.is_terminal() {
            return false;
        }
        job.cancel.cancel();
        let coalesced_into = job.coalesced_into;
        let tenant = job.tenant.clone();
        match job.state {
            JobState::Queued => {
                if let Some(primary) = coalesced_into {
                    if let Some(pj) = state.jobs.get_mut(&primary) {
                        pj.waiters.retain(|w| *w != id);
                    }
                } else {
                    // Drop the scheduler entry so a cancelled job stops
                    // consuming queue capacity and fairness turns.
                    state.scheduler.remove(&tenant, &id);
                }
                // A queued primary's waiters are promoted by finalize.
                self.inner.finalize(
                    &mut state,
                    id,
                    JobState::Cancelled,
                    Err(JobError::Cancelled),
                );
            }
            JobState::Running => {
                // The worker's completion path maps the session's
                // cancelled outcome to `Cancelled`.
            }
            _ => unreachable!("terminal states handled above"),
        }
        true
    }

    /// Subscribes to one job's event stream (events from subscription
    /// time onward).
    pub fn subscribe(&self, id: JobId) -> Option<mpsc::Receiver<JobEvent>> {
        lock_unpoisoned(&self.inner.state)
            .jobs
            .get(&id)
            .map(|j| j.events.subscribe())
    }

    /// Subscribes to one job's event stream with a wakeup callback:
    /// `notify` runs (on the publishing thread) after each event is
    /// queued. This is the network edge's fan-out hook — a reactor
    /// multiplexing thousands of watchers parks on epoll and is woken
    /// exactly when a watched job produces an event, instead of polling
    /// every receiver on a timer.
    pub fn subscribe_notified(
        &self,
        id: JobId,
        notify: FanoutNotify,
    ) -> Option<mpsc::Receiver<JobEvent>> {
        lock_unpoisoned(&self.inner.state)
            .jobs
            .get(&id)
            .map(|j| j.events.subscribe_with_notify(notify))
    }

    /// Subscribes to every job's events. Subscribe *before* submitting to
    /// observe admission-time events (`Submitted`, `Coalesced`,
    /// `CacheHit`).
    pub fn subscribe_all(&self) -> mpsc::Receiver<JobEvent> {
        self.inner.events.subscribe()
    }

    /// The full registry record for a profile fingerprint.
    pub fn lookup_fingerprint(&self, fingerprint: Fingerprint) -> Option<JobRecord> {
        lock_unpoisoned(&self.inner.state)
            .registry
            .lookup_fingerprint(fingerprint)
    }

    /// Checks a tenant's credentials — the network edge's Hello gate.
    ///
    /// An *open* service (no configured tenant set) accepts any
    /// well-formed tenant name and ignores the token. A *closed* service
    /// requires the tenant to be in the set with exactly this token
    /// (compared in constant time over the token bytes).
    pub fn authenticate(&self, tenant: &str, token: &str) -> bool {
        if tenant.is_empty() || tenant.chars().any(char::is_whitespace) {
            return false;
        }
        match &self.inner.tenants {
            None => true,
            Some(tenants) => tenants.get(tenant).is_some_and(|expected| {
                // Constant-time comparison: no early exit leaking how much
                // of the token matched.
                expected.len() == token.len()
                    && expected
                        .bytes()
                        .zip(token.bytes())
                        .fold(0u8, |acc, (a, b)| acc | (a ^ b))
                        == 0
            }),
        }
    }

    /// The registry entry for any code equivalent to `code`.
    pub fn lookup_code(&self, code: &LinearCode) -> Option<CodeEntry> {
        lock_unpoisoned(&self.inner.state)
            .registry
            .lookup_code(code)
            .cloned()
    }

    /// Every registered code with the given dimensions.
    pub fn lookup_dims(&self, n: usize, k: usize) -> Vec<CodeEntry> {
        lock_unpoisoned(&self.inner.state)
            .registry
            .lookup_dims(n, k)
            .into_iter()
            .cloned()
            .collect()
    }

    /// One page of the dims query, resuming strictly after the
    /// `(hash, bucket idx)` cursor; returns the page and the cursor for
    /// the next one (`None` when exhausted). The underlying run is
    /// append-only and sorted, so a cursor stays valid while jobs
    /// complete between pages — this is what the network edge serves,
    /// holding the registry lock only per page, never across pages.
    pub fn lookup_dims_page(
        &self,
        n: usize,
        k: usize,
        after: Option<(u64, u32)>,
        limit: usize,
    ) -> (Vec<CodeEntry>, Option<(u64, u32)>) {
        let state = lock_unpoisoned(&self.inner.state);
        let (page, next) = state.registry.lookup_dims_page(n, k, after, limit);
        (page.into_iter().cloned().collect(), next)
    }

    /// One page of a canonical-hash bucket, resuming strictly after
    /// bucket index `after` (see [`RecoveryService::lookup_dims_page`]).
    pub fn lookup_hash_page(
        &self,
        hash: u64,
        after: Option<u32>,
        limit: usize,
    ) -> (Vec<CodeEntry>, Option<u32>) {
        let state = lock_unpoisoned(&self.inner.state);
        let (page, next) = state.registry.lookup_hash_page(hash, after, limit);
        (page.into_iter().cloned().collect(), next)
    }

    /// `(job records, distinct codes)` currently in the registry.
    pub fn registry_size(&self) -> (usize, usize) {
        let state = lock_unpoisoned(&self.inner.state);
        (state.registry.record_count(), state.registry.code_count())
    }

    /// Blocks until the service is *idle* — nothing queued and nothing
    /// running — or `timeout` elapses; returns `true` when idle was
    /// reached. Driven by the same condvar that resolves
    /// [`RecoveryService::wait`], so a drain waits exactly as long as the
    /// work does, with no polling.
    pub fn wait_idle(&self, timeout: std::time::Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut state = lock_unpoisoned(&self.inner.state);
        loop {
            if state.scheduler.len() == 0 && self.inner.obs.running.get() == 0 {
                return true;
            }
            let now = Instant::now();
            let Some(remaining) = deadline
                .checked_duration_since(now)
                .filter(|d| !d.is_zero())
            else {
                return false;
            };
            let (guard, _) = self
                .inner
                .finished
                .wait_timeout(state, remaining)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            state = guard;
        }
    }

    /// The node's observability hub: metrics registry, latency
    /// histograms, and flight recorder. The network edge shares it so
    /// one exposition covers every tier of the node.
    pub fn obs(&self) -> &Arc<ServiceObs> {
        &self.inner.obs
    }

    /// The node's full observability state as text: every registered
    /// metric series (the [`ServiceStats`] counters and gauges, latency
    /// histograms with p50/p90/p99) as [`MetricsRegistry::render`] prints
    /// it, then the last `tail` flight-recorder events. This is the
    /// payload of the wire's `QueryMetrics` answer;
    /// [`MetricsSnapshot::parse`] reads the series back.
    pub fn metrics_text(&self, tail: usize) -> String {
        let obs = &self.inner.obs;
        let mut out = obs.registry().render();
        out.push_str(&obs.recorder().render_tail(tail));
        out
    }

    /// Current counters and gauges, read from the node's metrics
    /// registry (no service lock is taken).
    pub fn stats(&self) -> ServiceStats {
        ServiceStats::from_snapshot(&self.inner.obs.registry().snapshot())
    }

    /// Stops accepting work, fails still-queued jobs with
    /// [`JobError::ShutDown`], lets running sessions finish, and joins the
    /// workers. Also runs on drop.
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&mut self) {
        {
            let mut state = lock_unpoisoned(&self.inner.state);
            if !state.shutdown {
                state.shutdown = true;
                for id in state.scheduler.drain() {
                    if !state.jobs[&id].state.is_terminal() {
                        self.inner.finalize(
                            &mut state,
                            id,
                            JobState::Failed,
                            Err(JobError::ShutDown),
                        );
                    }
                }
            }
        }
        self.inner.work_ready.notify_all();
        self.inner.finished.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for RecoveryService {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

impl Inner {
    /// Publishes an event to the job's subscribers and the service-wide
    /// stream.
    fn emit(&self, state: &State, event: JobEvent) {
        if let Some(job) = state.jobs.get(&event.job()) {
            job.events.publish(&event);
        }
        self.events.publish(&event);
    }

    /// Moves a job to a terminal state: sets the result, updates counters
    /// and the in-flight index, resolves coalesced waiters (sharing the
    /// result, or promoting them after a cancellation), and wakes waiters.
    fn finalize(&self, state: &mut State, id: JobId, new_state: JobState, result: JobResult) {
        debug_assert!(new_state.is_terminal());
        let Some(job) = state.jobs.get_mut(&id) else {
            return;
        };
        if job.state.is_terminal() {
            return;
        }
        self.obs.moved(job.state, new_state);
        job.state = new_state;
        job.input = None;
        job.result = Some(result.clone());
        let waiters = std::mem::take(&mut job.waiters);
        let fingerprint = job.fingerprint;
        match new_state {
            JobState::Done => self.obs.completed.inc(),
            JobState::Failed => self.obs.failed.inc(),
            JobState::Cancelled => self.obs.cancelled.inc(),
            _ => {}
        }
        self.emit(
            state,
            JobEvent::StateChanged {
                job: id,
                state: new_state,
            },
        );
        if let Some(fp) = fingerprint {
            if state.inflight.get(&fp) == Some(&id) {
                state.inflight.remove(&fp);
            }
        }
        if new_state == JobState::Cancelled {
            // Cancelling a primary must not take its waiters down: the
            // first live waiter is promoted to run the profile itself.
            let mut live: Vec<JobId> = waiters
                .into_iter()
                .filter(|w| {
                    state
                        .jobs
                        .get(w)
                        .is_some_and(|j| !j.state.is_terminal() && !j.cancel.is_cancelled())
                })
                .collect();
            if !live.is_empty() {
                let promoted = live.remove(0);
                let pj = state.jobs.get_mut(&promoted).expect("live waiter");
                pj.coalesced_into = None;
                pj.waiters = live;
                let (tenant, priority) = (pj.tenant.clone(), pj.priority);
                if let Some(fp) = fingerprint {
                    state.inflight.insert(fp, promoted);
                }
                state.scheduler.requeue(&tenant, priority, promoted);
                self.obs.requeued.inc();
                self.emit(state, JobEvent::Requeued { job: promoted });
                self.work_ready.notify_one();
            }
        } else {
            let now = Instant::now();
            for waiter in waiters {
                let Some(wj) = state.jobs.get(&waiter) else {
                    continue;
                };
                if wj.state.is_terminal() {
                    continue;
                }
                // A waiter's own deadline covers its whole wait: a result
                // arriving after it expired is reported as the typed
                // expiry, not as a late success.
                if wj.deadline_at.is_some_and(|at| now >= at) {
                    self.finalize(
                        state,
                        waiter,
                        JobState::Failed,
                        Err(JobError::DeadlineExpired),
                    );
                    continue;
                }
                let shared = match &result {
                    Ok(output) => Ok(JobOutput {
                        coalesced_into: Some(id),
                        from_cache: false,
                        outcome: output.outcome.clone(),
                    }),
                    Err(e) => Err(e.clone()),
                };
                self.finalize(state, waiter, new_state, shared);
            }
        }
        // Bounded retention: evict the oldest terminal jobs beyond
        // `RETAINED_JOBS` so a long-running service does not accumulate
        // every job ever submitted.
        state.terminal_order.push_back(id);
        while state.terminal_order.len() > RETAINED_JOBS {
            let evicted = state.terminal_order.pop_front().expect("len checked above");
            state.jobs.remove(&evicted);
        }
        self.finished.notify_all();
    }
}

/// What a job runs; the worker carries it out of the lock.
enum RunInput {
    Trace(Arc<ProfileTrace>),
    Source {
        label: String,
        source: Box<dyn ProfileSource + Send>,
    },
}

fn worker_loop(inner: &Inner) {
    let mut state = lock_unpoisoned(&inner.state);
    loop {
        if state.shutdown {
            return;
        }
        let Some(id) = state.scheduler.pop() else {
            state = inner
                .work_ready
                .wait(state)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            continue;
        };
        let job = state.jobs.get_mut(&id).expect("scheduled job exists");
        if job.state != JobState::Queued {
            continue; // stale entry: cancelled while queued
        }
        if job.cancel.is_cancelled() {
            inner.finalize(
                &mut state,
                id,
                JobState::Cancelled,
                Err(JobError::Cancelled),
            );
            continue;
        }
        if job.deadline_at.is_some_and(|at| Instant::now() >= at) {
            inner.finalize(
                &mut state,
                id,
                JobState::Failed,
                Err(JobError::DeadlineExpired),
            );
            continue;
        }
        job.state = JobState::Running;
        inner.obs.moved(JobState::Queued, JobState::Running);
        let cancel = job.cancel.clone();
        let deadline_at = job.deadline_at;
        let job_events = job.events.clone();
        let tenant = job.tenant.clone();
        let fingerprint = job.fingerprint;
        let trace_id = job.trace_id;
        let queue_wait = job.enqueued_at.elapsed();
        let input = job.input.take().expect("a queued job holds its input");
        let obs = Arc::clone(&inner.obs);
        obs.record(&obs.queue_wait, queue_wait);
        obs.flight(
            "dispatch",
            Some(trace_id),
            format!("{id} after {}us queued", queue_wait.as_micros()),
        );
        inner.emit(
            &state,
            JobEvent::StateChanged {
                job: id,
                state: JobState::Running,
            },
        );
        drop(state);

        // Run the session outside the lock. Each worker collects serially
        // (the pool is the parallelism budget), and the guarded runner
        // turns a panicking backend into this job's typed error.
        let global_events = inner.events.clone();
        let observer_obs = Arc::clone(&obs);
        let observer = move |event: &RecoveryEvent| {
            // The per-round phase breakdown feeds the node's pipeline
            // histograms — the paper's Fig. 6 stage split, live.
            if let RecoveryEvent::CheckCompleted { phases, sim_ns, .. } = event {
                let o = &observer_obs;
                o.record(&o.phase_collect, phases.collect);
                o.record(&o.phase_preprocess, phases.preprocess);
                o.record(&o.phase_encode, phases.encode);
                o.record(&o.phase_solve, phases.solve);
                // Simulated DRAM time is a separate axis from the host
                // phases: only timed backends report it, so the series
                // stays empty (not zero-polluted) for untimed jobs.
                if *sim_ns > 0 {
                    o.record(&o.dram_sim, std::time::Duration::from_nanos(*sim_ns));
                }
            }
            let event = JobEvent::Progress {
                job: id,
                event: event.clone(),
            };
            job_events.publish(&event);
            global_events.publish(&event);
        };
        let mut config = inner.recovery.clone().with_threads(1);
        if let Some(at) = deadline_at {
            config = config.with_deadline(at.saturating_duration_since(Instant::now()));
        }
        let run_start = Instant::now();
        let run = match input {
            RunInput::Trace(trace) => {
                let mut backend = ReplayBackend::new(trace);
                let label = format!("{id} (replay)");
                run_session_guarded(&config, &label, &mut backend, cancel, observer)
            }
            RunInput::Source { label, mut source } => {
                let label = format!("{id} ({label})");
                run_session_guarded(&config, &label, source.as_mut(), cancel, observer)
            }
        };
        obs.record(&obs.solve_time, run_start.elapsed());

        state = lock_unpoisoned(&inner.state);
        let (job_state, job_result) = match run {
            Ok(report) => match report.outcome {
                RecoveryOutcome::Unique(code) => (
                    JobState::Done,
                    Ok(CodeOutcome::Unique(equivalence::canonicalize(&code))),
                ),
                RecoveryOutcome::Ambiguous {
                    count, truncated, ..
                } => (
                    JobState::Done,
                    Ok(CodeOutcome::Ambiguous { count, truncated }),
                ),
                RecoveryOutcome::Inconsistent => (JobState::Done, Ok(CodeOutcome::Inconsistent)),
                RecoveryOutcome::BudgetExhausted { reason, .. } => match reason {
                    BudgetReason::Cancelled => (JobState::Cancelled, Err(JobError::Cancelled)),
                    BudgetReason::Deadline => (JobState::Failed, Err(JobError::DeadlineExpired)),
                },
            },
            Err(e) => (JobState::Failed, Err(JobError::Recovery(e))),
        };
        let job_result: JobResult = job_result.map(|outcome| {
            // Durable record + cache for every finished trace outcome.
            if let Some(fp) = fingerprint {
                if let Err(e) = state.registry.record(fp, &tenant, &outcome) {
                    // Disk trouble degrades durability, not service.
                    eprintln!("beer_service: registry append failed: {e}");
                }
                // The worker path drives the storage lifecycle:
                // record() seals the active log at the size
                // threshold, and once the tail reaches
                // `compact_after` this drains it into a snapshot —
                // minor generations under `compact_budget`, one
                // major merge at it. Failures are counted
                // (`registry_compaction_failures`), never reset.
                let compactions_before = state.registry.compactions();
                if let Err(e) = state
                    .registry
                    .maybe_roll(inner.compact_after, inner.compact_budget)
                {
                    eprintln!("beer_service: registry compaction failed: {e}");
                }
                obs.publish_registry(&state.registry);
                let compacted = state.registry.compactions() - compactions_before;
                if compacted > 0 {
                    obs.flight(
                        "compaction",
                        None,
                        format!(
                            "registry rolled ({} segments live)",
                            state.registry.segment_count()
                        ),
                    );
                }
            }
            JobOutput {
                outcome,
                from_cache: false,
                coalesced_into: None,
            }
        });
        inner.finalize(&mut state, id, job_state, job_result);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobRequest;
    use beer_core::collect::CollectionPlan;
    use beer_core::engine::{AnalyticBackend, EngineError};
    use beer_core::pattern::{ChargedSet, PatternSet};
    use beer_core::trace::VerifiedTrace;
    use beer_core::MiscorrectionProfile;
    use beer_ecc::hamming;
    use std::time::Duration;

    fn sample_trace() -> ProfileTrace {
        trace_of(8)
    }

    fn trace_of(k: usize) -> ProfileTrace {
        let code = hamming::shortened(k);
        let patterns = PatternSet::OneTwo.patterns(k);
        let mut backend = AnalyticBackend::new(code);
        ProfileTrace::record(&mut backend, &patterns, &CollectionPlan::quick())
    }

    /// A source that parks its worker until the paired sender drops.
    struct GateSource(mpsc::Receiver<()>);

    impl ProfileSource for GateSource {
        fn k(&self) -> usize {
            8
        }

        fn label(&self) -> String {
            "gate".to_string()
        }

        fn num_units(&self, _: &[ChargedSet], _: &CollectionPlan) -> usize {
            1
        }

        fn run_unit(
            &mut self,
            _: usize,
            _: &[ChargedSet],
            _: &CollectionPlan,
            _: &mut MiscorrectionProfile,
        ) -> Result<(), EngineError> {
            // Returns once the sender is dropped, and at once after that.
            let _ = self.0.recv();
            Ok(())
        }
    }

    /// Submits a gate job and waits (on the event stream) until it runs;
    /// dropping the returned sender lets it finish.
    fn park_worker(
        service: &RecoveryService,
        events: &mpsc::Receiver<JobEvent>,
    ) -> (JobId, mpsc::Sender<()>) {
        let (release, gate) = mpsc::channel();
        let id = service
            .submit(JobRequest::source(
                "warden",
                "gate",
                Box::new(GateSource(gate)),
            ))
            .expect("gate admitted");
        loop {
            let event = events
                .recv_timeout(Duration::from_secs(10))
                .expect("the gate job starts");
            if matches!(event, JobEvent::StateChanged { job, state: JobState::Running } if job == id)
            {
                return (id, release);
            }
        }
    }

    /// The queued/running gauges equal the number of `ids` in each state.
    fn assert_gauges_match(inner: &Inner, ids: &[JobId], when: &str) {
        let state = lock_unpoisoned(&inner.state);
        let count = |s: JobState| {
            ids.iter()
                .filter(|id| state.jobs.get(id).map(|j| j.state) == Some(s))
                .count() as u64
        };
        let expected = (count(JobState::Queued), count(JobState::Running));
        drop(state);
        let stats = ServiceStats::from_snapshot(&inner.obs.registry().snapshot());
        assert_eq!((stats.queued, stats.running), expected, "after {when}");
    }

    #[test]
    fn a_fresh_node_registers_every_service_series() {
        let service = RecoveryService::start(ServiceConfig::new().with_workers(1)).expect("start");
        let snapshot = service.obs().registry().snapshot();
        let missing: Vec<&str> = STATS_SERIES
            .iter()
            .map(|(name, _)| *name)
            .filter(|name| snapshot.value(name).is_none())
            .collect();
        // Only the network edge's forwarding counters.
        assert_eq!(
            missing,
            [ServiceStats::FORWARDED_JOBS, ServiceStats::FORWARD_ERRORS]
        );
    }

    #[test]
    fn queued_and_running_gauges_follow_job_states() {
        let service = RecoveryService::start(ServiceConfig::new().with_workers(1)).expect("start");
        let events = service.subscribe_all();
        let (gate, release) = park_worker(&service, &events);
        let mut ids = vec![gate];
        assert_gauges_match(&service.inner, &ids, "parking the worker");

        let trace = sample_trace();
        let submit = |request: JobRequest| service.submit(request).expect("admitted");
        let primary = submit(JobRequest::trace("t", trace.clone()));
        ids.extend([primary, submit(JobRequest::trace("t", trace.clone()))]);
        assert_eq!(service.stats().coalesced, 1);
        assert_gauges_match(&service.inner, &ids, "a coalesce");

        assert!(service.cancel(primary));
        assert_eq!(service.stats().requeued, 1, "the waiter is promoted");
        assert_gauges_match(&service.inner, &ids, "cancelling a queued primary");

        // A waiter whose deadline passes before its primary finishes.
        let late = submit(JobRequest::trace("t", trace).with_deadline(Duration::ZERO));
        ids.push(late);
        assert_gauges_match(&service.inner, &ids, "a second coalesce");
        drop(release);
        assert!(matches!(service.wait(late), Err(JobError::DeadlineExpired)));
        assert!(service.wait_idle(Duration::from_secs(10)));
        assert_gauges_match(&service.inner, &ids, "a waiter's deadline expiry");

        // Shutdown with work queued: the queued jobs fail while the
        // worker is still parked.
        let (gate, release) = park_worker(&service, &events);
        let queued = [
            submit(JobRequest::trace("t", trace_of(7))),
            submit(JobRequest::trace("t", trace_of(9))),
        ];
        ids.push(gate);
        ids.extend(queued);
        assert_gauges_match(&service.inner, &ids, "queueing behind a parked worker");
        let inner = Arc::clone(&service.inner);
        let watcher = std::thread::spawn(move || {
            let mut failed = 0;
            while failed < queued.len() {
                let event = events
                    .recv_timeout(Duration::from_secs(10))
                    .expect("shutdown fails the queued jobs");
                if let JobEvent::StateChanged {
                    job,
                    state: JobState::Failed,
                } = event
                {
                    failed += usize::from(queued.contains(&job));
                }
            }
            assert_gauges_match(&inner, &ids, "shutdown with work queued");
            drop(release);
        });
        service.shutdown();
        watcher.join().expect("gauges matched at shutdown");
    }

    #[test]
    fn finished_jobs_release_their_trace() {
        let service = RecoveryService::start(ServiceConfig::new().with_workers(1)).expect("start");
        let verified = VerifiedTrace::from(sample_trace());
        let held = Arc::clone(verified.trace());
        // `verified` and `held`: the only references the test owns.
        let own = Arc::strong_count(&held);
        for (run, from_cache) in [("solved", false), ("cache hit", true)] {
            let id = service
                .submit(JobRequest::shared_trace("t", verified.clone()))
                .expect("admitted");
            let output = service.wait(id).expect("solves");
            assert_eq!(output.from_cache, from_cache, "{run}");
            assert_eq!(
                Arc::strong_count(&held),
                own,
                "a {run} job still holds its trace after finishing"
            );
        }
    }

    #[test]
    fn unusable_configurations_are_typed_start_errors() {
        for (config, expected) in [
            (
                ServiceConfig::new().with_workers(0),
                ConfigError::ZeroWorkers,
            ),
            (
                ServiceConfig::new().with_queue_capacity(0),
                ConfigError::ZeroQueueCapacity,
            ),
            (
                ServiceConfig::new().with_tenants(Vec::<(String, String)>::new()),
                ConfigError::EmptyTenantSet,
            ),
        ] {
            match RecoveryService::start(config) {
                Err(StartError::Config(got)) => assert_eq!(got, expected),
                Err(other) => panic!("expected {expected:?}, got {other:?}"),
                Ok(_) => panic!("expected {expected:?}, got a running service"),
            }
        }
        // The typed error maps to InvalidInput for io::Result callers.
        let err: io::Error = StartError::Config(ConfigError::ZeroWorkers).into();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn closed_tenant_set_gates_submission_and_authentication() {
        let service = RecoveryService::start(
            ServiceConfig::new()
                .with_workers(1)
                .with_tenants([("alice", "secret-a"), ("bob", "secret-b")]),
        )
        .expect("valid closed config");
        assert!(service.authenticate("alice", "secret-a"));
        assert!(!service.authenticate("alice", "secret-b"));
        assert!(!service.authenticate("alice", "secret-a-longer"));
        assert!(!service.authenticate("mallory", "secret-a"));
        assert!(!service.authenticate("", ""));

        let err = service
            .submit(JobRequest::trace("mallory", sample_trace()))
            .expect_err("unknown tenant must be rejected");
        assert!(matches!(err, Rejected::InvalidTenant { .. }));
        let id = service
            .submit(JobRequest::trace("alice", sample_trace()))
            .expect("known tenant admitted");
        assert!(service.wait(id).is_ok());
        assert_eq!(service.stats().rejected.invalid_tenant, 1);
    }

    #[test]
    fn open_service_authenticates_any_well_formed_tenant() {
        let service =
            RecoveryService::start(ServiceConfig::new().with_workers(1)).expect("open config");
        assert!(service.authenticate("anyone", "any-token"));
        assert!(!service.authenticate("bad tenant", "t"));
    }

    #[test]
    fn rejections_are_counted_by_kind() {
        let service = RecoveryService::start(
            ServiceConfig::new()
                .with_workers(1)
                .with_max_patterns(2)
                .with_queue_capacity(1),
        )
        .expect("start");
        let _ = service
            .submit(JobRequest::trace("t", sample_trace()))
            .expect_err("over the pattern ceiling");
        let _ = service
            .submit(JobRequest::trace("bad tenant", sample_trace()))
            .expect_err("whitespace tenant");
        let stats = service.stats();
        assert_eq!(stats.rejected.too_large, 1);
        assert_eq!(stats.rejected.invalid_tenant, 1);
        assert_eq!(stats.rejected.total(), 2);
    }
}
