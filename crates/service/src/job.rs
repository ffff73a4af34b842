//! The job model: identifiers, tenancy, priorities, states, inputs,
//! results, and the per-job event stream.

use beer_core::engine::ProfileSource;
use beer_core::recovery::{BudgetReason, RecoveryError, RecoveryEvent};
use beer_core::trace::{ProfileTrace, VerifiedTrace};
use beer_ecc::LinearCode;
use beer_obs::TraceId;
use std::fmt;
use std::time::Duration;

/// Opaque job identifier, unique within one service instance. Durable
/// identity across restarts belongs to the profile
/// [`Fingerprint`](beer_core::trace::Fingerprint), not the job id.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

impl fmt::Debug for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JobId({})", self.0)
    }
}

/// Scheduling priority *within* one tenant's queue. Tenants are isolated
/// from each other by round-robin fairness, so one tenant's `High` jobs
/// never starve another tenant's `Low` jobs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum Priority {
    /// Behind everything else the tenant has queued.
    Low,
    /// The default.
    #[default]
    Normal,
    /// Ahead of the tenant's other queued work.
    High,
}

/// Lifecycle of a job. Transitions: `Queued → Running → {Done, Failed,
/// Cancelled}`, with `Queued → {Done, Failed, Cancelled}` shortcuts for
/// cache hits, deadline expiry in the queue, and pre-run cancellation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a worker (or coalesced onto a running job).
    Queued,
    /// A worker is driving the recovery session.
    Running,
    /// Terminal: the recovery reached a typed outcome.
    Done,
    /// Terminal: the recovery errored, panicked, missed its deadline, or
    /// the service shut down first.
    Failed,
    /// Terminal: cancelled before or during the run.
    Cancelled,
}

impl JobState {
    /// True for `Done`, `Failed`, and `Cancelled`.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }
}

impl fmt::Display for JobState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        };
        f.write_str(s)
    }
}

/// What a job recovers from.
pub enum JobInput {
    /// A recorded profile, solved through a
    /// [`ReplayBackend`](beer_core::trace::ReplayBackend). Trace jobs are
    /// *dedupable*: identical normalized evidence coalesces onto one
    /// in-flight job, and completed results are served from the registry
    /// cache forever after. The input carries its evidence fingerprint,
    /// computed once when the [`VerifiedTrace`] was built, so admission
    /// never re-hashes the trace; the trace itself is shared (`Arc`), so
    /// front ends holding many duplicate submissions of one profile (e.g.
    /// the network edge's upload cache) never deep-copy it.
    Trace(VerifiedTrace),
    /// A live backend (a chip on a tester, a simulation). Opaque to the
    /// service: never coalesced, never cached — every submission runs.
    Source {
        /// Human-readable backend name for error attribution.
        label: String,
        /// The backend itself; the job's session consumes it.
        source: Box<dyn ProfileSource + Send>,
    },
}

/// One unit of work a tenant submits.
pub struct JobRequest {
    /// Tenant name: non-empty, no whitespace (it keys the fairness
    /// rotation and the registry's plain-text log).
    pub tenant: String,
    /// Priority within the tenant's own queue.
    pub priority: Priority,
    /// Wall-clock budget measured from submission — covers queue wait
    /// *and* run time. An expired job fails with
    /// [`JobError::DeadlineExpired`].
    pub deadline: Option<Duration>,
    /// The profile to recover from.
    pub input: JobInput,
    /// The job's trace correlation id. `None` (the default) mints a
    /// fresh id at admission; a front end that already named the job —
    /// the network edge carrying a client- or forwarder-supplied id
    /// across nodes — passes it through so one id follows the job
    /// everywhere.
    pub trace_id: Option<TraceId>,
}

impl JobRequest {
    /// A trace job with default priority and no deadline. Fingerprints
    /// the trace.
    pub fn trace(tenant: impl Into<String>, trace: ProfileTrace) -> Self {
        JobRequest::shared_trace(tenant, VerifiedTrace::from(trace))
    }

    /// A trace job over an already-fingerprinted, shared trace —
    /// duplicate submissions of one profile (the dedup hot path) share
    /// the allocation and the fingerprint instead of cloning and
    /// re-hashing.
    pub fn shared_trace(tenant: impl Into<String>, trace: VerifiedTrace) -> Self {
        JobRequest {
            tenant: tenant.into(),
            priority: Priority::default(),
            deadline: None,
            input: JobInput::Trace(trace),
            trace_id: None,
        }
    }

    /// A live-backend job with default priority and no deadline.
    pub fn source(
        tenant: impl Into<String>,
        label: impl Into<String>,
        source: Box<dyn ProfileSource + Send>,
    ) -> Self {
        JobRequest {
            tenant: tenant.into(),
            priority: Priority::default(),
            deadline: None,
            input: JobInput::Source {
                label: label.into(),
                source,
            },
            trace_id: None,
        }
    }

    /// Overrides the priority.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the submission-to-completion deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Carries an already-minted trace correlation id (a forwarded job
    /// keeps the id minted on its origin node).
    pub fn with_trace_id(mut self, trace_id: TraceId) -> Self {
        self.trace_id = Some(trace_id);
        self
    }
}

/// Typed admission-control rejection: the service applies backpressure
/// instead of growing its queue without bound.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Rejected {
    /// The bounded queue is at capacity; retry later.
    QueueFull {
        /// The configured capacity.
        capacity: usize,
    },
    /// The job exceeds the configured size ceiling.
    TooLarge {
        /// Patterns the job would collect.
        patterns: usize,
        /// The configured limit.
        limit: usize,
    },
    /// The tenant name is unusable (empty or contains whitespace).
    InvalidTenant {
        /// Why.
        reason: &'static str,
    },
    /// The service's configured pattern schedule cannot be resolved for
    /// the backend's dataword length (e.g. `k` smaller than the pattern
    /// family's order).
    Unschedulable {
        /// The backend's dataword length.
        k: usize,
    },
    /// The service is shutting down.
    ShuttingDown,
}

impl fmt::Display for Rejected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rejected::QueueFull { capacity } => {
                write!(f, "job queue is full ({capacity} jobs); retry later")
            }
            Rejected::TooLarge { patterns, limit } => write!(
                f,
                "job would collect {patterns} patterns, over the limit of {limit}"
            ),
            Rejected::InvalidTenant { reason } => write!(f, "invalid tenant name: {reason}"),
            Rejected::Unschedulable { k } => write!(
                f,
                "the configured pattern schedule cannot be resolved for a {k}-bit dataword"
            ),
            Rejected::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for Rejected {}

/// Why a job failed or did not complete.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobError {
    /// The recovery session returned a typed error (engine failure, solver
    /// rejection, or a panicking backend converted by the guarded runner).
    Recovery(RecoveryError),
    /// The job's deadline expired — in the queue or mid-run.
    DeadlineExpired,
    /// The job was cancelled.
    Cancelled,
    /// The service shut down before the job ran.
    ShutDown,
    /// No job with the given id exists in this service instance.
    Unknown,
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Recovery(e) => write!(f, "recovery failed: {e}"),
            JobError::DeadlineExpired => write!(f, "deadline expired"),
            JobError::Cancelled => write!(f, "cancelled"),
            JobError::ShutDown => write!(f, "service shut down before the job ran"),
            JobError::Unknown => write!(f, "unknown job id"),
        }
    }
}

impl std::error::Error for JobError {}

/// The cacheable summary of a recovery outcome — what the registry
/// persists and the cache serves. Unlike
/// [`RecoveryOutcome`](beer_core::recovery::RecoveryOutcome) it carries no
/// witness lists or partial candidate sets, and a `Unique` code is stored
/// in [`canonical form`](beer_ecc::equivalence::canonicalize).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodeOutcome {
    /// Exactly one ECC function is consistent: its canonical
    /// representative.
    Unique(LinearCode),
    /// Several functions remain consistent after the full schedule.
    Ambiguous {
        /// Witnesses found (a lower bound when `truncated`).
        count: usize,
        /// True if enumeration stopped at the solver's cap.
        truncated: bool,
    },
    /// No function is consistent with the evidence.
    Inconsistent,
    /// A configured fact/pattern budget ended the schedule early. This is
    /// an artifact of the service's budgets, not of the evidence, so it is
    /// returned to the submitter but never cached or persisted —
    /// resubmitting the profile (e.g. under a reconfigured service) runs
    /// again.
    BudgetExhausted {
        /// Which budget fired.
        reason: BudgetReason,
    },
}

impl CodeOutcome {
    /// The recovered canonical code, if unique.
    pub fn unique_code(&self) -> Option<&LinearCode> {
        match self {
            CodeOutcome::Unique(code) => Some(code),
            _ => None,
        }
    }
}

/// A completed job's product.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobOutput {
    /// The recovery outcome summary.
    pub outcome: CodeOutcome,
    /// True if the result was served from the persistent registry without
    /// running a session.
    pub from_cache: bool,
    /// Set if this job never ran itself: it coalesced onto the given
    /// in-flight job with the same profile fingerprint and shares its
    /// result.
    pub coalesced_into: Option<JobId>,
}

/// How a job ended.
pub type JobResult = Result<JobOutput, JobError>;

/// Events streamed to per-job and service-wide subscribers (see
/// [`RecoveryService::subscribe`](crate::RecoveryService::subscribe)).
#[derive(Clone, Debug)]
pub enum JobEvent {
    /// The job was admitted.
    Submitted {
        /// The job.
        job: JobId,
        /// Its tenant.
        tenant: String,
    },
    /// The job entered a new lifecycle state.
    StateChanged {
        /// The job.
        job: JobId,
        /// The new state.
        state: JobState,
    },
    /// The job's fingerprint matched an in-flight job; it will share that
    /// job's result instead of running.
    Coalesced {
        /// The waiting job.
        job: JobId,
        /// The in-flight job it attached to.
        primary: JobId,
    },
    /// The job's fingerprint matched a completed record in the registry;
    /// its result was served without solving.
    CacheHit {
        /// The job.
        job: JobId,
    },
    /// The job had coalesced onto a primary that was cancelled; it was
    /// promoted back into the queue to run on its own.
    Requeued {
        /// The promoted job.
        job: JobId,
    },
    /// A progress event from the job's recovery session.
    Progress {
        /// The job.
        job: JobId,
        /// The session event.
        event: RecoveryEvent,
    },
}

impl JobEvent {
    /// The job the event concerns.
    pub fn job(&self) -> JobId {
        match self {
            JobEvent::Submitted { job, .. }
            | JobEvent::StateChanged { job, .. }
            | JobEvent::Coalesced { job, .. }
            | JobEvent::CacheHit { job }
            | JobEvent::Requeued { job }
            | JobEvent::Progress { job, .. } => *job,
        }
    }
}
