//! # `beer_obs` — observability for the BEER stack
//!
//! A std-only, zero-dependency observability layer shared by every tier
//! of the workspace:
//!
//! - [`Histogram`]: a lock-free log-bucketed latency histogram
//!   (power-of-two buckets with 8 sub-buckets each, so every quantile
//!   estimate carries at most 12.5% relative error). Snapshots are
//!   mergeable across threads and across nodes.
//! - [`MetricsRegistry`]: named atomic counters, gauges, and histograms
//!   with a stable text exposition. Handles are `Arc`s — grab them once
//!   on a hot path, never re-look-up by name per event.
//! - [`MetricsSnapshot`]: a name → value read of a registry, taken in
//!   process or parsed back from the exposition text, so local and
//!   remote readers see the same series.
//! - [`FlightRecorder`]: a fixed-size ring of recent structured events
//!   (admission, dispatch, forward, compaction, shed) so an operator can
//!   ask "what just happened on this node" without log scraping.
//! - [`TraceId`]: a 128-bit correlation id minted at submission and
//!   carried across forwarding hops, so one id names a job on the origin
//!   and owner nodes alike. A correlation id, **not** a secret: it is
//!   derived from hasher entropy and a process-local counter.
//!
//! The layer is deliberately boring: no global state, no macros, no
//! background threads. A service owns one [`MetricsRegistry`] and one
//! [`FlightRecorder`]; everything else borrows `Arc` handles.

mod histogram;
mod recorder;
mod registry;
mod trace;

pub use histogram::{Histogram, HistogramSnapshot, HistogramSummary, BUCKETS};
pub use recorder::{FlightEvent, FlightRecorder};
pub use registry::{Counter, Gauge, MetricsRegistry, MetricsSnapshot, ParseMetricsError};
pub use trace::TraceId;
