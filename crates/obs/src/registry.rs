//! Named metric handles with a stable text exposition, and the typed
//! name → value read of it.

use crate::histogram::{Histogram, HistogramSummary};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn inc(&self) {
        self.add(1);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A settable point-in-time value (queue depth, open connections, …).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Saturating decrement: a gauge never wraps below zero.
    pub fn dec(&self) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A get-or-create map of named metrics.
///
/// Registration takes a lock; recording does not (handles are `Arc`s to
/// lock-free atomics). Hot paths register once at startup and keep the
/// handle. Names are free-form but the convention is
/// `tier_series_unit` (`service_queue_wait_ns`, `net_forward_rtt_ns`);
/// the exposition sorts by name, so related series render adjacently.
#[derive(Default)]
pub struct MetricsRegistry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, BTreeMap<String, Metric>> {
        self.metrics.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Returns the counter named `name`, creating it on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind —
    /// that is a programming error, not a runtime condition.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        match self
            .lock()
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::default())))
        {
            Metric::Counter(c) => Arc::clone(c),
            other => panic!("metric {name:?} is a {}, not a counter", other.kind()),
        }
    }

    /// Returns the gauge named `name`, creating it on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        match self
            .lock()
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::default())))
        {
            Metric::Gauge(g) => Arc::clone(g),
            other => panic!("metric {name:?} is a {}, not a gauge", other.kind()),
        }
    }

    /// Returns the histogram named `name`, creating it on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        match self
            .lock()
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new())))
        {
            Metric::Histogram(h) => Arc::clone(h),
            other => panic!("metric {name:?} is a {}, not a histogram", other.kind()),
        }
    }

    /// Every metric's current value, by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let metrics = self
            .lock()
            .iter()
            .map(|(name, metric)| {
                let value = match metric {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram(h.snapshot().summary()),
                };
                (name.clone(), value)
            })
            .collect();
        MetricsSnapshot { metrics }
    }

    /// The full registry as text: [`MetricsSnapshot::render`] of
    /// [`MetricsRegistry::snapshot`].
    pub fn render(&self) -> String {
        self.snapshot().render()
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum MetricValue {
    Counter(u64),
    Gauge(u64),
    Histogram(HistogramSummary),
}

/// A point-in-time read of a registry, by name.
///
/// [`MetricsRegistry::snapshot`] takes one in-process;
/// [`MetricsSnapshot::parse`] recovers one from the text a remote node
/// rendered, so local and remote readers see the same series.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    metrics: BTreeMap<String, MetricValue>,
}

/// A metric line [`MetricsSnapshot::parse`] could not read.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseMetricsError {
    /// The 1-based line number.
    pub line: usize,
}

impl fmt::Display for ParseMetricsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed metric on line {}", self.line)
    }
}

impl std::error::Error for ParseMetricsError {}

impl MetricsSnapshot {
    /// The value of the counter or gauge named `name`; `None` when no
    /// such series exists or it is a histogram.
    pub fn value(&self, name: &str) -> Option<u64> {
        match self.metrics.get(name)? {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => Some(*v),
            MetricValue::Histogram(_) => None,
        }
    }

    /// The histogram named `name`.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        match self.metrics.get(name)? {
            MetricValue::Histogram(h) => Some(h),
            _ => None,
        }
    }

    /// The snapshot as text, one metric per line, sorted by name:
    ///
    /// ```text
    /// counter service_submitted_total 42
    /// gauge service_queued 3
    /// histogram service_queue_wait_ns count=41 sum=... p50=... p99=... max=...
    /// ```
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.metrics {
            let line = match value {
                MetricValue::Counter(v) => format!("counter {name} {v}\n"),
                MetricValue::Gauge(v) => format!("gauge {name} {v}\n"),
                MetricValue::Histogram(h) => format!("histogram {name} {h}\n"),
            };
            out.push_str(&line);
        }
        out
    }

    /// The inverse of [`MetricsSnapshot::render`]. Lines that do not
    /// open with a metric kind (such as the flight-recorder events a
    /// node appends to its exposition) are skipped.
    ///
    /// # Errors
    ///
    /// A metric line with a missing, extra or non-numeric field.
    pub fn parse(text: &str) -> Result<MetricsSnapshot, ParseMetricsError> {
        let mut metrics = BTreeMap::new();
        for (i, line) in text.lines().enumerate() {
            let mut words = line.split_whitespace();
            let kind = words.next();
            if !matches!(kind, Some("counter" | "gauge" | "histogram")) {
                continue;
            }
            let err = ParseMetricsError { line: i + 1 };
            let name = words.next().ok_or_else(|| err.clone())?;
            let fields: Vec<&str> = words.collect();
            let value = match (kind, fields.as_slice()) {
                (Some("counter"), [v]) => MetricValue::Counter(v.parse().map_err(|_| err)?),
                (Some("gauge"), [v]) => MetricValue::Gauge(v.parse().map_err(|_| err)?),
                (Some("histogram"), fields) if fields.len() == HistogramSummary::FIELDS.len() => {
                    let mut values = [0; 8];
                    for ((slot, field), key) in
                        values.iter_mut().zip(fields).zip(HistogramSummary::FIELDS)
                    {
                        *slot = field
                            .strip_prefix(key)
                            .and_then(|f| f.strip_prefix('='))
                            .and_then(|v| v.parse().ok())
                            .ok_or_else(|| err.clone())?;
                    }
                    let [count, sum, min, mean, p50, p90, p99, max] = values;
                    MetricValue::Histogram(HistogramSummary {
                        count,
                        sum,
                        min,
                        mean,
                        p50,
                        p90,
                        p99,
                        max,
                    })
                }
                _ => return Err(err),
            };
            metrics.insert(name.to_string(), value);
        }
        Ok(MetricsSnapshot { metrics })
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MetricsRegistry({} metrics)", self.lock().len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_shared_by_name() {
        let reg = MetricsRegistry::new();
        reg.counter("jobs").inc();
        reg.counter("jobs").add(2);
        assert_eq!(reg.counter("jobs").get(), 3);

        reg.gauge("depth").set(7);
        reg.gauge("depth").inc();
        reg.gauge("depth").dec();
        assert_eq!(reg.gauge("depth").get(), 7);

        reg.histogram("lat").record(100);
        assert_eq!(reg.histogram("lat").count(), 1);
    }

    #[test]
    fn gauge_never_underflows() {
        let g = Gauge::default();
        g.dec();
        assert_eq!(g.get(), 0);
    }

    #[test]
    fn render_is_sorted_and_typed() {
        let reg = MetricsRegistry::new();
        reg.gauge("b_gauge").set(5);
        reg.counter("a_counter").add(9);
        reg.histogram("c_hist").record(32);
        reg.histogram("d_hist").record(3);
        reg.histogram("d_hist").record(1000);
        reg.histogram("e_empty");
        let text = reg.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "counter a_counter 9");
        assert_eq!(lines[1], "gauge b_gauge 5");
        assert!(lines[2].starts_with("histogram c_hist count=1 sum=32"));

        // Parsing the text recovers every counter, gauge and histogram
        // field, and nothing else.
        let parsed = MetricsSnapshot::parse(&text).expect("render parses");
        assert_eq!(parsed, reg.snapshot());
        assert_eq!(parsed.render(), text);
        assert_eq!(parsed.value("a_counter"), Some(9));
        assert_eq!(parsed.value("b_gauge"), Some(5));
        assert_eq!(parsed.value("c_hist"), None);
        assert_eq!(parsed.value("missing"), None);
        let d = parsed.histogram("d_hist").expect("d_hist parsed");
        assert_eq!(
            (d.count, d.sum, d.min, d.mean, d.max),
            (2, 1003, 3, 501, 1000)
        );
        assert_eq!((d.p50, d.p90, d.p99), (3, 1000, 1000));
        assert_eq!(
            parsed.histogram("e_empty"),
            Some(&HistogramSummary::default())
        );
    }

    #[test]
    fn parse_skips_other_lines_and_refuses_malformed_metrics() {
        let text = "counter jobs 4\nflight 0 +5us shed trace=- queue full\n";
        let parsed = MetricsSnapshot::parse(text).expect("flight lines are skipped");
        assert_eq!(parsed.value("jobs"), Some(4));
        for (bad, line) in [
            ("counter jobs\n", 1),
            ("gauge depth 3\ncounter jobs x\n", 2),
            ("counter jobs 1 2\n", 1),
            ("histogram lat count=1 sum=2\n", 1),
            (
                "histogram lat count=1 sum=2 min=2 mean=2 p50=2 p90=2 max=2 p99=2\n",
                1,
            ),
        ] {
            assert_eq!(
                MetricsSnapshot::parse(bad),
                Err(ParseMetricsError { line }),
                "{bad:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_collisions_are_loud() {
        let reg = MetricsRegistry::new();
        reg.counter("x").inc();
        reg.gauge("x");
    }
}
