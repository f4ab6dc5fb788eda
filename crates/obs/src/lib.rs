//! Dependency-free observability for the Doppler serving stack: atomic
//! counters and gauges, fixed-bucket latency histograms (p50/p95/p99/max),
//! and a ring-buffered structured event recorder, all behind one
//! [`ObsRegistry`] handle with a **zero-overhead no-op mode**.
//!
//! The design constraint comes from the fleet layer's determinism suites:
//! every report the serving stack produces is bit-for-bit identical for any
//! worker count, and instrumentation must not perturb that. So metrics are
//! strictly *write-aside* — instrumented code never reads a metric to make
//! a decision — and the disabled registry costs one branch per call site:
//! handles hold `Option<Arc<..>>`, a disabled handle is `None`, and timers
//! never call [`Instant::now`] when disabled.
//!
//! # Usage
//!
//! ```
//! use doppler_obs::ObsRegistry;
//!
//! let obs = ObsRegistry::enabled();
//! let hits = obs.counter("cache.hits");
//! let latency = obs.histogram("request.latency");
//!
//! hits.incr();
//! {
//!     let _span = latency.start(); // RAII timer; records on drop
//! }
//! obs.event("deploy", "rolled v2");
//!
//! let snapshot = obs.snapshot();
//! assert_eq!(snapshot.counters, vec![("cache.hits".to_string(), 1)]);
//! assert_eq!(snapshot.histograms[0].count, 1);
//! println!("{}", snapshot.render());
//! ```
//!
//! A disabled registry accepts the same calls and records nothing:
//!
//! ```
//! use doppler_obs::ObsRegistry;
//!
//! let obs = ObsRegistry::disabled();
//! obs.counter("cache.hits").incr();
//! let snapshot = obs.snapshot();
//! assert!(!snapshot.enabled);
//! assert!(snapshot.counters.is_empty());
//! ```

#![forbid(unsafe_code)]

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Number of power-of-two latency buckets: bucket `i` covers
/// `[2^i, 2^(i+1))` nanoseconds, so the range spans 1 ns to ~1.6 days.
const BUCKETS: usize = 48;

/// Events retained by the ring buffer; older events are dropped (their
/// `seq` numbers keep counting, so drops are detectable).
const EVENT_RING_CAPACITY: usize = 256;

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The metric store behind an enabled registry. Metric handles are
/// registered once (a mutex-guarded map insert) and then operate purely on
/// shared atomics; the maps are only re-locked by registration and
/// snapshots.
struct Inner {
    start: Instant,
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicI64>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistCore>>>,
    events: Mutex<EventRing>,
}

struct EventRing {
    seq: u64,
    buf: VecDeque<ObsEvent>,
}

/// The shared observability registry: a cheaply cloneable handle that is
/// either **enabled** (metrics record into shared atomics) or **disabled**
/// (every operation is a no-op costing one branch). Components take a
/// registry at construction, register named handles, and write metrics;
/// operators call [`snapshot`](ObsRegistry::snapshot) at any time.
///
/// Registering the same name twice returns a handle to the same underlying
/// metric, so independent components can share a series.
#[derive(Clone, Default)]
pub struct ObsRegistry {
    inner: Option<Arc<Inner>>,
}

impl ObsRegistry {
    /// A recording registry.
    pub fn enabled() -> ObsRegistry {
        ObsRegistry {
            inner: Some(Arc::new(Inner {
                start: Instant::now(),
                counters: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
                histograms: Mutex::new(BTreeMap::new()),
                events: Mutex::new(EventRing { seq: 0, buf: VecDeque::new() }),
            })),
        }
    }

    /// The no-op registry (also [`Default`]): every handle it hands out is
    /// disabled, records nothing, and never reads the clock.
    pub fn disabled() -> ObsRegistry {
        ObsRegistry { inner: None }
    }

    /// Whether this registry records anything. Call sites that must format
    /// strings (event details, per-item names) should guard on this so the
    /// disabled mode pays no allocation either.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Register (or look up) a monotone counter.
    pub fn counter(&self, name: &str) -> Counter {
        Counter {
            cell: self.inner.as_ref().map(|inner| {
                Arc::clone(
                    lock(&inner.counters)
                        .entry(name.to_string())
                        .or_insert_with(|| Arc::new(AtomicU64::new(0))),
                )
            }),
        }
    }

    /// Register (or look up) a signed gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge {
            cell: self.inner.as_ref().map(|inner| {
                Arc::clone(
                    lock(&inner.gauges)
                        .entry(name.to_string())
                        .or_insert_with(|| Arc::new(AtomicI64::new(0))),
                )
            }),
        }
    }

    /// Register (or look up) a fixed-bucket latency histogram.
    pub fn histogram(&self, name: &str) -> Histogram {
        Histogram {
            core: self.inner.as_ref().map(|inner| {
                Arc::clone(
                    lock(&inner.histograms)
                        .entry(name.to_string())
                        .or_insert_with(|| Arc::new(HistCore::new())),
                )
            }),
        }
    }

    /// Record a structured event into the ring buffer (a no-op when
    /// disabled). The ring keeps the last [`ObsSnapshot::events`] worth;
    /// sequence numbers keep counting across drops.
    pub fn event(&self, name: &str, detail: &str) {
        if let Some(inner) = &self.inner {
            let at_ns = inner.start.elapsed().as_nanos() as u64;
            let mut ring = lock(&inner.events);
            let seq = ring.seq;
            ring.seq += 1;
            if ring.buf.len() == EVENT_RING_CAPACITY {
                ring.buf.pop_front();
            }
            ring.buf.push_back(ObsEvent {
                seq,
                at_ns,
                name: name.to_string(),
                detail: detail.to_string(),
            });
        }
    }

    /// A point-in-time export of every metric and the retained events.
    /// Counters and gauges are name-sorted; histograms are summarized to
    /// count/mean/p50/p95/p99/max. Concurrent writers keep writing while
    /// the snapshot reads, so totals across metrics may be skewed by
    /// in-flight operations — each individual value is consistent.
    pub fn snapshot(&self) -> ObsSnapshot {
        let Some(inner) = &self.inner else {
            return ObsSnapshot {
                enabled: false,
                uptime_ns: 0,
                counters: Vec::new(),
                gauges: Vec::new(),
                histograms: Vec::new(),
                events: Vec::new(),
            };
        };
        ObsSnapshot {
            enabled: true,
            uptime_ns: inner.start.elapsed().as_nanos() as u64,
            counters: lock(&inner.counters)
                .iter()
                .map(|(name, cell)| (name.clone(), cell.load(Ordering::Relaxed)))
                .collect(),
            gauges: lock(&inner.gauges)
                .iter()
                .map(|(name, cell)| (name.clone(), cell.load(Ordering::Relaxed)))
                .collect(),
            histograms: lock(&inner.histograms)
                .iter()
                .map(|(name, core)| core.summarize(name))
                .collect(),
            events: lock(&inner.events).buf.iter().cloned().collect(),
        }
    }
}

impl std::fmt::Debug for ObsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsRegistry").field("enabled", &self.is_enabled()).finish()
    }
}

/// A monotone event counter. Disabled handles cost one branch per call.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    cell: Option<Arc<AtomicU64>>,
}

impl Counter {
    /// Add one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.cell {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 when disabled).
    pub fn get(&self) -> u64 {
        self.cell.as_ref().map_or(0, |cell| cell.load(Ordering::Relaxed))
    }
}

/// A signed instantaneous gauge (queue depths, in-flight counts).
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    cell: Option<Arc<AtomicI64>>,
}

impl Gauge {
    /// Add `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        if let Some(cell) = &self.cell {
            cell.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Overwrite the value.
    pub fn set(&self, value: i64) {
        if let Some(cell) = &self.cell {
            cell.store(value, Ordering::Relaxed);
        }
    }

    /// Current value (0 when disabled).
    pub fn get(&self) -> i64 {
        self.cell.as_ref().map_or(0, |cell| cell.load(Ordering::Relaxed))
    }
}

/// The shared storage of one latency histogram: power-of-two buckets plus
/// exact count, sum, and max, all relaxed atomics.
struct HistCore {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl HistCore {
    fn new() -> HistCore {
        HistCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }

    fn record_ns(&self, ns: u64) {
        let index = (63 - ns.max(1).leading_zeros()) as usize;
        self.buckets[index.min(BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    fn summarize(&self, name: &str) -> HistogramSummary {
        let counts: [u64; BUCKETS] =
            std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed));
        let count: u64 = counts.iter().sum();
        let max_ns = self.max_ns.load(Ordering::Relaxed);
        let sum_ns = self.sum_ns.load(Ordering::Relaxed);
        let quantile = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            let target = ((q * count as f64).ceil() as u64).clamp(1, count);
            let mut cumulative = 0u64;
            for (i, &c) in counts.iter().enumerate() {
                cumulative += c;
                if cumulative >= target {
                    // Midpoint of [2^i, 2^(i+1)), clamped by the exact max.
                    let mid = if i == 0 { 1 } else { 3u64 << (i - 1) };
                    return mid.min(max_ns);
                }
            }
            max_ns
        };
        HistogramSummary {
            name: name.to_string(),
            count,
            mean_ns: sum_ns.checked_div(count).unwrap_or(0),
            p50_ns: quantile(0.50),
            p95_ns: quantile(0.95),
            p99_ns: quantile(0.99),
            max_ns,
        }
    }
}

/// A fixed-bucket latency histogram handle. Recording is a few relaxed
/// atomic adds; quantiles are computed at snapshot time only.
#[derive(Clone, Default)]
pub struct Histogram {
    core: Option<Arc<HistCore>>,
}

impl Histogram {
    /// Record one observation.
    pub fn record(&self, elapsed: Duration) {
        if let Some(core) = &self.core {
            core.record_ns(elapsed.as_nanos() as u64);
        }
    }

    /// Record one observation given in nanoseconds.
    pub fn record_ns(&self, ns: u64) {
        if let Some(core) = &self.core {
            core.record_ns(ns);
        }
    }

    /// Start an RAII span: the returned [`Scope`] records the elapsed time
    /// into this histogram when dropped. A disabled histogram returns an
    /// inert scope without reading the clock.
    #[must_use = "the scope records on drop; binding it to _ records immediately"]
    pub fn start(&self) -> Scope {
        Scope { timed: self.core.as_ref().map(|core| (Arc::clone(core), Instant::now())) }
    }

    /// Observations recorded so far (0 when disabled).
    pub fn count(&self) -> u64 {
        self.core.as_ref().map_or(0, |core| core.count.load(Ordering::Relaxed))
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram").field("enabled", &self.core.is_some()).finish()
    }
}

/// An in-flight timed span (see [`Histogram::start`] and [`span!`]).
/// Records into its histogram on drop — including during unwinding, so a
/// panicking stage still counts.
#[derive(Debug, Default)]
pub struct Scope {
    timed: Option<(Arc<HistCore>, Instant)>,
}

impl Scope {
    /// Stop the span early, returning the elapsed time it recorded
    /// (`None` when the histogram was disabled).
    pub fn stop(mut self) -> Option<Duration> {
        let (core, start) = self.timed.take()?;
        let elapsed = start.elapsed();
        core.record_ns(elapsed.as_nanos() as u64);
        Some(elapsed)
    }
}

impl std::fmt::Debug for HistCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HistCore").field("count", &self.count.load(Ordering::Relaxed)).finish()
    }
}

impl Drop for Scope {
    fn drop(&mut self) {
        if let Some((core, start)) = self.timed.take() {
            core.record_ns(start.elapsed().as_nanos() as u64);
        }
    }
}

/// Time a block: `let _span = span!(obs, "stage.assess");` — sugar for
/// [`ObsRegistry::histogram`] + [`Histogram::start`]. Hot paths should
/// register the histogram once and call `start()` on the stored handle
/// instead (the macro pays a name lookup per use).
#[macro_export]
macro_rules! span {
    ($obs:expr, $name:expr) => {
        $obs.histogram($name).start()
    };
}

/// One recorded event (see [`ObsRegistry::event`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsEvent {
    /// Monotone sequence number; gaps at the front mean the ring dropped
    /// older events.
    pub seq: u64,
    /// Nanoseconds since the registry was created.
    pub at_ns: u64,
    pub name: String,
    pub detail: String,
}

/// A histogram's point-in-time summary. Quantiles are bucket-resolution
/// (power-of-two bucket midpoints, clamped by the exact max); `count`,
/// `mean_ns`, and `max_ns` are exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSummary {
    pub name: String,
    pub count: u64,
    pub mean_ns: u64,
    pub p50_ns: u64,
    pub p95_ns: u64,
    pub p99_ns: u64,
    pub max_ns: u64,
}

/// A point-in-time export of a registry: name-sorted counters and gauges,
/// summarized histograms, and the retained event ring. Render it as an
/// ASCII dashboard with [`render`](ObsSnapshot::render), or export it as
/// JSON via `doppler_dma::obs_snapshot_to_json`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsSnapshot {
    /// `false` for the no-op registry (everything below is then empty).
    pub enabled: bool,
    /// Nanoseconds since the registry was created.
    pub uptime_ns: u64,
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, i64)>,
    pub histograms: Vec<HistogramSummary>,
    /// Oldest retained event first.
    pub events: Vec<ObsEvent>,
}

/// How many of the most recent events [`ObsSnapshot::render`] prints.
const RENDERED_EVENTS: usize = 10;

impl ObsSnapshot {
    /// Render the snapshot as a terminal ops dashboard, in the style of the
    /// fleet reports' `render` methods: one latency row per histogram
    /// (count, p50/p95/p99/max), then counters, non-zero gauges, and the
    /// most recent events.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("=== Ops Dashboard ===\n");
        if !self.enabled {
            out.push_str("observability disabled (no-op registry)\n");
            return out;
        }
        out.push_str(&format!("uptime: {}\n", fmt_ns(self.uptime_ns)));

        if !self.histograms.is_empty() {
            out.push_str("\n--- Latency ---\n");
            for h in &self.histograms {
                out.push_str(&format!(
                    "{:<34} n {:>8}   p50 {:>9}   p95 {:>9}   p99 {:>9}   max {:>9}\n",
                    h.name,
                    h.count,
                    fmt_ns(h.p50_ns),
                    fmt_ns(h.p95_ns),
                    fmt_ns(h.p99_ns),
                    fmt_ns(h.max_ns),
                ));
            }
        }

        if !self.counters.is_empty() {
            out.push_str("\n--- Counters ---\n");
            for (name, value) in &self.counters {
                out.push_str(&format!("{name:<50} {value:>10}\n"));
            }
        }

        let live: Vec<&(String, i64)> = self.gauges.iter().filter(|(_, v)| *v != 0).collect();
        if !live.is_empty() {
            out.push_str("\n--- Gauges (non-zero) ---\n");
            for (name, value) in live {
                out.push_str(&format!("{name:<50} {value:>10}\n"));
            }
        }

        if !self.events.is_empty() {
            out.push_str(&format!("\n--- Events (last {RENDERED_EVENTS}) ---\n"));
            let skip = self.events.len().saturating_sub(RENDERED_EVENTS);
            for e in &self.events[skip..] {
                out.push_str(&format!("[{:>10}] {}: {}\n", fmt_ns(e.at_ns), e.name, e.detail));
            }
        }
        out
    }

    /// The summary for a named histogram, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// The value of a named counter, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// The value of a named gauge, if present.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// Format a nanosecond quantity at human scale (`ns`, `µs`, `ms`, `s`).
fn fmt_ns(ns: u64) -> String {
    match ns {
        0..=999 => format!("{ns}ns"),
        1_000..=999_999 => format!("{:.1}µs", ns as f64 / 1e3),
        1_000_000..=999_999_999 => format!("{:.1}ms", ns as f64 / 1e6),
        _ => format!("{:.2}s", ns as f64 / 1e9),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_share_by_name() {
        let obs = ObsRegistry::enabled();
        let a = obs.counter("x");
        let b = obs.counter("x");
        a.incr();
        b.add(4);
        assert_eq!(a.get(), 5, "same name, same counter");
        assert_eq!(obs.snapshot().counter("x"), Some(5));
    }

    #[test]
    fn gauges_go_up_down_and_set() {
        let obs = ObsRegistry::enabled();
        let g = obs.gauge("depth");
        g.add(3);
        g.add(-1);
        assert_eq!(g.get(), 2);
        g.set(-7);
        assert_eq!(obs.snapshot().gauge("depth"), Some(-7));
    }

    #[test]
    fn histogram_count_and_max_are_exact() {
        let obs = ObsRegistry::enabled();
        let h = obs.histogram("lat");
        for ns in [1u64, 100, 1_000, 50_000, 1_000_000, 123] {
            h.record_ns(ns);
        }
        let s = obs.snapshot();
        let summary = s.histogram("lat").unwrap();
        assert_eq!(summary.count, 6);
        assert_eq!(summary.max_ns, 1_000_000);
        assert_eq!(summary.mean_ns, (1 + 100 + 1_000 + 50_000 + 1_000_000 + 123) / 6);
        assert!(summary.p50_ns <= summary.p95_ns);
        assert!(summary.p95_ns <= summary.p99_ns);
        assert!(summary.p99_ns <= summary.max_ns);
    }

    #[test]
    fn histogram_quantiles_land_in_the_right_bucket() {
        let obs = ObsRegistry::enabled();
        let h = obs.histogram("lat");
        // 90 fast observations and 10 slow outliers: p50 stays in the fast
        // bucket, p95 onward reach the outliers' bucket.
        for _ in 0..90 {
            h.record_ns(1_000);
        }
        for _ in 0..10 {
            h.record_ns(1_000_000);
        }
        let s = obs.snapshot();
        let summary = s.histogram("lat").unwrap();
        assert!(summary.p50_ns < 3_000, "p50 {} must sit near 1µs", summary.p50_ns);
        assert!(summary.p95_ns > 500_000, "p95 {} must reach the outliers", summary.p95_ns);
        assert_eq!(summary.max_ns, 1_000_000);
    }

    #[test]
    fn zero_duration_observations_still_count() {
        let obs = ObsRegistry::enabled();
        let h = obs.histogram("zero");
        h.record(Duration::ZERO);
        let s = obs.snapshot();
        assert_eq!(s.histogram("zero").unwrap().count, 1);
    }

    #[test]
    fn scope_records_on_drop_and_on_stop() {
        let obs = ObsRegistry::enabled();
        let h = obs.histogram("span");
        {
            let _span = h.start();
        }
        assert_eq!(h.count(), 1);
        let elapsed = h.start().stop();
        assert!(elapsed.is_some());
        assert_eq!(h.count(), 2);
        let via_macro = span!(obs, "span");
        drop(via_macro);
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn scope_records_during_unwind() {
        let obs = ObsRegistry::enabled();
        let h = obs.histogram("panicky");
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _span = h.start();
            panic!("stage failed");
        }));
        assert!(result.is_err());
        assert_eq!(h.count(), 1, "the span still recorded");
    }

    #[test]
    fn disabled_registry_records_nothing_and_scopes_are_inert() {
        let obs = ObsRegistry::disabled();
        assert!(!obs.is_enabled());
        obs.counter("c").incr();
        obs.gauge("g").add(5);
        let h = obs.histogram("h");
        h.record_ns(100);
        assert!(h.start().stop().is_none());
        obs.event("e", "detail");
        let s = obs.snapshot();
        assert!(!s.enabled);
        assert_eq!(s, ObsSnapshot::default_disabled());
        assert!(s.render().contains("observability disabled"));
    }

    #[test]
    fn events_ring_caps_and_keeps_sequence() {
        let obs = ObsRegistry::enabled();
        for i in 0..(EVENT_RING_CAPACITY + 10) {
            obs.event("tick", &format!("{i}"));
        }
        let s = obs.snapshot();
        assert_eq!(s.events.len(), EVENT_RING_CAPACITY);
        assert_eq!(s.events.first().unwrap().seq, 10, "oldest 10 dropped");
        assert_eq!(s.events.last().unwrap().seq, (EVENT_RING_CAPACITY + 10 - 1) as u64);
    }

    #[test]
    fn snapshot_is_name_sorted_and_renders_every_section() {
        let obs = ObsRegistry::enabled();
        obs.counter("b.count").incr();
        obs.counter("a.count").incr();
        obs.gauge("depth").add(2);
        obs.histogram("lat").record_ns(42);
        obs.event("roll", "west v2");
        let s = obs.snapshot();
        assert_eq!(s.counters[0].0, "a.count");
        assert_eq!(s.counters[1].0, "b.count");
        let rendered = s.render();
        for needle in ["Latency", "Counters", "Gauges", "Events", "a.count", "west v2"] {
            assert!(rendered.contains(needle), "missing {needle} in:\n{rendered}");
        }
    }

    #[test]
    fn concurrent_writers_conserve_counts() {
        let obs = ObsRegistry::enabled();
        let c = obs.counter("ops");
        let h = obs.histogram("lat");
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let c = c.clone();
                let h = h.clone();
                scope.spawn(move || {
                    for i in 0..1000 {
                        c.incr();
                        h.record_ns(i);
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
        assert_eq!(obs.snapshot().histogram("lat").unwrap().count, 4000);
    }

    #[test]
    fn fmt_ns_scales() {
        assert_eq!(fmt_ns(0), "0ns");
        assert_eq!(fmt_ns(999), "999ns");
        assert_eq!(fmt_ns(1_500), "1.5µs");
        assert_eq!(fmt_ns(2_500_000), "2.5ms");
        assert_eq!(fmt_ns(3_210_000_000), "3.21s");
    }

    impl ObsSnapshot {
        fn default_disabled() -> ObsSnapshot {
            ObsSnapshot {
                enabled: false,
                uptime_ns: 0,
                counters: Vec::new(),
                gauges: Vec::new(),
                histograms: Vec::new(),
                events: Vec::new(),
            }
        }
    }
}
