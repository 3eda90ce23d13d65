//! Unified observability substrate: sharded lock-free counters, log2 latency
//! histograms, span timers, and a hierarchical metric [`Registry`].
//!
//! Every pipeline crate records its progress through this module instead of
//! hand-rolled report structs. The legacy structs (`OdkeReport`,
//! `PipelineStats`, `TrainReport`, …) survive as thin views: pipelines record
//! counters and histograms into a [`Scope`], and the structs are derived from
//! (or recorded through) the resulting [`MetricsSnapshot`].
//!
//! Scope names mirror the existing fault-site naming (`odke/extract`,
//! `embeddings/train-bucket`, …) so fault statistics and latency metrics line
//! up in one tree.
//!
//! # Determinism rules
//!
//! Snapshots must be bit-identical across worker counts for a fixed seed:
//!
//! - [`Counter`] sums its shards — addition is commutative, so the total is
//!   independent of which thread landed on which shard.
//! - [`HistogramSnapshot::merge`] adds buckets pairwise — associative and
//!   commutative, so per-worker shards can merge in any order at barriers.
//! - Time is read through the [`Clock`] trait. Production uses [`WallClock`];
//!   deterministic tests install a [`crate::fault::VirtualClock`] so recorded
//!   durations reproduce bit-for-bit under fault injection.
//! - Inside a parallel section, record *values* (counts, retries, sizes), not
//!   clock deltas: a shared virtual clock advanced by sibling workers makes
//!   in-section spans interleaving-dependent. Whole-pass spans (started before
//!   the fan-out, stopped after the join) remain deterministic.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::fault::VirtualClock;

/// Source of monotonic "ticks" for span timers.
///
/// The unit is clock-defined: [`WallClock`] ticks are microseconds,
/// [`crate::fault::VirtualClock`] ticks are its virtual milliseconds. Metrics
/// only ever compare ticks from the same clock, so the unit never needs to be
/// reconciled.
pub trait Clock: Send + Sync {
    /// Current tick count. Must be monotonic non-decreasing.
    fn now_ticks(&self) -> u64;
}

/// Wall-clock [`Clock`]: microseconds elapsed since the clock was created.
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    /// Create a wall clock anchored at "now".
    pub fn new() -> Self {
        WallClock { origin: Instant::now() }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for WallClock {
    fn now_ticks(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }
}

impl Clock for VirtualClock {
    fn now_ticks(&self) -> u64 {
        self.now_ms()
    }
}

/// Number of independent cache-line-padded shards per [`Counter`].
const COUNTER_SHARDS: usize = 16;

static NEXT_SHARD_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static SHARD_SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// Shard index for the calling thread: assigned round-robin on first use,
/// cached in a const-initialised thread-local (no allocation on any path).
#[inline]
fn shard_index() -> usize {
    SHARD_SLOT.with(|slot| {
        let cached = slot.get();
        if cached != usize::MAX {
            cached
        } else {
            let id = NEXT_SHARD_SLOT.fetch_add(1, Ordering::Relaxed) % COUNTER_SHARDS;
            slot.set(id);
            id
        }
    })
}

#[repr(align(64))]
struct CounterShard(AtomicU64);

/// Sharded lock-free monotonic counter.
///
/// Increments land on a per-thread shard (cache-line padded, so concurrent
/// writers do not false-share); [`Counter::value`] sums all shards. Addition
/// is commutative, so the observed total is deterministic regardless of how
/// threads were mapped to shards.
pub struct Counter {
    shards: [CounterShard; COUNTER_SHARDS],
}

impl Counter {
    /// New counter at zero.
    pub fn new() -> Self {
        Counter { shards: std::array::from_fn(|_| CounterShard(AtomicU64::new(0))) }
    }

    /// Add `n` to the calling thread's shard. Lock-free, allocation-free.
    #[inline]
    pub fn add(&self, n: u64) {
        self.shards[shard_index()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Sum across all shards.
    pub fn value(&self) -> u64 {
        self.shards.iter().map(|s| s.0.load(Ordering::Relaxed)).fold(0u64, u64::wrapping_add)
    }
}

impl Default for Counter {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Counter").field("value", &self.value()).finish()
    }
}

/// Number of fixed log2 buckets in a [`Histogram`]: bucket `b` holds values
/// `v` with `64 - v.leading_zeros() == b`, i.e. bucket 0 is exactly `0` and
/// bucket `b >= 1` covers `[2^(b-1), 2^b - 1]`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Bucket index for a recorded value.
#[inline]
fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Inclusive upper bound of a bucket, used for quantile estimates.
fn bucket_upper_bound(b: usize) -> u64 {
    if b == 0 {
        0
    } else if b >= 64 {
        u64::MAX
    } else {
        (1u64 << b) - 1
    }
}

/// Fixed-bucket log2 histogram. Recording is lock-free and allocation-free;
/// merging snapshots is associative and commutative (pairwise bucket sums).
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
}

impl Histogram {
    /// New empty histogram.
    pub fn new() -> Self {
        Histogram { buckets: std::array::from_fn(|_| AtomicU64::new(0)), sum: AtomicU64::new(0) }
    }

    /// Record one observation. Lock-free, allocation-free.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Immutable copy of the current bucket counts and sum.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }

    /// Total number of recorded observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).fold(0u64, u64::wrapping_add)
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Histogram").field("count", &self.count()).field("sum", &self.sum()).finish()
    }
}

/// RAII span timer: records elapsed clock ticks into a histogram on drop.
///
/// Holds `Arc` handles (clone is a refcount bump, not an allocation), so hot
/// paths that pre-resolve their histogram stay allocation-free.
pub struct SpanTimer {
    hist: Arc<Histogram>,
    clock: Arc<dyn Clock>,
    start: u64,
}

impl SpanTimer {
    /// Start timing against `clock`; the elapsed ticks are recorded into
    /// `hist` when the timer drops.
    pub fn start(hist: Arc<Histogram>, clock: Arc<dyn Clock>) -> Self {
        let start = clock.now_ticks();
        SpanTimer { hist, clock, start }
    }

    /// Ticks elapsed so far without stopping the span.
    pub fn elapsed_ticks(&self) -> u64 {
        self.clock.now_ticks().saturating_sub(self.start)
    }

    /// Stop now, recording the elapsed ticks and returning them.
    pub fn stop(self) -> u64 {
        let elapsed = self.elapsed_ticks();
        self.hist.record(elapsed);
        std::mem::forget(self);
        elapsed
    }
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        self.hist.record(self.elapsed_ticks());
    }
}

impl fmt::Debug for SpanTimer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpanTimer").field("start", &self.start).finish()
    }
}

#[derive(Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Histogram(Arc<Histogram>),
}

struct RegistryInner {
    metrics: Mutex<BTreeMap<String, Metric>>,
    clock: Arc<dyn Clock>,
}

/// Hierarchical metric registry.
///
/// Metric names are `/`-separated paths (mirroring fault-site names, e.g.
/// `odke/extract/latency_ticks`). The registry hands out shared handles:
/// resolve once, record many times without locking the registry again.
#[derive(Clone)]
pub struct Registry {
    inner: Arc<RegistryInner>,
}

impl Registry {
    /// Registry over a fresh [`WallClock`].
    pub fn new() -> Self {
        Self::with_clock(Arc::new(WallClock::new()))
    }

    /// Registry over an explicit clock (tests pass a
    /// [`crate::fault::VirtualClock`] for bit-reproducible spans).
    pub fn with_clock(clock: Arc<dyn Clock>) -> Self {
        Registry { inner: Arc::new(RegistryInner { metrics: Mutex::new(BTreeMap::new()), clock }) }
    }

    /// The registry clock.
    pub fn clock(&self) -> Arc<dyn Clock> {
        Arc::clone(&self.inner.clock)
    }

    /// Get or create the counter registered under `name`.
    ///
    /// If `name` is already registered as a histogram, a detached counter is
    /// returned (it records, but never appears in snapshots) — callers are
    /// expected to keep one kind per name.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.inner.metrics.lock().expect("metrics lock");
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::new())))
        {
            Metric::Counter(c) => Arc::clone(c),
            Metric::Histogram(_) => Arc::new(Counter::new()),
        }
    }

    /// Get or create the histogram registered under `name`.
    ///
    /// Kind conflicts behave as in [`Registry::counter`]: the mismatched
    /// handle is detached rather than replacing the registered metric.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.inner.metrics.lock().expect("metrics lock");
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new())))
        {
            Metric::Histogram(h) => Arc::clone(h),
            Metric::Counter(_) => Arc::new(Histogram::new()),
        }
    }

    /// Root scope (empty prefix).
    pub fn root(&self) -> Scope {
        Scope { registry: self.clone(), prefix: String::new() }
    }

    /// Scope with the given prefix.
    pub fn scope(&self, name: &str) -> Scope {
        self.root().child(name)
    }

    /// Deterministic point-in-time snapshot of every registered metric,
    /// ordered by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let map = self.inner.metrics.lock().expect("metrics lock");
        let mut metrics = BTreeMap::new();
        for (name, metric) in map.iter() {
            let value = match metric {
                Metric::Counter(c) => MetricValue::Counter(c.value()),
                Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
            };
            metrics.insert(name.clone(), value);
        }
        MetricsSnapshot { metrics }
    }
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let map = self.inner.metrics.lock().expect("metrics lock");
        f.debug_struct("Registry").field("metrics", &map.len()).finish()
    }
}

/// A named prefix into a [`Registry`]; child metric names are joined with `/`.
#[derive(Clone)]
pub struct Scope {
    registry: Registry,
    prefix: String,
}

impl Scope {
    /// Child scope `self.path()/name`.
    pub fn child(&self, name: &str) -> Scope {
        Scope { registry: self.registry.clone(), prefix: self.join(name) }
    }

    fn join(&self, name: &str) -> String {
        if self.prefix.is_empty() {
            name.to_string()
        } else {
            format!("{}/{}", self.prefix, name)
        }
    }

    /// This scope's full path (empty for the root scope).
    pub fn path(&self) -> &str {
        &self.prefix
    }

    /// The owning registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The registry clock.
    pub fn clock(&self) -> Arc<dyn Clock> {
        self.registry.clock()
    }

    /// Counter handle under this scope.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.registry.counter(&self.join(name))
    }

    /// Histogram handle under this scope.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.registry.histogram(&self.join(name))
    }

    /// Start a span timer recording into `<scope>/<name>` on drop.
    ///
    /// Resolves the histogram through the registry — coarse-grained use only;
    /// hot loops should pre-resolve via [`Scope::histogram`] and use
    /// [`SpanTimer::start`].
    pub fn span(&self, name: &str) -> SpanTimer {
        SpanTimer::start(self.histogram(name), self.clock())
    }
}

impl fmt::Debug for Scope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Scope").field("path", &self.prefix).finish()
    }
}

/// Immutable bucket counts of one histogram.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// One count per log2 bucket ([`HISTOGRAM_BUCKETS`] entries).
    pub counts: Vec<u64>,
    /// Sum of all recorded values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Empty snapshot.
    pub fn empty() -> Self {
        HistogramSnapshot { counts: vec![0; HISTOGRAM_BUCKETS], sum: 0 }
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().fold(0u64, |a, &c| a.wrapping_add(c))
    }

    /// Mean recorded value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }

    /// Upper bound of the bucket containing the `q`-quantile observation
    /// (`q` in `[0, 1]`); 0 when empty.
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen = seen.wrapping_add(c);
            if seen >= rank {
                return bucket_upper_bound(b);
            }
        }
        bucket_upper_bound(HISTOGRAM_BUCKETS - 1)
    }

    /// Add `other`'s buckets into `self` (associative, commutative).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (b, &c) in other.counts.iter().enumerate() {
            self.counts[b] = self.counts[b].wrapping_add(c);
        }
        self.sum = self.sum.wrapping_add(other.sum);
    }

    /// Subtract `baseline`'s buckets from `self` (saturating).
    pub fn diff(&mut self, baseline: &HistogramSnapshot) {
        for (b, c) in self.counts.iter_mut().enumerate() {
            let base = baseline.counts.get(b).copied().unwrap_or(0);
            *c = c.saturating_sub(base);
        }
        self.sum = self.sum.saturating_sub(baseline.sum);
    }
}

/// One metric's value inside a [`MetricsSnapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetricValue {
    /// Monotonic counter total.
    Counter(u64),
    /// Histogram bucket counts.
    Histogram(HistogramSnapshot),
}

/// Deterministic, merge-associative snapshot of a [`Registry`].
///
/// Ordered by metric name (`BTreeMap`), so two snapshots of equal recorded
/// state are bit-identical — the acceptance criterion for reproducibility
/// across worker counts.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Metric name → value, sorted by name.
    pub metrics: BTreeMap<String, MetricValue>,
}

impl MetricsSnapshot {
    /// Empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Merge `other` into `self`.
    ///
    /// Counters add; histograms add bucket-wise. In the degenerate case where
    /// the same name carries a counter on one side and a histogram on the
    /// other, the counter folds into the histogram's sum — this keeps the
    /// merge total, associative and commutative.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, value) in &other.metrics {
            match self.metrics.get_mut(name) {
                None => {
                    self.metrics.insert(name.clone(), value.clone());
                }
                Some(MetricValue::Counter(a)) => match value {
                    MetricValue::Counter(b) => *a = a.wrapping_add(*b),
                    MetricValue::Histogram(h) => {
                        let mut merged = h.clone();
                        merged.sum = merged.sum.wrapping_add(*a);
                        self.metrics.insert(name.clone(), MetricValue::Histogram(merged));
                    }
                },
                Some(MetricValue::Histogram(h)) => match value {
                    MetricValue::Counter(b) => h.sum = h.sum.wrapping_add(*b),
                    MetricValue::Histogram(other_h) => h.merge(other_h),
                },
            }
        }
    }

    /// Subtract `baseline` from `self`, yielding the delta recorded between
    /// the two snapshots (used to derive per-pass report structs).
    pub fn diff(&mut self, baseline: &MetricsSnapshot) {
        for (name, value) in &mut self.metrics {
            match (value, baseline.metrics.get(name)) {
                (MetricValue::Counter(a), Some(MetricValue::Counter(b))) => {
                    *a = a.saturating_sub(*b);
                }
                (MetricValue::Histogram(h), Some(MetricValue::Histogram(b))) => {
                    h.diff(b);
                }
                _ => {}
            }
        }
    }

    /// Counter total under `name` (0 when absent or not a counter).
    pub fn counter(&self, name: &str) -> u64 {
        match self.metrics.get(name) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Histogram snapshot under `name`, if registered as one.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.metrics.get(name) {
            Some(MetricValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Render the snapshot as an indented tree, grouping metrics by their
    /// `/`-separated path segments.
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        let mut prev: Vec<&str> = Vec::new();
        for (name, value) in &self.metrics {
            let segs: Vec<&str> = name.split('/').collect();
            let dirs = segs.len() - 1;
            let mut common = 0;
            while common < dirs && common < prev.len() && prev[common] == segs[common] {
                common += 1;
            }
            for (depth, seg) in segs[..dirs].iter().enumerate().skip(common) {
                for _ in 0..depth {
                    out.push_str("  ");
                }
                let _ = writeln!(out, "{seg}");
            }
            for _ in 0..dirs {
                out.push_str("  ");
            }
            let leaf = segs[dirs];
            match value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "{leaf}: {v}");
                }
                MetricValue::Histogram(h) => {
                    let _ = writeln!(
                        out,
                        "{leaf}: histogram count={} sum={} mean={:.1} p50<={} p99<={}",
                        h.count(),
                        h.sum,
                        h.mean(),
                        h.quantile_upper_bound(0.5),
                        h.quantile_upper_bound(0.99),
                    );
                }
            }
            prev = segs[..dirs].to_vec();
        }
        out
    }
}

/// Records which kernel backend serves this process (and the CPU features
/// that drove the choice) into `registry` under the `kernels/backend/…` and
/// `kernels/cpu/…` scopes, returning the active backend name.
///
/// Presence counters (value 1) rather than values: the snapshot tree then
/// shows e.g. `kernels/backend/avx2 = 1` in `saga stats pipeline` output and
/// in every metrics artifact derived from the registry, so any recorded run
/// carries which kernel implementation produced its numbers.
pub fn record_kernel_backend(registry: &Registry) -> &'static str {
    let backend = crate::kernels::backend_name();
    let kernels = registry.scope("kernels");
    kernels.child("backend").counter(backend).inc();
    let cpu = kernels.child("cpu");
    for feature in crate::kernels::detected_cpu_features() {
        cpu.counter(feature).inc();
    }
    backend
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(2), 3);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
    }

    #[test]
    fn kernel_backend_recorded_in_snapshot() {
        let registry = Registry::new();
        let backend = record_kernel_backend(&registry);
        assert_eq!(backend, crate::kernels::backend_name());
        let snap = registry.snapshot();
        assert_eq!(
            snap.metrics.get(&format!("kernels/backend/{backend}")),
            Some(&MetricValue::Counter(1))
        );
        // Every detected CPU feature appears as a presence counter.
        for feature in crate::kernels::detected_cpu_features() {
            assert_eq!(
                snap.metrics.get(&format!("kernels/cpu/{feature}")),
                Some(&MetricValue::Counter(1))
            );
        }
    }

    #[test]
    fn counter_sums_across_threads() {
        let c = Arc::new(Counter::new());
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.value(), 8000);
    }

    #[test]
    fn histogram_records_and_estimates() {
        let h = Histogram::new();
        for v in [0u64, 1, 2, 3, 100, 1000] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 6);
        assert_eq!(snap.sum, 1106);
        assert!(snap.mean() > 184.0 && snap.mean() < 185.0);
        assert_eq!(snap.quantile_upper_bound(0.0), 0);
        assert!(snap.quantile_upper_bound(1.0) >= 1000);
    }

    #[test]
    fn snapshot_merge_counters_and_histograms() {
        let r1 = Registry::new();
        r1.counter("a/n").add(3);
        r1.histogram("a/h").record(5);
        let r2 = Registry::new();
        r2.counter("a/n").add(4);
        r2.histogram("a/h").record(9);
        let mut s = r1.snapshot();
        s.merge(&r2.snapshot());
        assert_eq!(s.counter("a/n"), 7);
        let h = s.histogram("a/h").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum, 14);
    }

    #[test]
    fn snapshot_diff_yields_per_pass_delta() {
        let r = Registry::new();
        let c = r.counter("docs");
        c.add(5);
        let before = r.snapshot();
        c.add(7);
        let mut after = r.snapshot();
        after.diff(&before);
        assert_eq!(after.counter("docs"), 7);
    }

    #[test]
    fn span_timer_records_virtual_elapsed() {
        let clock = Arc::new(VirtualClock::new());
        let reg = Registry::with_clock(clock.clone());
        let hist = reg.histogram("op/latency_ticks");
        {
            let span = SpanTimer::start(Arc::clone(&hist), reg.clock());
            clock.advance_ms(10);
            drop(span);
        }
        let snap = hist.snapshot();
        assert_eq!(snap.count(), 1);
        assert_eq!(snap.sum, 10);
    }

    #[test]
    fn scope_paths_join_with_slash() {
        let reg = Registry::new();
        let scope = reg.scope("odke").child("extract");
        scope.counter("docs").inc();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("odke/extract/docs"), 1);
    }

    #[test]
    fn render_tree_groups_segments() {
        let reg = Registry::new();
        reg.counter("odke/extract/docs").add(2);
        reg.counter("odke/retries").add(1);
        reg.histogram("odke/extract/latency_ticks").record(4);
        let tree = reg.snapshot().render_tree();
        assert!(tree.contains("odke\n"));
        assert!(tree.contains("  extract\n"));
        assert!(tree.contains("    docs: 2"));
        assert!(tree.contains("  retries: 1"));
        assert!(tree.contains("latency_ticks: histogram count=1"));
    }

    #[test]
    fn detached_handles_on_kind_conflict() {
        let reg = Registry::new();
        reg.counter("x").add(1);
        let h = reg.histogram("x");
        h.record(9);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("x"), 1);
        assert!(snap.histogram("x").is_none());
    }
}
