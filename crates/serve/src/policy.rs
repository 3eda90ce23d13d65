//! Serving policies: shard routing, batch coalescing windows, and
//! latency-budget admission control.
//!
//! Everything here is pure data + arithmetic so the exact same decision
//! logic runs in both the real threaded engine ([`crate::shard`]) and the
//! deterministic virtual-time simulator ([`crate::sim`]). In particular
//! [`should_shed`] is THE admission rule and [`should_hold_window`] THE
//! coalescing-window rule — the simulator does not approximate the engine,
//! it executes the same functions.
//!
//! The shed rule implements brownout-style graceful degradation: a request
//! is rejected up front (cheap, bounded work) either when the queue is at
//! capacity, or when the shard's observed p99 service latency has burned
//! its budget and a backlog is forming. Rejecting early keeps latency for
//! admitted requests bounded instead of letting every request time out
//! together — shed rate rises, p99 stays near budget.

use saga_core::trace::splitmix64;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// How a shard worker forms batches from its queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoalescePolicy {
    /// Largest batch handed to the executor in one call.
    pub max_batch: usize,
    /// Longest a queued job may wait for co-riders before the batch
    /// dispatches anyway, in clock ticks. The wait is only taken when
    /// [`should_hold_window`] says it can pay.
    pub max_wait_ticks: u64,
}

impl CoalescePolicy {
    /// Per-request dispatch: no batching, no added wait — the baseline the
    /// coalesced configurations are benchmarked against.
    pub fn per_request() -> Self {
        CoalescePolicy { max_batch: 1, max_wait_ticks: 0 }
    }
}

/// The window rule: whether a shard worker that wakes to `queued` jobs holds
/// the coalescing window open for co-riders or dispatches at once.
/// `prev_batch` is the size of the batch it dispatched last.
///
/// Holding costs every queued job up to `max_wait_ticks`, so it must be
/// likely to pay: either co-riders are already here (`queued > 1`), or the
/// last batch had some and this job is probably the first of the next wave
/// (`prev_batch > 1`). A depth-1 closed loop satisfies neither and never
/// waits. The rule deliberately ignores arrival gaps: in a closed loop the
/// gap is the previous op's latency, so a gap rule re-arms the window the
/// moment an op gets faster than it, and latency oscillates.
#[inline]
pub fn should_hold_window(queued: usize, prev_batch: usize) -> bool {
    queued > 1 || prev_batch > 1
}

/// When to refuse a request at admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShedPolicy {
    /// Hard queue-depth cap per shard.
    pub queue_cap: usize,
    /// p99 service-latency budget, in clock ticks.
    pub p99_budget_ticks: u64,
    /// Latency-based shedding only kicks in once at least this many jobs
    /// are queued — a quiet shard with a stale slow p99 must not reject
    /// the first request of a new wave.
    pub min_depth: usize,
}

impl ShedPolicy {
    /// Effectively no shedding (for unloaded sanity runs).
    pub fn unbounded() -> Self {
        ShedPolicy { queue_cap: usize::MAX, p99_budget_ticks: u64::MAX, min_depth: usize::MAX }
    }
}

/// The quantile the admission controller watches.
pub const SHED_QUANTILE: f64 = 0.99;

/// The admission rule (see module docs). `depth` is the shard's current
/// queue depth, `p99_ticks` its observed p99 service latency.
#[inline]
pub fn should_shed(depth: usize, p99_ticks: u64, pol: &ShedPolicy) -> bool {
    depth >= pol.queue_cap || (p99_ticks > pol.p99_budget_ticks && depth >= pol.min_depth)
}

/// Owning shard for an entity key: SplitMix64-mixed modulo, so dense or
/// clustered entity ids spread uniformly while popularity skew still lands
/// hot entities on fixed shards (the coalescer's opportunity).
#[inline]
pub fn route(entity: u64, shards: usize) -> usize {
    debug_assert!(shards > 0);
    (splitmix64(entity) % shards as u64) as usize
}

const BUCKETS: usize = 65;

/// Log2 bucket of a value — same layout as the obs histogram (bucket 0 is
/// exactly 0, bucket b ≥ 1 covers `[2^(b-1), 2^b - 1]`).
#[inline]
fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

#[inline]
fn bucket_upper_bound(b: usize) -> u64 {
    match b {
        0 => 0,
        b if b >= 64 => u64::MAX,
        b => (1u64 << b) - 1,
    }
}

/// Per-bucket counts of one epoch.
struct Epoch {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
}

impl Epoch {
    fn new() -> Self {
        Epoch { buckets: std::array::from_fn(|_| AtomicU64::new(0)), count: AtomicU64::new(0) }
    }

    fn clear(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
    }
}

/// Sliding-window log2 latency histogram for admission control.
///
/// Two epochs rotate every `window` records: quantiles scan both, so the
/// estimate always covers between `window` and `2·window` of the most
/// recent observations and old latencies age out — a plain cumulative
/// histogram would keep shedding long after an overload ended. Recording is
/// lock-free and allocation-free; rotation is a CAS race where losers
/// harmlessly write into the outgoing epoch. The estimate is advisory (a
/// concurrent reader may see a bucket mid-update), which is exactly what a
/// shed heuristic can tolerate.
pub struct WindowHistogram {
    epochs: [Epoch; 2],
    active: AtomicUsize,
    window: u64,
}

impl WindowHistogram {
    /// Histogram rotating every `window` records (`window` ≥ 1).
    pub fn new(window: u64) -> Self {
        WindowHistogram {
            epochs: [Epoch::new(), Epoch::new()],
            active: AtomicUsize::new(0),
            window: window.max(1),
        }
    }

    /// Record one observation. Lock-free, allocation-free.
    pub fn record(&self, v: u64) {
        let a = self.active.load(Ordering::Acquire);
        let e = &self.epochs[a];
        e.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        let c = e.count.fetch_add(1, Ordering::Relaxed) + 1;
        if c >= self.window {
            let other = 1 - a;
            // Single rotator wins the CAS; the loser's epoch flip already
            // happened, so it just records into the fresh epoch next time.
            if self.active.compare_exchange(a, other, Ordering::AcqRel, Ordering::Relaxed).is_ok() {
                self.epochs[other].clear();
            }
        }
    }

    /// Observations currently in the window (both epochs).
    pub fn count(&self) -> u64 {
        self.epochs.iter().map(|e| e.count.load(Ordering::Relaxed)).sum()
    }

    /// Upper bound of the bucket holding the `q`-quantile of the windowed
    /// observations; 0 when empty. Allocation-free (stack scan of both
    /// epochs).
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        let mut counts = [0u64; BUCKETS];
        let mut n = 0u64;
        for e in &self.epochs {
            for (c, b) in counts.iter_mut().zip(e.buckets.iter()) {
                let v = b.load(Ordering::Relaxed);
                *c += v;
                n += v;
            }
        }
        if n == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper_bound(b);
            }
        }
        bucket_upper_bound(BUCKETS - 1)
    }
}

impl std::fmt::Debug for WindowHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WindowHistogram")
            .field("window", &self.window)
            .field("count", &self.count())
            .finish()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn shed_rule_combines_depth_and_budget() {
        let pol = ShedPolicy { queue_cap: 10, p99_budget_ticks: 100, min_depth: 3 };
        assert!(!should_shed(0, 0, &pol));
        assert!(!should_shed(9, 50, &pol), "under budget, under cap");
        assert!(should_shed(10, 0, &pol), "at queue cap");
        assert!(should_shed(3, 101, &pol), "over budget with backlog");
        assert!(!should_shed(2, 101, &pol), "over budget but no backlog");
        assert!(!should_shed(3, 100, &pol), "exactly at budget is fine");
    }

    #[test]
    fn window_is_held_only_when_holding_can_pay() {
        assert!(!should_hold_window(1, 0), "first job ever: nothing to wait for");
        assert!(!should_hold_window(1, 1), "depth-1 closed loop dispatches at once");
        assert!(should_hold_window(2, 1), "co-riders already queued");
        assert!(should_hold_window(1, 8), "last batch had co-riders: a wave is starting");
        // One lone batch after a wave ends the hold: the rule cannot latch.
        assert!(!should_hold_window(1, 1));
    }

    #[test]
    fn routing_is_stable_and_roughly_balanced() {
        let shards = 4;
        let mut counts = vec![0u32; shards];
        for e in 0..40_000u64 {
            let s = route(e, shards);
            assert_eq!(s, route(e, shards));
            counts[s] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 10_000.0).abs() < 600.0, "imbalanced: {counts:?}");
        }
    }

    #[test]
    fn window_histogram_ages_out_old_latencies() {
        let h = WindowHistogram::new(100);
        for _ in 0..100 {
            h.record(10_000); // slow era
        }
        assert!(h.quantile_upper_bound(SHED_QUANTILE) >= 10_000);
        for _ in 0..250 {
            h.record(10); // fast era: slow epoch rotates out
        }
        assert!(h.quantile_upper_bound(SHED_QUANTILE) < 32, "stale p99 survived rotation");
        assert!(h.count() <= 200, "window holds at most two epochs");
    }

    #[test]
    fn window_quantile_matches_log2_semantics() {
        let h = WindowHistogram::new(1_000);
        for v in [0u64, 1, 2, 3, 7, 100, 250] {
            h.record(v);
        }
        assert_eq!(h.quantile_upper_bound(0.0), 0);
        // 100 lands in [64,127] → upper bound 127; 250 in [128,255] → 255.
        assert_eq!(h.quantile_upper_bound(1.0), 255);
    }
}
