//! Deterministic virtual-time simulation of the sharded serving engine.
//!
//! The real engine ([`crate::shard`]) is measured on wall clocks, so its
//! shed/served counts vary run to run. For tests — and for reasoning about
//! policy — this module replays a request trace against the *same* routing
//! ([`crate::policy::route`]), the *same* admission rule
//! ([`crate::policy::should_shed`] over the same
//! [`crate::policy::WindowHistogram`]) and the same coalescing window
//! semantics, but on a virtual clock with an analytic service-time model.
//! The result is bit-reproducible: a fixed trace and config yield identical
//! per-shard counts and latencies no matter how the simulation is
//! parallelized ([`simulate_partitioned`] splits shards across threads and
//! must fingerprint-match the single-threaded run — shards are independent
//! once jobs are routed).
//!
//! Coalescing semantics per shard (FIFO queue, one virtual worker): the
//! worker wakes at `wake = max(t_free, first_arrival)`. When
//! [`crate::policy::should_hold_window`] (queue depth at wake, size of the
//! previous batch) says holding can pay, the batch dispatches at
//! `min( max(t_free, first_arrival + max_wait), max(t_free, fill_time) )`
//! where `fill_time` is when the `max_batch`-th job arrived; otherwise it
//! dispatches at `wake`. Arrivals that occur at or before the dispatch
//! instant are admitted first (arrival-first tie order, matching a submit
//! that wins the queue lock before the worker wakes).

use crate::policy::{
    should_hold_window, should_shed, CoalescePolicy, ShedPolicy, WindowHistogram, SHED_QUANTILE,
};
use saga_core::trace::{splitmix64, Request, RequestKind};

/// Analytic batch service time: `base + per_job · batch_len` virtual ticks.
/// The affine shape is what makes coalescing win — the `base` term
/// (dispatch overhead, query load, kernel warm-up) amortizes across
/// co-batched jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceModel {
    /// Fixed cost per batch.
    pub base_ticks: u64,
    /// Marginal cost per job in the batch.
    pub per_job_ticks: u64,
}

impl ServiceModel {
    /// Service time for a batch of `n` jobs.
    #[inline]
    pub fn batch_ticks(&self, n: usize) -> u64 {
        self.base_ticks + self.per_job_ticks * n as u64
    }
}

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of shards.
    pub shards: usize,
    /// Coalescing window.
    pub coalesce: CoalescePolicy,
    /// Admission rule.
    pub shed: ShedPolicy,
    /// Batch cost model.
    pub model: ServiceModel,
    /// Sliding-window size for the admission p99 (records).
    pub latency_window: u64,
}

/// Outcome counters for one shard.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimShardResult {
    /// Jobs routed to this shard.
    pub submitted: u64,
    /// Jobs served.
    pub served: u64,
    /// Jobs shed at admission.
    pub shed: u64,
    /// Batches dispatched.
    pub batches: u64,
}

/// Full simulation outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Per-shard counters, indexed by shard.
    pub per_shard: Vec<SimShardResult>,
    /// Sorted service latencies (ticks) of every served job.
    pub latencies: Vec<u64>,
    /// Order-insensitive-across-shards, bit-exact fingerprint of the whole
    /// outcome (counts + latencies per shard, folded in shard order).
    pub fingerprint: u64,
}

impl SimResult {
    /// Total jobs served.
    pub fn served(&self) -> u64 {
        self.per_shard.iter().map(|s| s.served).sum()
    }

    /// Total jobs shed.
    pub fn shed(&self) -> u64 {
        self.per_shard.iter().map(|s| s.shed).sum()
    }

    /// Exact `q`-quantile of served-job latency (0 when nothing served).
    pub fn latency_quantile(&self, q: f64) -> u64 {
        if self.latencies.is_empty() {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.latencies.len() as f64).ceil() as usize)
            .clamp(1, self.latencies.len());
        self.latencies[rank - 1]
    }
}

/// A job routed to one shard: `(arrival_ticks, ticket)`, in arrival order.
type ShardJob = (u64, u32);

/// Route every request in the trace to its shard job list. Lookups go to
/// the entity's owning shard; searches fan out to all shards.
fn route_trace(trace: &[Request], shards: usize) -> Vec<Vec<ShardJob>> {
    let mut per_shard: Vec<Vec<ShardJob>> = vec![Vec::new(); shards];
    for r in trace {
        match r.kind {
            RequestKind::Lookup { entity } => {
                per_shard[crate::policy::route(entity, shards)].push((r.arrival_ticks, r.id));
            }
            RequestKind::Search { .. } => {
                for q in per_shard.iter_mut() {
                    q.push((r.arrival_ticks, r.id));
                }
            }
        }
    }
    per_shard
}

/// Simulate one shard's queue (see module docs for the dispatch rule).
/// Returns counters plus the latency of every served job, in service order.
fn sim_shard(jobs: &[ShardJob], cfg: &SimConfig) -> (SimShardResult, Vec<u64>) {
    let max_batch = cfg.coalesce.max_batch.max(1);
    let max_wait = cfg.coalesce.max_wait_ticks;
    let window = WindowHistogram::new(cfg.latency_window);
    // Queue of (enqueue_ticks, ticket).
    let mut queue: std::collections::VecDeque<ShardJob> = std::collections::VecDeque::new();
    let mut res = SimShardResult { submitted: jobs.len() as u64, ..Default::default() };
    let mut latencies = Vec::new();
    let mut t_free = 0u64; // when the virtual worker is next idle
    let mut prev_batch = 0usize; // size of the last dispatched batch
    let mut i = 0usize; // next arrival

    loop {
        if queue.is_empty() {
            if i >= jobs.len() {
                break;
            }
            // Jump to the next arrival.
            let (at, ticket) = jobs[i];
            i += 1;
            let p99 = window.quantile_upper_bound(SHED_QUANTILE);
            if should_shed(queue.len(), p99, &cfg.shed) {
                res.shed += 1;
            } else {
                queue.push_back((at, ticket));
            }
            continue;
        }
        // When would the current queue dispatch?
        let dispatch_t = if queue.len() >= max_batch {
            // Batch is full: goes as soon as the worker frees up (the
            // max_batch-th job's arrival bounds it from below).
            t_free.max(queue[max_batch - 1].0)
        } else {
            // The virtual worker wakes at `max(t_free, first arrival)`;
            // arrivals up to that instant are admitted below before this
            // is evaluated for the last time, so `queue.len()` is then the
            // depth it wakes to. A held window only gains jobs, so the
            // rule's verdict cannot flip while it is open.
            let first = queue.front().expect("non-empty").0;
            let hold = should_hold_window(queue.len(), prev_batch);
            t_free.max(if hold { first + max_wait } else { first })
        };
        // Arrivals at or before the dispatch instant are admitted first —
        // admission happens at arrival time, independent of batch
        // formation, exactly like the threaded engine's `submit`. The
        // queue may grow past `max_batch` (overflow rides the next batch).
        if i < jobs.len() && jobs[i].0 <= dispatch_t {
            let (at, ticket) = jobs[i];
            i += 1;
            let p99 = window.quantile_upper_bound(SHED_QUANTILE);
            if should_shed(queue.len(), p99, &cfg.shed) {
                res.shed += 1;
            } else {
                queue.push_back((at, ticket));
            }
            continue;
        }
        // Dispatch.
        let take = max_batch.min(queue.len());
        let done = dispatch_t + cfg.model.batch_ticks(take);
        for _ in 0..take {
            let (enq, _ticket) = queue.pop_front().expect("counted");
            let lat = done - enq;
            window.record(lat);
            latencies.push(lat);
        }
        res.served += take as u64;
        res.batches += 1;
        prev_batch = take;
        t_free = done;
    }
    (res, latencies)
}

fn assemble(shards: Vec<(SimShardResult, Vec<u64>)>) -> SimResult {
    let mut fp = 0x9e3779b97f4a7c15u64;
    let mut fold = |v: u64| fp = splitmix64(fp ^ v);
    let mut per_shard = Vec::with_capacity(shards.len());
    let mut latencies = Vec::new();
    for (res, lats) in shards {
        fold(res.submitted);
        fold(res.served);
        fold(res.shed);
        fold(res.batches);
        for &l in &lats {
            fold(l);
        }
        per_shard.push(res);
        latencies.extend(lats);
    }
    latencies.sort_unstable();
    SimResult { per_shard, latencies, fingerprint: fp }
}

/// Run the simulation single-threaded.
pub fn simulate(trace: &[Request], cfg: &SimConfig) -> SimResult {
    assert!(cfg.shards > 0);
    let routed = route_trace(trace, cfg.shards);
    assemble(routed.iter().map(|jobs| sim_shard(jobs, cfg)).collect())
}

/// Run the simulation with shards partitioned across `threads` OS threads.
/// Shards are independent, so the outcome — including the fingerprint — is
/// bit-identical to [`simulate`] for every thread count; the cross-worker
/// determinism tests assert exactly that.
pub fn simulate_partitioned(trace: &[Request], cfg: &SimConfig, threads: usize) -> SimResult {
    assert!(cfg.shards > 0);
    let threads = threads.clamp(1, cfg.shards);
    let routed = route_trace(trace, cfg.shards);
    let mut results: Vec<Option<(SimShardResult, Vec<u64>)>> = vec![None; cfg.shards];
    let chunk = cfg.shards.div_ceil(threads);
    std::thread::scope(|scope| {
        for (slot_chunk, job_chunk) in results.chunks_mut(chunk).zip(routed.chunks(chunk)) {
            scope.spawn(move || {
                for (slot, jobs) in slot_chunk.iter_mut().zip(job_chunk) {
                    *slot = Some(sim_shard(jobs, cfg));
                }
            });
        }
    });
    assemble(results.into_iter().map(|r| r.expect("all shards simulated")).collect())
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use saga_core::trace::{generate_trace, TraceConfig};

    fn cfg(shards: usize) -> SimConfig {
        SimConfig {
            shards,
            coalesce: CoalescePolicy { max_batch: 8, max_wait_ticks: 300 },
            shed: ShedPolicy { queue_cap: 64, p99_budget_ticks: 20_000, min_depth: 4 },
            model: ServiceModel { base_ticks: 150, per_job_ticks: 40 },
            latency_window: 512,
        }
    }

    fn small_trace() -> Vec<Request> {
        generate_trace(&TraceConfig {
            requests: 4_000,
            entities: 10_000,
            mean_interarrival_ticks: 120,
            ..TraceConfig::default()
        })
    }

    #[test]
    fn conserves_jobs() {
        let trace = small_trace();
        let c = cfg(4);
        let r = simulate(&trace, &c);
        let routed_jobs: u64 = r.per_shard.iter().map(|s| s.submitted).sum();
        assert_eq!(r.served() + r.shed(), routed_jobs);
        assert_eq!(r.latencies.len() as u64, r.served());
    }

    #[test]
    fn identical_across_thread_counts() {
        let trace = small_trace();
        let c = cfg(8);
        let base = simulate(&trace, &c);
        for threads in [1, 2, 3, 8, 16] {
            let part = simulate_partitioned(&trace, &c, threads);
            assert_eq!(part.fingerprint, base.fingerprint, "threads={threads}");
            assert_eq!(part.per_shard, base.per_shard, "threads={threads}");
            assert_eq!(part.latencies, base.latencies, "threads={threads}");
        }
    }

    #[test]
    fn coalescing_beats_per_request_under_load() {
        // Offered load exceeds per-request capacity (one job each
        // base+per_job ticks) but fits batched capacity.
        let trace = generate_trace(&TraceConfig {
            requests: 6_000,
            mean_interarrival_ticks: 60,
            lookup_fraction: 1.0,
            ..TraceConfig::default()
        });
        let mut per_req = cfg(2);
        per_req.coalesce = CoalescePolicy::per_request();
        let mut coal = cfg(2);
        coal.coalesce = CoalescePolicy { max_batch: 16, max_wait_ticks: 200 };
        let r_per = simulate(&trace, &per_req);
        let r_coal = simulate(&trace, &coal);
        assert!(
            r_coal.served() > r_per.served(),
            "coalesced {} vs per-request {}",
            r_coal.served(),
            r_per.served()
        );
        assert!(r_coal.shed() < r_per.shed());
    }

    #[test]
    fn depth_one_trace_adds_no_window_wait() {
        // One job at a time, each arriving long after the last finished:
        // the window rule never holds, so every job costs exactly one
        // single-job batch however generous the window is. A trailing
        // burst shows the same config still coalesces once jobs overlap.
        let mut c = cfg(1);
        c.coalesce = CoalescePolicy { max_batch: 8, max_wait_ticks: 1_000_000 };
        let lookup = |id: u32, arrival_ticks| Request {
            id,
            kind: RequestKind::Lookup { entity: u64::from(id) },
            arrival_ticks,
        };
        let mut trace: Vec<Request> = (0..200).map(|i| lookup(i, u64::from(i) * 10_000)).collect();
        let lone = simulate(&trace, &c);
        assert_eq!(lone.per_shard[0].batches, 200);
        assert!(
            lone.latencies.iter().all(|&l| l == c.model.batch_ticks(1)),
            "{:?}",
            lone.latencies
        );

        trace.extend((200..208).map(|i| lookup(i, 5_000_000)));
        let burst = simulate(&trace, &c);
        assert_eq!(burst.per_shard[0].batches, 201, "the burst of 8 must ride one batch");
    }

    #[test]
    fn shed_bounds_latency_under_overload() {
        // Way-over-capacity open-loop arrivals: with shedding the p99 of
        // *served* jobs stays bounded by queueing at the cap, without it
        // latency grows without bound.
        let trace = generate_trace(&TraceConfig {
            requests: 8_000,
            mean_interarrival_ticks: 20,
            lookup_fraction: 1.0,
            ..TraceConfig::default()
        });
        let mut with_shed = cfg(2);
        with_shed.shed = ShedPolicy { queue_cap: 32, p99_budget_ticks: 10_000, min_depth: 4 };
        let mut no_shed = cfg(2);
        no_shed.shed = ShedPolicy::unbounded();
        let r_shed = simulate(&trace, &with_shed);
        let r_open = simulate(&trace, &no_shed);
        assert!(r_shed.shed() > 0);
        assert_eq!(r_open.shed(), 0);
        assert!(
            r_shed.latency_quantile(0.99) < r_open.latency_quantile(0.99) / 4,
            "shed p99 {} vs unbounded p99 {}",
            r_shed.latency_quantile(0.99),
            r_open.latency_quantile(0.99)
        );
    }
}
