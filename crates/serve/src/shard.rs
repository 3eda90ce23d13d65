//! The sharded, coalescing serving engine.
//!
//! One persistent worker thread per shard owns that shard's queue. Clients
//! [`ShardEngine::submit`] jobs (admission-controlled by
//! [`crate::policy::should_shed`]); the worker coalesces concurrent jobs
//! into micro-batches of at most [`CoalescePolicy::max_batch`]. Batches go
//! to a [`BatchExecutor`], which runs them through the zero-allocation
//! batch kernels (`search_batch`-shaped work) and reports completions
//! through whatever sink it owns.
//!
//! ## The coalescing window is self-pacing
//!
//! Holding a batch open for co-riders costs every queued job up to
//! [`CoalescePolicy::max_wait_ticks`] plus a timed condvar wake-up, so the
//! worker holds it only when [`crate::policy::should_hold_window`] says
//! holding can pay: more than one job is queued when it wakes, or its
//! previous batch carried co-riders. Then it dispatches as soon as
//! `max_batch` jobs are queued or the oldest has waited `max_wait_ticks`,
//! whichever comes first. Otherwise — a caller with one job in flight at a
//! time — it dispatches what is there at once, and the window costs
//! nothing. There is no knob: the worker observes its own queue.
//!
//! Point lookups of the network server do not come here at all (they are
//! answered on the connection thread, see [`crate::net::server`]); the
//! engine's network traffic is search shares. In-process callers
//! ([`crate::server::ShardedService`]) still queue both.
//!
//! The hot path is allocation-free in steady state: jobs are plain `Copy`
//! tickets, the queue and the worker's batch buffer reach a high-water
//! capacity and stay there, latency recording is a lock-free histogram
//! update, and workers are spawned once at engine start — never per call.

use crate::policy::{
    should_hold_window, should_shed, CoalescePolicy, ShedPolicy, WindowHistogram, SHED_QUANTILE,
};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

/// One queued unit of work: the request ticket (index into whatever table
/// the executor resolves payloads from), its submission time, and the
/// absolute tick past which scoring it is wasted work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Job {
    /// Request identity; resolved by the executor.
    pub ticket: u32,
    /// Clock reading at admission, for service-latency accounting.
    pub submit_ticks: u64,
    /// Absolute deadline in ticks; `u64::MAX` means none. Jobs whose
    /// deadline passed while queued are dropped at dequeue (reported via
    /// [`BatchExecutor::expired`]) instead of being scored for a caller
    /// that already gave up.
    pub deadline_ticks: u64,
}

/// Admission verdict from [`ShardEngine::try_submit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// Queued; the executor will see it (or `expired` will).
    Admitted,
    /// Refused by admission control. `retry_after_ticks` is the shard's
    /// estimate of when the backlog that caused the shed will have
    /// drained — clients that wait this long land behind the burst
    /// instead of inside it.
    Shed {
        /// Suggested client back-off before retrying, in clock ticks.
        retry_after_ticks: u64,
    },
}

/// Executes coalesced batches. Implementations resolve tickets to payloads
/// (lookup keys, query vectors), run the batch, and deliver results /
/// completions themselves — the engine only schedules.
pub trait BatchExecutor: Send + Sync {
    /// Run one batch for `shard`. Called from that shard's single worker
    /// thread, so per-shard executor scratch needs no real contention
    /// handling.
    fn execute(&self, shard: usize, jobs: &[Job]);

    /// Jobs dropped at dequeue because their deadline passed while queued.
    /// Called from the shard worker before `execute`; implementations that
    /// hand out deadlines MUST retire these tickets (complete waiters with
    /// a deadline-exceeded result) or callers will hang. The default is a
    /// no-op, safe only for executors that never set deadlines.
    fn expired(&self, shard: usize, jobs: &[Job]) {
        let _ = (shard, jobs);
    }
}

/// Time source for the engine, in abstract ticks. The serving default is
/// wall-clock microseconds; tests may substitute coarser clocks.
pub trait EngineClock: Send + Sync {
    /// Current time in ticks.
    fn now_ticks(&self) -> u64;
    /// Duration of `ticks` for condvar timeouts (default: 1 tick = 1 µs).
    fn ticks_to_duration(&self, ticks: u64) -> Duration {
        Duration::from_micros(ticks)
    }
}

/// Wall-clock microseconds since engine creation.
pub struct MicrosClock {
    start: std::time::Instant,
}

impl MicrosClock {
    /// Clock starting at 0 now.
    pub fn new() -> Self {
        MicrosClock { start: std::time::Instant::now() }
    }
}

impl Default for MicrosClock {
    fn default() -> Self {
        Self::new()
    }
}

impl EngineClock for MicrosClock {
    fn now_ticks(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }
}

/// Monotonic counters for one shard (or an aggregate).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Jobs offered to `submit`.
    pub submitted: u64,
    /// Jobs refused by admission control.
    pub shed: u64,
    /// Jobs executed.
    pub served: u64,
    /// Batches dispatched.
    pub batches: u64,
    /// Jobs dropped at dequeue because their deadline had already passed.
    pub expired: u64,
}

impl ShardStats {
    /// Mean jobs per dispatched batch (0 when no batches ran).
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.served as f64 / self.batches as f64
        }
    }

    fn merge(&mut self, o: &ShardStats) {
        self.submitted += o.submitted;
        self.shed += o.shed;
        self.served += o.served;
        self.batches += o.batches;
        self.expired += o.expired;
    }
}

struct ShardState {
    queue: Mutex<VecDeque<Job>>,
    cv: Condvar,
    /// Service latency (admission → batch completed), the admission
    /// controller's signal.
    latency: WindowHistogram,
    submitted: AtomicU64,
    shed: AtomicU64,
    served: AtomicU64,
    batches: AtomicU64,
    expired: AtomicU64,
}

struct EngineShared {
    shards: Vec<ShardState>,
    coalesce: CoalescePolicy,
    shed: ShedPolicy,
    executor: Arc<dyn BatchExecutor>,
    clock: Arc<dyn EngineClock>,
    stop: AtomicBool,
}

/// The running engine: per-shard queues, coalescing workers, admission
/// control. See module docs.
pub struct ShardEngine {
    shared: Arc<EngineShared>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl ShardEngine {
    /// Starts `num_shards` shard workers. `latency_window` sizes the
    /// sliding p99 window each shard's admission controller watches.
    pub fn start(
        num_shards: usize,
        coalesce: CoalescePolicy,
        shed: ShedPolicy,
        latency_window: u64,
        executor: Arc<dyn BatchExecutor>,
        clock: Arc<dyn EngineClock>,
    ) -> Self {
        assert!(num_shards > 0, "need at least one shard");
        assert!(coalesce.max_batch > 0, "max_batch must be positive");
        let shared = Arc::new(EngineShared {
            shards: (0..num_shards)
                .map(|_| ShardState {
                    queue: Mutex::new(VecDeque::new()),
                    cv: Condvar::new(),
                    latency: WindowHistogram::new(latency_window),
                    submitted: AtomicU64::new(0),
                    shed: AtomicU64::new(0),
                    served: AtomicU64::new(0),
                    batches: AtomicU64::new(0),
                    expired: AtomicU64::new(0),
                })
                .collect(),
            coalesce,
            shed,
            executor,
            clock,
            stop: AtomicBool::new(false),
        });
        let workers = (0..num_shards)
            .map(|s| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("saga-shard-{s}"))
                    .spawn(move || shard_worker(&shared, s))
                    .expect("spawn shard worker")
            })
            .collect();
        ShardEngine { shared, workers }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shared.shards.len()
    }

    /// Offer a job to `shard`. Returns `false` when admission control shed
    /// it (the job will never execute). Allocation-free in steady state.
    pub fn submit(&self, shard: usize, ticket: u32) -> bool {
        matches!(self.try_submit(shard, ticket, u64::MAX), SubmitOutcome::Admitted)
    }

    /// [`submit`](Self::submit) with a deadline and a typed verdict: shed
    /// jobs come back with the shard's drain-time estimate so network
    /// clients can honor `retry_after` instead of hammering.
    pub fn try_submit(&self, shard: usize, ticket: u32, deadline_ticks: u64) -> SubmitOutcome {
        let st = &self.shared.shards[shard];
        st.submitted.fetch_add(1, Ordering::Relaxed);
        let now = self.shared.clock.now_ticks();
        // Scanned before the lock: the histogram is lock-free and its
        // reading is advisory (bounded-stale) either way, so there is no
        // reason to make other submitters and the worker wait for the scan.
        let p99 = st.latency.quantile_upper_bound(SHED_QUANTILE);
        let mut q = st.queue.lock().expect("shard queue");
        if should_shed(q.len(), p99, &self.shared.shed) {
            let depth = q.len();
            drop(q);
            st.shed.fetch_add(1, Ordering::Relaxed);
            return SubmitOutcome::Shed {
                retry_after_ticks: retry_after_estimate(depth, p99, &self.shared.coalesce),
            };
        }
        q.push_back(Job { ticket, submit_ticks: now, deadline_ticks });
        let len = q.len();
        drop(q);
        // Wake the worker only when it could actually be waiting: on the
        // empty→non-empty transition (it parks on an empty queue) or when
        // the batch just filled (it may be sitting out the coalescing
        // window). Steady-state saturated submits skip the syscall.
        if len == 1 || len >= self.shared.coalesce.max_batch {
            st.cv.notify_one();
        }
        SubmitOutcome::Admitted
    }

    /// Counters for one shard.
    pub fn shard_stats(&self, shard: usize) -> ShardStats {
        let st = &self.shared.shards[shard];
        ShardStats {
            submitted: st.submitted.load(Ordering::Relaxed),
            shed: st.shed.load(Ordering::Relaxed),
            served: st.served.load(Ordering::Relaxed),
            batches: st.batches.load(Ordering::Relaxed),
            expired: st.expired.load(Ordering::Relaxed),
        }
    }

    /// Aggregate counters across shards.
    pub fn stats(&self) -> ShardStats {
        let mut out = ShardStats::default();
        for s in 0..self.num_shards() {
            out.merge(&self.shard_stats(s));
        }
        out
    }

    /// Observed p99 service latency of one shard (windowed), in ticks.
    pub fn shard_p99_ticks(&self, shard: usize) -> u64 {
        self.shared.shards[shard].latency.quantile_upper_bound(SHED_QUANTILE)
    }

    /// Stops accepting the *drain signal*, lets workers finish every queued
    /// job, and joins them. Jobs submitted after this call may or may not
    /// run.
    pub fn shutdown(mut self) -> ShardStats {
        self.shared.stop.store(true, Ordering::SeqCst);
        for st in &self.shared.shards {
            st.cv.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        self.stats()
    }
}

/// Shed back-off hint: time for the worker to chew through `depth` queued
/// jobs in `max_batch`-sized batches, each taking about one windowed p99.
/// Floored so an idle-window p99 of 0 still tells clients to back off a
/// little, and capped at 1 s so a wild histogram reading can't park a
/// client forever.
fn retry_after_estimate(depth: usize, p99: u64, coalesce: &CoalescePolicy) -> u64 {
    const FLOOR_TICKS: u64 = 100;
    const CAP_TICKS: u64 = 1_000_000;
    let per_batch = p99.max(FLOOR_TICKS);
    let batches = (depth as u64) / (coalesce.max_batch as u64) + 1;
    per_batch.saturating_mul(batches).min(CAP_TICKS)
}

fn shard_worker(shared: &EngineShared, s: usize) {
    let st = &shared.shards[s];
    let max_batch = shared.coalesce.max_batch;
    let max_wait = shared.coalesce.max_wait_ticks;
    let mut batch: Vec<Job> = Vec::with_capacity(max_batch);
    let mut dead: Vec<Job> = Vec::with_capacity(max_batch);
    // Jobs dequeued by the previous pass: the window rule's memory.
    let mut prev_batch = 0usize;
    loop {
        batch.clear();
        dead.clear();
        {
            let mut q = st.queue.lock().expect("shard queue");
            // Wait for work (or stop + empty queue = drained, exit).
            loop {
                if !q.is_empty() {
                    break;
                }
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                q = st.cv.wait(q).expect("shard wait");
            }
            // Coalescing window, self-paced: held open (until the batch
            // fills or the oldest job's wait budget expires) only when the
            // window rule says co-riders are here or likely. Re-checks
            // after every wake because condvar timeouts are best-effort.
            if should_hold_window(q.len(), prev_batch) {
                let deadline = q.front().expect("non-empty").submit_ticks + max_wait;
                while q.len() < max_batch && !shared.stop.load(Ordering::SeqCst) {
                    let now = shared.clock.now_ticks();
                    if now >= deadline {
                        break;
                    }
                    let timeout = shared.clock.ticks_to_duration(deadline - now);
                    let (qq, _timed_out) =
                        st.cv.wait_timeout(q, timeout).expect("shard wait_timeout");
                    q = qq;
                }
            }
            // Drop-at-dequeue: a job whose deadline passed while queued is
            // pure waste to score — the caller has already timed out. Skim
            // them off here (before the kernels, not after) so an overload
            // burst of abandoned work drains at queue speed.
            let now = shared.clock.now_ticks();
            prev_batch = max_batch.min(q.len());
            for _ in 0..prev_batch {
                let j = q.pop_front().expect("counted");
                if j.deadline_ticks <= now {
                    dead.push(j);
                } else {
                    batch.push(j);
                }
            }
        }
        if !dead.is_empty() {
            st.expired.fetch_add(dead.len() as u64, Ordering::Relaxed);
            shared.executor.expired(s, &dead);
        }
        if batch.is_empty() {
            continue;
        }
        shared.executor.execute(s, &batch);
        let done = shared.clock.now_ticks();
        for j in &batch {
            st.latency.record(done.saturating_sub(j.submit_ticks));
        }
        st.served.fetch_add(batch.len() as u64, Ordering::Relaxed);
        st.batches.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    struct CountingExecutor {
        executed: AtomicU32,
        max_seen_batch: AtomicU32,
    }

    impl BatchExecutor for CountingExecutor {
        fn execute(&self, _shard: usize, jobs: &[Job]) {
            self.executed.fetch_add(jobs.len() as u32, Ordering::Relaxed);
            self.max_seen_batch.fetch_max(jobs.len() as u32, Ordering::Relaxed);
        }
    }

    fn engine(
        shards: usize,
        coalesce: CoalescePolicy,
        shed: ShedPolicy,
    ) -> (ShardEngine, Arc<CountingExecutor>) {
        let ex = Arc::new(CountingExecutor {
            executed: AtomicU32::new(0),
            max_seen_batch: AtomicU32::new(0),
        });
        let eng = ShardEngine::start(
            shards,
            coalesce,
            shed,
            1_000,
            Arc::clone(&ex) as Arc<dyn BatchExecutor>,
            Arc::new(MicrosClock::new()),
        );
        (eng, ex)
    }

    #[test]
    fn drains_everything_on_shutdown() {
        let (eng, ex) = engine(
            2,
            CoalescePolicy { max_batch: 8, max_wait_ticks: 200 },
            ShedPolicy::unbounded(),
        );
        for t in 0..500u32 {
            assert!(eng.submit((t % 2) as usize, t));
        }
        let stats = eng.shutdown();
        assert_eq!(stats.submitted, 500);
        assert_eq!(stats.served, 500);
        assert_eq!(stats.shed, 0);
        assert_eq!(ex.executed.load(Ordering::Relaxed), 500);
        assert!(stats.batches <= 500);
    }

    #[test]
    fn batches_never_exceed_max_batch() {
        let (eng, ex) = engine(
            1,
            CoalescePolicy { max_batch: 4, max_wait_ticks: 5_000 },
            ShedPolicy::unbounded(),
        );
        for t in 0..200u32 {
            eng.submit(0, t);
        }
        eng.shutdown();
        assert!(ex.max_seen_batch.load(Ordering::Relaxed) <= 4);
    }

    #[test]
    fn depth_one_submits_never_wait_out_the_window() {
        // A one-second window and a caller that submits only after its
        // previous job ran: no co-rider can ever arrive, so the worker must
        // not wait for one. Held every time, this loop would take 200 s.
        let (eng, ex) = engine(
            1,
            CoalescePolicy { max_batch: 8, max_wait_ticks: 1_000_000 },
            ShedPolicy::unbounded(),
        );
        let t0 = std::time::Instant::now();
        for t in 0..200u32 {
            assert!(eng.submit(0, t));
            while ex.executed.load(Ordering::Relaxed) <= t {
                thread::yield_now();
            }
        }
        let took = t0.elapsed();
        assert!(took < Duration::from_secs(5), "200 depth-1 submits took {took:?}");
        let stats = eng.shutdown();
        assert_eq!((stats.served, stats.batches), (200, 200));
    }

    #[test]
    fn expired_jobs_are_dropped_at_dequeue_not_scored() {
        // Gate the worker so jobs sit queued past their deadline.
        struct GatedCounting {
            gate: Arc<AtomicBool>,
            executed: AtomicU32,
            expired: AtomicU32,
        }
        impl BatchExecutor for GatedCounting {
            fn execute(&self, _s: usize, jobs: &[Job]) {
                while !self.gate.load(Ordering::SeqCst) {
                    thread::yield_now();
                }
                self.executed.fetch_add(jobs.len() as u32, Ordering::Relaxed);
            }
            fn expired(&self, _s: usize, jobs: &[Job]) {
                self.expired.fetch_add(jobs.len() as u32, Ordering::Relaxed);
            }
        }
        let ex = Arc::new(GatedCounting {
            gate: Arc::new(AtomicBool::new(false)),
            executed: AtomicU32::new(0),
            expired: AtomicU32::new(0),
        });
        let eng = ShardEngine::start(
            1,
            CoalescePolicy { max_batch: 4, max_wait_ticks: 0 },
            ShedPolicy::unbounded(),
            1_000,
            Arc::clone(&ex) as Arc<dyn BatchExecutor>,
            Arc::new(MicrosClock::new()),
        );
        // First job blocks the worker inside execute; the rest queue up with
        // an already-passed deadline and must be dropped, never executed.
        assert_eq!(eng.try_submit(0, 0, u64::MAX), SubmitOutcome::Admitted);
        thread::sleep(Duration::from_millis(20));
        for t in 1..=8u32 {
            assert_eq!(eng.try_submit(0, t, 1), SubmitOutcome::Admitted);
        }
        ex.gate.store(true, Ordering::SeqCst);
        let stats = eng.shutdown();
        assert_eq!(stats.expired, 8);
        assert_eq!(ex.expired.load(Ordering::Relaxed), 8);
        assert_eq!(stats.served, 1);
        assert_eq!(ex.executed.load(Ordering::Relaxed), 1);
        assert_eq!(stats.submitted, 9);
    }

    #[test]
    fn shed_verdict_carries_backoff_hint() {
        struct Stall(Arc<AtomicBool>);
        impl BatchExecutor for Stall {
            fn execute(&self, _s: usize, _j: &[Job]) {
                while !self.0.load(Ordering::SeqCst) {
                    thread::yield_now();
                }
            }
        }
        let gate = Arc::new(AtomicBool::new(false));
        let eng = ShardEngine::start(
            1,
            CoalescePolicy { max_batch: 2, max_wait_ticks: 0 },
            ShedPolicy { queue_cap: 4, p99_budget_ticks: u64::MAX, min_depth: usize::MAX },
            1_000,
            Arc::new(Stall(Arc::clone(&gate))),
            Arc::new(MicrosClock::new()),
        );
        let mut hint = None;
        for t in 0..50u32 {
            if let SubmitOutcome::Shed { retry_after_ticks } = eng.try_submit(0, t, u64::MAX) {
                hint = Some(retry_after_ticks);
                break;
            }
        }
        let hint = hint.expect("cap never triggered");
        assert!(hint >= 100, "hint {hint} below floor");
        assert!(hint <= 1_000_000, "hint {hint} above cap");
        gate.store(true, Ordering::SeqCst);
        eng.shutdown();
    }

    #[test]
    fn queue_cap_sheds_instead_of_growing() {
        // Executor that blocks until released, forcing a backlog.
        struct GatedExecutor(Arc<AtomicBool>);
        impl BatchExecutor for GatedExecutor {
            fn execute(&self, _s: usize, _j: &[Job]) {
                while !self.0.load(Ordering::SeqCst) {
                    thread::yield_now();
                }
            }
        }
        let gate = Arc::new(AtomicBool::new(false));
        let eng = ShardEngine::start(
            1,
            CoalescePolicy { max_batch: 2, max_wait_ticks: 0 },
            ShedPolicy { queue_cap: 10, p99_budget_ticks: u64::MAX, min_depth: usize::MAX },
            1_000,
            Arc::new(GatedExecutor(Arc::clone(&gate))),
            Arc::new(MicrosClock::new()),
        );
        let mut shed = 0;
        for t in 0..100u32 {
            if !eng.submit(0, t) {
                shed += 1;
            }
        }
        assert!(shed > 0, "cap never triggered");
        gate.store(true, Ordering::SeqCst);
        let stats = eng.shutdown();
        assert_eq!(stats.served + stats.shed, 100);
        assert_eq!(stats.shed, shed);
    }
}
