//! The engine bound to real backends: partitioned ANN indexes, graph point
//! lookups, obs counters, fault-driven brownout.
//!
//! ## Sharding model
//!
//! Vectors are partitioned across shards by [`crate::policy::route`] over
//! the vector id; each shard owns a [`FlatIndex`] over its slice. A search
//! fans out to every shard, each returning its local top-k; since flat
//! scoring is exact over its partition, the merged global top-k
//! ([`Hit::best_first`] — the selection kernel's order) is identical to an
//! unsharded search, which the equivalence tests assert. Point lookups hit
//! the shared [`PointLookupIndex`] CSR and route by entity hash, so a hot
//! entity lands on one shard's coalescer — the batching opportunity.
//!
//! ## Completion
//!
//! Callers learn that a request finished through the [`SlotBoard`]: one
//! slot per trace request with an atomic fan-in counter. The caller arms a
//! slot with the request's fan-out (one shard for a lookup, every shard for
//! a search) before it submits; the executor retires one share per shard
//! it served, the caller one per shard that shed it, and the request is
//! done when none is left.
//!
//! ## What a coalesced batch buys
//!
//! Every executor hands its batch's searches to one function,
//! `search_slot_batch` — the only place in this crate a search meets a
//! partition. It gathers the batch's *distinct* queries (the trace's Zipf
//! popularity puts a hot query in the same micro-batch more than once; it
//! is scanned once and every rider gets the result), scans the partition
//! **once for the whole block** ([`FlatIndex::search_block_into`]) at the
//! largest `k` any rider asked for, and hands each call the first `k` of its
//! query's hits. A row is therefore read once per batch, not once per
//! request; per-request dispatch (batch size 1) structurally cannot do
//! either — a large part of why coalescing sustains more QPS at the same p99
//! budget. A flat hit's bytes depend on the query and the row only, never on
//! the batch (see `saga_ann::flat`), so a reply does not depend on what it
//! rode with.

use crate::shard::{BatchExecutor, EngineClock, Job};
use saga_ann::{FlatIndex, FlatScratch, Hit, Metric};
use saga_core::fault::FaultPlan;
use saga_core::obs::{Counter, Histogram, Registry};
use saga_core::trace::{Request, RequestKind, SplitMix64};
use saga_core::EntityId;
use saga_graph::PointLookupIndex;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Which ANN backend a service runs its search partitions on: the exact
/// flat scan, the one backend. The enum and the `kind` fields of
/// [`ServiceConfig`] and [`crate::NetServerConfig`] stay because callers,
/// the benchmark's drivers among them, build those configs by struct
/// literal with `IndexKind::Flat`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// Exact flat scan.
    Flat,
}

/// Deterministic synthetic vector for a seed: uniform in [-1, 1).
pub(crate) fn synth_vector(seed: u64, dim: usize, out: &mut Vec<f32>) {
    out.clear();
    push_synth_vector(seed, dim, out);
}

/// [`synth_vector`] onto the end of `out` (a row of a query block).
fn push_synth_vector(seed: u64, dim: usize, out: &mut Vec<f32>) {
    let mut rng = SplitMix64::new(seed);
    out.extend((0..dim).map(|_| (rng.next_f64() * 2.0 - 1.0) as f32));
}

/// One search of a batch: which query, and how many of its hits.
#[derive(Debug, Clone, Copy)]
struct Call {
    seed: u64,
    k: usize,
    /// Which distinct query of the batch this is.
    query: u32,
}

/// Per-shard mutable state. Locked by that shard's single worker thread,
/// so the mutex is uncontended — it exists to make the sharing `Sync`.
pub(crate) struct ShardScratch {
    flat: FlatScratch,
    /// The batch's searches, in the order the executor gave them.
    calls: Vec<Call>,
    /// The batch's distinct query vectors, row-major, in first-seen order.
    queries: Vec<f32>,
    /// Their hits, query after query; `ends[q]` closes query `q`'s run.
    hits: Vec<Hit>,
    ends: Vec<u32>,
}

impl ShardScratch {
    /// Hits of the `i`-th call of the last [`search_slot_batch`]: the first
    /// `k` of its query's.
    pub(crate) fn hits_of(&self, i: usize) -> &[Hit] {
        let Call { k, query, .. } = self.calls[i];
        let q = query as usize;
        let start = if q == 0 { 0 } else { self.ends[q - 1] as usize };
        let run = &self.hits[start..self.ends[q] as usize];
        &run[..run.len().min(k)]
    }
}

pub(crate) struct ShardSlot {
    index: FlatIndex,
    dim: usize,
    pub(crate) state: Mutex<ShardScratch>,
}

/// Builds the partitioned index slots over the deterministic synthetic
/// corpus, routed by [`crate::policy::route`]. Shared by the in-process
/// [`ShardedService`] and the network [`crate::net`] server, so the two
/// serve bit-identical corpora for a given (seed, dim, vectors) — the
/// loopback parity tests depend on that.
pub(crate) fn build_partitions(
    shards: usize,
    dim: usize,
    vectors: usize,
    seed: u64,
) -> Vec<ShardSlot> {
    assert!(shards > 0 && dim > 0);
    let metric = Metric::Cosine;
    let mut parts: Vec<Vec<(u64, Vec<f32>)>> = vec![Vec::new(); shards];
    let mut buf = Vec::with_capacity(dim);
    for id in 0..vectors as u64 {
        synth_vector(seed ^ id.wrapping_mul(0x9E37_79B9), dim, &mut buf);
        parts[crate::policy::route(id, shards)].push((id, buf.clone()));
    }
    parts
        .into_iter()
        .map(|rows| {
            let mut index = FlatIndex::new(dim, metric);
            for (id, v) in &rows {
                index.add(*id, v);
            }
            ShardSlot {
                index,
                dim,
                state: Mutex::new(ShardScratch {
                    flat: FlatScratch::new(),
                    calls: Vec::new(),
                    queries: Vec::new(),
                    hits: Vec::new(),
                    ends: Vec::new(),
                }),
            }
        })
        .collect()
}

/// Runs a batch of searches — `(query_seed, k)` each — against a partition
/// slot: the one function in this crate that searches a [`ShardSlot`]
/// (module docs: what a batch buys). Afterwards [`ShardScratch::hits_of`]
/// has the `i`-th call's hits. Returns how many calls repeated a query of
/// the same batch and were served from its scan.
pub(crate) fn search_slot_batch(
    slot: &ShardSlot,
    st: &mut ShardScratch,
    batch: impl Iterator<Item = (u64, usize)>,
) -> u64 {
    let ShardScratch { flat, calls, queries, hits, ends } = st;
    let dim = slot.dim;
    calls.clear();
    queries.clear();
    hits.clear();
    ends.clear();
    let mut distinct = 0u32;
    for (seed, k) in batch {
        let query = match calls.iter().find(|c| c.seed == seed) {
            Some(first) => first.query,
            None => {
                push_synth_vector(seed, dim, queries);
                distinct += 1;
                distinct - 1
            }
        };
        calls.push(Call { seed, k, query });
    }
    let k = calls.iter().map(|c| c.k).max().unwrap_or(0);
    slot.index.search_block_into(queries, k, flat, hits);
    let per_query = k.min(slot.index.live_len()) as u32;
    ends.extend((1..=distinct).map(|q| q * per_query));
    calls.len() as u64 - distinct as u64
}

/// Fault-driven brownout: jobs the plan marks faulty cost an extra
/// `slowdown_ticks` of synchronous work on their shard — a degraded
/// replica / cold cache stand-in driven by the deterministic fault plan.
pub struct BrownoutFaults {
    /// Decides which tickets are slow (keyed by ticket, attempt 0).
    pub plan: FaultPlan,
    /// Fault site name.
    pub site: String,
    /// Extra ticks of work per faulted job.
    pub slowdown_ticks: u64,
}

/// Configuration for building a [`ShardedService`].
pub struct ServiceConfig {
    /// ANN backend for search partitions.
    pub kind: IndexKind,
    /// Shard count (and executor partition count).
    pub shards: usize,
    /// Vector dimensionality.
    pub dim: usize,
    /// Total vectors across all partitions.
    pub vectors: usize,
    /// Top-k per search.
    pub k: usize,
    /// Seed for the synthetic vector corpus.
    pub seed: u64,
    /// Capture per-ticket search results for equivalence tests (adds an
    /// allocation per search — leave off when measuring).
    pub capture: bool,
    /// Optional brownout fault injection.
    pub brownout: Option<BrownoutFaults>,
}

/// Fan-in completion board shared between the load loop and the executor.
/// Indexed by request ticket ([`Request::id`]): each slot counts the
/// request's outstanding shard shares, and the request is done at zero.
pub struct SlotBoard {
    slots: Vec<AtomicU32>,
}

impl SlotBoard {
    /// Board with `n` slots, all idle.
    pub fn new(n: usize) -> Self {
        SlotBoard { slots: (0..n).map(|_| AtomicU32::new(0)).collect() }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the board has no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Arm `ticket` for `fan` shard completions. Must happen before the
    /// first `submit` for that ticket so a fast executor cannot complete an
    /// unarmed slot. `_now`, the submit time, is read by nothing: the load
    /// drivers time their requests themselves.
    pub fn arm(&self, ticket: u32, fan: u32, _now: u64) {
        self.slots[ticket as usize].store(fan, Ordering::Release);
    }

    /// One shard finished its share of `ticket`. Called by the executor.
    pub fn complete_one(&self, ticket: u32) {
        self.slots[ticket as usize].fetch_sub(1, Ordering::AcqRel);
    }

    /// One shard refused `ticket` at admission: retire that share of the
    /// fan. Called by the load loop; the engine counts the refusal.
    pub fn shed_one(&self, ticket: u32) {
        self.complete_one(ticket);
    }

    /// True when every shard share of `ticket` has retired.
    pub fn is_done(&self, ticket: u32) -> bool {
        self.slots[ticket as usize].load(Ordering::Acquire) == 0
    }
}

/// The serving backend: executes coalesced batches against partitioned
/// indexes and the shared lookup CSR, completing the [`SlotBoard`].
pub struct ShardedService {
    shards: Vec<ShardSlot>,
    lookup: Arc<PointLookupIndex>,
    num_entities: u64,
    trace: Arc<Vec<Request>>,
    board: Arc<SlotBoard>,
    clock: Arc<dyn EngineClock>,
    k: usize,
    lookups: Arc<Counter>,
    searches: Arc<Counter>,
    dedup_hits: Arc<Counter>,
    fault_slowdowns: Arc<Counter>,
    batch_fill: Arc<Histogram>,
    /// Folds lookup results so the optimizer cannot discard the CSR reads.
    fact_sink: AtomicU64,
    capture: Option<Vec<Mutex<Vec<Hit>>>>,
    brownout: Option<BrownoutFaults>,
}

impl ShardedService {
    /// Build the service: synthesize the vector corpus, partition it by
    /// [`crate::policy::route`], and wire counters under `registry`'s
    /// `serve` scope.
    pub fn build(
        cfg: ServiceConfig,
        lookup: Arc<PointLookupIndex>,
        num_entities: usize,
        trace: Arc<Vec<Request>>,
        board: Arc<SlotBoard>,
        clock: Arc<dyn EngineClock>,
        registry: &Registry,
    ) -> Arc<Self> {
        let shards = build_partitions(cfg.shards, cfg.dim, cfg.vectors, cfg.seed);
        let scope = registry.scope("serve");
        let capture =
            cfg.capture.then(|| (0..trace.len()).map(|_| Mutex::new(Vec::new())).collect());
        Arc::new(ShardedService {
            shards,
            lookup,
            num_entities: (num_entities as u64).max(1),
            trace,
            board,
            clock,
            k: cfg.k,
            lookups: scope.counter("lookups"),
            searches: scope.counter("searches"),
            dedup_hits: scope.counter("coalesced_dedup_hits"),
            fault_slowdowns: scope.counter("fault_slowdowns"),
            batch_fill: scope.histogram("batch_fill"),
            fact_sink: AtomicU64::new(0),
            capture,
            brownout: cfg.brownout,
        })
    }

    /// Captured per-ticket search hits (every shard's local top-k,
    /// concatenated in completion order). `None` unless built with
    /// `capture`.
    pub fn captured(&self, ticket: u32) -> Option<Vec<Hit>> {
        self.capture.as_ref().map(|c| c[ticket as usize].lock().expect("capture").clone())
    }

    /// Accumulated fact-count fold (proves lookups really read the CSR).
    pub fn fact_sink(&self) -> u64 {
        self.fact_sink.load(Ordering::Relaxed)
    }

    /// Queries answered from a batch-local duplicate instead of a fresh
    /// partition scan.
    pub fn dedup_count(&self) -> u64 {
        self.dedup_hits.value()
    }
}

impl BatchExecutor for ShardedService {
    fn execute(&self, shard: usize, jobs: &[Job]) {
        // Brownout: burn the plan-decided penalty before touching the batch,
        // like a degraded replica would.
        if let Some(b) = &self.brownout {
            let mut faulted = 0u64;
            for j in jobs {
                if b.plan.decide(&b.site, j.ticket as u64, 0).is_some() {
                    faulted += 1;
                }
            }
            if faulted > 0 {
                self.fault_slowdowns.add(faulted);
                let until = self.clock.now_ticks() + faulted * b.slowdown_ticks;
                while self.clock.now_ticks() < until {
                    std::hint::spin_loop();
                }
            }
        }
        self.batch_fill.record(jobs.len() as u64);
        let mut st = self.shards[shard].state.lock().expect("shard scratch");
        let mut lookups = 0u64;
        let mut fact_fold = 0u64;
        // Lookups are answered as they are met; the batch's searches are
        // scanned together, then completed in job order.
        let search_seed = |j: &Job| match self.trace[j.ticket as usize].kind {
            RequestKind::Search { query_seed } => Some(query_seed),
            RequestKind::Lookup { .. } => None,
        };
        for j in jobs {
            if let RequestKind::Lookup { entity } = self.trace[j.ticket as usize].kind {
                lookups += 1;
                let e = EntityId(entity % self.num_entities);
                fact_fold = fact_fold.wrapping_add(self.lookup.fact_count(e) as u64);
                self.board.complete_one(j.ticket);
            }
        }
        let batch = jobs.iter().filter_map(search_seed).map(|seed| (seed, self.k));
        let dedup = search_slot_batch(&self.shards[shard], &mut st, batch);
        let mut searches = 0usize;
        for j in jobs.iter().filter(|j| search_seed(j).is_some()) {
            if let Some(cap) = &self.capture {
                cap[j.ticket as usize]
                    .lock()
                    .expect("capture")
                    .extend_from_slice(st.hits_of(searches));
            }
            searches += 1;
            self.board.complete_one(j.ticket);
        }
        self.lookups.add(lookups);
        self.searches.add(searches as u64);
        self.dedup_hits.add(dedup);
        self.fact_sink.fetch_add(fact_fold, Ordering::Relaxed);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::policy::{route, CoalescePolicy, ShedPolicy};
    use crate::shard::{MicrosClock, ShardEngine};
    use saga_core::fault::SiteFaults;
    use saga_core::synth::{generate, SynthConfig};
    use saga_core::trace::{generate_trace, TraceConfig};

    /// Everything a service is built over besides its config: the tiny
    /// synthetic KG's lookup CSR and a search-heavy Zipf trace whose hot
    /// 64-query pool makes duplicates recur within a coalescing window.
    struct World {
        lookup: Arc<PointLookupIndex>,
        num_entities: usize,
        trace: Arc<Vec<Request>>,
        registry: Registry,
    }

    fn tiny_world(requests: usize) -> World {
        let synth = generate(&SynthConfig::tiny(11));
        let trace = generate_trace(&TraceConfig {
            seed: 11,
            requests,
            query_pool: 64,
            lookup_fraction: 0.6,
            mean_interarrival_ticks: 1_000,
            ..TraceConfig::default()
        });
        World {
            lookup: Arc::new(PointLookupIndex::build(&synth.kg)),
            num_entities: synth.kg.num_entities(),
            trace: Arc::new(trace),
            registry: Registry::new(),
        }
    }

    /// One service over `world` and a running engine in front of it.
    fn start(
        world: &World,
        cfg: ServiceConfig,
        coalesce: CoalescePolicy,
        shed: ShedPolicy,
    ) -> (Arc<ShardedService>, ShardEngine) {
        let shards = cfg.shards;
        let clock: Arc<dyn EngineClock> = Arc::new(MicrosClock::new());
        let board = Arc::new(SlotBoard::new(world.trace.len()));
        let service = ShardedService::build(
            cfg,
            Arc::clone(&world.lookup),
            world.num_entities,
            Arc::clone(&world.trace),
            board,
            Arc::clone(&clock),
            &world.registry,
        );
        let engine = ShardEngine::start(
            shards,
            coalesce,
            shed,
            256,
            Arc::clone(&service) as Arc<dyn BatchExecutor>,
            clock,
        );
        (service, engine)
    }

    /// Unsharded reference search over the same synthetic corpus.
    fn reference_hits(
        dim: usize,
        vectors: usize,
        corpus_seed: u64,
        k: usize,
        query_seed: u64,
    ) -> Vec<Hit> {
        let mut buf = Vec::new();
        let mut idx = FlatIndex::new(dim, Metric::Cosine);
        for id in 0..vectors as u64 {
            synth_vector(corpus_seed ^ id.wrapping_mul(0x9E37_79B9), dim, &mut buf);
            idx.add(id, &buf);
        }
        let mut q = Vec::new();
        synth_vector(query_seed, dim, &mut q);
        idx.search(&q, k)
    }

    /// Offers the service's trace from `threads` scoped threads, thread `w`
    /// taking requests `w, w + threads, …`. A `closed` thread waits out each
    /// request before offering the next; otherwise it offers its slice as
    /// one burst. Returns once every share of every request has been served
    /// or shed, so a request the engine lost never returns.
    fn offer(svc: &ShardedService, eng: &ShardEngine, threads: usize, closed: bool) {
        let (board, clock, trace) = (&*svc.board, &*svc.clock, &svc.trace[..]);
        let n = eng.num_shards();
        std::thread::scope(|scope| {
            for w in 0..threads {
                scope.spawn(move || {
                    for r in trace.iter().skip(w).step_by(threads) {
                        let shards = match r.kind {
                            RequestKind::Lookup { entity: e } => route(e, n)..route(e, n) + 1,
                            RequestKind::Search { .. } => 0..n,
                        };
                        board.arm(r.id, shards.len() as u32, clock.now_ticks());
                        for _ in shards.filter(|&s| !eng.submit(s, r.id)) {
                            board.shed_one(r.id);
                        }
                        while closed && !board.is_done(r.id) {
                            std::thread::yield_now();
                        }
                    }
                });
            }
        });
        while !trace.iter().all(|r| board.is_done(r.id)) {
            std::thread::yield_now();
        }
    }

    #[test]
    fn sharded_search_merges_to_exact_global_top_k() {
        let world = tiny_world(300);
        let svc_cfg = ServiceConfig {
            kind: IndexKind::Flat,
            shards: 4,
            dim: 16,
            vectors: 400,
            k: 6,
            seed: 11,
            capture: true,
            brownout: None,
        };
        let (service, engine) = start(
            &world,
            svc_cfg,
            CoalescePolicy { max_batch: 64, max_wait_ticks: 20 },
            ShedPolicy::unbounded(),
        );
        offer(&service, &engine, 4, true);
        assert_eq!(engine.shutdown().shed, 0, "an unbounded engine shed a request");
        let mut checked = 0;
        for r in world.trace.iter() {
            let RequestKind::Search { query_seed } = r.kind else { continue };
            let mut merged = service.captured(r.id).expect("capture on");
            merged.sort_by(Hit::best_first);
            merged.truncate(6);
            assert_eq!(merged, reference_hits(16, 400, 11, 6, query_seed), "ticket {}", r.id);
            checked += 1;
        }
        assert!(checked > 0, "trace had no searches");
        assert!(service.fact_sink() > 0, "lookups never touched the CSR");
    }

    #[test]
    fn dedup_fires_on_zipf_duplicates_without_changing_results() {
        // Single shard + huge batch window ⇒ hot queries coalesce into the
        // same batch; capture must still equal the reference for each.
        let world = tiny_world(600);
        let svc_cfg = ServiceConfig {
            kind: IndexKind::Flat,
            shards: 1,
            dim: 16,
            vectors: 200,
            k: 4,
            seed: 11,
            capture: true,
            brownout: None,
        };
        let (service, engine) = start(
            &world,
            svc_cfg,
            CoalescePolicy { max_batch: 64, max_wait_ticks: 2_000 },
            ShedPolicy::unbounded(),
        );
        offer(&service, &engine, 16, true);
        engine.shutdown();
        assert!(service.dedup_count() > 0, "Zipf trace produced no batch duplicates");
        // Spot-check a few captured results against a fresh single search
        // over the same rows.
        let mut spot = 0;
        for r in world.trace.iter() {
            let RequestKind::Search { query_seed } = r.kind else { continue };
            let got = service.captured(r.id).expect("capture on");
            assert_eq!(got, reference_hits(16, 200, 11, 4, query_seed), "ticket {}", r.id);
            spot += 1;
            if spot >= 5 {
                break;
            }
        }
        assert!(spot > 0);
    }

    #[test]
    fn brownout_overload_sheds_and_conserves_requests() {
        // A fifth of the jobs cost an extra 1 ms of shard time, so a shard
        // sustains at most ~5k jobs/s whatever the host; the whole trace
        // offered as one burst is far past that, the queues reach the tight
        // cap, and the engine must refuse work rather than lose or strand any
        // of it.
        let world = tiny_world(2_000);
        let svc_cfg = ServiceConfig {
            kind: IndexKind::Flat,
            shards: 2,
            dim: 16,
            vectors: 400,
            k: 6,
            seed: 11,
            capture: false,
            brownout: Some(BrownoutFaults {
                plan: FaultPlan::reliable(11).with_site("serve.shard", SiteFaults::transient(0.2)),
                site: "serve.shard".into(),
                slowdown_ticks: 1_000,
            }),
        };
        let (service, engine) = start(
            &world,
            svc_cfg,
            CoalescePolicy { max_batch: 64, max_wait_ticks: 20 },
            ShedPolicy { queue_cap: 32, p99_budget_ticks: 5_000, min_depth: 4 },
        );
        let t0 = service.clock.now_ticks();
        offer(&service, &engine, 1, false);
        let wall = service.clock.now_ticks() - t0;
        let stats = engine.shutdown();
        assert!(stats.shed > 0, "overload under brownout never shed");
        assert_eq!(stats.served + stats.shed, stats.submitted, "engine lost jobs");
        // Each slowed job held its shard for the plan's 1 ms, so the two
        // shards cannot have finished sooner than their combined penalty / 2.
        let slowed = world.registry.scope("serve").counter("fault_slowdowns").value();
        assert!(slowed > 0, "the fault plan never slowed a job");
        assert!(
            wall >= slowed * 1_000 / 2,
            "{slowed} slowed jobs cost only {wall} ticks of wall time"
        );
    }

    #[test]
    fn partitioning_is_route_stable() {
        for id in 0..1_000u64 {
            assert_eq!(route(id, 4), route(id, 4));
        }
    }
}
