//! The serve path: `SagaClient` → loopback TCP → `NetServer` →
//! `ShardEngine` → kernels, closed loop, one client thread, one connection.
//!
//! A run is a sequence of **segments**. Each starts a fresh server and
//! client (a `setup_s` sample), then measures windows of a fixed number of
//! ops. Replies are kept and checked after each window, outside its clocks
//! and counters.

use crate::consts::*;
use crate::spans::Spans;
use crate::stats::{percentile, Phase, Window};
use crate::sys::{now_ns, Meter};
use saga_ann::{FlatIndex, FlatScratch, Metric as AnnMetric};
use saga_core::obs::Registry;
use saga_core::synth::{generate, SynthConfig};
use saga_core::trace::{generate_trace, Request as TraceRequest, RequestKind, TraceConfig};
use saga_core::trace::{splitmix64, SplitMix64};
use saga_core::EntityId;
use saga_graph::PointLookupIndex;
use saga_serve::net::transport::{Acceptor, FrameConn, Transport};
use saga_serve::net::{
    oracle_lookup, oracle_search, NetServerStats, Request, RequestBody, Response, ResponseBody,
    TcpAcceptor, TcpTransport, WireHit,
};
use saga_serve::server::ServiceConfig;
use saga_serve::{
    route, BatchExecutor, ClientConfig, EngineClock, IndexKind, Job, MicrosClock, NetServer,
    NetServerConfig, SagaClient, ShardEngine, ShardedService, SlotBoard,
};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Which of the two serve workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeKind {
    /// One `SagaClient::lookup` per op.
    Lookup,
    /// One `SagaClient::batch` of `Search` items per op.
    Search,
}

/// Everything that sizes a serve run. [`ServePlan::ledger`] is the only
/// plan the command runs; tests build smaller ones.
#[derive(Debug, Clone)]
pub struct ServePlan {
    pub kind: ServeKind,
    pub server: NetServerConfig,
    pub window_ops: usize,
    pub segment_windows: usize,
    /// Trace requests consumed per op (1 for a lookup).
    pub batch_items: usize,
    pub ladder_per_s: [u64; 3],
    pub limit_us: u64,
    pub probe_ops: usize,
    pub wire_probe_iters: usize,
    pub graph_probe_iters: usize,
    pub ann_probe_iters: usize,
}

impl ServePlan {
    pub fn ledger(kind: ServeKind) -> Self {
        let lookup = ServePlan {
            kind,
            server: NetServerConfig::small(WORLD_SEED),
            window_ops: LOOKUP_WINDOW_OPS,
            segment_windows: LOOKUP_SEGMENT_WINDOWS,
            batch_items: 1,
            ladder_per_s: LOOKUP_LADDER_PER_S,
            limit_us: LOOKUP_LIMIT_US,
            probe_ops: LOOKUP_PROBE_OPS,
            wire_probe_iters: WIRE_PROBE_ITERS,
            graph_probe_iters: GRAPH_PROBE_ITERS,
            ann_probe_iters: ANN_PROBE_ITERS,
        };
        match kind {
            ServeKind::Lookup => lookup,
            ServeKind::Search => ServePlan {
                server: NetServerConfig {
                    kind: IndexKind::Flat,
                    shards: SEARCH_SHARDS,
                    dim: SEARCH_DIM,
                    vectors: SEARCH_VECTORS,
                    k: SEARCH_K as usize,
                    ..lookup.server
                },
                window_ops: SEARCH_WINDOW_OPS,
                segment_windows: SEARCH_SEGMENT_WINDOWS,
                batch_items: SEARCH_BATCH_ITEMS,
                ladder_per_s: SEARCH_LADDER_PER_S,
                limit_us: SEARCH_LIMIT_US,
                probe_ops: SEARCH_PROBE_OPS,
                ..lookup
            },
        }
    }

    /// Top-k of every search the workload sends.
    fn k(&self) -> u32 {
        self.server.k as u32
    }

    fn trace(&self, seed: u64, ops: usize) -> Vec<TraceRequest> {
        generate_trace(&TraceConfig {
            seed,
            requests: ops * self.batch_items,
            entities: TRACE_ENTITIES,
            query_pool: SEARCH_QUERY_POOL,
            lookup_fraction: if self.kind == ServeKind::Lookup { 1.0 } else { 0.0 },
            ..TraceConfig::default()
        })
    }

    fn segment_ops(&self) -> usize {
        self.window_ops * self.segment_windows
    }
}

/// The lookup side of the serve world, through the calls `NetServer::start`
/// and `oracle_lookup` make: the point-lookup index and the entity count
/// that keys are reduced by.
fn lookup_world(cfg: &NetServerConfig) -> (PointLookupIndex, usize) {
    let synth = generate(&SynthConfig::tiny(cfg.seed));
    (PointLookupIndex::build(&synth.kg), synth.kg.num_entities().max(1))
}

fn key_of(r: &TraceRequest) -> u64 {
    match r.kind {
        RequestKind::Lookup { entity } => entity,
        RequestKind::Search { query_seed } => query_seed,
    }
}

// ------------------------------------------------------------------ oracle

/// What every reply is checked against. The world is constant, so this is
/// built once per run, outside every clock.
struct Oracle {
    /// Fact count per dense entity id, from the same public calls
    /// `oracle_lookup` makes (`generate` → `PointLookupIndex`). The oracle
    /// itself regenerates the world on every call, so it is asked only
    /// about the hottest keys; this table answers the rest.
    fact_counts: Vec<u64>,
    /// The hottest keys of the workload's trace shape, hottest first.
    hot_keys: Vec<u64>,
    /// `oracle_search` for each hot key (search only).
    hot_hits: Vec<Vec<WireHit>>,
    /// First reply seen per query: a repeat must return identical bytes.
    first_seen: HashMap<u64, Vec<WireHit>>,
}

fn same_hits(a: &[WireHit], b: &[WireHit]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| x.id == y.id && x.score.to_bits() == y.score.to_bits())
}

impl Oracle {
    fn build(plan: &ServePlan) -> Result<Self, String> {
        let (index, n) = lookup_world(&plan.server);
        let fact_counts: Vec<u64> =
            (0..n).map(|e| index.fact_count(EntityId(e as u64)) as u64).collect();

        // Hottest keys by frequency in a constant-seed trace of this shape.
        let mut freq: HashMap<u64, usize> = HashMap::new();
        for r in plan.trace(plan.server.seed, 20_000 / plan.batch_items) {
            *freq.entry(key_of(&r)).or_default() += 1;
        }
        let mut by_heat: Vec<(u64, usize)> = freq.into_iter().collect();
        by_heat.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let hot_keys: Vec<u64> = by_heat.iter().take(HOT_CHECKED).map(|&(k, _)| k).collect();

        let mut oracle =
            Oracle { fact_counts, hot_keys, hot_hits: Vec::new(), first_seen: HashMap::new() };
        match plan.kind {
            ServeKind::Lookup => {
                for &e in &oracle.hot_keys {
                    if oracle_lookup(&plan.server, e) != oracle.expected_count(e) {
                        return Err(format!("fact-count table disagrees with oracle_lookup({e})"));
                    }
                }
            }
            ServeKind::Search => {
                oracle.hot_hits = oracle
                    .hot_keys
                    .iter()
                    .map(|&q| oracle_search(&plan.server, q, plan.k()))
                    .collect();
            }
        }
        Ok(oracle)
    }

    fn expected_count(&self, entity: u64) -> u64 {
        self.fact_counts[(entity % self.fact_counts.len() as u64) as usize]
    }

    /// Checks one search item; remembers the first reply per query.
    fn check_search(&mut self, query: u64, k: u32, reply: &ResponseBody) -> bool {
        let ResponseBody::SearchOk { hits } = reply else { return false };
        if hits.len() != k as usize {
            return false;
        }
        if let Some(at) = self.hot_keys.iter().position(|&q| q == query) {
            if !same_hits(hits, &self.hot_hits[at]) {
                return false;
            }
        }
        match self.first_seen.get(&query) {
            Some(first) => same_hits(first, hits),
            None => {
                self.first_seen.insert(query, hits.clone());
                true
            }
        }
    }

    /// True when `reply` is the right answer to the op made of `reqs`.
    /// Any `Shed` / `Expired` / `Degraded` / `Error` / `Err` is wrong.
    fn check(
        &mut self,
        plan: &ServePlan,
        reqs: &[TraceRequest],
        reply: &saga_core::Result<ResponseBody>,
    ) -> bool {
        match (plan.kind, reply) {
            (ServeKind::Lookup, Ok(ResponseBody::LookupOk { entity, fact_count })) => {
                let want = key_of(&reqs[0]);
                *entity == want && *fact_count == self.expected_count(want)
            }
            (ServeKind::Search, Ok(ResponseBody::BatchOk(items))) => {
                items.len() == reqs.len()
                    && reqs
                        .iter()
                        .zip(items)
                        .all(|(r, item)| self.check_search(key_of(r), plan.k(), item))
            }
            _ => false,
        }
    }
}

// ----------------------------------------------------------- timed transport

/// The four stamps a `TimedConn` pair leaves per request, on the ledger's
/// one clock, plus the frame bytes that crossed. With one connection and
/// one request in flight the latest stamps belong to the current op.
#[derive(Default)]
struct Tap {
    client_send_ns: AtomicU64,
    server_recv_ns: AtomicU64,
    server_send_ns: AtomicU64,
    client_recv_ns: AtomicU64,
    request_bytes: AtomicU64,
    response_bytes: AtomicU64,
}

#[derive(Clone, Copy)]
enum Side {
    Client,
    Server,
}

/// A [`FrameConn`] that stamps when a frame is handed to the transport and
/// when one comes out of it.
struct TimedConn {
    inner: Box<dyn FrameConn>,
    tap: Arc<Tap>,
    side: Side,
}

impl FrameConn for TimedConn {
    fn send_frame(&mut self, frame: &[u8]) -> saga_core::Result<()> {
        let (stamp, bytes) = match self.side {
            Side::Client => (&self.tap.client_send_ns, &self.tap.request_bytes),
            Side::Server => (&self.tap.server_send_ns, &self.tap.response_bytes),
        };
        bytes.fetch_add(frame.len() as u64, Ordering::Relaxed);
        // SeqCst: the bench thread reads the stamp after the reply arrives,
        // which the socket orders after this store anyway.
        stamp.store(now_ns(), Ordering::SeqCst);
        self.inner.send_frame(frame)
    }

    fn recv_frame(&mut self, timeout: Duration) -> saga_core::Result<Option<Vec<u8>>> {
        let got = self.inner.recv_frame(timeout)?;
        if got.is_some() {
            let stamp = match self.side {
                Side::Client => &self.tap.client_recv_ns,
                Side::Server => &self.tap.server_recv_ns,
            };
            stamp.store(now_ns(), Ordering::SeqCst);
        }
        Ok(got)
    }

    fn peer(&self) -> &str {
        self.inner.peer()
    }
}

struct TimedTransport {
    inner: TcpTransport,
    tap: Arc<Tap>,
}

impl Transport for TimedTransport {
    fn connect(&self) -> saga_core::Result<Box<dyn FrameConn>> {
        let inner = self.inner.connect()?;
        Ok(Box::new(TimedConn { inner, tap: Arc::clone(&self.tap), side: Side::Client }))
    }

    fn endpoint(&self) -> &str {
        self.inner.endpoint()
    }
}

struct TimedAcceptor {
    inner: TcpAcceptor,
    tap: Arc<Tap>,
}

impl Acceptor for TimedAcceptor {
    fn accept(&self, timeout: Duration) -> saga_core::Result<Option<Box<dyn FrameConn>>> {
        Ok(self.inner.accept(timeout)?.map(|inner| {
            Box::new(TimedConn { inner, tap: Arc::clone(&self.tap), side: Side::Server })
                as Box<dyn FrameConn>
        }))
    }

    fn local(&self) -> String {
        self.inner.local()
    }
}

// ------------------------------------------------------------------ segment

/// One freshly started server with one client connected to it.
struct Segment {
    server: NetServer,
    client: SagaClient,
    setup_s: f64,
}

fn issue(
    client: &SagaClient,
    plan: &ServePlan,
    reqs: &[TraceRequest],
) -> saga_core::Result<ResponseBody> {
    match plan.kind {
        ServeKind::Lookup => client.lookup(key_of(&reqs[0])),
        ServeKind::Search => client.batch(
            reqs.iter()
                .map(|r| RequestBody::Search { query_seed: key_of(r), k: plan.k() })
                .collect(),
        ),
    }
}

impl Segment {
    /// `NetServer::start` + client + first answered call, timed as one
    /// set-up. The first call asks for the hottest keys, so every fresh
    /// server is checked against the oracle before it is measured.
    fn start(
        plan: &ServePlan,
        oracle: &mut Oracle,
        tap: Option<&Arc<Tap>>,
    ) -> Result<Self, String> {
        let t0 = Instant::now();
        let registry = Registry::new();
        let tcp = TcpAcceptor::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = tcp.local();
        let (acceptor, transport): (Box<dyn Acceptor>, Arc<dyn Transport>) = match tap {
            None => (Box::new(tcp), Arc::new(TcpTransport::new(&addr))),
            Some(tap) => (
                Box::new(TimedAcceptor { inner: tcp, tap: Arc::clone(tap) }),
                Arc::new(TimedTransport { inner: TcpTransport::new(&addr), tap: Arc::clone(tap) }),
            ),
        };
        let server = NetServer::start(acceptor, plan.server.clone(), &registry);
        let client = SagaClient::new(transport, ClientConfig::default());
        let hot: Vec<TraceRequest> = oracle.hot_keys[..plan.batch_items.min(oracle.hot_keys.len())]
            .iter()
            .map(|&key| TraceRequest {
                id: 0,
                kind: match plan.kind {
                    ServeKind::Lookup => RequestKind::Lookup { entity: key },
                    ServeKind::Search => RequestKind::Search { query_seed: key },
                },
                arrival_ticks: 0,
            })
            .collect();
        let first = issue(&client, plan, &hot);
        let setup_s = t0.elapsed().as_secs_f64();
        if !oracle.check(plan, &hot, &first) {
            return Err(format!("fresh server's first reply is wrong: {first:?}"));
        }
        Ok(Segment { server, client, setup_s })
    }

    /// Closes the connection first, so the server's handler sees the hang-up
    /// instead of waiting out its read timeout, then drains the server.
    fn stop(self) -> (NetServerStats, saga_serve::net::ClientStats) {
        let client_stats = self.client.stats();
        drop(self.client);
        (self.server.shutdown(), client_stats)
    }
}

/// Where traced segments record: each op becomes one root span and five
/// contiguous children, from the stamps the timed transport leaves.
struct Tracing<'a> {
    tap: &'a Arc<Tap>,
    spans: &'a mut Spans,
    next_request: u64,
}

/// Runs one window of ops; replies land in `replies` for checking later.
fn run_window(
    client: &SagaClient,
    plan: &ServePlan,
    reqs: &[TraceRequest],
    latencies_ns: &mut Vec<u64>,
    replies: &mut Vec<saga_core::Result<ResponseBody>>,
    mut traced: Option<&mut Tracing<'_>>,
) -> (Window, f64) {
    latencies_ns.clear();
    replies.clear();
    let before = Meter::read();
    let wall0 = now_ns();
    for op in reqs.chunks(plan.batch_items) {
        let c0 = now_ns();
        let reply = issue(client, plan, op);
        let c3 = now_ns();
        latencies_ns.push(c3 - c0);
        replies.push(reply);
        if let Some(t) = traced.as_mut() {
            let request = t.next_request;
            t.next_request += 1;
            let c1 = t.tap.client_send_ns.load(Ordering::SeqCst);
            let s0 = t.tap.server_recv_ns.load(Ordering::SeqCst);
            let s1 = t.tap.server_send_ns.load(Ordering::SeqCst);
            let c2 = t.tap.client_recv_ns.load(Ordering::SeqCst);
            let root = t.spans.push("op", c0, c3, 0, request);
            // A retried call leaves stamps of its last attempt only; the
            // chain is then not contiguous and `serve.span_sum_ratio` shows it.
            if c0 <= c1 && c1 <= s0 && s0 <= s1 && s1 <= c2 && c2 <= c3 {
                t.spans.push("client.encode", c0, c1, root, request);
                t.spans.push("transport.request", c1, s0, root, request);
                t.spans.push("netserver.residence", s0, s1, root, request);
                t.spans.push("transport.response", s1, c2, root, request);
                t.spans.push("client.decode", c2, c3, root, request);
            }
        }
    }
    let wall_s = (now_ns() - wall0) as f64 / 1e9;
    let used = Meter::read().since(&before);
    (Window::from_ops(latencies_ns, used), wall_s)
}

/// Runs one segment's windows into `phase`, stopping early (after at least
/// one window) once `deadline` has passed.
fn run_segment(
    plan: &ServePlan,
    oracle: &mut Oracle,
    trace_seed: u64,
    deadline: Instant,
    phase: &mut Phase,
    mut traced: Option<&mut Tracing<'_>>,
) -> Result<(NetServerStats, saga_serve::net::ClientStats), String> {
    let trace = plan.trace(trace_seed, plan.segment_ops());
    let segment = Segment::start(plan, oracle, traced.as_ref().map(|t| t.tap))?;
    phase.setup_s.push(segment.setup_s);
    let mut latencies_ns = Vec::with_capacity(plan.window_ops);
    let mut replies = Vec::with_capacity(plan.window_ops);
    for reqs in trace.chunks(plan.window_ops * plan.batch_items) {
        let (window, wall_s) = run_window(
            &segment.client,
            plan,
            reqs,
            &mut latencies_ns,
            &mut replies,
            traced.as_deref_mut(),
        );
        phase.op_wall_s += wall_s;
        phase.windows.push(window);
        latencies_ns.iter().for_each(|&ns| phase.latencies.record_ns(ns));
        for (op, reply) in reqs.chunks(plan.batch_items).zip(&replies) {
            phase.attempted += 1;
            if !oracle.check(plan, op, reply) {
                phase.failed += 1;
            }
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    Ok(segment.stop())
}

/// Derives the per-segment trace seed: `--seed` orders requests, nothing else.
fn segment_seed(seed: u64, segment: u64) -> u64 {
    splitmix64(seed ^ splitmix64(segment))
}

/// The untraced run: segments until `seconds` have passed.
pub fn run(plan: &ServePlan, seed: u64, seconds: f64) -> Result<Phase, String> {
    let mut oracle = Oracle::build(plan)?;
    let mut phase = Phase::default();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut segment = 0u64;
    loop {
        run_segment(plan, &mut oracle, segment_seed(seed, segment), deadline, &mut phase, None)?;
        segment += 1;
        if Instant::now() >= deadline {
            return Ok(phase);
        }
    }
}

// ------------------------------------------------------------------- ladder

/// One open-loop rung.
#[derive(Debug, Clone)]
pub struct Rung {
    pub per_s: u64,
    pub due: usize,
    pub sent: usize,
    /// Sent ops whose reply failed its check: failed ops of the run.
    pub wrong: usize,
    /// Ops answered correctly within the limit, counted from their due time.
    pub within: usize,
    pub lag_p99_us: f64,
    pub from_due_p99_us: f64,
}

impl Rung {
    pub fn within_share(&self) -> f64 {
        self.within as f64 / self.due.max(1) as f64
    }
}

/// Sends `ops` on a Poisson schedule at `per_s`, each on its due time or as
/// soon after as the single connection is free; latency counts from the due
/// time, so a stall charges every request queued behind it. Ops not sent
/// within twice the rung's nominal length miss the limit.
fn run_rung(
    segment: &Segment,
    plan: &ServePlan,
    oracle: &mut Oracle,
    seed: u64,
    per_s: u64,
    rung_s: f64,
) -> Rung {
    let ops = ((per_s as f64 * rung_s) as usize).max(1);
    let trace = plan.trace(seed, ops);
    // Arrival process: exponential gaps from a trace of the same length.
    let arrivals =
        generate_trace(&TraceConfig { seed: !seed, requests: ops, ..TraceConfig::default() });
    let ns_per_tick = 1e9 / per_s as f64 / TraceConfig::default().mean_interarrival_ticks as f64;
    let start = now_ns();
    let give_up = start + (2.0 * rung_s * 1e9) as u64;
    let mut lag_us = Vec::with_capacity(ops);
    let mut from_due_us = Vec::with_capacity(ops);
    let mut replies = Vec::with_capacity(ops);
    for (op, arrival) in trace.chunks(plan.batch_items).zip(&arrivals) {
        let due = start + (arrival.arrival_ticks as f64 * ns_per_tick) as u64;
        let now = now_ns();
        if now >= give_up {
            break;
        }
        if due > now {
            std::thread::sleep(Duration::from_nanos(due - now));
        }
        let sent = now_ns();
        let reply = issue(&segment.client, plan, op);
        from_due_us.push((now_ns() - due) as f64 / 1e3);
        lag_us.push(sent.saturating_sub(due) as f64 / 1e3);
        replies.push(reply);
    }
    // Correctness first, the latency limit second: a wrong reply is a failed
    // op of the run whenever it arrived.
    let (mut wrong, mut within) = (0, 0);
    for ((op, reply), &us) in trace.chunks(plan.batch_items).zip(&replies).zip(&from_due_us) {
        if !oracle.check(plan, op, reply) {
            wrong += 1;
        } else if us <= plan.limit_us as f64 {
            within += 1;
        }
    }
    Rung {
        per_s,
        due: ops,
        sent: replies.len(),
        wrong,
        within,
        lag_p99_us: percentile(&lag_us, 0.99),
        from_due_p99_us: percentile(&from_due_us, 0.99),
    }
}

// ------------------------------------------------------------- engine probe

/// What the bare `ShardEngine` did with the workload's op shape.
#[derive(Debug, Clone, Default)]
pub struct EngineProbe {
    pub queue_wait_us: f64,
    pub batch_size_mean: f64,
    pub exec_us_per_batch: f64,
    pub exec_us_per_item: f64,
    /// Ops driven through the engine, and those with a share it refused.
    pub ops: u64,
    pub shed: u64,
}

/// A [`BatchExecutor`] that times the executor it wraps.
struct TimedExecutor {
    inner: Arc<ShardedService>,
    clock: Arc<dyn EngineClock>,
    batches: AtomicU64,
    items: AtomicU64,
    exec_ns: AtomicU64,
    wait_ticks: AtomicU64,
    /// Wakes the probe's driver after each batch, as the net server's call
    /// slots wake a connection handler.
    done: (Mutex<()>, Condvar),
}

impl BatchExecutor for TimedExecutor {
    fn execute(&self, shard: usize, jobs: &[Job]) {
        let dequeued = self.clock.now_ticks();
        let waited: u64 = jobs.iter().map(|j| dequeued.saturating_sub(j.submit_ticks)).sum();
        let t0 = now_ns();
        self.inner.execute(shard, jobs);
        self.exec_ns.fetch_add(now_ns() - t0, Ordering::Relaxed);
        self.wait_ticks.fetch_add(waited, Ordering::Relaxed);
        self.items.fetch_add(jobs.len() as u64, Ordering::Relaxed);
        self.batches.fetch_add(1, Ordering::Relaxed);
        let _held = self.done.0.lock().expect("probe lock");
        self.done.1.notify_all();
    }
}

/// Drives `ShardEngine` directly — no wire, no door — with the workload's
/// op shape (one routed lookup, or `batch_items` searches fanned to every
/// shard before any wait), one op in flight, through a timing wrapper
/// around `ShardedService`, the public executor over the same partition
/// builder the net server uses.
fn engine_probe(plan: &ServePlan, seed: u64) -> EngineProbe {
    let cfg = &plan.server;
    let trace = Arc::new(plan.trace(seed, plan.probe_ops));
    let board = Arc::new(SlotBoard::new(trace.len()));
    let clock: Arc<dyn EngineClock> = Arc::new(MicrosClock::new());
    let (lookup_index, num_entities) = lookup_world(cfg);
    let service = ShardedService::build(
        ServiceConfig {
            kind: cfg.kind,
            shards: cfg.shards,
            dim: cfg.dim,
            vectors: cfg.vectors,
            k: plan.k() as usize,
            seed: cfg.seed,
            capture: false,
            brownout: None,
        },
        Arc::new(lookup_index),
        num_entities,
        Arc::clone(&trace),
        Arc::clone(&board),
        Arc::clone(&clock),
        &Registry::new(),
    );
    let timed = Arc::new(TimedExecutor {
        inner: service,
        clock: Arc::clone(&clock),
        batches: AtomicU64::new(0),
        items: AtomicU64::new(0),
        exec_ns: AtomicU64::new(0),
        wait_ticks: AtomicU64::new(0),
        done: (Mutex::new(()), Condvar::new()),
    });
    let engine = ShardEngine::start(
        cfg.shards,
        cfg.coalesce,
        cfg.shed,
        1_024,
        Arc::clone(&timed) as Arc<dyn BatchExecutor>,
        Arc::clone(&clock),
    );
    let (mut ops, mut shed) = (0u64, 0u64);
    for op in trace.chunks(plan.batch_items) {
        ops += 1;
        let mut refused = false;
        for r in op {
            let now = clock.now_ticks();
            // The plan's shed policy is unbounded; a refused share is a
            // failed op, and is still retired, as `loadgen` does, so the
            // wait below cannot hang.
            let shards = match r.kind {
                RequestKind::Lookup { entity } => {
                    let shard = route(entity, cfg.shards);
                    shard..shard + 1
                }
                RequestKind::Search { .. } => 0..cfg.shards,
            };
            board.arm(r.id, shards.len() as u32, now);
            for shard in shards {
                if !engine.submit(shard, r.id) {
                    board.shed_one(r.id);
                    refused = true;
                }
            }
        }
        shed += refused as u64;
        let mut held = timed.done.0.lock().expect("probe lock");
        while !op.iter().all(|r| board.is_done(r.id)) {
            held = timed.done.1.wait_timeout(held, Duration::from_millis(1)).expect("probe wait").0;
        }
    }
    engine.shutdown();
    let batches = timed.batches.load(Ordering::Relaxed).max(1) as f64;
    let items = timed.items.load(Ordering::Relaxed).max(1) as f64;
    let exec_us = timed.exec_ns.load(Ordering::Relaxed) as f64 / 1e3;
    EngineProbe {
        queue_wait_us: timed.wait_ticks.load(Ordering::Relaxed) as f64 / items,
        batch_size_mean: items / batches,
        exec_us_per_batch: exec_us / batches,
        exec_us_per_item: exec_us / items,
        ops,
        shed,
    }
}

// ------------------------------------------------------------- direct calls

/// Costs of single public calls, outside any server.
#[derive(Debug, Clone, Default)]
pub struct Direct {
    pub request_encode_ns: f64,
    pub request_decode_ns: f64,
    pub response_encode_ns: f64,
    pub response_decode_ns: f64,
    pub graph_lookup_ns: f64,
    pub flat_search_us: f64,
    pub flat_search_batch8_us: f64,
    /// Computed, not measured: 2·dim multiply-adds per row scanned, every
    /// row of every shard.
    pub flops_per_query: f64,
    /// Computed: every row is read once, 4 bytes per component.
    pub bytes_scanned_per_query: f64,
}

fn ns_per_iter(iters: usize, mut f: impl FnMut()) -> f64 {
    let t0 = now_ns();
    for _ in 0..iters {
        f();
    }
    (now_ns() - t0) as f64 / iters.max(1) as f64
}

fn direct_probes(plan: &ServePlan, seed: u64, sample_reply: &ResponseBody) -> Direct {
    let mut d = Direct::default();
    let trace = plan.trace(seed, 1);
    let body = match plan.kind {
        ServeKind::Lookup => RequestBody::Lookup { entity: key_of(&trace[0]) },
        ServeKind::Search => RequestBody::Batch(
            trace
                .iter()
                .map(|r| RequestBody::Search { query_seed: key_of(r), k: plan.k() })
                .collect(),
        ),
    };
    let request = Request { request_id: 1 << 8, timeout_micros: 0, body };
    let request_frame = request.to_frame().expect("request encodes");
    let response = Response { request_id: 1 << 8, body: sample_reply.clone() };
    let response_frame = response.to_frame().expect("response encodes");
    let n = plan.wire_probe_iters;
    d.request_encode_ns = ns_per_iter(n, || {
        black_box(black_box(&request).to_frame().expect("request encodes"));
    });
    d.request_decode_ns = ns_per_iter(n, || {
        black_box(Request::from_frame(black_box(&request_frame)).expect("request decodes"));
    });
    d.response_encode_ns = ns_per_iter(n, || {
        black_box(black_box(&response).to_frame().expect("response encodes"));
    });
    d.response_decode_ns = ns_per_iter(n, || {
        black_box(Response::from_frame(black_box(&response_frame)).expect("response decodes"));
    });

    match plan.kind {
        ServeKind::Lookup => {
            let (index, n) = lookup_world(&plan.server);
            let mut rng = SplitMix64::new(seed);
            d.graph_lookup_ns = ns_per_iter(plan.graph_probe_iters, || {
                black_box(index.fact_count(EntityId(rng.next_below(n as u64))));
            });
        }
        ServeKind::Search => {
            // One shard's worth of rows; the values do not matter to a scan.
            let (dim, rows) = (plan.server.dim, plan.server.vectors / plan.server.shards.max(1));
            let mut rng = SplitMix64::new(plan.server.seed);
            let mut vector =
                || -> Vec<f32> { (0..dim).map(|_| (rng.next_f64() * 2.0 - 1.0) as f32).collect() };
            let mut index = FlatIndex::new(dim, AnnMetric::Cosine);
            for id in 0..rows as u64 {
                index.add(id, &vector());
            }
            let queries: Vec<Vec<f32>> = (0..plan.batch_items).map(|_| vector()).collect();
            let (mut scratch, mut out) = (FlatScratch::new(), Vec::new());
            let k = plan.k() as usize;
            d.flat_search_us = ns_per_iter(plan.ann_probe_iters, || {
                index.search_into(black_box(&queries[0]), k, &mut scratch, &mut out);
                black_box(&out);
            }) / 1e3;
            d.flat_search_batch8_us = ns_per_iter(plan.ann_probe_iters / 4, || {
                black_box(index.search_batch(black_box(&queries), k, 1));
            }) / 1e3;
            d.flops_per_query = 2.0 * dim as f64 * plan.server.vectors as f64;
            d.bytes_scanned_per_query = 4.0 * dim as f64 * plan.server.vectors as f64;
        }
    }
    d
}

// --------------------------------------------------------------- traced run

/// Everything the traced serve run measured.
pub struct ServeTrace {
    /// Untraced segments, alternated with the traced ones.
    pub untraced: Phase,
    /// Segments behind the timed transport.
    pub traced: Phase,
    pub spans: Spans,
    pub request_bytes_per_op: f64,
    pub response_bytes_per_op: f64,
    pub server: NetServerStats,
    pub client: saga_serve::net::ClientStats,
    pub ladder: Vec<Rung>,
    pub probe: EngineProbe,
    pub direct: Direct,
}

impl ServeTrace {
    /// Every op the run made whose outcome was checked: closed-loop ops,
    /// ladder ops sent and the engine probe's ops. (A wrong reply to the one
    /// sample call after the ladder ends the run with an error instead.)
    pub fn attempted(&self) -> u64 {
        let sent: usize = self.ladder.iter().map(|r| r.sent).sum();
        self.untraced.attempted + self.traced.attempted + sent as u64 + self.probe.ops
    }

    /// Those of them answered wrongly, refused or shed.
    pub fn failed(&self) -> u64 {
        let wrong: usize = self.ladder.iter().map(|r| r.wrong).sum();
        self.untraced.failed + self.traced.failed + wrong as u64 + self.probe.shed
    }

    /// Sum of the five contiguous spans over the op spans: 1.0 when every
    /// op's chain was recorded whole.
    pub fn span_sum_ratio(&self) -> f64 {
        let parts: u64 = [
            "client.encode",
            "transport.request",
            "netserver.residence",
            "transport.response",
            "client.decode",
        ]
        .iter()
        .map(|n| self.spans.total_ns(n))
        .sum();
        parts as f64 / self.spans.total_ns("op").max(1) as f64
    }

    /// Traced over untraced quiet-window median, minus one.
    pub fn overhead_share(&self) -> f64 {
        self.traced.op_p50_us() / self.untraced.op_p50_us() - 1.0
    }

    /// The highest rung that met the limit, 0 when none did.
    pub fn max_rate_ok_per_s(&self) -> f64 {
        self.ladder
            .iter()
            .filter(|r| r.within_share() >= LADDER_OK_SHARE)
            .map(|r| r.per_s as f64)
            .fold(0.0, f64::max)
    }
}

fn add_stats(a: &mut NetServerStats, b: NetServerStats) {
    a.requests += b.requests;
    a.served += b.served;
    a.shed += b.shed;
    a.expired += b.expired;
    a.degraded += b.degraded;
    a.corrupt += b.corrupt;
    a.connections += b.connections;
}

/// The traced run: alternating untraced / traced segments, then the
/// open-loop ladder on one more server, then the fixed-count probes.
pub fn run_traced(plan: &ServePlan, seed: u64, seconds: f64) -> Result<ServeTrace, String> {
    let mut oracle = Oracle::build(plan)?;
    let tap = Arc::new(Tap::default());
    let mut out = ServeTrace {
        untraced: Phase::default(),
        traced: Phase::default(),
        spans: Spans::with_capacity(1 << 16),
        request_bytes_per_op: 0.0,
        response_bytes_per_op: 0.0,
        server: NetServerStats::default(),
        client: Default::default(),
        ladder: Vec::new(),
        probe: EngineProbe::default(),
        direct: Direct::default(),
    };

    let deadline = Instant::now() + Duration::from_secs_f64(seconds * TRACE_CLOSED_SHARE);
    let mut tracing = Tracing { tap: &tap, spans: &mut out.spans, next_request: 0 };
    // Untraced and traced segments alternate, so host drift falls on both.
    let mut pair = 0u64;
    loop {
        let seeds = (segment_seed(seed, 2 * pair), segment_seed(seed, 2 * pair + 1));
        run_segment(plan, &mut oracle, seeds.0, deadline, &mut out.untraced, None)?;
        let (server, client) =
            run_segment(plan, &mut oracle, seeds.1, deadline, &mut out.traced, Some(&mut tracing))?;
        add_stats(&mut out.server, server);
        out.client.calls += client.calls;
        out.client.attempts += client.attempts;
        out.client.retries += client.retries;
        pair += 1;
        if Instant::now() >= deadline {
            break;
        }
    }
    // The tap also saw each traced segment's first call; count it as an op.
    let tapped_ops = (out.traced.attempted + out.traced.setup_s.len() as u64).max(1) as f64;
    out.request_bytes_per_op = tap.request_bytes.load(Ordering::Relaxed) as f64 / tapped_ops;
    out.response_bytes_per_op = tap.response_bytes.load(Ordering::Relaxed) as f64 / tapped_ops;

    let ladder_server = Segment::start(plan, &mut oracle, None)?;
    let rung_s = seconds * TRACE_LADDER_SHARE / plan.ladder_per_s.len() as f64;
    for (i, &per_s) in plan.ladder_per_s.iter().enumerate() {
        let rung_seed = segment_seed(seed, 1_000 + i as u64);
        out.ladder.push(run_rung(&ladder_server, plan, &mut oracle, rung_seed, per_s, rung_s));
    }
    // One more checked call gives the probes a real reply to encode.
    let sample_reqs = plan.trace(segment_seed(seed, 2_000), 1);
    let sample = issue(&ladder_server.client, plan, &sample_reqs);
    if !oracle.check(plan, &sample_reqs, &sample) {
        return Err(format!("sample reply is wrong: {sample:?}"));
    }
    ladder_server.stop();

    out.probe = engine_probe(plan, segment_seed(seed, 3_000));
    out.direct = direct_probes(plan, segment_seed(seed, 4_000), &sample.expect("checked above"));
    Ok(out)
}
