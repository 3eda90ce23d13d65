//! The networked serving front-end: a thread-per-connection acceptor in
//! front of the [`ShardEngine`], speaking the [`super::wire`] protocol.
//!
//! ## Request lifecycle
//!
//! accept → receive frame → decode → admission at the door (`max_inflight`)
//! → one of two paths → encode the reply into the connection's reused frame
//! buffer → send.
//!
//! **Point lookups never leave the connection thread.** A `Lookup` — alone
//! or as a `Batch` item — is a read of the immutable, pinned
//! [`PointLookupIndex`]: it has no co-rider to wait for, so it takes no call
//! slot, no ticket, no queue and no wake-up. The contract that follows: a
//! lookup is admitted at the door only, is never shed by a shard's queue cap
//! or p99 budget, and cannot expire once admitted (its `timeout_micros` is
//! not consulted — the probe is nanoseconds).
//!
//! **Searches go through the engine.** The frame's relative
//! `timeout_micros` is rebased onto the engine clock, a call slot is
//! allocated, one share per shard is fanned through
//! [`ShardEngine::try_submit`] (the deadline rides every [`Job`]), and the
//! connection thread blocks on the call's condvar until every share
//! resolves:
//!
//! * every share admitted and scored → `SearchOk`
//! * some shares shed at admission → `Degraded` (partial merged top-k)
//! * every share shed, or no call slot free → `Shed { retry_after_micros }`
//!   from the shard's own drain estimate — the feedback the client retry
//!   policy honors
//! * any share expired at dequeue → `Expired` (dropped before scoring,
//!   counted under `serve/net/expired`)
//!
//! A `Batch` fans every search item out before waiting on any, so its items
//! coalesce in the shard queues; its lookup and ping items are answered in
//! the same pass. The `serve/net` counters (`served`, `shed`, `expired`,
//! `degraded`) count logical operations on both paths, `requests` counts
//! frames, `latency_us` is door-to-reply residence.
//!
//! ## Shutdown drain
//!
//! `shutdown()` stops accepting, lets every connection handler finish (and
//! ack) its in-flight request, joins them, then drains the engine queues.
//! A killed *client* never wedges the server: handlers time out on idle
//! reads, and call waits carry a hard cap that surfaces as a typed
//! `Error` response instead of a hung thread.

use crate::net::transport::{Acceptor, FrameConn};
use crate::net::wire::{ErrorCode, Request, RequestBody, Response, ResponseBody, WireHit, MAX_K};
use crate::policy::{CoalescePolicy, ShedPolicy};
use crate::server::{build_partitions, search_slot_batch, IndexKind, ShardSlot};
use crate::shard::{BatchExecutor, EngineClock, Job, MicrosClock, ShardEngine, SubmitOutcome};
use saga_core::obs::{Counter, Histogram, Registry};
use saga_core::synth::{generate, SynthConfig};
use saga_core::EntityId;
use saga_graph::PointLookupIndex;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

/// Configuration for [`NetServer::start`].
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// ANN backend for the search partitions (flat; see [`IndexKind`]).
    pub kind: IndexKind,
    /// Shard (and engine worker) count.
    pub shards: usize,
    /// Vector dimensionality.
    pub dim: usize,
    /// Synthetic corpus size.
    pub vectors: usize,
    /// Nominal top-k. The flat backend sizes nothing by it: each request's
    /// own `k`, up to [`MAX_K`], decides how many hits it gets.
    pub k: usize,
    /// Master seed: corpus and knowledge graph derive from it.
    pub seed: u64,
    /// Requests admitted concurrently before the server sheds at the door.
    pub max_inflight: usize,
    /// Engine coalescing policy.
    pub coalesce: CoalescePolicy,
    /// Engine admission policy.
    pub shed: ShedPolicy,
    /// Per-read timeout; also the granularity of stop-flag polling.
    pub read_timeout: Duration,
    /// Connections idle longer than this are closed.
    pub idle_timeout: Duration,
}

impl NetServerConfig {
    /// A small test/demo-sized server.
    pub fn small(seed: u64) -> Self {
        NetServerConfig {
            kind: IndexKind::Flat,
            shards: 2,
            dim: 16,
            vectors: 400,
            k: 16,
            seed,
            max_inflight: 64,
            coalesce: CoalescePolicy { max_batch: 64, max_wait_ticks: 20 },
            shed: ShedPolicy::unbounded(),
            read_timeout: Duration::from_millis(50),
            idle_timeout: Duration::from_secs(30),
        }
    }
}

/// Hard cap on one call's wait for its shard shares. The engine always
/// progresses, so hitting this means a bug — surfaced as a typed `Error`
/// response rather than a wedged handler thread.
const CALL_WAIT_CAP: Duration = Duration::from_secs(30);

/// Back-off hint handed out when the server sheds at the door (inflight
/// cap) rather than in a shard queue.
const DOOR_SHED_RETRY_MICROS: u64 = 2_000;

/// One search in flight through the engine.
struct CallState {
    query_seed: u64,
    k: u32,
    /// Shard shares still outstanding (admitted or not yet resolved).
    remaining: u32,
    /// Total shares fanned out.
    fan: u32,
    shed_shares: u32,
    expired_shares: u32,
    /// Largest per-share shed back-off hint, in engine ticks (µs).
    retry_hint_ticks: u64,
    hits: Vec<saga_ann::Hit>,
}

struct CallSlot {
    state: Mutex<Option<CallState>>,
    cv: Condvar,
}

/// A `Batch` item between the fan-out pass and the collect pass.
enum Pending {
    /// Answered on the connection thread.
    Ready(ResponseBody),
    /// A search waiting on its call slot.
    Search(u32),
}

/// The network-facing service: answers point lookups inline, and is the
/// engine's executor for searches — resolves call-slot tickets to queries,
/// runs them against the shared partitions, and completes waiters.
pub struct NetService {
    parts: Vec<ShardSlot>,
    lookup: Arc<PointLookupIndex>,
    num_entities: u64,
    slots: Vec<CallSlot>,
    free: Mutex<Vec<u32>>,
    inflight: AtomicUsize,
    max_inflight: usize,
    // serve/net counters (the obs satellite).
    requests: Arc<Counter>,
    served: Arc<Counter>,
    shed: Arc<Counter>,
    expired: Arc<Counter>,
    degraded: Arc<Counter>,
    corrupt: Arc<Counter>,
    connections: Arc<Counter>,
    latency: Arc<Histogram>,
}

impl NetService {
    fn build(cfg: &NetServerConfig, registry: &Registry) -> Arc<Self> {
        let synth = generate(&SynthConfig::tiny(cfg.seed));
        let lookup = Arc::new(PointLookupIndex::build(&synth.kg));
        let num_entities = (synth.kg.num_entities() as u64).max(1);
        let parts = build_partitions(cfg.shards, cfg.dim, cfg.vectors, cfg.seed);
        // Call slots bound the pending table; exhausting them sheds at the
        // door. Sized past max_inflight so batch items have headroom.
        let capacity = (cfg.max_inflight * 8).clamp(256, 8_192);
        let scope = registry.scope("serve").child("net");
        Arc::new(NetService {
            parts,
            lookup,
            num_entities,
            slots: (0..capacity)
                .map(|_| CallSlot { state: Mutex::new(None), cv: Condvar::new() })
                .collect(),
            free: Mutex::new((0..capacity as u32).rev().collect()),
            inflight: AtomicUsize::new(0),
            max_inflight: cfg.max_inflight,
            requests: scope.counter("requests"),
            served: scope.counter("served"),
            shed: scope.counter("shed"),
            expired: scope.counter("expired"),
            degraded: scope.counter("degraded"),
            corrupt: scope.counter("corrupt"),
            connections: scope.counter("connections"),
            latency: scope.histogram("latency_us"),
        })
    }

    /// Allocates a call slot; `None` means the pending table is full.
    fn alloc(&self, st: CallState) -> Option<u32> {
        let ticket = self.free.lock().expect("free list").pop()?;
        *self.slots[ticket as usize].state.lock().expect("call slot") = Some(st);
        Some(ticket)
    }

    /// Answers a point lookup on the calling thread: one probe of the
    /// pinned index, no slot, no queue.
    fn lookup_inline(&self, entity: u64) -> ResponseBody {
        let fact_count = self.lookup.fact_count(EntityId(entity % self.num_entities)) as u64;
        self.served.inc();
        ResponseBody::LookupOk { entity, fact_count }
    }

    /// Fans one search out to every shard. Returns the ticket to wait on,
    /// or the (counted) shed response when no call slot is free.
    fn submit_search(
        &self,
        engine: &ShardEngine,
        query_seed: u64,
        k: u32,
        deadline_ticks: u64,
    ) -> std::result::Result<u32, ResponseBody> {
        let fan = self.parts.len() as u32;
        let Some(ticket) = self.alloc(CallState {
            query_seed,
            k,
            remaining: fan,
            fan,
            shed_shares: 0,
            expired_shares: 0,
            retry_hint_ticks: 0,
            hits: Vec::new(),
        }) else {
            self.shed.inc();
            return Err(ResponseBody::Shed { retry_after_micros: DOOR_SHED_RETRY_MICROS });
        };
        for shard in 0..fan as usize {
            if let SubmitOutcome::Shed { retry_after_ticks } =
                engine.try_submit(shard, ticket, deadline_ticks)
            {
                let slot = &self.slots[ticket as usize];
                let mut guard = slot.state.lock().expect("call slot");
                let st = guard.as_mut().expect("armed call");
                st.remaining -= 1;
                st.shed_shares += 1;
                st.retry_hint_ticks = st.retry_hint_ticks.max(retry_after_ticks);
                if st.remaining == 0 {
                    slot.cv.notify_all();
                }
            }
        }
        Ok(ticket)
    }

    /// Blocks until every share resolves, then builds the response and
    /// frees the slot.
    fn wait_call(&self, ticket: u32) -> ResponseBody {
        let slot = &self.slots[ticket as usize];
        let mut guard = slot.state.lock().expect("call slot");
        let mut waited = Duration::ZERO;
        while guard.as_ref().expect("armed call").remaining > 0 {
            if waited >= CALL_WAIT_CAP {
                // Engine wedged (a bug, not an expected state): leak the
                // slot on purpose — a late completion must not touch a
                // recycled call — and answer with a typed error.
                return ResponseBody::Error {
                    code: ErrorCode::Internal,
                    message: "call wait cap exceeded".into(),
                };
            }
            let step = Duration::from_millis(100);
            let (next, _) = slot.cv.wait_timeout(guard, step).expect("call wait");
            guard = next;
            waited += step;
        }
        let st = guard.take().expect("armed call");
        drop(guard);
        self.free.lock().expect("free list").push(ticket);

        if st.expired_shares > 0 {
            self.expired.inc();
            return ResponseBody::Expired;
        }
        if st.shed_shares == st.fan {
            self.shed.inc();
            return ResponseBody::Shed {
                retry_after_micros: st.retry_hint_ticks.max(DOOR_SHED_RETRY_MICROS),
            };
        }
        let mut hits = st.hits;
        hits.sort_by(saga_ann::Hit::best_first);
        hits.truncate(st.k as usize);
        let hits: Vec<WireHit> = hits.into_iter().map(WireHit::from).collect();
        self.served.inc();
        if st.shed_shares > 0 {
            self.degraded.inc();
            ResponseBody::Degraded { hits, shards_missing: st.shed_shares }
        } else {
            ResponseBody::SearchOk { hits }
        }
    }

    /// Executes one decoded request end to end.
    fn dispatch(&self, engine: &ShardEngine, clock: &dyn EngineClock, req: Request) -> Response {
        self.requests.inc();
        let arrival = clock.now_ticks();
        let deadline_ticks =
            if req.timeout_micros == 0 { u64::MAX } else { arrival + req.timeout_micros };
        let search = |query_seed, k| match self.submit_search(engine, query_seed, k, deadline_ticks)
        {
            Ok(ticket) => Pending::Search(ticket),
            Err(resp) => Pending::Ready(resp),
        };
        let collect = |p| match p {
            Pending::Ready(resp) => resp,
            Pending::Search(ticket) => self.wait_call(ticket),
        };
        let body = match req.body {
            RequestBody::Ping => self.pong(),
            RequestBody::Lookup { entity } => self.lookup_inline(entity),
            RequestBody::Search { query_seed, k } => collect(search(query_seed, k)),
            RequestBody::Batch(items) => {
                // Fan every search out before waiting on any, so batch items
                // coalesce across shards instead of executing serially.
                let pending: Vec<Pending> = items
                    .into_iter()
                    .map(|item| match item {
                        RequestBody::Ping => Pending::Ready(self.pong()),
                        RequestBody::Lookup { entity } => {
                            Pending::Ready(self.lookup_inline(entity))
                        }
                        RequestBody::Search { query_seed, k } => search(query_seed, k),
                        RequestBody::Batch(_) => Pending::Ready(ResponseBody::Error {
                            code: ErrorCode::BadRequest,
                            message: "nested batch".into(),
                        }),
                    })
                    .collect();
                ResponseBody::BatchOk(pending.into_iter().map(collect).collect())
            }
        };
        self.latency.record(clock.now_ticks().saturating_sub(arrival));
        Response { request_id: req.request_id, body }
    }

    /// Counters track logical operations, not frames; a ping is served
    /// work even though it never reaches the engine.
    fn pong(&self) -> ResponseBody {
        self.served.inc();
        ResponseBody::Pong
    }
}

impl BatchExecutor for NetService {
    fn execute(&self, shard: usize, jobs: &[Job]) {
        let part = &self.parts[shard];
        let mut scratch = part.state.lock().expect("shard scratch");
        // Gather the batch, scan the partition once for all of it, then hand
        // each call its share. A slot that is armed stays armed until its
        // last share resolves, so both passes skip the same (unarmed) jobs
        // and the n-th armed job is the n-th call of the batch.
        let batch = jobs.iter().filter_map(|j| {
            let guard = self.slots[j.ticket as usize].state.lock().expect("call slot");
            guard.as_ref().map(|st| (st.query_seed, (st.k as usize).min(MAX_K as usize)))
        });
        search_slot_batch(part, &mut scratch, batch);
        let mut call = 0;
        for j in jobs {
            let slot = &self.slots[j.ticket as usize];
            let mut guard = slot.state.lock().expect("call slot");
            let Some(st) = guard.as_mut() else { continue };
            st.hits.extend_from_slice(scratch.hits_of(call));
            call += 1;
            st.remaining -= 1;
            if st.remaining == 0 {
                slot.cv.notify_all();
            }
        }
    }

    fn expired(&self, _shard: usize, jobs: &[Job]) {
        for j in jobs {
            let slot = &self.slots[j.ticket as usize];
            let mut guard = slot.state.lock().expect("call slot");
            let Some(st) = guard.as_mut() else { continue };
            st.expired_shares += 1;
            st.remaining -= 1;
            if st.remaining == 0 {
                slot.cv.notify_all();
            }
        }
    }
}

/// Aggregate counters a server reports at shutdown.
#[derive(Debug, Clone, Copy, Default)]
pub struct NetServerStats {
    /// Frames decoded into requests.
    pub requests: u64,
    /// Successful responses (incl. degraded).
    pub served: u64,
    /// Shed responses.
    pub shed: u64,
    /// Expired responses.
    pub expired: u64,
    /// Degraded responses.
    pub degraded: u64,
    /// Frames rejected as corrupt.
    pub corrupt: u64,
    /// Connections accepted.
    pub connections: u64,
}

/// A running network server. Dropping without [`shutdown`](Self::shutdown)
/// aborts non-gracefully (threads detach); call `shutdown` for the drain.
pub struct NetServer {
    stop: Arc<AtomicBool>,
    accept_thread: Option<thread::JoinHandle<()>>,
    handlers: Arc<Mutex<Vec<thread::JoinHandle<()>>>>,
    engine: Arc<ShardEngine>,
    service: Arc<NetService>,
    local: String,
}

impl NetServer {
    /// Builds the world (synthetic KG + partitioned indexes), starts the
    /// shard engine and the acceptor thread, and returns the running
    /// server.
    pub fn start(acceptor: Box<dyn Acceptor>, cfg: NetServerConfig, registry: &Registry) -> Self {
        let service = NetService::build(&cfg, registry);
        let clock: Arc<dyn EngineClock> = Arc::new(MicrosClock::new());
        let engine = Arc::new(ShardEngine::start(
            cfg.shards,
            cfg.coalesce,
            cfg.shed,
            1_024,
            Arc::clone(&service) as Arc<dyn BatchExecutor>,
            Arc::clone(&clock),
        ));
        let stop = Arc::new(AtomicBool::new(false));
        let handlers: Arc<Mutex<Vec<thread::JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let local = acceptor.local();
        let accept_thread = {
            let stop = Arc::clone(&stop);
            let handlers = Arc::clone(&handlers);
            let service = Arc::clone(&service);
            let engine = Arc::clone(&engine);
            let clock = Arc::clone(&clock);
            let cfg = cfg.clone();
            thread::Builder::new()
                .name("saga-net-accept".into())
                .spawn(move || {
                    while !stop.load(Ordering::SeqCst) {
                        match acceptor.accept(Duration::from_millis(50)) {
                            Ok(Some(conn)) => {
                                service.connections.inc();
                                let stop = Arc::clone(&stop);
                                let service = Arc::clone(&service);
                                let engine = Arc::clone(&engine);
                                // Deadlines must be rebased onto the SAME
                                // clock the engine workers read, or skew
                                // between clocks silently expires (or
                                // immortalizes) every request.
                                let clock = Arc::clone(&clock);
                                let cfg = cfg.clone();
                                let handle = thread::Builder::new()
                                    .name("saga-net-conn".into())
                                    .spawn(move || {
                                        handle_conn(conn, &service, &engine, &*clock, &cfg, &stop)
                                    })
                                    .expect("spawn conn handler");
                                handlers.lock().expect("handler list").push(handle);
                            }
                            Ok(None) => {}
                            Err(_) => break,
                        }
                    }
                })
                .expect("spawn acceptor")
        };
        NetServer { stop, accept_thread: Some(accept_thread), handlers, engine, service, local }
    }

    /// Address clients dial (`host:port` for TCP, a label for mem links).
    pub fn local_addr(&self) -> &str {
        &self.local
    }

    /// Graceful drain: stop accepting, let handlers ack their in-flight
    /// requests, join everything, drain the engine queues.
    pub fn shutdown(mut self) -> NetServerStats {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        let handlers = std::mem::take(&mut *self.handlers.lock().expect("handler list"));
        for h in handlers {
            let _ = h.join();
        }
        let service = Arc::clone(&self.service);
        let NetServer { engine, .. } = self;
        match Arc::try_unwrap(engine) {
            Ok(engine) => {
                engine.shutdown();
            }
            Err(_) => {
                // A handler leaked its engine handle — nothing safe to do
                // beyond letting the workers keep draining.
            }
        }
        NetServerStats {
            requests: service.requests.value(),
            served: service.served.value(),
            shed: service.shed.value(),
            expired: service.expired.value(),
            degraded: service.degraded.value(),
            corrupt: service.corrupt.value(),
            connections: service.connections.value(),
        }
    }
}

/// In-process oracle for a search: the exact merged top-k the net server
/// must produce for `(cfg, query_seed, k)`, computed through the same
/// partition / search / merge path with no engine and no network. Parity
/// tests compare client-observed responses against this bit-for-bit.
pub fn oracle_search(cfg: &NetServerConfig, query_seed: u64, k: u32) -> Vec<WireHit> {
    let parts = build_partitions(cfg.shards, cfg.dim, cfg.vectors, cfg.seed);
    let k = (k as usize).min(MAX_K as usize);
    let mut hits: Vec<saga_ann::Hit> = Vec::new();
    for part in &parts {
        let mut scratch = part.state.lock().expect("shard scratch");
        search_slot_batch(part, &mut scratch, std::iter::once((query_seed, k)));
        hits.extend_from_slice(scratch.hits_of(0));
    }
    hits.sort_by(saga_ann::Hit::best_first);
    hits.truncate(k);
    hits.into_iter().map(WireHit::from).collect()
}

/// In-process oracle for a lookup: the fact count the net server must
/// report for `entity` under `cfg`.
pub fn oracle_lookup(cfg: &NetServerConfig, entity: u64) -> u64 {
    let synth = generate(&SynthConfig::tiny(cfg.seed));
    let lookup = PointLookupIndex::build(&synth.kg);
    let num_entities = (synth.kg.num_entities() as u64).max(1);
    lookup.fact_count(EntityId(entity % num_entities)) as u64
}

fn handle_conn(
    mut conn: Box<dyn FrameConn>,
    service: &NetService,
    engine: &ShardEngine,
    clock: &dyn EngineClock,
    cfg: &NetServerConfig,
    stop: &AtomicBool,
) {
    let mut idle = Duration::ZERO;
    // Every reply on this connection is encoded into this one buffer.
    let mut out = Vec::new();
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match conn.recv_frame(cfg.read_timeout) {
            Ok(None) => {
                idle += cfg.read_timeout;
                if idle >= cfg.idle_timeout {
                    return;
                }
            }
            Err(_) => return,
            Ok(Some(frame)) => {
                idle = Duration::ZERO;
                match Request::from_frame(&frame) {
                    Ok(req) => {
                        // Admission at the door: bound concurrently-served
                        // requests before any slot or queue is touched.
                        let admitted =
                            service.inflight.fetch_add(1, Ordering::SeqCst) < service.max_inflight;
                        let resp = if admitted {
                            service.dispatch(engine, clock, req)
                        } else {
                            service.shed.inc();
                            Response {
                                request_id: req.request_id,
                                body: ResponseBody::Shed {
                                    retry_after_micros: DOOR_SHED_RETRY_MICROS,
                                },
                            }
                        };
                        service.inflight.fetch_sub(1, Ordering::SeqCst);
                        if resp.encode_into(&mut out).is_err() || conn.send_frame(&out).is_err() {
                            return;
                        }
                    }
                    Err(_) => {
                        // Hostile or corrupt frame: answer typed, then drop
                        // the connection — framing sync is gone.
                        service.corrupt.inc();
                        let resp = Response {
                            request_id: 0,
                            body: ResponseBody::Error {
                                code: ErrorCode::BadRequest,
                                message: "corrupt frame".into(),
                            },
                        };
                        if resp.encode_into(&mut out).is_ok() {
                            let _ = conn.send_frame(&out);
                        }
                        return;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::net::transport::{MemListener, MemTransport, Transport};
    use crate::net::wire::peek_request_id;

    fn start_mem_server(seed: u64) -> (NetServer, MemListener) {
        start_mem_server_with(NetServerConfig::small(seed))
    }

    fn start_mem_server_with(cfg: NetServerConfig) -> (NetServer, MemListener) {
        let listener = MemListener::new();
        let registry = Registry::new();
        let server = NetServer::start(Box::new(listener.clone()), cfg, &registry);
        (server, listener)
    }

    fn roundtrip(conn: &mut Box<dyn FrameConn>, req: Request) -> Response {
        conn.send_frame(&req.to_frame().unwrap()).unwrap();
        loop {
            let frame = conn.recv_frame(Duration::from_secs(5)).unwrap().unwrap();
            if peek_request_id(&frame).unwrap() == req.request_id {
                return Response::from_frame(&frame).unwrap();
            }
        }
    }

    #[test]
    fn ping_lookup_search_and_batch_round_trip() {
        let (server, listener) = start_mem_server(11);
        let transport = MemTransport::new(listener);
        let mut conn = transport.connect().unwrap();

        let pong = roundtrip(
            &mut conn,
            Request { request_id: 1, timeout_micros: 0, body: RequestBody::Ping },
        );
        assert_eq!(pong.body, ResponseBody::Pong);

        let lk = roundtrip(
            &mut conn,
            Request { request_id: 2, timeout_micros: 0, body: RequestBody::Lookup { entity: 5 } },
        );
        assert!(matches!(lk.body, ResponseBody::LookupOk { entity: 5, .. }), "{lk:?}");

        let sr = roundtrip(
            &mut conn,
            Request {
                request_id: 3,
                timeout_micros: 0,
                body: RequestBody::Search { query_seed: 99, k: 4 },
            },
        );
        let ResponseBody::SearchOk { hits } = sr.body else { panic!("{sr:?}") };
        assert_eq!(hits.len(), 4);
        for w in hits.windows(2) {
            assert!(w[0].score >= w[1].score);
        }

        let bt = roundtrip(
            &mut conn,
            Request {
                request_id: 4,
                timeout_micros: 0,
                body: RequestBody::Batch(vec![
                    RequestBody::Lookup { entity: 1 },
                    RequestBody::Search { query_seed: 99, k: 2 },
                    RequestBody::Ping,
                ]),
            },
        );
        let ResponseBody::BatchOk(items) = bt.body else { panic!("{bt:?}") };
        assert_eq!(items.len(), 3);
        assert!(matches!(items[0], ResponseBody::LookupOk { .. }));
        assert!(matches!(items[1], ResponseBody::SearchOk { .. }));
        assert_eq!(items[2], ResponseBody::Pong);

        let stats = server.shutdown();
        assert_eq!(stats.requests, 4);
        assert_eq!(stats.corrupt, 0);
        assert!(stats.served >= 4);
    }

    #[test]
    fn corrupt_frame_gets_typed_error_then_close() {
        let (server, listener) = start_mem_server(12);
        let transport = MemTransport::new(listener);
        let mut conn = transport.connect().unwrap();
        let mut frame = Request { request_id: 9, timeout_micros: 0, body: RequestBody::Ping }
            .to_frame()
            .unwrap();
        let last = frame.len() - 1;
        frame[last] ^= 0x40;
        conn.send_frame(&frame).unwrap();
        let resp = Response::from_frame(&conn.recv_frame(Duration::from_secs(5)).unwrap().unwrap())
            .unwrap();
        assert!(
            matches!(resp.body, ResponseBody::Error { code: ErrorCode::BadRequest, .. }),
            "{resp:?}"
        );
        let stats = server.shutdown();
        assert_eq!(stats.corrupt, 1);
    }

    #[test]
    fn expired_deadline_is_reported_not_scored() {
        // 1 µs budget: by the time the share reaches the worker the
        // deadline has passed, so the reply must be Expired and the obs
        // counter must move.
        let (server, listener) = start_mem_server(13);
        let transport = MemTransport::new(listener);
        let mut conn = transport.connect().unwrap();
        let resp = roundtrip(
            &mut conn,
            Request {
                request_id: 5,
                timeout_micros: 1,
                body: RequestBody::Search { query_seed: 3, k: 4 },
            },
        );
        assert_eq!(resp.body, ResponseBody::Expired);
        let stats = server.shutdown();
        assert_eq!(stats.expired, 1);
    }

    #[test]
    fn lookups_never_touch_a_shard_queue() {
        // A zero queue cap makes every shard refuse every job. Searches are
        // shed; lookups — alone or as batch items — are still answered, and
        // bit-identically to the oracle, because they never reach a queue.
        let cfg = NetServerConfig {
            shed: ShedPolicy { queue_cap: 0, ..ShedPolicy::unbounded() },
            ..NetServerConfig::small(15)
        };
        let (server, listener) = start_mem_server_with(cfg.clone());
        let mut conn = MemTransport::new(listener).connect().unwrap();
        let lookup_ok =
            |entity| ResponseBody::LookupOk { entity, fact_count: oracle_lookup(&cfg, entity) };

        let sr = roundtrip(
            &mut conn,
            Request {
                request_id: 1,
                timeout_micros: 0,
                body: RequestBody::Search { query_seed: 3, k: 4 },
            },
        );
        assert!(matches!(sr.body, ResponseBody::Shed { .. }), "{sr:?}");

        // A 1 µs deadline cannot expire a lookup either.
        let lk = roundtrip(
            &mut conn,
            Request { request_id: 2, timeout_micros: 1, body: RequestBody::Lookup { entity: 5 } },
        );
        assert_eq!(lk.body, lookup_ok(5));

        let bt = roundtrip(
            &mut conn,
            Request {
                request_id: 3,
                timeout_micros: 0,
                body: RequestBody::Batch(vec![
                    RequestBody::Lookup { entity: 9 },
                    RequestBody::Search { query_seed: 3, k: 4 },
                    RequestBody::Lookup { entity: u64::MAX },
                ]),
            },
        );
        let ResponseBody::BatchOk(items) = bt.body else { panic!("{bt:?}") };
        assert_eq!(items[0], lookup_ok(9));
        assert!(matches!(items[1], ResponseBody::Shed { .. }), "{items:?}");
        assert_eq!(items[2], lookup_ok(u64::MAX));

        let stats = server.shutdown();
        assert_eq!((stats.served, stats.shed, stats.expired), (3, 2, 0));
    }

    #[test]
    fn batch_overflowing_the_slot_table_counts_every_item() {
        // At `max_inflight` 4 the slot table is at its 256-call floor, and
        // a batch frees no slot until every item is fanned out, so 300
        // searches leave 44 refused by the table. Every logical op must
        // land in exactly one counter.
        let (server, listener) = start_mem_server_with(NetServerConfig {
            max_inflight: 4,
            ..NetServerConfig::small(16)
        });
        let mut conn = MemTransport::new(listener).connect().unwrap();
        let items: Vec<RequestBody> =
            (0..300).map(|i| RequestBody::Search { query_seed: i, k: 1 }).collect();
        let bt = roundtrip(
            &mut conn,
            Request { request_id: 1, timeout_micros: 0, body: RequestBody::Batch(items) },
        );
        let ResponseBody::BatchOk(replies) = bt.body else { panic!("{bt:?}") };
        let shed = replies.iter().filter(|r| matches!(r, ResponseBody::Shed { .. })).count();
        assert_eq!(shed, 44);
        let stats = server.shutdown();
        assert_eq!(stats.shed, 44, "slot-table refusals inside a batch must be counted");
        assert_eq!(stats.served + stats.shed + stats.expired, 300);
    }

    #[test]
    fn graceful_shutdown_drains_in_flight() {
        let (server, listener) = start_mem_server(14);
        let transport = MemTransport::new(listener);
        let mut conn = transport.connect().unwrap();
        let resp = roundtrip(
            &mut conn,
            Request {
                request_id: 6,
                timeout_micros: 0,
                body: RequestBody::Search { query_seed: 1, k: 2 },
            },
        );
        assert!(matches!(resp.body, ResponseBody::SearchOk { .. }));
        let stats = server.shutdown();
        assert_eq!(stats.connections, 1);
        // Shutdown with zero pending work must not lose the served count.
        assert!(stats.served >= 1);
    }
}
