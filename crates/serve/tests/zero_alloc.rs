//! Extends the zero-allocation gate from single queries (crates/ann's
//! `zero_alloc.rs`) to the full coalesced serving path: submit → shard
//! queue → coalescing worker → `ShardedService` running real flat-index
//! block scans with within-batch request dedup. After warm-up, a whole wave
//! of requests flows through the engine without a single allocation on any
//! thread — the queue, the worker's batch buffer, and the executor's call
//! list, query block, heaps and hit buffer all sit at steady-state capacity.
//!
//! And over the wire: a warm `SagaClient` → loopback TCP → `NetServer` →
//! `SagaClient` point lookup allocates exactly twice, process-wide — the
//! owned frame each side's `recv_frame` returns. Both encodes go into
//! reused buffers and the lookup is answered on the connection thread. A
//! warm 8-search `Batch` call allocates what it did before its searches
//! shared a scan — 30 times — and not once more.
//!
//! The counter is process-wide, so the tests here take turns on [`GATE`].

use saga_core::obs::Registry;
use saga_core::synth::{generate, SynthConfig};
use saga_core::trace::{Request, RequestKind};
use saga_graph::PointLookupIndex;
use saga_serve::net::transport::{Acceptor, TcpAcceptor, TcpTransport};
use saga_serve::net::{oracle_lookup, oracle_search, RequestBody, ResponseBody};
use saga_serve::server::ServiceConfig;
use saga_serve::{
    BatchExecutor, ClientConfig, CoalescePolicy, EngineClock, IndexKind, MicrosClock, NetServer,
    NetServerConfig, SagaClient, ShardEngine, ShardedService, ShedPolicy, SlotBoard,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

struct CountingAlloc;

static GATE: Mutex<()> = Mutex::new(());
static ARMED: AtomicBool = AtomicBool::new(false);
/// Allocator requests while armed: allocations and reallocations.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// The reallocations among them.
static REALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            REALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn count_allocs(f: impl FnOnce()) -> u64 {
    ALLOCS.store(0, Ordering::SeqCst);
    REALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    f();
    ARMED.store(false, Ordering::SeqCst);
    ALLOCS.load(Ordering::SeqCst)
}

#[test]
fn warm_coalesced_batch_path_performs_no_allocation() {
    let _turn = GATE.lock().unwrap_or_else(|e| e.into_inner());
    const WAVE: u32 = 64;
    // A pool of 8 query seeds, so coalesced batches contain repeats and the
    // distinct-seed gather runs under the allocator gate too.
    let trace: Arc<Vec<Request>> = Arc::new(
        (0..5 * WAVE)
            .map(|id| Request {
                id,
                kind: RequestKind::Search { query_seed: 0xFACE ^ u64::from(id % 8) },
                arrival_ticks: 0,
            })
            .collect(),
    );
    let synth = generate(&SynthConfig::tiny(11));
    let board = Arc::new(SlotBoard::new(trace.len()));
    let clock: Arc<dyn EngineClock> = Arc::new(MicrosClock::new());
    let service = ShardedService::build(
        ServiceConfig {
            kind: IndexKind::Flat,
            shards: 1,
            dim: 24,
            vectors: 400,
            k: 6,
            seed: 0x5EED,
            capture: false,
            brownout: None,
        },
        Arc::new(PointLookupIndex::build(&synth.kg)),
        synth.kg.num_entities(),
        trace,
        Arc::clone(&board),
        Arc::clone(&clock),
        &Registry::new(),
    );
    let engine = ShardEngine::start(
        1,
        CoalescePolicy { max_batch: 16, max_wait_ticks: 300 },
        ShedPolicy::unbounded(),
        1_024,
        Arc::clone(&service) as Arc<dyn BatchExecutor>,
        clock,
    );

    let wave = |w: u32| {
        for t in w * WAVE..(w + 1) * WAVE {
            board.arm(t, 1, 0);
            assert!(engine.submit(0, t), "unbounded policy must admit");
        }
        for t in w * WAVE..(w + 1) * WAVE {
            while !board.is_done(t) {
                std::thread::yield_now();
            }
        }
    };

    // Warm-up: queue, batch buffer, call list, query block, heaps and hit
    // buffer all grow to their high-water capacity.
    for w in 0..3 {
        wave(w);
    }

    let allocs = count_allocs(|| {
        wave(3);
        wave(4);
    });
    assert_eq!(allocs, 0, "warm coalesced serving path allocated {allocs} times");
    assert!(service.dedup_count() > 0, "no batch carried a repeated query");

    let stats = engine.shutdown();
    assert_eq!(stats.served, u64::from(5 * WAVE));
    assert_eq!(stats.shed, 0);
    assert!(stats.batches < stats.served, "coalescing never batched");
}

#[test]
fn warm_lookup_over_tcp_allocates_only_the_two_received_frames() {
    let _turn = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = NetServerConfig::small(11);
    let acceptor = TcpAcceptor::bind("127.0.0.1:0").expect("bind loopback");
    let addr = acceptor.local();
    let server = NetServer::start(Box::new(acceptor), cfg.clone(), &Registry::new());
    let client = SagaClient::new(Arc::new(TcpTransport::new(&addr)), ClientConfig::default());

    // Warm-up: the pooled connection, both frame buffers, the breaker entry.
    // The first replies are also the oracle check on this server.
    for entity in 0..32u64 {
        let want = ResponseBody::LookupOk { entity, fact_count: oracle_lookup(&cfg, entity) };
        assert_eq!(client.lookup(entity).expect("lookup"), want);
    }

    const N: u64 = 2_000;
    let mut answered = 0u64;
    let allocs = count_allocs(|| {
        for entity in 0..N {
            if matches!(client.lookup(entity), Ok(ResponseBody::LookupOk { entity: e, .. }) if e == entity)
            {
                answered += 1;
            }
        }
    });
    let reallocs = REALLOCS.load(Ordering::SeqCst);
    assert_eq!(answered, N, "a warm lookup failed");
    assert_eq!(reallocs, 0, "a frame buffer regrew on the warm path");
    assert_eq!(
        allocs,
        2 * N,
        "a warm lookup must allocate its two received frames and nothing else"
    );

    assert_eq!(client.stats().retries, 0);
    drop(client);
    let stats = server.shutdown();
    assert_eq!((stats.served, stats.shed, stats.connections), (32 + N, 0, 1));
}

#[test]
fn warm_search_batch_over_tcp_allocates_no_more_than_before_the_shared_scan() {
    let _turn = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = NetServerConfig::small(11);
    let acceptor = TcpAcceptor::bind("127.0.0.1:0").expect("bind loopback");
    let addr = acceptor.local();
    let server = NetServer::start(Box::new(acceptor), cfg.clone(), &Registry::new());
    let client = SagaClient::new(Arc::new(TcpTransport::new(&addr)), ClientConfig::default());
    let batch = |call: u64| -> Vec<RequestBody> {
        (0..8).map(|i| RequestBody::Search { query_seed: call * 8 + i, k: 10 }).collect()
    };

    // Warm-up: the pooled connection, both frame buffers, both shards'
    // scratch. The first reply is also the oracle check on this server.
    for call in 0..16 {
        let reply = client.batch(batch(call)).expect("batch");
        if call == 0 {
            let want = (0..8)
                .map(|seed| ResponseBody::SearchOk { hits: oracle_search(&cfg, seed, 10) })
                .collect();
            assert_eq!(reply, ResponseBody::BatchOk(want));
        }
    }

    const N: u64 = 200;
    let mut answered = 0u64;
    let allocs = count_allocs(|| {
        for call in 16..16 + N {
            if let Ok(ResponseBody::BatchOk(items)) = client.batch(batch(call)) {
                let full = |r: &ResponseBody| matches!(r, ResponseBody::SearchOk { hits } if hits.len() == 10);
                answered += u64::from(items.len() == 8 && items.iter().all(full));
            }
        }
    });
    assert_eq!(answered, N, "a warm batch call failed");
    // The request `Vec` the call takes by value is inside the count, as it
    // is inside `perf-ledger`'s `allocs_per_op`.
    assert!(allocs <= 30 * N, "{allocs} allocations for {N} 8-search batch calls");

    assert_eq!(client.stats().retries, 0);
    drop(client);
    let stats = server.shutdown();
    assert_eq!((stats.served, stats.shed, stats.connections), (8 * (16 + N), 0, 1));
}
