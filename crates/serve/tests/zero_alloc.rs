//! Extends the zero-allocation gate from single queries (crates/ann's
//! `zero_alloc.rs`) to the full coalesced serving path: submit → shard
//! queue → coalescing worker → batch executor running real flat-index
//! searches with within-batch request dedup. After warm-up, a whole wave of
//! requests flows through the engine without a single allocation on any
//! thread — the queue, the worker's batch buffer, the executor's scratch
//! and memo tables all sit at steady-state capacity.
//!
//! And over the wire: a warm `SagaClient` → loopback TCP → `NetServer` →
//! `SagaClient` point lookup allocates exactly twice, process-wide — the
//! owned frame each side's `recv_frame` returns. Both encodes go into
//! reused buffers and the lookup is answered on the connection thread.
//!
//! The counter is process-wide, so the tests here take turns on [`GATE`].

use saga_ann::{FlatIndex, FlatScratch, Hit, Metric};
use saga_core::obs::Registry;
use saga_serve::net::transport::{Acceptor, TcpAcceptor, TcpTransport};
use saga_serve::net::{oracle_lookup, ResponseBody};
use saga_serve::{
    BatchExecutor, ClientConfig, CoalescePolicy, Job, MicrosClock, NetServer, NetServerConfig,
    SagaClient, ShardEngine, ShedPolicy,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
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

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn synth_vec(seed: u64, dim: usize) -> Vec<f32> {
    let mut s = seed;
    (0..dim).map(|_| (splitmix(&mut s) >> 40) as f32 / (1u64 << 23) as f32 - 1.0).collect()
}

/// Mirrors the serve executor's hot loop: per-shard scratch behind a mutex,
/// results accumulated into a reused hit buffer, duplicate queries within a
/// batch served from the memo instead of re-searched.
struct BatchState {
    scratch: FlatScratch,
    out: Vec<Hit>,
    /// Within-batch memo: (query id, offset of its hits in `hits`).
    seen: Vec<(u32, u32)>,
    hits: Vec<Hit>,
}

struct AnnExecutor {
    index: FlatIndex,
    queries: Vec<Vec<f32>>,
    k: usize,
    state: Mutex<BatchState>,
    done: AtomicU32,
}

impl BatchExecutor for AnnExecutor {
    fn execute(&self, _shard: usize, jobs: &[Job]) {
        let mut st = self.state.lock().expect("batch state");
        let st = &mut *st;
        st.seen.clear();
        st.hits.clear();
        for j in jobs {
            let qid = j.ticket % self.queries.len() as u32;
            if !st.seen.iter().any(|&(q, _)| q == qid) {
                self.index.search_into(
                    &self.queries[qid as usize],
                    self.k,
                    &mut st.scratch,
                    &mut st.out,
                );
                let start = st.hits.len() as u32;
                st.hits.extend_from_slice(&st.out);
                st.seen.push((qid, start));
            }
        }
        self.done.fetch_add(jobs.len() as u32, Ordering::Release);
    }
}

#[test]
fn warm_coalesced_batch_path_performs_no_allocation() {
    let _turn = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let dim = 24;
    let n = 400;
    let k = 6;
    let mut index = FlatIndex::new(dim, Metric::Cosine);
    for i in 0..n {
        index.add(i, &synth_vec(0x5EED ^ i, dim));
    }
    // A small query pool so coalesced batches contain duplicates and the
    // dedup memo path runs under the allocator gate too.
    let queries: Vec<Vec<f32>> = (0..8).map(|i| synth_vec(0xFACE ^ i, dim)).collect();
    let ex = Arc::new(AnnExecutor {
        index,
        queries,
        k,
        state: Mutex::new(BatchState {
            scratch: FlatScratch::new(),
            out: Vec::new(),
            seen: Vec::new(),
            hits: Vec::new(),
        }),
        done: AtomicU32::new(0),
    });
    let engine = ShardEngine::start(
        1,
        CoalescePolicy { max_batch: 16, max_wait_ticks: 300 },
        ShedPolicy::unbounded(),
        1_024,
        Arc::clone(&ex) as Arc<dyn BatchExecutor>,
        Arc::new(MicrosClock::new()),
    );

    let wave = |base: u32, count: u32| {
        let target = ex.done.load(Ordering::Acquire) + count;
        for t in 0..count {
            assert!(engine.submit(0, base + t), "unbounded policy must admit");
        }
        while ex.done.load(Ordering::Acquire) < target {
            std::thread::yield_now();
        }
    };

    // Warm-up: queue, batch buffer, scratch, memo and hit buffers all grow
    // to their high-water capacity.
    for w in 0..3 {
        wave(w * 64, 64);
    }

    let allocs = count_allocs(|| {
        wave(1_000, 64);
        wave(2_000, 64);
    });
    assert_eq!(allocs, 0, "warm coalesced serving path allocated {allocs} times");

    let stats = engine.shutdown();
    assert_eq!(stats.served, 5 * 64);
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
