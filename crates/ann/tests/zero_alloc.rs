//! Asserts the acceptance criterion of the serving-path rework: after
//! warm-up, a query allocates nothing — not in the scoring kernels, not in
//! top-k selection, not in the HNSW beam search.
//!
//! A counting global allocator is armed around the measured section only;
//! the queries replayed under measurement are the same ones used for
//! warm-up, so every scratch buffer has reached steady-state capacity. The
//! counter is process-wide, so the tests here take turns on [`GATE`].

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use saga_ann::{
    FlatIndex, FlatScratch, Hit, HnswIndex, HnswParams, Metric, PqConfig, PqIndex, PqScratch,
    QuantScratch, QuantizedTable, SearchScratch,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

struct CountingAlloc;

static GATE: Mutex<()> = Mutex::new(());
static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

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
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` with allocation counting armed, returning how many allocations
/// it performed.
fn count_allocs(f: impl FnOnce()) -> u64 {
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    f();
    ARMED.store(false, Ordering::SeqCst);
    ALLOCS.load(Ordering::SeqCst)
}

#[test]
fn warm_query_path_performs_no_allocation() {
    let _turn = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let dim = 32;
    let n = 1_000;
    let mut rng = ChaCha8Rng::seed_from_u64(41);
    let vecs: Vec<Vec<f32>> =
        (0..n).map(|_| (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect()).collect();
    let queries: Vec<Vec<f32>> =
        (0..25).map(|_| (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect()).collect();
    let k = 10;

    let mut flat = FlatIndex::new(dim, Metric::Cosine);
    let mut hnsw = HnswIndex::new(dim, Metric::Cosine, HnswParams::default());
    for (i, v) in vecs.iter().enumerate() {
        flat.add(i as u64, v);
        hnsw.add(i as u64, v);
    }

    let mut flat_scratch = FlatScratch::new();
    let mut hnsw_scratch = SearchScratch::new();
    let mut out: Vec<Hit> = Vec::new();

    // Warm-up: grow every buffer to steady state on the exact query set
    // measured below.
    for q in &queries {
        flat.search_into(q, k, &mut flat_scratch, &mut out);
        hnsw.search_ef_into(q, k, 64, &mut hnsw_scratch, &mut out);
    }

    let flat_allocs = count_allocs(|| {
        for q in &queries {
            flat.search_into(q, k, &mut flat_scratch, &mut out);
        }
    });
    assert_eq!(flat_allocs, 0, "flat warm path allocated {flat_allocs} times");
    assert_eq!(out.len(), k);

    let hnsw_allocs = count_allocs(|| {
        for q in &queries {
            hnsw.search_ef_into(q, k, 64, &mut hnsw_scratch, &mut out);
        }
    });
    assert_eq!(hnsw_allocs, 0, "hnsw warm path allocated {hnsw_allocs} times");
    assert_eq!(out.len(), k);
}

/// Observability must be free on the serving path: a warm query loop with
/// pre-resolved obs handles — per-query latency recorded into a histogram,
/// a query counter bumped — still allocates nothing. Counter shards are
/// const-init thread-locals and histogram buckets are fixed atomics, so
/// arming instrumentation adds zero allocations.
#[test]
fn warm_instrumented_query_path_performs_no_allocation() {
    let _turn = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let dim = 32;
    let n = 1_000;
    let mut rng = ChaCha8Rng::seed_from_u64(47);
    let vecs: Vec<Vec<f32>> =
        (0..n).map(|_| (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect()).collect();
    let queries: Vec<Vec<f32>> =
        (0..25).map(|_| (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect()).collect();
    let k = 10;

    let mut flat = FlatIndex::new(dim, Metric::Cosine);
    for (i, v) in vecs.iter().enumerate() {
        flat.add(i as u64, v);
    }

    let registry = saga_core::obs::Registry::new();
    let scope = registry.scope("ann").child("search");
    let latency = scope.histogram("query_ticks");
    let served = scope.counter("queries");
    let clock = scope.clock();

    let mut scratch = FlatScratch::new();
    let mut out: Vec<Hit> = Vec::new();
    // Warm-up: buffers to steady state, thread-local shard slot assigned.
    for q in &queries {
        let start = clock.now_ticks();
        flat.search_into(q, k, &mut scratch, &mut out);
        latency.record(clock.now_ticks().saturating_sub(start));
        served.inc();
    }

    let allocs = count_allocs(|| {
        for q in &queries {
            let start = clock.now_ticks();
            flat.search_into(q, k, &mut scratch, &mut out);
            latency.record(clock.now_ticks().saturating_sub(start));
            served.inc();
        }
    });
    assert_eq!(allocs, 0, "instrumented warm path allocated {allocs} times");
    assert_eq!(out.len(), k);
    let snap = registry.snapshot();
    assert_eq!(snap.counter("ann/search/queries"), 2 * queries.len() as u64);
    let hist = snap.histogram("ann/search/query_ticks").expect("latency recorded");
    assert_eq!(hist.count(), 2 * queries.len() as u64);
}

/// Runtime kernel dispatch must stay off the warm path: backend selection
/// (env read, CPU-feature detection, `OnceLock` resolution) happens once at
/// first kernel call, so a warm query loop allocates nothing — under every
/// backend available on this CPU, not just the auto-selected one. Forcing a
/// backend swaps one static pointer, so the per-call cost is a predictable
/// indirect call with no allocation on either side of the swap. The same
/// holds for the batch shape: a warm 8-query `search_block_into` — query
/// tile, strip walk, one heap per query — allocates nothing.
#[test]
fn warm_dispatched_kernels_perform_no_allocation() {
    let _turn = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let dim = 32;
    let n = 1_000;
    let mut rng = ChaCha8Rng::seed_from_u64(53);
    let vecs: Vec<Vec<f32>> =
        (0..n).map(|_| (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect()).collect();
    let queries: Vec<Vec<f32>> =
        (0..25).map(|_| (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect()).collect();
    let k = 10;

    let mut flat = FlatIndex::new(dim, Metric::Cosine);
    for (i, v) in vecs.iter().enumerate() {
        flat.add(i as u64, v);
    }
    let block: Vec<f32> = vecs.iter().flatten().copied().collect();
    let query_block: Vec<f32> = queries[..8].iter().flatten().copied().collect();

    // Resolve the backend list outside the measured sections (it allocates
    // a Vec); forcing itself is a pointer store.
    let backends: Vec<&'static str> =
        saga_core::kernels::available_backends().iter().map(|be| be.name).collect();
    let mut scratch = FlatScratch::new();
    let mut out: Vec<Hit> = Vec::new();
    let mut scores: Vec<f32> = Vec::new();
    let mut block_out: Vec<Hit> = Vec::new();

    for name in &backends {
        assert!(saga_core::kernels::force_backend(name), "backend {name} not forceable");
        // Warm-up under this backend: scratch to steady state, dispatch
        // (and any one-time init) resolved.
        for q in &queries {
            flat.search_into(q, k, &mut scratch, &mut out);
        }
        saga_core::kernels::dot_batch(&queries[0], &block, &mut scores);
        flat.search_block_into(&query_block, k, &mut scratch, &mut block_out);

        let allocs = count_allocs(|| {
            for q in &queries {
                flat.search_into(q, k, &mut scratch, &mut out);
                saga_core::kernels::dot_batch(q, &block, &mut scores);
            }
            flat.search_block_into(&query_block, k, &mut scratch, &mut block_out);
        });
        assert_eq!(allocs, 0, "backend {name}: warm dispatched path allocated {allocs} times");
        assert_eq!(out.len(), k);
        assert_eq!(scores.len(), n);
        assert_eq!(block_out.len(), 8 * k);
    }
    assert!(saga_core::kernels::force_backend("auto"));
}

/// The quantized serving path scores raw i8 rows through the integer
/// kernels; after warm-up it must allocate nothing for any metric, and the
/// PQ ADC path must reuse its lookup-table scratch the same way.
#[test]
fn warm_quantized_paths_perform_no_allocation() {
    let _turn = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let dim = 32;
    let n = 1_000;
    let mut rng = ChaCha8Rng::seed_from_u64(43);
    let vecs: Vec<Vec<f32>> =
        (0..n).map(|_| (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect()).collect();
    let queries: Vec<Vec<f32>> =
        (0..25).map(|_| (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect()).collect();
    let k = 10;

    let items: Vec<(u64, Vec<f32>)> =
        vecs.iter().enumerate().map(|(i, v)| (i as u64, v.clone())).collect();
    let table = QuantizedTable::build(dim, items.iter().cloned());
    let pq = PqIndex::build(&items, &PqConfig::default());

    let mut quant_scratch = QuantScratch::new();
    let mut pq_scratch = PqScratch::new();
    let mut out: Vec<Hit> = Vec::new();

    for metric in [Metric::Dot, Metric::Cosine, Metric::Euclidean] {
        // Warm-up on the exact query set measured below.
        for q in &queries {
            table.search_into(metric, q, k, &mut quant_scratch, &mut out);
        }
        let quant_allocs = count_allocs(|| {
            for q in &queries {
                table.search_into(metric, q, k, &mut quant_scratch, &mut out);
            }
        });
        assert_eq!(quant_allocs, 0, "{metric:?} warm quantized path allocated {quant_allocs}");
        assert_eq!(out.len(), k);
    }

    for q in &queries {
        pq.search_into(q, k, &mut pq_scratch, &mut out);
    }
    let pq_allocs = count_allocs(|| {
        for q in &queries {
            pq.search_into(q, k, &mut pq_scratch, &mut out);
        }
    });
    assert_eq!(pq_allocs, 0, "warm pq path allocated {pq_allocs} times");
    assert_eq!(out.len(), k);
}
