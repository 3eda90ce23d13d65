//! Exact brute-force k-NN index: the recall=1.0 baseline the HNSW index is
//! benchmarked against (experiment E3), and the scan under every coalesced
//! search batch of the serving tier.
//!
//! One entry point does the work, [`FlatIndex::search_block_into`]: a block
//! of queries against the slab, scanned **once per block**, not once per
//! query. [`FlatIndex::search_into`] is its one-query case and
//! [`FlatIndex::search_batch`] feeds it blocks.
//!
//! - **Stored row norms.** `‖row‖` is kept beside the slab (maintained by
//!   `add` / `upsert`), so a cosine scan is a dot product and one multiply + divide per pair instead
//!   of recomputing every row's norm — half the FMAs — on every query.
//! - **Strip walk.** The slab is walked in row strips sized to stay in L1
//!   (`STRIP_BYTES`); every query tile of the block
//!   ([`saga_core::kernels::dot_tile`]) passes over a strip while it is
//!   resident, so a row comes from memory once per block.
//! - **Threshold-first selection.** Each query keeps a bounded heap of its
//!   `k` best. A strip's scores are compared against the worst kept score
//!   first; only the rare survivor pays the tombstone check and the exact
//!   [`Hit::best_first`] comparison.
//!
//! A hit's score bits are a function of (query, row, kernel backend) only —
//! the kernels' per-pair invariant — and selection is a total order, so a
//! query returns the same bytes alone, in any block, at any position.
//! The path is allocation-free after warm-up, and lookups by id are O(1)
//! through a maintained position map.

use crate::vector::Metric;
use saga_core::kernels;
use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};

/// A scored search hit. `id` is caller-assigned (typically an entity id).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hit {
    /// Identifier.
    pub id: u64,
    /// Score; higher is better.
    pub score: f32,
}

impl Hit {
    /// The one order of search results: higher score first (by
    /// `f32::total_cmp`, so `+0.0` outranks `-0.0` and NaNs have a place),
    /// then smaller id. Selection inside an index, the final sort and every
    /// cross-shard merge use it, which is what makes a sharded top-k equal
    /// the unsharded one.
    pub fn best_first(a: &Hit, b: &Hit) -> Ordering {
        b.score.total_cmp(&a.score).then(a.id.cmp(&b.id))
    }
}

/// Heap entry ordered so the *worst* hit (last by [`Hit::best_first`]) is
/// the maximum: a `BinaryHeap<WorstFirst>` of size k keeps the k best hits
/// with the eviction candidate on top. Shared with the quantized and PQ
/// tables so their scratch types can own a selection heap too.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WorstFirst(Hit);

impl Ord for WorstFirst {
    fn cmp(&self, other: &Self) -> Ordering {
        Hit::best_first(&self.0, &other.0)
    }
}
impl PartialOrd for WorstFirst {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl PartialEq for WorstFirst {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for WorstFirst {}

/// Offers `hit` to a heap bounded at `k > 0` entries: kept while there is
/// room, otherwise only by evicting a worse hit.
#[inline]
fn offer(heap: &mut BinaryHeap<WorstFirst>, k: usize, hit: Hit) {
    if heap.len() < k {
        heap.push(WorstFirst(hit));
    } else if let Some(mut worst) = heap.peek_mut() {
        if WorstFirst(hit) < *worst {
            *worst = WorstFirst(hit);
        }
    }
}

/// Empties `heap` onto the end of `out`, best first.
fn drain_best_first(heap: &mut BinaryHeap<WorstFirst>, out: &mut Vec<Hit>) {
    let start = out.len();
    out.extend(heap.drain().map(|w| w.0));
    out[start..].sort_unstable_by(Hit::best_first);
}

/// Bounded-heap top-k selection: keeps the k best hits from `hits` in
/// `out`, in [`Hit::best_first`] order — identical to a full sort followed
/// by `truncate(k)`, in O(N + k log k). `heap` is caller-owned scratch so
/// steady-state selection allocates nothing.
pub(crate) fn select_top_k_into(
    heap: &mut BinaryHeap<WorstFirst>,
    hits: impl Iterator<Item = Hit>,
    k: usize,
    out: &mut Vec<Hit>,
) {
    out.clear();
    heap.clear();
    if k == 0 {
        return;
    }
    for h in hits {
        offer(heap, k, h);
    }
    drain_best_first(heap, out);
}

/// Queries scanned together: the slab is walked once per this many queries.
/// Four query tiles keep the block's queries (16 × dim floats) and one
/// strip's scores beside the strip in L1.
const QUERY_BLOCK: usize = 4 * kernels::QUERY_TILE;

/// Bytes of slab per row strip: small enough that the strip, the query
/// block and the strip's scores fit a 32 KiB L1 together.
const STRIP_BYTES: usize = 16 * 1024;

/// Reusable per-thread state for [`FlatIndex`] queries: one strip's scores
/// for a query block, the block's query norms and a bounded selection heap
/// per query.
#[derive(Debug, Default)]
pub struct FlatScratch {
    scores: Vec<f32>,
    q_norms: Vec<f32>,
    heaps: Vec<BinaryHeap<WorstFirst>>,
}

impl FlatScratch {
    /// Creates empty scratch; buffers grow to steady state on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// What a thread keeps warm for the convenience entry points that own their
/// buffers: [`FlatIndex::search`] uses the scratch, [`FlatIndex::search_batch`]
/// also the flattened queries and hits.
#[derive(Default)]
struct ThreadScratch {
    scratch: FlatScratch,
    queries: Vec<f32>,
    hits: Vec<Hit>,
}

thread_local! {
    /// Backs the zero-allocation default search path.
    static FLAT_SCRATCH: RefCell<ThreadScratch> = RefCell::new(ThreadScratch::default());
}

/// Exact k-NN over a contiguous vector slab.
///
/// Mutation model (incremental pipeline): [`upsert`](Self::upsert)
/// replaces a row in place and [`remove`](Self::remove) tombstones it (the
/// slab keeps the bytes, search skips them, and only a rebuild of the
/// index reclaims them, as the growth pipeline's lapse path does). An index
/// maintained through any upsert/remove sequence returns exactly the same
/// top-k (ties included) as one built from scratch on the surviving rows.
#[derive(Debug, Clone)]
pub struct FlatIndex {
    dim: usize,
    metric: Metric,
    ids: Vec<u64>,
    data: Vec<f32>,
    /// `norms[i]` — `‖row i‖`, derived from `data` (the cosine scan's
    /// divisor; see the module docs).
    norms: Vec<f32>,
    /// `dead[i]` — row `i` is tombstoned (skipped by search and `get`).
    dead: Vec<bool>,
    /// Number of `true` entries in `dead`.
    tombstones: usize,
    /// id → first live position holding it (O(1) [`FlatIndex::get`]).
    pos: HashMap<u64, u32>,
}

impl FlatIndex {
    /// Creates an empty index for `dim`-dimensional vectors.
    pub fn new(dim: usize, metric: Metric) -> Self {
        assert!(dim > 0, "dimension must be positive");
        Self {
            dim,
            metric,
            ids: Vec::new(),
            data: Vec::new(),
            norms: Vec::new(),
            dead: Vec::new(),
            tombstones: 0,
            pos: HashMap::new(),
        }
    }

    /// Vector dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of physical rows, including tombstoned ones.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Number of live (non-tombstoned) rows.
    pub fn live_len(&self) -> usize {
        self.ids.len() - self.tombstones
    }

    /// Number of tombstoned rows; only a rebuild of the index drops them.
    pub fn tombstones(&self) -> usize {
        self.tombstones
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Adds a vector under `id`.
    ///
    /// # Panics
    /// Panics if `v.len() != dim`.
    pub fn add(&mut self, id: u64, v: &[f32]) {
        assert_eq!(v.len(), self.dim, "vector dimension mismatch");
        // First occurrence wins, matching the pre-map linear-scan `get`.
        self.pos.entry(id).or_insert(self.ids.len() as u32);
        self.ids.push(id);
        self.dead.push(false);
        self.data.extend_from_slice(v);
        self.norms.push(kernels::l2_norm(v));
    }

    /// True when some id has more than one live row. Every live row's id
    /// is in `pos`, so there is a duplicate exactly when the live rows
    /// outnumber the ids.
    fn has_duplicates(&self) -> bool {
        self.live_len() > self.pos.len()
    }

    /// Tombstones every live row under `id` from row `from` on.
    fn tombstone_rows_of(&mut self, id: u64, from: usize) {
        for j in from..self.ids.len() {
            if self.ids[j] == id && !self.dead[j] {
                self.dead[j] = true;
                self.tombstones += 1;
            }
        }
    }

    /// Inserts or replaces the vector under `id`. Replacement overwrites
    /// the row's slab bytes in place (no growth); any duplicate rows of
    /// the same id are tombstoned so exactly one live row remains. Returns
    /// true when an existing row was replaced. O(dim) unless some id has a
    /// duplicate row (only [`add`](Self::add) makes one), when the rows
    /// behind the replaced one are scanned.
    ///
    /// # Panics
    /// Panics if `v.len() != dim`.
    pub fn upsert(&mut self, id: u64, v: &[f32]) -> bool {
        assert_eq!(v.len(), self.dim, "vector dimension mismatch");
        match self.pos.get(&id).copied() {
            Some(i) => {
                let i = i as usize;
                // Tombstone shadowed duplicates beyond the canonical row.
                if self.has_duplicates() {
                    self.tombstone_rows_of(id, i + 1);
                }
                self.data[i * self.dim..(i + 1) * self.dim].copy_from_slice(v);
                self.norms[i] = kernels::l2_norm(v);
                true
            }
            None => {
                self.add(id, v);
                false
            }
        }
    }

    /// Tombstone-deletes every live row under `id`: the slab keeps the
    /// bytes until the index is rebuilt, but search and
    /// [`get`](Self::get) no longer see them. Returns true when at least
    /// one row was removed. O(1) unless some id has a duplicate row.
    pub fn remove(&mut self, id: u64) -> bool {
        let duplicates = self.has_duplicates();
        let Some(i) = self.pos.remove(&id) else {
            return false;
        };
        if duplicates {
            self.tombstone_rows_of(id, i as usize);
        } else {
            self.dead[i as usize] = true;
            self.tombstones += 1;
        }
        true
    }

    /// Returns the stored vector for position `i`.
    fn vec_at(&self, i: usize) -> &[f32] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Exact top-`k` most similar vectors to `query`.
    ///
    /// Uses a per-thread [`FlatScratch`]; after warm-up the only allocation
    /// is the returned `Vec`. Use [`FlatIndex::search_into`] for a fully
    /// allocation-free path.
    pub fn search(&self, query: &[f32], k: usize) -> Vec<Hit> {
        let mut out = Vec::with_capacity(k.min(self.len()));
        FLAT_SCRATCH.with(|s| self.search_into(query, k, &mut s.borrow_mut().scratch, &mut out));
        out
    }

    /// Zero-allocation search: the one-query case of
    /// [`search_block_into`](Self::search_block_into). Performs no heap
    /// allocation once `scratch` and `out` have reached steady-state
    /// capacity.
    pub fn search_into(
        &self,
        query: &[f32],
        k: usize,
        scratch: &mut FlatScratch,
        out: &mut Vec<Hit>,
    ) {
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        self.search_block_into(query, k, scratch, out);
    }

    /// Exact top-`k` for a row-major block of queries (`nq × dim`), the slab
    /// scanned once per `QUERY_BLOCK` (16) queries instead of once per query.
    /// `out` (cleared first) receives `min(k, live_len())` hits per query,
    /// query after query, each run in [`Hit::best_first`] order — bit for
    /// bit what [`search_into`](Self::search_into) returns for that query
    /// alone. Allocation-free once `scratch` and `out` are warm.
    ///
    /// # Panics
    /// Panics if `queries.len()` is not a multiple of `dim`.
    pub fn search_block_into(
        &self,
        queries: &[f32],
        k: usize,
        scratch: &mut FlatScratch,
        out: &mut Vec<Hit>,
    ) {
        assert_eq!(queries.len() % self.dim, 0, "query dimension mismatch");
        out.clear();
        // Every heap fills to exactly `k`, which is what makes `out` flat.
        let k = k.min(self.live_len());
        if k == 0 {
            return;
        }
        for block in queries.chunks(QUERY_BLOCK * self.dim) {
            let nq = block.len() / self.dim;
            if scratch.heaps.len() < nq {
                scratch.heaps.resize_with(nq, BinaryHeap::new);
            }
            self.scan_block(block, k, scratch);
            for heap in &mut scratch.heaps[..nq] {
                drain_best_first(heap, out);
            }
        }
    }

    /// Walks the slab strip by strip, leaving each query's `k` best in its
    /// heap (`scratch.heaps[..nq]`, empty on entry).
    fn scan_block(&self, queries: &[f32], k: usize, scratch: &mut FlatScratch) {
        let dim = self.dim;
        let nq = queries.len() / dim;
        let FlatScratch { scores, q_norms, heaps } = scratch;
        let heaps = &mut heaps[..nq];
        if self.metric == Metric::Cosine {
            q_norms.clear();
            q_norms.extend(queries.chunks_exact(dim).map(kernels::l2_norm));
        }
        let strip_rows = (STRIP_BYTES / (4 * dim)).max(8);
        for (s, strip) in self.data.chunks(strip_rows * dim).enumerate() {
            let first = s * strip_rows;
            let rows = strip.len() / dim;
            if self.metric == Metric::Euclidean {
                // No batch path runs this metric: one sweep per query.
                for (q, heap) in queries.chunks_exact(dim).zip(heaps.iter_mut()) {
                    kernels::l2_sq_batch(q, strip, scores);
                    scores.iter_mut().for_each(|s| *s = -*s);
                    self.select_strip(heap, k, scores, first);
                }
                continue;
            }
            let norms = (self.metric == Metric::Cosine)
                .then(|| (&q_norms[..], &self.norms[first..first + rows]));
            scores.resize(nq * rows, 0.0);
            kernels::dot_tile(dim, queries, strip, norms, scores);
            for (scores, heap) in scores.chunks_exact(rows).zip(heaps.iter_mut()) {
                self.select_strip(heap, k, scores, first);
            }
        }
    }

    /// Threshold-first selection over one strip's scores (`scores[i]` is row
    /// `first + i`): eight scores at a time are tested against the worst
    /// kept one (branch-free, so the compiler makes it two vector compares),
    /// and only a group with a survivor goes on to [`Self::offer_rows`].
    fn select_strip(
        &self,
        heap: &mut BinaryHeap<WorstFirst>,
        k: usize,
        scores: &[f32],
        first: usize,
    ) {
        // Until the heap holds `k` nothing is dropped: no score is below -inf.
        let mut worst_kept = match heap.peek() {
            Some(worst) if heap.len() == k => worst.0.score,
            _ => f32::NEG_INFINITY,
        };
        let mut groups = scores.chunks_exact(8);
        for (g, group) in groups.by_ref().enumerate() {
            let lanes: [f32; 8] = group.try_into().expect("chunks_exact(8)");
            if lanes.iter().fold(true, |all, &s| all & (s < worst_kept)) {
                continue;
            }
            worst_kept = self.offer_rows(heap, k, group, first + 8 * g, worst_kept);
        }
        let tail = groups.remainder();
        self.offer_rows(heap, k, tail, first + scores.len() - tail.len(), worst_kept);
    }

    /// Offers the rows of `scores` that reach `worst_kept` and are not
    /// tombstoned; returns the worst kept score afterwards.
    fn offer_rows(
        &self,
        heap: &mut BinaryHeap<WorstFirst>,
        k: usize,
        scores: &[f32],
        first: usize,
        mut worst_kept: f32,
    ) -> f32 {
        for (i, &score) in scores.iter().enumerate() {
            if score < worst_kept || self.dead[first + i] {
                continue;
            }
            offer(heap, k, Hit { id: self.ids[first + i], score });
            if heap.len() == k {
                worst_kept = heap.peek().map_or(worst_kept, |worst| worst.0.score);
            }
        }
        worst_kept
    }

    /// Exact top-`k` for a batch of queries fanned out as `workers`
    /// contiguous chunks on scoped threads, the first on the caller's. Each
    /// chunk is one [`search_block_into`](Self::search_block_into) on its
    /// thread's scratch; results are in query order, identical to
    /// sequential [`FlatIndex::search`] per query.
    pub fn search_batch(&self, queries: &[Vec<f32>], k: usize, workers: usize) -> Vec<Vec<Hit>> {
        crate::fan_out(queries, workers, |qs| self.search_chunk(qs, k))
    }

    fn search_chunk(&self, queries: &[Vec<f32>], k: usize) -> Vec<Vec<Hit>> {
        FLAT_SCRATCH.with(|s| {
            let ThreadScratch { scratch, queries: block, hits } = &mut *s.borrow_mut();
            block.clear();
            for q in queries {
                assert_eq!(q.len(), self.dim, "query dimension mismatch");
                block.extend_from_slice(q);
            }
            self.search_block_into(block, k, scratch, hits);
            let per_query = k.min(self.live_len());
            (0..queries.len()).map(|i| hits[i * per_query..(i + 1) * per_query].to_vec()).collect()
        })
    }

    /// Looks up a vector by id — O(1) via the maintained position map.
    pub fn get(&self, id: u64) -> Option<&[f32]> {
        self.pos.get(&id).map(|&i| self.vec_at(i as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saga_testkit::{check, SplitMix64};

    impl FlatIndex {
        /// [`upsert`](FlatIndex::upsert) as it was, scanning every row
        /// behind the replaced one for a duplicate: the oracle of the
        /// duplicate-free fast path.
        fn reference_upsert(&mut self, id: u64, v: &[f32]) -> bool {
            assert_eq!(v.len(), self.dim, "vector dimension mismatch");
            match self.pos.get(&id).copied() {
                Some(i) => {
                    for j in (i as usize + 1)..self.ids.len() {
                        if self.ids[j] == id && !self.dead[j] {
                            self.dead[j] = true;
                            self.tombstones += 1;
                        }
                    }
                    let i = i as usize;
                    self.data[i * self.dim..(i + 1) * self.dim].copy_from_slice(v);
                    self.norms[i] = kernels::l2_norm(v);
                    true
                }
                None => {
                    self.add(id, v);
                    false
                }
            }
        }

        /// [`remove`](FlatIndex::remove) as it was, scanning every row.
        fn reference_remove(&mut self, id: u64) -> bool {
            if self.pos.remove(&id).is_none() {
                return false;
            }
            for i in 0..self.ids.len() {
                if self.ids[i] == id && !self.dead[i] {
                    self.dead[i] = true;
                    self.tombstones += 1;
                }
            }
            true
        }
    }

    /// One step of the upsert differential, over a few ids so duplicates
    /// and re-inserts are common.
    #[derive(Debug, Clone)]
    enum Step {
        Add(u64, [i8; 2]),
        Upsert(u64, [i8; 2]),
        Remove(u64),
    }

    fn step(rng: &mut SplitMix64) -> Step {
        let row =
            |rng: &mut SplitMix64| (rng.gen_range(0u64..6), [rng.gen::<i8>(), rng.gen::<i8>()]);
        saga_testkit::one_of(
            rng,
            &[
                &|rng| {
                    let (id, v) = row(rng);
                    Step::Add(id, v)
                },
                &|rng| {
                    let (id, v) = row(rng);
                    Step::Upsert(id, v)
                },
                &|rng| Step::Remove(rng.gen_range(0u64..6)),
            ],
        )
    }

    /// Upsert and remove against the scanning bodies they replaced, on
    /// random histories of add (duplicate ids included), upsert and
    /// remove: after every step both indexes answer every id's
    /// `get`, count the same live rows and tombstones, and return the
    /// same hits, score bits included, for every metric.
    #[test]
    fn upsert_and_remove_match_the_scanning_reference() {
        check(256, 1, |rng| {
            let history = saga_testkit::vec(rng, 0..64, step);
            let metric = rng.gen_range(0u8..3);
            let metric = [Metric::Cosine, Metric::Dot, Metric::Euclidean][usize::from(metric)];
            let (mut idx, mut reference) = (FlatIndex::new(2, metric), FlatIndex::new(2, metric));
            let row = |v: [i8; 2]| v.map(f32::from);
            for step in &history {
                match *step {
                    Step::Add(id, v) => {
                        idx.add(id, &row(v));
                        reference.add(id, &row(v));
                    }
                    Step::Upsert(id, v) => {
                        assert_eq!(
                            idx.upsert(id, &row(v)),
                            reference.reference_upsert(id, &row(v))
                        );
                    }
                    Step::Remove(id) => {
                        assert_eq!(idx.remove(id), reference.reference_remove(id));
                    }
                }
                for id in 0..7 {
                    assert_eq!(idx.get(id), reference.get(id));
                }
                assert_eq!(idx.live_len(), reference.live_len());
                assert_eq!(idx.tombstones(), reference.tombstones());
                for query in [[1.0, 0.5], [-2.0, 3.0]] {
                    let bits = |hits: Vec<Hit>| -> Vec<(u64, u32)> {
                        hits.iter().map(|h| (h.id, h.score.to_bits())).collect()
                    };
                    assert_eq!(bits(idx.search(&query, 8)), bits(reference.search(&query, 8)));
                }
            }
        });
    }

    #[test]
    fn exact_search_finds_nearest() {
        let mut idx = FlatIndex::new(2, Metric::Euclidean);
        idx.add(1, &[0.0, 0.0]);
        idx.add(2, &[1.0, 0.0]);
        idx.add(3, &[5.0, 5.0]);
        let hits = idx.search(&[0.9, 0.1], 2);
        assert_eq!(hits[0].id, 2);
        assert_eq!(hits[1].id, 1);
    }

    #[test]
    fn k_larger_than_index_returns_all() {
        let mut idx = FlatIndex::new(1, Metric::Dot);
        idx.add(10, &[1.0]);
        let hits = idx.search(&[2.0], 5);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].score, 2.0);
    }

    #[test]
    fn get_retrieves_by_id() {
        let mut idx = FlatIndex::new(3, Metric::Cosine);
        idx.add(42, &[1.0, 2.0, 3.0]);
        assert_eq!(idx.get(42), Some(&[1.0, 2.0, 3.0][..]));
        assert_eq!(idx.get(99), None);
    }

    #[test]
    fn get_returns_first_occurrence_of_duplicate_id() {
        let mut idx = FlatIndex::new(1, Metric::Dot);
        idx.add(7, &[1.0]);
        idx.add(7, &[2.0]);
        assert_eq!(idx.get(7), Some(&[1.0][..]));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_mismatch_panics() {
        let mut idx = FlatIndex::new(2, Metric::Cosine);
        idx.add(1, &[1.0]);
    }

    #[test]
    fn ties_break_by_id_for_determinism() {
        let mut idx = FlatIndex::new(1, Metric::Dot);
        idx.add(5, &[1.0]);
        idx.add(3, &[1.0]);
        let hits = idx.search(&[1.0], 2);
        assert_eq!(hits[0].id, 3);
        assert_eq!(hits[1].id, 5);
    }

    /// One order everywhere: two shards' local top-k merged by
    /// [`Hit::best_first`] is the unsharded top-k even over rows that score
    /// `+0.0`, `-0.0` and exactly equal — where a shard-local order that
    /// lets the two zeros tie and a merge order that does not would disagree.
    #[test]
    fn sharded_merge_equals_unsharded_on_signed_zeros_and_ties() {
        let query = [1e-22, 0.0, 1e10];
        let rows: [(u64, [f32; 3]); 8] = [
            (1, [-1e-23, 1e10, 0.0]), // tiny negative dot over huge norms: -0.0
            (2, [0.0, 0.0, 0.0]),     // zero norm: +0.0
            (3, [-1e-23, 1e10, 0.0]), // -0.0 again
            (4, [0.0, 7.0, 0.0]),     // orthogonal: +0.0
            (5, [0.0, 0.0, 2.0]),     // 1.0
            (6, [0.0, 0.0, 3.0]),     // 1.0 again: a tie
            (7, [0.0, 0.0, -1.0]),    // -1.0
            (8, [0.0, 1.0, 0.0]),     // +0.0
        ];
        let mut whole = FlatIndex::new(3, Metric::Cosine);
        let mut shards = [FlatIndex::new(3, Metric::Cosine), FlatIndex::new(3, Metric::Cosine)];
        for (id, v) in &rows {
            whole.add(*id, v);
            shards[(*id % 2) as usize].add(*id, v);
        }
        let all = whole.search(&query, rows.len());
        let bits: Vec<u32> = all.iter().map(|h| h.score.to_bits()).collect();
        assert!(bits.contains(&0) && bits.contains(&(-0.0f32).to_bits()), "{all:?}");
        assert_eq!(all.iter().map(|h| h.id).collect::<Vec<_>>(), [5, 6, 2, 4, 8, 1, 3, 7]);
        for k in 0..=rows.len() {
            let mut merged: Vec<Hit> = shards.iter().flat_map(|s| s.search(&query, k)).collect();
            merged.sort_by(Hit::best_first);
            merged.truncate(k);
            assert_eq!(merged, whole.search(&query, k), "k={k}");
            assert_eq!(merged, all[..k], "k={k}");
        }
    }

    #[test]
    fn search_batch_matches_sequential() {
        let mut idx = FlatIndex::new(3, Metric::Cosine);
        for i in 0..200u64 {
            let f = i as f32;
            idx.add(i, &[(f * 0.37).sin(), (f * 0.11).cos(), (f * 0.71).sin()]);
        }
        let queries: Vec<Vec<f32>> =
            (0..17).map(|i| vec![(i as f32).sin(), 0.5, (i as f32).cos()]).collect();
        let seq: Vec<Vec<Hit>> = queries.iter().map(|q| idx.search(q, 5)).collect();
        // No queries, one, and all; no workers, a few, and more than queries.
        for n in [0, 1, queries.len()] {
            for workers in [0, 1, 2, 3, 4, 8, n + 5] {
                let got = idx.search_batch(&queries[..n], 5, workers);
                assert_eq!(got, seq[..n], "n={n} workers={workers}");
            }
        }
    }

    #[test]
    fn upsert_replaces_and_remove_tombstones() {
        let mut idx = FlatIndex::new(2, Metric::Euclidean);
        assert!(!idx.upsert(1, &[0.0, 0.0])); // insert
        idx.add(2, &[1.0, 0.0]);
        idx.add(3, &[5.0, 5.0]);
        assert!(idx.upsert(3, &[0.1, 0.0])); // replace in place
        assert_eq!(idx.get(3), Some(&[0.1, 0.0][..]));
        assert_eq!(idx.len(), 3);
        let hits = idx.search(&[0.0, 0.0], 1);
        assert_eq!(hits[0].id, 1);
        assert!(idx.remove(1));
        assert!(!idx.remove(1), "double remove is a no-op");
        assert_eq!(idx.get(1), None);
        assert_eq!(idx.live_len(), 2);
        let hits = idx.search(&[0.0, 0.0], 3);
        assert_eq!(hits.iter().map(|h| h.id).collect::<Vec<_>>(), vec![3, 2]);
    }

    #[test]
    fn upsert_of_duplicate_ids_leaves_one_live_row() {
        let mut idx = FlatIndex::new(1, Metric::Dot);
        idx.add(7, &[1.0]);
        idx.add(7, &[2.0]);
        assert!(idx.upsert(7, &[3.0]));
        let hits = idx.search(&[1.0], 5);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].score, 3.0);
        assert!(idx.remove(7));
        assert!(idx.search(&[1.0], 5).is_empty());
    }
}
