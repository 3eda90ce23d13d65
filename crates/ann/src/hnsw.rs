//! Hierarchical Navigable Small World (HNSW) approximate k-NN index,
//! implemented from scratch.
//!
//! This powers the paper's embedding service ("efficient
//! k-nearest-neighbour retrieval", Sec. 1/Fig. 1). Experiment E3 sweeps its
//! latency/recall trade-off against [`crate::flat::FlatIndex`].
//!
//! The query path is allocation-free after warm-up: an epoch-stamped
//! [`SearchScratch`] (visited marks + reusable candidate/result heaps) is
//! threaded through `search_layer`, both for inserts (the index owns one)
//! and for queries (per-thread default, or caller-owned via
//! [`HnswIndex::search_ef_into`]). Before this, every `search_layer` call —
//! once per layer per insert — allocated an O(N) visited array, making
//! index build cost quadratic in allocations.

use crate::flat::Hit;
use crate::vector::Metric;
use saga_core::rng::SplitMix64;
use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Build/search parameters.
#[derive(Debug, Clone, Copy)]
pub struct HnswParams {
    /// Max connections per node per layer (M). Layer 0 allows `2 * m`.
    pub m: usize,
    /// Candidate-list width during construction.
    pub ef_construction: usize,
    /// Default candidate-list width during search (overridable per query).
    pub ef_search: usize,
    /// RNG seed for level assignment (full determinism).
    pub seed: u64,
}

impl Default for HnswParams {
    fn default() -> Self {
        Self { m: 16, ef_construction: 100, ef_search: 48, seed: 0x5a6a }
    }
}

#[derive(Debug, Clone)]
struct Node {
    id: u64,
    /// Neighbour lists per layer, one for each layer up to the node's level.
    neighbors: Vec<Vec<u32>>,
}

/// Candidate ordered by score descending (max-heap on score).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Cand {
    score: f32,
    idx: u32,
}
impl Eq for Cand {}
impl Ord for Cand {
    fn cmp(&self, other: &Self) -> Ordering {
        self.score.partial_cmp(&other.score).unwrap_or(Ordering::Equal)
    }
}
impl PartialOrd for Cand {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Min-heap entry (worst of the result set on top) via reversed ordering.
#[derive(Debug, Clone, Copy)]
struct RevCand(Cand);
impl PartialEq for RevCand {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}
impl Eq for RevCand {}
impl Ord for RevCand {
    fn cmp(&self, other: &Self) -> Ordering {
        other.0.cmp(&self.0)
    }
}
impl PartialOrd for RevCand {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Reusable beam-search state: epoch-stamped visited marks plus the
/// candidate/result heaps and buffers `search_layer` works in. One scratch
/// serves any number of queries against any index — `begin` grows the
/// visited array to the index size and bumps the epoch, so marks from
/// earlier queries are invalidated in O(1) instead of reallocated.
#[derive(Debug, Clone, Default)]
pub struct SearchScratch {
    /// Current epoch; `visited[i] == epoch` means "seen this query".
    epoch: u32,
    visited: Vec<u32>,
    candidates: BinaryHeap<Cand>,
    results: BinaryHeap<RevCand>,
    /// `search_layer` output, best first.
    layer_out: Vec<Cand>,
    /// Neighbour ids selected for a new node (insert path).
    selected: Vec<u32>,
    /// Scored neighbour list for pruning (insert path).
    prune: Vec<(f32, u32)>,
}

impl SearchScratch {
    /// Creates empty scratch; buffers grow to steady state on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Prepares for one `search_layer` pass over an index of `n` nodes.
    fn begin(&mut self, n: usize) {
        if self.visited.len() < n {
            self.visited.resize(n, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Epoch wrapped: clear stale marks once every 2^32 queries.
            self.visited.iter_mut().for_each(|v| *v = 0);
            self.epoch = 1;
        }
        self.candidates.clear();
        self.results.clear();
    }

    /// Marks `i` visited; true when this is the first visit this query.
    #[inline]
    fn visit(&mut self, i: u32) -> bool {
        let slot = &mut self.visited[i as usize];
        if *slot == self.epoch {
            false
        } else {
            *slot = self.epoch;
            true
        }
    }
}

thread_local! {
    /// Backs the zero-allocation default search path.
    static HNSW_SCRATCH: RefCell<SearchScratch> = RefCell::new(SearchScratch::new());
}

/// The HNSW index.
#[derive(Debug, Clone)]
pub struct HnswIndex {
    dim: usize,
    metric: Metric,
    params: HnswParams,
    nodes: Vec<Node>,
    data: Vec<f32>,
    entry: Option<u32>,
    max_level: usize,
    /// Tombstone flags parallel to `nodes`; dead nodes keep routing (their
    /// edges stay in the graph) but are filtered from results until the
    /// index is rebuilt.
    dead: Vec<bool>,
    /// Live tombstone count.
    tombstones: usize,
    /// id → first live node index.
    by_id: std::collections::HashMap<u64, u32>,
    rng: SplitMix64,
    /// Insert-path scratch, reused across `add` calls.
    scratch: SearchScratch,
}

impl HnswIndex {
    /// Creates an empty index.
    pub fn new(dim: usize, metric: Metric, params: HnswParams) -> Self {
        assert!(dim > 0 && params.m >= 2, "invalid HNSW parameters");
        let rng = SplitMix64::new(params.seed);
        Self {
            dim,
            metric,
            params,
            nodes: Vec::new(),
            data: Vec::new(),
            entry: None,
            max_level: 0,
            dead: Vec::new(),
            tombstones: 0,
            by_id: std::collections::HashMap::new(),
            rng,
            scratch: SearchScratch::new(),
        }
    }

    /// Number of elements (including tombstoned nodes).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Number of live (non-tombstoned) elements.
    pub fn live_len(&self) -> usize {
        self.nodes.len() - self.tombstones
    }

    /// Number of tombstoned nodes; only a rebuild of the index drops them.
    pub fn tombstones(&self) -> usize {
        self.tombstones
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Vector dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    #[inline]
    fn vec_at(&self, i: u32) -> &[f32] {
        let i = i as usize;
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    #[inline]
    fn score_to(&self, q: &[f32], i: u32) -> f32 {
        self.metric.score(q, self.vec_at(i))
    }

    fn random_level(&mut self) -> usize {
        let ml = 1.0 / (self.params.m as f64).ln();
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        (-(u.ln()) * ml).floor() as usize
    }

    /// Greedy descent at one layer: move to the best neighbour until no
    /// improvement.
    fn greedy_at_layer(&self, q: &[f32], mut cur: u32, layer: usize) -> u32 {
        let mut cur_score = self.score_to(q, cur);
        loop {
            let mut improved = false;
            for &nb in &self.nodes[cur as usize].neighbors[layer] {
                let s = self.score_to(q, nb);
                if s > cur_score {
                    cur = nb;
                    cur_score = s;
                    improved = true;
                }
            }
            if !improved {
                return cur;
            }
        }
    }

    /// Beam search at one layer: leaves up to `ef` best candidates in
    /// `scratch.layer_out`, best first. Allocation-free at steady state.
    fn search_layer(
        &self,
        q: &[f32],
        entry: u32,
        ef: usize,
        layer: usize,
        scratch: &mut SearchScratch,
    ) {
        scratch.begin(self.nodes.len());
        scratch.visit(entry);
        let e = Cand { score: self.score_to(q, entry), idx: entry };
        scratch.results.push(RevCand(e));
        scratch.candidates.push(e);

        while let Some(c) = scratch.candidates.pop() {
            let worst = scratch.results.peek().map(|r| r.0.score).unwrap_or(f32::NEG_INFINITY);
            if c.score < worst && scratch.results.len() >= ef {
                break;
            }
            for &nb in &self.nodes[c.idx as usize].neighbors[layer] {
                if !scratch.visit(nb) {
                    continue;
                }
                let s = self.score_to(q, nb);
                let worst = scratch.results.peek().map(|r| r.0.score).unwrap_or(f32::NEG_INFINITY);
                if scratch.results.len() < ef || s > worst {
                    scratch.candidates.push(Cand { score: s, idx: nb });
                    scratch.results.push(RevCand(Cand { score: s, idx: nb }));
                    if scratch.results.len() > ef {
                        scratch.results.pop();
                    }
                }
            }
        }
        scratch.layer_out.clear();
        scratch.layer_out.extend(scratch.results.drain().map(|r| r.0));
        scratch
            .layer_out
            .sort_unstable_by(|a, b| b.score.partial_cmp(&a.score).unwrap_or(Ordering::Equal));
    }

    /// Inserts a vector under `id`.
    pub fn add(&mut self, id: u64, v: &[f32]) {
        assert_eq!(v.len(), self.dim, "vector dimension mismatch");
        let idx = self.nodes.len() as u32;
        let level = self.random_level();
        self.data.extend_from_slice(v);
        self.nodes.push(Node { id, neighbors: vec![Vec::new(); level + 1] });
        self.dead.push(false);
        self.by_id.entry(id).or_insert(idx);

        let Some(mut cur) = self.entry else {
            self.entry = Some(idx);
            self.max_level = level;
            return;
        };

        // Take the owned scratch so `search_layer` can borrow `self`
        // immutably alongside it; returned at the end of the insert.
        let mut scratch = std::mem::take(&mut self.scratch);

        // Descend through layers above the node's level.
        for l in (level + 1..=self.max_level).rev() {
            cur = self.greedy_at_layer(v, cur, l);
        }

        // Connect at each layer from min(level, max_level) down to 0.
        for l in (0..=level.min(self.max_level)).rev() {
            self.search_layer(v, cur, self.params.ef_construction, l, &mut scratch);
            cur = scratch.layer_out.first().map(|c| c.idx).unwrap_or(cur);
            let m_max = if l == 0 { self.params.m * 2 } else { self.params.m };
            scratch.selected.clear();
            scratch.selected.extend(scratch.layer_out.iter().take(self.params.m).map(|c| c.idx));
            let node_list = &mut self.nodes[idx as usize].neighbors[l];
            node_list.clear();
            node_list.extend_from_slice(&scratch.selected);
            for &nb in &scratch.selected {
                let len_after = {
                    let list = &mut self.nodes[nb as usize].neighbors[l];
                    list.push(idx);
                    list.len()
                };
                if len_after > m_max {
                    // Prune: keep the m_max closest to nb.
                    scratch.prune.clear();
                    {
                        let nb_vec = self.vec_at(nb);
                        for &x in &self.nodes[nb as usize].neighbors[l] {
                            scratch.prune.push((self.metric.score(nb_vec, self.vec_at(x)), x));
                        }
                    }
                    scratch
                        .prune
                        .sort_unstable_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(Ordering::Equal));
                    scratch.prune.truncate(m_max);
                    let list = &mut self.nodes[nb as usize].neighbors[l];
                    list.clear();
                    list.extend(scratch.prune.iter().map(|&(_, x)| x));
                }
            }
        }

        self.scratch = scratch;

        if level > self.max_level {
            self.max_level = level;
            self.entry = Some(idx);
        }
    }

    /// Replaces the vector for `id` (tombstone + re-insert, so the new
    /// vector gets fresh graph edges) or inserts it when new. Returns
    /// `true` if an existing element was replaced.
    pub fn upsert(&mut self, id: u64, v: &[f32]) -> bool {
        let existed = self.remove(id);
        self.add(id, v);
        existed
    }

    /// Tombstones every live node carrying `id`. Dead nodes keep serving
    /// as routing waypoints (their edges survive) but never appear in
    /// results until the index is rebuilt. Returns `true` if any node died.
    pub fn remove(&mut self, id: u64) -> bool {
        if self.by_id.remove(&id).is_none() {
            return false;
        }
        for i in 0..self.nodes.len() {
            if self.nodes[i].id == id && !self.dead[i] {
                self.dead[i] = true;
                self.tombstones += 1;
            }
        }
        true
    }

    /// Approximate top-`k` search with the default `ef_search`.
    pub fn search(&self, query: &[f32], k: usize) -> Vec<Hit> {
        self.search_ef(query, k, self.params.ef_search.max(k))
    }

    /// Approximate top-`k` search with an explicit beam width.
    ///
    /// Uses a per-thread [`SearchScratch`]; after warm-up the only
    /// allocation is the returned `Vec`. Use [`HnswIndex::search_ef_into`]
    /// for a fully allocation-free path.
    pub fn search_ef(&self, query: &[f32], k: usize, ef: usize) -> Vec<Hit> {
        let mut out = Vec::with_capacity(k);
        HNSW_SCRATCH.with(|s| self.search_ef_into(query, k, ef, &mut s.borrow_mut(), &mut out));
        out
    }

    /// Zero-allocation search: hits are written into `out` (cleared
    /// first). Performs no heap allocation once `scratch` and `out` have
    /// reached steady-state capacity.
    pub fn search_ef_into(
        &self,
        query: &[f32],
        k: usize,
        ef: usize,
        scratch: &mut SearchScratch,
        out: &mut Vec<Hit>,
    ) {
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        out.clear();
        let Some(mut cur) = self.entry else { return };
        for l in (1..=self.max_level).rev() {
            cur = self.greedy_at_layer(query, cur, l);
        }
        // Widen the beam by the tombstone count so dead nodes filtered at
        // emission can't starve the live result set.
        self.search_layer(query, cur, ef.max(k).saturating_add(self.tombstones), 0, scratch);
        out.extend(
            scratch
                .layer_out
                .iter()
                .filter(|c| self.tombstones == 0 || !self.dead[c.idx as usize])
                .take(k)
                .map(|c| Hit { id: self.nodes[c.idx as usize].id, score: c.score }),
        );
    }

    /// Approximate top-`k` for a batch of queries fanned out as `workers`
    /// contiguous chunks on scoped threads, the first on the caller's.
    /// Results are in query order, identical to sequential
    /// [`HnswIndex::search`] per query.
    pub fn search_batch(&self, queries: &[Vec<f32>], k: usize, workers: usize) -> Vec<Vec<Hit>> {
        crate::fan_out(queries, workers, |qs| qs.iter().map(|q| self.search(q, k)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatIndex;

    fn random_vectors(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = SplitMix64::new(seed);
        (0..n).map(|_| (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect()).collect()
    }

    #[test]
    fn empty_index_returns_nothing() {
        let idx = HnswIndex::new(4, Metric::Cosine, HnswParams::default());
        assert!(idx.search(&[1.0, 0.0, 0.0, 0.0], 5).is_empty());
    }

    #[test]
    fn single_element() {
        let mut idx = HnswIndex::new(2, Metric::Euclidean, HnswParams::default());
        idx.add(7, &[1.0, 2.0]);
        let hits = idx.search(&[1.0, 2.0], 3);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, 7);
    }

    #[test]
    fn recall_against_flat_baseline() {
        let dim = 16;
        let n = 800;
        let vecs = random_vectors(n, dim, 42);
        let mut flat = FlatIndex::new(dim, Metric::Euclidean);
        let mut hnsw = HnswIndex::new(dim, Metric::Euclidean, HnswParams::default());
        for (i, v) in vecs.iter().enumerate() {
            flat.add(i as u64, v);
            hnsw.add(i as u64, v);
        }
        let queries = random_vectors(30, dim, 99);
        let mut recall_sum = 0.0;
        for q in &queries {
            let truth: std::collections::HashSet<u64> =
                flat.search(q, 10).into_iter().map(|h| h.id).collect();
            let approx = hnsw.search_ef(q, 10, 80);
            let got = approx.iter().filter(|h| truth.contains(&h.id)).count();
            recall_sum += got as f64 / 10.0;
        }
        let recall = recall_sum / queries.len() as f64;
        assert!(recall > 0.85, "recall@10 = {recall}");
    }

    #[test]
    fn determinism_same_seed_same_results() {
        let vecs = random_vectors(200, 8, 1);
        let build = || {
            let mut idx = HnswIndex::new(8, Metric::Cosine, HnswParams::default());
            for (i, v) in vecs.iter().enumerate() {
                idx.add(i as u64, v);
            }
            idx
        };
        let a = build();
        let b = build();
        let q = &vecs[3];
        let ha: Vec<u64> = a.search(q, 5).into_iter().map(|h| h.id).collect();
        let hb: Vec<u64> = b.search(q, 5).into_iter().map(|h| h.id).collect();
        assert_eq!(ha, hb);
    }

    #[test]
    fn nearest_self_is_found() {
        let vecs = random_vectors(300, 8, 5);
        let mut idx = HnswIndex::new(8, Metric::Euclidean, HnswParams::default());
        for (i, v) in vecs.iter().enumerate() {
            idx.add(i as u64, v);
        }
        let mut found = 0;
        for (i, v) in vecs.iter().enumerate().take(50) {
            let hits = idx.search(v, 1);
            if hits[0].id == i as u64 {
                found += 1;
            }
        }
        assert!(found >= 48, "self-recall {found}/50");
    }

    #[test]
    fn scratch_variants_agree_with_default_path() {
        let vecs = random_vectors(400, 12, 9);
        let mut idx = HnswIndex::new(12, Metric::Cosine, HnswParams::default());
        for (i, v) in vecs.iter().enumerate() {
            idx.add(i as u64, v);
        }
        let mut scratch = SearchScratch::new();
        let (mut b, mut out) = (Vec::new(), Vec::new());
        for q in vecs.iter().take(25) {
            let a = idx.search_ef(q, 10, 64);
            idx.search_ef_into(q, 10, 64, &mut SearchScratch::new(), &mut b);
            idx.search_ef_into(q, 10, 64, &mut scratch, &mut out);
            assert_eq!(a, b);
            assert_eq!(a, out);
        }
    }

    #[test]
    fn upsert_remove_filter_results() {
        let vecs = random_vectors(100, 8, 11);
        let mut idx = HnswIndex::new(8, Metric::Euclidean, HnswParams::default());
        for (i, v) in vecs.iter().enumerate() {
            idx.add(i as u64, v);
        }
        assert!(idx.remove(3));
        assert!(!idx.remove(3), "double remove is a no-op");
        assert!(idx.upsert(5, &vecs[3]), "existing id replaced");
        assert!(!idx.upsert(900, &vecs[7]), "new id inserted");
        assert_eq!(idx.live_len(), 100); // -1 removed, -1 upsert tombstone, +1 upsert, +1 new
        assert_eq!(idx.tombstones(), 2);
        // The removed id never surfaces; the upserted id scores at its new
        // position (exactly where vecs[3] used to be).
        let hits = idx.search_ef(&vecs[3], 3, 120);
        let ids: Vec<u64> = hits.iter().map(|h| h.id).collect();
        assert!(!ids.contains(&3), "tombstoned id returned: {ids:?}");
        assert_eq!(ids[0], 5, "upserted vector is its own nearest neighbour");
        let hits = idx.search_ef(&vecs[7], 3, 120);
        assert!(hits.iter().any(|h| h.id == 900));
    }

    #[test]
    fn churned_index_keeps_recall() {
        let dim = 16;
        let vecs = random_vectors(600, dim, 303);
        let fresh_vecs = random_vectors(600, dim, 904);
        let mut flat = FlatIndex::new(dim, Metric::Euclidean);
        let mut hnsw = HnswIndex::new(dim, Metric::Euclidean, HnswParams::default());
        for (i, v) in vecs.iter().enumerate() {
            flat.add(i as u64, v);
            hnsw.add(i as u64, v);
        }
        // Churn 20%: half replacements, half deletions.
        for i in (0..120usize).map(|j| j * 5) {
            if i % 2 == 0 {
                flat.upsert(i as u64, &fresh_vecs[i]);
                hnsw.upsert(i as u64, &fresh_vecs[i]);
            } else {
                flat.remove(i as u64);
                hnsw.remove(i as u64);
            }
        }
        assert_eq!(hnsw.live_len(), flat.live_len());
        let queries = random_vectors(25, dim, 55);
        let mut sum = 0.0;
        for q in &queries {
            let truth: std::collections::HashSet<u64> =
                flat.search(q, 10).into_iter().map(|h| h.id).collect();
            let got = hnsw.search_ef(q, 10, 80).iter().filter(|h| truth.contains(&h.id)).count();
            sum += got as f64 / 10.0;
        }
        let recall = sum / queries.len() as f64;
        assert!(recall > 0.8, "post-churn recall@10 = {recall}");
    }

    #[test]
    fn search_batch_matches_sequential() {
        let vecs = random_vectors(500, 10, 23);
        let mut idx = HnswIndex::new(10, Metric::Euclidean, HnswParams::default());
        for (i, v) in vecs.iter().enumerate() {
            idx.add(i as u64, v);
        }
        let queries = random_vectors(13, 10, 77);
        let seq: Vec<Vec<Hit>> = queries.iter().map(|q| idx.search(q, 5)).collect();
        // No queries, one, and all; no workers, a few, and more than queries.
        for n in [0, 1, queries.len()] {
            for workers in [0, 1, 2, 3, 4, 8, n + 5] {
                let got = idx.search_batch(&queries[..n], 5, workers);
                assert_eq!(got, seq[..n], "n={n} workers={workers}");
            }
        }
    }
}
