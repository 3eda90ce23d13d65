//! Scalar quantization (f32 → i8), the paper's on-device model-compression
//! lever ("compressing learned models (e.g., by floating point precision
//! reduction)", Sec. 5 Resource Constraints).
//!
//! Scoring never dequantizes: rows are consumed as raw i8 through the
//! integer kernels in [`saga_core::kernels`], with each row's scale folded
//! into the final sum once. Cosine and Euclidean additionally need per-row
//! norms, which the table precomputes at build time (4 bytes per row), so
//! every candidate costs exactly one mixed-precision dot product. Top-k
//! search runs that dot over the whole slab in one tiled batch-kernel call
//! (`kernels::dot_f32i8_batch`) and folds scales/norms in during selection.

use crate::flat::{select_top_k_into, Hit, WorstFirst};
use crate::vector::Metric;
use saga_core::kernels;
use std::cell::RefCell;
use std::collections::BinaryHeap;

/// A symmetrically-quantized vector: `value ≈ q * scale`.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedVector {
    /// Per-vector dequantization scale.
    pub scale: f32,
    /// Quantized payload.
    pub data: Vec<i8>,
}

impl QuantizedVector {
    /// Quantizes `v` with a per-vector scale (max-abs symmetric).
    pub fn quantize(v: &[f32]) -> Self {
        let max_abs = v.iter().fold(0.0f32, |m, x| m.max(x.abs()));
        let scale = if max_abs == 0.0 { 1.0 } else { max_abs / 127.0 };
        let data = v.iter().map(|x| (x / scale).round().clamp(-127.0, 127.0) as i8).collect();
        Self { scale, data }
    }

    /// Memory footprint in bytes (data + scale).
    pub fn bytes(&self) -> usize {
        self.data.len() + std::mem::size_of::<f32>()
    }

    /// Dequantized L2 norm `scale · ‖data‖`, computed without
    /// materializing the f32 vector.
    pub fn norm(&self) -> f32 {
        self.scale * (kernels::norm_sq_i8(&self.data) as f32).sqrt()
    }

    /// Similarity against an f32 query without materializing the
    /// dequantized vector — every metric runs on raw i8 data and performs
    /// no allocation.
    pub fn score(&self, metric: Metric, query: &[f32]) -> f32 {
        debug_assert_eq!(query.len(), self.data.len());
        match metric {
            Metric::Dot => self.scale * kernels::dot_f32i8(query, &self.data),
            Metric::Cosine => {
                // The scale cancels between numerator and row norm, so
                // cosine needs only the integer row norm.
                let d = kernels::dot_f32i8(query, &self.data);
                let qn = kernels::norm_sq(query);
                let bn = kernels::norm_sq_i8(&self.data) as f32;
                if qn == 0.0 || bn == 0.0 {
                    0.0
                } else {
                    d / (qn.sqrt() * bn.sqrt())
                }
            }
            // One fused pass — a standalone row has no precomputed norm,
            // so the norm-expansion form would cost an extra sweep here.
            Metric::Euclidean => -kernels::l2_sq_f32i8_direct(query, &self.data, self.scale),
        }
    }
}

/// Reusable per-thread state for [`QuantizedTable`] queries: the bounded
/// selection heap plus the raw-dot buffer the tiled batch kernel writes
/// into (one f32 per row; scales and norms are folded in during selection).
#[derive(Debug, Default)]
pub struct QuantScratch {
    heap: BinaryHeap<WorstFirst>,
    scores: Vec<f32>,
}

impl QuantScratch {
    /// Creates empty scratch; the heap grows to k on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

thread_local! {
    /// Backs the zero-allocation default search path.
    static QUANT_SCRATCH: RefCell<QuantScratch> = RefCell::new(QuantScratch::new());
}

/// A table of quantized vectors with shared dimension — the compressed
/// on-device embedding asset.
#[derive(Debug, Clone)]
pub struct QuantizedTable {
    dim: usize,
    ids: Vec<u64>,
    scales: Vec<f32>,
    data: Vec<i8>,
    /// Tombstone flags for deleted/shadowed rows; slab bytes stay in place
    /// until the table is rebuilt.
    dead: Vec<bool>,
    /// Live tombstone count.
    tombstones: usize,
    /// id → first live row, the upsert/remove lookup structure.
    pos: std::collections::HashMap<u64, u32>,
    /// Dequantized row norms (`scale · ‖row‖`), precomputed so cosine and
    /// Euclidean scoring cost one dot product per candidate.
    norms: Vec<f32>,
}

impl QuantizedTable {
    /// An empty table ready for incremental [`upsert`](Self::upsert)s.
    pub fn new(dim: usize) -> Self {
        Self {
            dim,
            ids: Vec::new(),
            scales: Vec::new(),
            data: Vec::new(),
            dead: Vec::new(),
            tombstones: 0,
            pos: std::collections::HashMap::new(),
            norms: Vec::new(),
        }
    }

    /// Quantizes a set of `(id, vector)` pairs.
    pub fn build(dim: usize, items: impl IntoIterator<Item = (u64, Vec<f32>)>) -> Self {
        let mut t = Self::new(dim);
        for (id, v) in items {
            assert_eq!(v.len(), dim, "vector dimension mismatch");
            let q = QuantizedVector::quantize(&v);
            t.push_row(id, q);
        }
        t
    }

    fn push_row(&mut self, id: u64, q: QuantizedVector) {
        self.pos.entry(id).or_insert(self.ids.len() as u32);
        self.ids.push(id);
        self.scales.push(q.scale);
        self.norms.push(q.norm());
        self.data.extend_from_slice(&q.data);
        self.dead.push(false);
    }

    /// Vector dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Number of live (non-tombstoned) rows.
    pub fn live_len(&self) -> usize {
        self.ids.len() - self.tombstones
    }

    /// Number of tombstoned rows; only a rebuild of the table drops them.
    pub fn tombstones(&self) -> usize {
        self.tombstones
    }

    /// Re-quantizes `v` over an existing row for `id` in place, or appends
    /// a fresh row when `id` is new. Returns `true` if an existing row was
    /// replaced. Any shadowed duplicate rows are tombstoned so exactly one
    /// live row remains per upserted id.
    pub fn upsert(&mut self, id: u64, v: &[f32]) -> bool {
        assert_eq!(v.len(), self.dim, "vector dimension mismatch");
        let q = QuantizedVector::quantize(v);
        match self.pos.get(&id).copied() {
            Some(i) => {
                let i = i as usize;
                for j in (i + 1)..self.ids.len() {
                    if self.ids[j] == id && !self.dead[j] {
                        self.dead[j] = true;
                        self.tombstones += 1;
                    }
                }
                self.scales[i] = q.scale;
                self.norms[i] = q.norm();
                self.data[i * self.dim..(i + 1) * self.dim].copy_from_slice(&q.data);
                true
            }
            None => {
                self.push_row(id, q);
                false
            }
        }
    }

    /// Tombstones every live row of `id`; slab bytes are reclaimed only when
    /// the table is rebuilt. Returns `true` if any row died.
    pub fn remove(&mut self, id: u64) -> bool {
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

    /// Total payload bytes (i8 data + scales + norms + ids).
    pub fn bytes(&self) -> usize {
        self.data.len() + (self.scales.len() + self.norms.len()) * 4 + self.ids.len() * 8
    }

    /// Raw quantized row `i`.
    fn row(&self, i: usize) -> &[i8] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Scores row `i` against an f32 query without dequantizing — the
    /// per-candidate path used by serving layers that pick their own
    /// candidate sets (e.g. the on-device assistant) instead of running a
    /// full top-k scan. Allocation-free.
    pub fn score_row(&self, metric: Metric, query: &[f32], i: usize) -> f32 {
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        match metric {
            Metric::Dot => self.scales[i] * kernels::dot_f32i8(query, self.row(i)),
            Metric::Cosine => {
                let q_norm = kernels::norm_sq(query).sqrt();
                let n = self.norms[i];
                if q_norm == 0.0 || n == 0.0 {
                    0.0
                } else {
                    self.scales[i] * kernels::dot_f32i8(query, self.row(i)) / (q_norm * n)
                }
            }
            // The canonical distance kernel picks the fused sweep or the
            // norm-expansion per dimension regime.
            Metric::Euclidean => -kernels::l2_sq_f32i8(
                query,
                kernels::norm_sq(query),
                self.row(i),
                self.scales[i],
                self.norms[i],
            ),
        }
    }

    /// Dequantized vector for row `i`.
    pub fn dequantize_row(&self, i: usize) -> Vec<f32> {
        let s = self.scales[i];
        self.row(i).iter().map(|&q| q as f32 * s).collect()
    }

    /// Exact top-`k` search over the quantized table (bounded-heap
    /// selection, O(N + k log k)).
    ///
    /// Uses a per-thread [`QuantScratch`]; after warm-up the only
    /// allocation is the returned `Vec`. Use [`QuantizedTable::search_into`]
    /// for a fully allocation-free path.
    pub fn search(&self, metric: Metric, query: &[f32], k: usize) -> Vec<Hit> {
        let mut out = Vec::with_capacity(k.min(self.len()));
        QUANT_SCRATCH.with(|s| self.search_into(metric, query, k, &mut s.borrow_mut(), &mut out));
        out
    }

    /// Zero-allocation search: one tiled batch-kernel pass over the whole
    /// i8 slab into the scratch dot buffer, then scales/norms folded in
    /// during bounded-heap selection — each candidate's raw dot is computed
    /// exactly once, with the query held register-resident across row tiles
    /// (`kernels::dot_f32i8_batch`). Small-dimension Euclidean keeps the
    /// fused per-row sweep, which beats the norm-expansion there (see
    /// `kernels::L2_F32I8_DIRECT_MAX_DIM`). Performs no heap allocation
    /// once scratch and `out` have reached steady-state capacity.
    pub fn search_into(
        &self,
        metric: Metric,
        query: &[f32],
        k: usize,
        scratch: &mut QuantScratch,
        out: &mut Vec<Hit>,
    ) {
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        let q_norm_sq = kernels::norm_sq(query);
        let q_norm = q_norm_sq.sqrt();
        if matches!(metric, Metric::Euclidean) && self.dim <= kernels::L2_F32I8_DIRECT_MAX_DIM {
            let hits = self
                .ids
                .iter()
                .enumerate()
                .filter(|&(i, _)| self.tombstones == 0 || !self.dead[i])
                .map(|(i, &id)| {
                    let score = -kernels::l2_sq_f32i8_direct(query, self.row(i), self.scales[i]);
                    Hit { id, score }
                });
            select_top_k_into(&mut scratch.heap, hits, k, out);
            return;
        }
        if self.is_empty() {
            out.clear();
            return;
        }
        kernels::dot_f32i8_batch(query, &self.data, &mut scratch.scores);
        let hits = self
            .ids
            .iter()
            .enumerate()
            .filter(|&(i, _)| self.tombstones == 0 || !self.dead[i])
            .map(|(i, &id)| {
                let d = scratch.scores[i];
                let score = match metric {
                    Metric::Dot => self.scales[i] * d,
                    Metric::Cosine => {
                        let n = self.norms[i];
                        if q_norm == 0.0 || n == 0.0 {
                            0.0
                        } else {
                            self.scales[i] * d / (q_norm * n)
                        }
                    }
                    // Norm-expansion over the precomputed dequantized row
                    // norms: ‖q − s·b‖² = ‖q‖² − 2s·(q·b) + (s‖b‖)².
                    Metric::Euclidean => -(q_norm_sq - 2.0 * self.scales[i] * d
                        + self.norms[i] * self.norms[i])
                        .max(0.0),
                };
                Hit { id, score }
            });
        select_top_k_into(&mut scratch.heap, hits, k, out);
    }

    /// Exact top-`k` for a batch of queries fanned out as `workers`
    /// contiguous chunks on scoped threads, the first on the caller's.
    /// Results are in query order, identical to sequential
    /// [`QuantizedTable::search`] per query.
    pub fn search_batch(
        &self,
        metric: Metric,
        queries: &[Vec<f32>],
        k: usize,
        workers: usize,
    ) -> Vec<Vec<Hit>> {
        crate::fan_out(queries, workers, |qs| {
            qs.iter().map(|q| self.search(metric, q, k)).collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The approximate f32 vector `q` stands for: the reference the i8
    /// scoring is checked against.
    fn dequantize(q: &QuantizedVector) -> Vec<f32> {
        q.data.iter().map(|&x| x as f32 * q.scale).collect()
    }

    #[test]
    fn quantize_round_trip_error_is_small() {
        let v: Vec<f32> = (0..64).map(|i| ((i as f32) * 0.37).sin()).collect();
        let q = QuantizedVector::quantize(&v);
        let back = dequantize(&q);
        for (a, b) in v.iter().zip(&back) {
            assert!((a - b).abs() < 0.01, "{a} vs {b}");
        }
    }

    #[test]
    fn zero_vector_is_stable() {
        let q = QuantizedVector::quantize(&[0.0; 8]);
        assert_eq!(dequantize(&q), vec![0.0; 8]);
        // Zero-norm guards: cosine is 0, euclidean is plain −‖q‖².
        assert_eq!(q.score(Metric::Cosine, &[1.0; 8]), 0.0);
        assert!((q.score(Metric::Euclidean, &[1.0; 8]) + 8.0).abs() < 1e-5);
    }

    #[test]
    fn quantized_is_4x_smaller() {
        let v = vec![0.5f32; 128];
        let q = QuantizedVector::quantize(&v);
        assert!(q.bytes() * 3 < v.len() * 4, "{} vs {}", q.bytes(), v.len() * 4);
    }

    #[test]
    fn quantized_search_approximates_exact() {
        use crate::flat::FlatIndex;
        use saga_core::rng::SplitMix64;
        let mut rng = SplitMix64::new(3);
        let dim = 32;
        let vecs: Vec<Vec<f32>> =
            (0..200).map(|_| (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect()).collect();
        let mut flat = FlatIndex::new(dim, Metric::Cosine);
        for (i, v) in vecs.iter().enumerate() {
            flat.add(i as u64, v);
        }
        let table =
            QuantizedTable::build(dim, vecs.iter().enumerate().map(|(i, v)| (i as u64, v.clone())));
        let q: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let exact: std::collections::HashSet<u64> =
            flat.search(&q, 10).into_iter().map(|h| h.id).collect();
        let approx = table.search(Metric::Cosine, &q, 10);
        let overlap = approx.iter().filter(|h| exact.contains(&h.id)).count();
        assert!(overlap >= 8, "quantized recall {overlap}/10");
    }

    #[test]
    fn dot_score_matches_dequantized_dot() {
        let v = vec![0.25f32, -0.5, 0.75, 1.0];
        let q = QuantizedVector::quantize(&v);
        let query = vec![1.0f32, 2.0, -1.0, 0.5];
        let fast = q.score(Metric::Dot, &query);
        let slow = Metric::Dot.score(&dequantize(&q), &query);
        assert!((fast - slow).abs() < 1e-4);
    }

    #[test]
    fn all_metrics_match_dequantized_reference() {
        let v: Vec<f32> = (0..48).map(|i| ((i as f32) * 0.23).sin()).collect();
        let q = QuantizedVector::quantize(&v);
        let query: Vec<f32> = (0..48).map(|i| ((i as f32) * 0.41).cos()).collect();
        let deq = dequantize(&q);
        for m in [Metric::Dot, Metric::Cosine, Metric::Euclidean] {
            let fast = q.score(m, &query);
            let slow = m.score(&query, &deq);
            assert!((fast - slow).abs() < 1e-3, "{m:?}: {fast} vs {slow}");
        }
    }

    #[test]
    fn table_search_matches_per_row_scoring() {
        let dim = 24;
        let vecs: Vec<Vec<f32>> = (0..50)
            .map(|i| (0..dim).map(|j| ((i * dim + j) as f32 * 0.17).sin()).collect())
            .collect();
        let table =
            QuantizedTable::build(dim, vecs.iter().enumerate().map(|(i, v)| (i as u64, v.clone())));
        let query: Vec<f32> = (0..dim).map(|j| (j as f32 * 0.31).cos()).collect();
        for m in [Metric::Dot, Metric::Cosine, Metric::Euclidean] {
            let hits = table.search(m, &query, 5);
            for h in &hits {
                let qv = QuantizedVector {
                    scale: table.scales[h.id as usize],
                    data: table.row(h.id as usize).to_vec(),
                };
                assert!(
                    (h.score - qv.score(m, &query)).abs() < 1e-4,
                    "{m:?} id {}: {} vs {}",
                    h.id,
                    h.score,
                    qv.score(m, &query)
                );
            }
        }
    }

    #[test]
    fn score_row_matches_search_scores() {
        let dim = 20;
        let vecs: Vec<Vec<f32>> = (0..30)
            .map(|i| (0..dim).map(|j| ((i * 11 + j) as f32 * 0.19).sin()).collect())
            .collect();
        let table =
            QuantizedTable::build(dim, vecs.iter().enumerate().map(|(i, v)| (i as u64, v.clone())));
        let query: Vec<f32> = (0..dim).map(|j| (j as f32 * 0.43).cos()).collect();
        for m in [Metric::Dot, Metric::Cosine, Metric::Euclidean] {
            for h in table.search(m, &query, table.len()) {
                let direct = table.score_row(m, &query, h.id as usize);
                // search_into scores through the tiled batch kernel,
                // score_row through the single-row kernel; they agree
                // within float-reassociation tolerance, not bit-exactly.
                let tol = 1e-5 * direct.abs().max(1.0);
                assert!((h.score - direct).abs() < tol, "{m:?} id {}", h.id);
            }
        }
    }

    #[test]
    fn upsert_and_remove_track_live_rows() {
        let dim = 8;
        let v = |seed: u64| -> Vec<f32> {
            (0..dim).map(|j| ((seed * 13 + j as u64) as f32 * 0.21).sin()).collect()
        };
        let mut t = QuantizedTable::new(dim);
        assert!(!t.upsert(1, &v(1)));
        assert!(!t.upsert(2, &v(2)));
        assert!(!t.upsert(3, &v(3)));
        assert!(t.upsert(2, &v(20)), "existing row replaced in place");
        assert_eq!(t.len(), 3);
        assert!(t.remove(3));
        assert!(!t.remove(3));
        assert_eq!(t.live_len(), 2);
        for m in [Metric::Dot, Metric::Cosine, Metric::Euclidean] {
            let hits = t.search(m, &v(0), 10);
            let ids: Vec<u64> = hits.iter().map(|h| h.id).collect();
            assert!(!ids.contains(&3), "{m:?}: tombstoned id returned");
            assert_eq!(hits.len(), 2, "{m:?}");
        }
        // The replaced row scores like a fresh quantization of the new vector.
        let q = QuantizedVector::quantize(&v(20));
        let hits = t.search(Metric::Dot, &v(0), 10);
        let h2 = hits.iter().find(|h| h.id == 2).unwrap();
        assert!((h2.score - q.score(Metric::Dot, &v(0))).abs() < 1e-4);
    }

    #[test]
    fn search_batch_matches_sequential() {
        let dim = 16;
        let vecs: Vec<Vec<f32>> = (0..120)
            .map(|i| (0..dim).map(|j| ((i * 7 + j) as f32 * 0.13).sin()).collect())
            .collect();
        let table =
            QuantizedTable::build(dim, vecs.iter().enumerate().map(|(i, v)| (i as u64, v.clone())));
        let queries: Vec<Vec<f32>> = (0..13)
            .map(|i| (0..dim).map(|j| ((i * 3 + j) as f32 * 0.29).cos()).collect())
            .collect();
        let seq: Vec<Vec<Hit>> =
            queries.iter().map(|q| table.search(Metric::Cosine, q, 5)).collect();
        // No queries, one, and all; no workers, a few, and more than queries.
        for n in [0, 1, queries.len()] {
            for workers in [0, 1, 2, 3, 4, 8, n + 5] {
                let got = table.search_batch(Metric::Cosine, &queries[..n], 5, workers);
                assert_eq!(got, seq[..n], "n={n} workers={workers}");
            }
        }
    }
}
