//! Property tests for the vector substrate.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use saga_ann::{
    FlatIndex, FlatScratch, Hit, HnswIndex, HnswParams, Metric, QuantizedTable, QuantizedVector,
    SearchScratch,
};
use saga_core::kernels;

fn vectors(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..n).map(|_| (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect()).collect()
}

/// One step of a deterministic index-mutation script.
#[derive(Clone, Debug)]
enum MutOp {
    Upsert(u64, Vec<f32>),
    Remove(u64),
    Compact,
}

/// Generates a mutation script over a small id universe with components on
/// a coarse grid (forcing duplicate vectors and exact score ties), plus the
/// final id → vector set it converges to.
fn mutation_script(
    seed: u64,
    dim: usize,
    ops: usize,
) -> (Vec<MutOp>, std::collections::BTreeMap<u64, Vec<f32>>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut script = Vec::with_capacity(ops);
    let mut live = std::collections::BTreeMap::new();
    for step in 0..ops {
        let id = rng.gen_range(0u64..40);
        if rng.gen_bool(0.25) {
            script.push(MutOp::Remove(id));
            live.remove(&id);
        } else {
            let v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-2i32..=2) as f32 * 0.5).collect();
            script.push(MutOp::Upsert(id, v.clone()));
            live.insert(id, v);
        }
        if step == ops / 2 {
            script.push(MutOp::Compact);
        }
    }
    (script, live)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// HNSW recall@10 vs exact search stays above a floor for arbitrary
    /// random datasets.
    #[test]
    fn hnsw_recall_floor(seed in 0u64..10_000, n in 200usize..900) {
        let dim = 12;
        let vecs = vectors(n, dim, seed);
        let mut flat = FlatIndex::new(dim, Metric::Euclidean);
        let mut hnsw = HnswIndex::new(dim, Metric::Euclidean, HnswParams::default());
        for (i, v) in vecs.iter().enumerate() {
            flat.add(i as u64, v);
            hnsw.add(i as u64, v);
        }
        let queries = vectors(10, dim, seed ^ 0xabc);
        let mut recall = 0.0;
        for q in &queries {
            let truth: std::collections::HashSet<u64> =
                flat.search(q, 10).into_iter().map(|h| h.id).collect();
            let got = hnsw.search_ef(q, 10, 96);
            recall += got.iter().filter(|h| truth.contains(&h.id)).count() as f64 / 10.0;
        }
        recall /= queries.len() as f64;
        prop_assert!(recall > 0.7, "recall {recall} at n={n} seed={seed}");
    }

    /// Scalar quantization reconstruction error is bounded by scale/2 per
    /// element, for any input vector.
    #[test]
    fn quantization_error_bound(v in proptest::collection::vec(-100.0f32..100.0, 1..256)) {
        let q = QuantizedVector::quantize(&v);
        let back = q.dequantize();
        for (orig, rec) in v.iter().zip(&back) {
            prop_assert!(
                (orig - rec).abs() <= q.scale / 2.0 + 1e-6,
                "error {} exceeds half-scale {}",
                (orig - rec).abs(),
                q.scale / 2.0
            );
        }
    }

    /// Exact search returns results in non-increasing score order with the
    /// requested cardinality, for every metric.
    #[test]
    fn flat_search_contract(seed in 0u64..10_000, k in 1usize..20) {
        let dim = 8;
        let vecs = vectors(100, dim, seed);
        for metric in [Metric::Cosine, Metric::Euclidean, Metric::Dot] {
            let mut idx = FlatIndex::new(dim, metric);
            for (i, v) in vecs.iter().enumerate() {
                idx.add(i as u64, v);
            }
            let hits = idx.search(&vecs[0], k);
            prop_assert_eq!(hits.len(), k.min(100));
            prop_assert!(hits.windows(2).all(|w| w[0].score >= w[1].score));
            // Self should be the best hit for cosine/euclidean.
            if metric != Metric::Dot {
                prop_assert_eq!(hits[0].id, 0);
            }
        }
    }

    /// A persistent, reused [`SearchScratch`] gives results identical to a
    /// fresh scratch per query, across interleaved adds and searches — the
    /// epoch-stamped visited marks must never leak state between queries.
    #[test]
    fn hnsw_scratch_reuse_equals_fresh(seed in 0u64..10_000) {
        let dim = 10;
        let vecs = vectors(300, dim, seed);
        let queries = vectors(6, dim, seed ^ 0x517);
        let mut idx = HnswIndex::new(dim, Metric::Cosine, HnswParams::default());
        let mut reused = SearchScratch::new();
        for (chunk_no, chunk) in vecs.chunks(75).enumerate() {
            for (i, v) in chunk.iter().enumerate() {
                idx.add((chunk_no * 75 + i) as u64, v);
            }
            for q in &queries {
                let with_reused = idx.search_ef_with(q, 10, 64, &mut reused);
                let with_fresh = idx.search_ef_with(q, 10, 64, &mut SearchScratch::new());
                prop_assert_eq!(with_reused, with_fresh);
            }
        }
    }

    /// The bounded-heap top-k of [`FlatIndex::search`] equals the full-sort
    /// reference — `(score desc, id asc)` then truncate — including exact
    /// tie handling. Components are quantized to force score collisions.
    #[test]
    fn flat_top_k_equals_full_sort(seed in 0u64..10_000, k in 1usize..30) {
        let dim = 4;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        // Few distinct component values + tiny dim → many duplicate vectors
        // and therefore many exact score ties.
        let vecs: Vec<Vec<f32>> = (0..120)
            .map(|_| (0..dim).map(|_| rng.gen_range(-2i32..=2) as f32 * 0.5).collect())
            .collect();
        let q: Vec<f32> = (0..dim).map(|_| rng.gen_range(-2i32..=2) as f32 * 0.5).collect();
        for metric in [Metric::Cosine, Metric::Euclidean, Metric::Dot] {
            let mut idx = FlatIndex::new(dim, metric);
            for (i, v) in vecs.iter().enumerate() {
                idx.add(i as u64, v);
            }
            let mut reference: Vec<Hit> = vecs
                .iter()
                .enumerate()
                .map(|(i, v)| Hit { id: i as u64, score: metric.score(&q, v) })
                .collect();
            reference.sort_by(Hit::best_first);
            reference.truncate(k);
            prop_assert_eq!(idx.search(&q, k), reference, "metric {:?}", metric);
        }
    }

    /// Dequantize-free scoring through the i8 kernels agrees with the
    /// scalar dequantize-then-score reference within `1e-3 · scale · dim`
    /// for every metric and arbitrary vectors.
    #[test]
    fn i8_scoring_matches_dequantized_reference(
        v in proptest::collection::vec(-100.0f32..100.0, 1..256),
        seed in 0u64..10_000,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let query: Vec<f32> = (0..v.len()).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let q = QuantizedVector::quantize(&v);
        let deq = q.dequantize();
        for metric in [Metric::Dot, Metric::Cosine, Metric::Euclidean] {
            let fast = q.score(metric, &query);
            let slow = metric.score(&query, &deq);
            // Absolute term per the kernel contract, plus a relative term
            // for f32 rounding at large magnitudes (‖v‖² grows with dim).
            let bound = 1e-3 * q.scale * v.len() as f32 + 1e-4 + 1e-5 * slow.abs();
            prop_assert!(
                (fast - slow).abs() <= bound,
                "{:?}: fast {} vs dequantized {} (bound {})",
                metric, fast, slow, bound
            );
        }
    }

    /// An index grown incrementally through upserts and tombstone deletes
    /// (with a mid-stream compaction) returns exactly the same top-k as an
    /// index built from scratch on the final vector set — ties included —
    /// for the flat backend, both before and after a final compaction.
    #[test]
    fn flat_incremental_equals_scratch_build(seed in 0u64..10_000, k in 1usize..25) {
        let dim = 6;
        let (script, live) = mutation_script(seed, dim, 160);
        let q: Vec<f32> = {
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x9e37);
            (0..dim).map(|_| rng.gen_range(-2i32..=2) as f32 * 0.5).collect()
        };
        for metric in [Metric::Cosine, Metric::Euclidean, Metric::Dot] {
            let mut inc = FlatIndex::new(dim, metric);
            for op in &script {
                match op {
                    MutOp::Upsert(id, v) => { inc.upsert(*id, v); }
                    MutOp::Remove(id) => { inc.remove(*id); }
                    MutOp::Compact => inc.compact(),
                }
            }
            let mut scratch = FlatIndex::new(dim, metric);
            for (id, v) in &live {
                scratch.add(*id, v);
            }
            prop_assert_eq!(inc.live_len(), scratch.len());
            let want = scratch.search(&q, k);
            prop_assert_eq!(&inc.search(&q, k), &want, "pre-compact, metric {:?}", metric);
            inc.compact();
            prop_assert_eq!(&inc.search(&q, k), &want, "post-compact, metric {:?}", metric);
        }
    }

    /// The block scan against its two references, bit for bit, after a
    /// random `add` (duplicate ids allowed) / `upsert` / `remove` /
    /// `compact` history: `search_block_into` ≡ `search_into` query by query
    /// ≡ a full [`Hit::best_first`] sort over every live row scored alone
    /// from freshly computed norms — so the stored norms are the fresh ones,
    /// tombstones never surface, and neither the block a query rode in nor
    /// its place in it shows in the reply. `k` runs from 0 past the live
    /// count and `nq` past one query block; where serde is functional, a
    /// round-tripped index (norms rebuilt on load) must answer the same.
    #[test]
    fn flat_block_scan_equals_single_queries_and_full_sort(
        seed in 0u64..10_000,
        // Past dim 512 a row strip is 8 rows, so a short history spans several.
        dim in prop_oneof![1usize..20, 510usize..530],
        ops in 0usize..120,
        nq in 1usize..20,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let vector = |rng: &mut ChaCha8Rng| -> Vec<f32> {
            // A coarse grid (ties, zero vectors) half the time, free floats otherwise.
            if rng.gen_bool(0.5) {
                (0..dim).map(|_| rng.gen_range(-2i32..=2) as f32 * 0.5).collect()
            } else {
                (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
            }
        };
        for metric in [Metric::Cosine, Metric::Dot, Metric::Euclidean] {
            let mut idx = FlatIndex::new(dim, metric);
            // The model: physical rows in slab order, (id, vector, live).
            let mut rows: Vec<(u64, Vec<f32>, bool)> = Vec::new();
            for _ in 0..ops {
                let id = rng.gen_range(0u64..24);
                match rng.gen_range(0u32..10) {
                    0..=3 => {
                        let v = vector(&mut rng);
                        idx.add(id, &v);
                        rows.push((id, v, true));
                    }
                    4..=6 => {
                        let v = vector(&mut rng);
                        idx.upsert(id, &v);
                        match rows.iter().position(|r| r.0 == id && r.2) {
                            Some(first) => {
                                rows.iter_mut().skip(first + 1).filter(|r| r.0 == id).for_each(|r| r.2 = false);
                                rows[first].1 = v;
                            }
                            None => rows.push((id, v, true)),
                        }
                    }
                    7..=8 => {
                        idx.remove(id);
                        rows.iter_mut().filter(|r| r.0 == id).for_each(|r| r.2 = false);
                    }
                    _ => {
                        idx.compact();
                        rows.retain(|r| r.2);
                    }
                }
            }
            let live = rows.iter().filter(|r| r.2).count();
            prop_assert_eq!(idx.live_len(), live);
            let queries: Vec<Vec<f32>> = (0..nq).map(|_| vector(&mut rng)).collect();
            let block: Vec<f32> = queries.iter().flatten().copied().collect();
            let reloaded: Option<FlatIndex> =
                serde_json::to_string(&idx).ok().map(|json| serde_json::from_str(&json).unwrap());
            let (mut scratch, mut blocked, mut single) = (FlatScratch::new(), Vec::new(), Vec::new());
            for k in [0, 1, 3, live, live + 5] {
                idx.search_block_into(&block, k, &mut scratch, &mut blocked);
                let per_query = k.min(live);
                prop_assert_eq!(blocked.len(), nq * per_query);
                for (i, q) in queries.iter().enumerate() {
                    let got = &blocked[i * per_query..(i + 1) * per_query];
                    idx.search_into(q, k, &mut scratch, &mut single);
                    prop_assert_eq!(got, &single[..], "{:?} k={} query {} of {}", metric, k, i, nq);
                    if let Some(reloaded) = &reloaded {
                        prop_assert_eq!(got, &reloaded.search(q, k)[..], "{:?} reloaded k={}", metric, k);
                    }
                    // Euclidean keeps its single-query sweep, whose row
                    // tiles are not position-free; the full-sort reference
                    // is for the tile metrics.
                    if metric == Metric::Euclidean {
                        continue;
                    }
                    let q_norm = [kernels::l2_norm(q)];
                    let mut reference: Vec<Hit> = rows
                        .iter()
                        .filter(|r| r.2)
                        .map(|(id, v, _)| {
                            let row_norm = [kernels::l2_norm(v)];
                            let norms = (metric == Metric::Cosine).then_some((&q_norm[..], &row_norm[..]));
                            let mut score = [0.0f32];
                            kernels::dot_tile(dim, q, v, norms, &mut score);
                            Hit { id: *id, score: score[0] }
                        })
                        .collect();
                    reference.sort_by(Hit::best_first);
                    reference.truncate(k);
                    let bits = |hits: &[Hit]| hits.iter().map(|h| (h.id, h.score.to_bits())).collect::<Vec<_>>();
                    prop_assert_eq!(bits(got), bits(&reference), "{:?} k={} query {}", metric, k, i);
                }
            }
        }
    }

    /// Same incremental-vs-scratch equivalence for the quantized backend:
    /// re-quantizing on upsert must leave rows bit-identical to quantizing
    /// the final vector set directly, so scores (and tie order) match.
    #[test]
    fn quantized_incremental_equals_scratch_build(seed in 0u64..10_000, k in 1usize..25) {
        let dim = 6;
        let (script, live) = mutation_script(seed, dim, 160);
        let q: Vec<f32> = {
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x9e37);
            (0..dim).map(|_| rng.gen_range(-2i32..=2) as f32 * 0.5).collect()
        };
        let mut inc = QuantizedTable::new(dim);
        for op in &script {
            match op {
                MutOp::Upsert(id, v) => { inc.upsert(*id, v); }
                MutOp::Remove(id) => { inc.remove(*id); }
                MutOp::Compact => inc.compact(),
            }
        }
        let scratch =
            QuantizedTable::build(dim, live.iter().map(|(id, v)| (*id, v.clone())));
        prop_assert_eq!(inc.live_len(), scratch.len());
        for metric in [Metric::Cosine, Metric::Euclidean, Metric::Dot] {
            let want = scratch.search(metric, &q, k);
            prop_assert_eq!(&inc.search(metric, &q, k), &want, "pre-compact, metric {:?}", metric);
        }
        inc.compact();
        for metric in [Metric::Cosine, Metric::Euclidean, Metric::Dot] {
            let want = scratch.search(metric, &q, k);
            prop_assert_eq!(&inc.search(metric, &q, k), &want, "post-compact, metric {:?}", metric);
        }
    }

    /// [`QuantizedTable::search`] equals the full-sort reference over its
    /// own per-row scores — `(score desc, id asc)` then truncate, including
    /// exact tie handling — and every returned score stays within the
    /// quantization error bound of the dequantized baseline. Components are
    /// drawn from a small grid to force duplicate rows and exact ties.
    #[test]
    fn quantized_top_k_equals_full_sort(seed in 0u64..10_000, k in 1usize..30) {
        let dim = 4;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let vecs: Vec<Vec<f32>> = (0..120)
            .map(|_| (0..dim).map(|_| rng.gen_range(-2i32..=2) as f32 * 0.5).collect())
            .collect();
        let q: Vec<f32> = (0..dim).map(|_| rng.gen_range(-2i32..=2) as f32 * 0.5).collect();
        let table = QuantizedTable::build(
            dim,
            vecs.iter().enumerate().map(|(i, v)| (i as u64, v.clone())),
        );
        for metric in [Metric::Cosine, Metric::Euclidean, Metric::Dot] {
            let mut reference: Vec<Hit> = (0..table.len())
                .map(|i| Hit { id: i as u64, score: table.score_row(metric, &q, i) })
                .collect();
            reference.sort_by(Hit::best_first);
            reference.truncate(k);
            let hits = table.search(metric, &q, k);
            prop_assert_eq!(&hits, &reference, "metric {:?}", metric);
            // Returned scores track the dequantized baseline.
            for h in &hits {
                let baseline = metric.score(&q, &table.dequantize_row(h.id as usize));
                prop_assert!(
                    (h.score - baseline).abs() <= 1e-2,
                    "{:?} id {}: {} vs baseline {}",
                    metric, h.id, h.score, baseline
                );
            }
        }
    }
}
