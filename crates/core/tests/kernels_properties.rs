//! Property tests: the unrolled kernels must agree with the naive scalar
//! loops they replaced (within float-reassociation tolerance) for arbitrary
//! inputs — lengths straddling the unroll width, zero vectors, tiny and
//! large magnitudes.
//!
//! The second half pins every available intrinsic backend against the
//! portable reference (`backend_equivalence_*`): dims 0–257 cover
//! non-multiple-of-lane tails, sub-slicing at a random offset covers
//! unaligned loads, and the special-value tests check NaN/inf propagation.
//! These iterate [`kernels::available_backends`] directly — no global
//! dispatch state is mutated, so they are safe under the parallel test
//! runner. Integer kernels must be bit-exact; f32 kernels get the same
//! scaled reassociation/FMA tolerance as the scalar comparisons.

use proptest::prelude::*;
use saga_core::kernels;

fn naive_dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn naive_l2_sq(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

fn naive_cosine(a: &[f32], b: &[f32]) -> f32 {
    let d = naive_dot(a, b);
    let na = naive_dot(a, a);
    let nb = naive_dot(b, b);
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        d / (na.sqrt() * nb.sqrt())
    }
}

/// Tolerance scaled by the magnitude of the terms being summed: unrolled
/// kernels reassociate the reduction, so the bound must grow with the sum
/// of absolute terms (it reduces to the plain 1e-5 for unit-scale data).
fn tol(terms: impl Iterator<Item = f32>) -> f32 {
    1e-5 * (1.0 + terms.map(f32::abs).sum::<f32>())
}

/// A pair of equal-length vectors with lengths around the unroll widths.
fn vec_pair() -> impl Strategy<Value = (Vec<f32>, Vec<f32>)> {
    (1usize..96).prop_flat_map(|n| {
        (proptest::collection::vec(-1.0f32..1.0, n), proptest::collection::vec(-1.0f32..1.0, n))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dot_matches_scalar((a, b) in vec_pair()) {
        let t = tol(a.iter().zip(&b).map(|(x, y)| x * y));
        prop_assert!((kernels::dot(&a, &b) - naive_dot(&a, &b)).abs() <= t);
    }

    #[test]
    fn l2_sq_matches_scalar((a, b) in vec_pair()) {
        let t = tol(a.iter().zip(&b).map(|(x, y)| (x - y) * (x - y)));
        prop_assert!((kernels::l2_sq(&a, &b) - naive_l2_sq(&a, &b)).abs() <= t);
        let tn = tol(a.iter().map(|x| x * x));
        prop_assert!((kernels::norm_sq(&a) - naive_dot(&a, &a)).abs() <= tn);
    }

    /// Cosine is bounded in [-1, 1]; the plain 1e-5 applies. Both the full
    /// kernel and the precomputed-query-norm variant must agree with the
    /// scalar reference.
    #[test]
    fn cosine_matches_scalar((a, b) in vec_pair()) {
        let reference = naive_cosine(&a, &b);
        prop_assert!((kernels::cosine(&a, &b) - reference).abs() <= 1e-5);
        let qn = kernels::l2_norm(&a);
        prop_assert!((kernels::cosine_qnorm(&a, qn, &b) - reference).abs() <= 1e-5);
    }

    #[test]
    fn triple_kernels_match_scalar((a, b) in vec_pair(), seed in 0u64..1000) {
        // Third vector derived deterministically from the pair.
        let c: Vec<f32> = a
            .iter()
            .zip(&b)
            .enumerate()
            .map(|(i, (x, y))| (x - y) * ((seed + i as u64) % 7) as f32 / 7.0)
            .collect();
        let nd3: f32 = (0..a.len()).map(|i| a[i] * b[i] * c[i]).sum();
        let t3 = tol((0..a.len()).map(|i| a[i] * b[i] * c[i]));
        prop_assert!((kernels::dot3(&a, &b, &c) - nd3).abs() <= t3);
        let ntr: f32 = (0..a.len())
            .map(|i| {
                let d = a[i] + b[i] - c[i];
                d * d
            })
            .sum();
        let tt = tol((0..a.len()).map(|i| {
            let d = a[i] + b[i] - c[i];
            d * d
        }));
        prop_assert!((kernels::translate_l2_sq(&a, &b, &c) - ntr).abs() <= tt);
    }

    /// Batch kernels must agree with row-at-a-time single calls within the
    /// reassociation tolerance: they accumulate in a different order than
    /// the single-row kernels, so f32 results match to `tol`, not bitwise.
    #[test]
    fn batch_matches_single(q in proptest::collection::vec(-1.0f32..1.0, 1..48), rows in 0usize..12, seed in 0u64..1000) {
        let dim = q.len();
        let block: Vec<f32> = (0..rows * dim)
            .map(|i| (((seed + i as u64) % 17) as f32 / 8.5) - 1.0)
            .collect();
        let mut out = Vec::new();
        kernels::dot_batch(&q, &block, &mut out);
        prop_assert_eq!(out.len(), rows);
        for (i, &s) in out.iter().enumerate() {
            let row = &block[i * dim..(i + 1) * dim];
            let t = tol(q.iter().zip(row).map(|(x, y)| x * y));
            prop_assert!((s - kernels::dot(&q, row)).abs() <= t);
        }
        kernels::l2_sq_batch(&q, &block, &mut out);
        for (i, &s) in out.iter().enumerate() {
            let row = &block[i * dim..(i + 1) * dim];
            let t = tol(q.iter().zip(row).map(|(x, y)| (x - y) * (x - y)));
            prop_assert!((s - kernels::l2_sq(&q, row)).abs() <= t);
        }
    }
}

/// One call of a backend's scan tile, norms (for the cosine form) computed
/// by that backend.
fn tile(
    be: &kernels::Backend,
    dim: usize,
    queries: &[f32],
    block: &[f32],
    cosine: bool,
) -> Vec<f32> {
    let norms_of = |m: &[f32]| m.chunks(dim).map(|v| (be.norm_sq)(v).sqrt()).collect::<Vec<f32>>();
    let (q_norms, row_norms) = (norms_of(queries), norms_of(block));
    let mut out = vec![f32::NAN; (queries.len() / dim) * (block.len() / dim)];
    (be.dot_tile)(dim, queries, block, cosine.then_some((&q_norms[..], &row_norms[..])), &mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The per-pair invariant of the scan tile, on every backend: the score
    /// of (query, row) has the same bits when the pair is scored alone (a
    /// 1 × 1 call, all remainder paths) as in the full block and in
    /// sub-blocks cut at every query and row offset — so with that query
    /// first, last or in a query-tile remainder, and that row in a full row
    /// tile or the row tail. Scores are also within tolerance of the naive
    /// reference, and a zero-norm query or row scores exactly 0.0.
    #[test]
    fn tile_scores_do_not_depend_on_the_tiling(
        dim in 1usize..=130,
        rows in 0usize..=19,
        nq in 1usize..=9,
        seed in any::<u64>(),
    ) {
        let mut state = seed | 1;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 40) as f32 / (1u64 << 23) as f32 - 1.0
        };
        let mut queries: Vec<f32> = (0..nq * dim).map(|_| next()).collect();
        let mut block: Vec<f32> = (0..rows * dim).map(|_| next()).collect();
        // Usually one zero query and one zero row, wherever the seed puts them.
        let (zero_q, zero_r) = (seed as usize % (nq + 1), (seed >> 8) as usize % (rows + 1));
        if zero_q < nq {
            queries[zero_q * dim..(zero_q + 1) * dim].fill(0.0);
        }
        if zero_r < rows {
            block[zero_r * dim..(zero_r + 1) * dim].fill(0.0);
        }
        for be in kernels::available_backends() {
            for cosine in [false, true] {
                let mut alone = vec![0u32; nq * rows];
                for q in 0..nq {
                    for r in 0..rows {
                        let (query, row) = (&queries[q * dim..(q + 1) * dim], &block[r * dim..(r + 1) * dim]);
                        let s = tile(be, dim, query, row, cosine)[0];
                        alone[q * rows + r] = s.to_bits();
                        let ctx = format!("{} cosine={cosine} dim {dim} pair ({q}, {r})", be.name);
                        if cosine {
                            prop_assert!((s - naive_cosine(query, row)).abs() <= 1e-4, "{ctx}: {s}");
                            if q == zero_q || r == zero_r {
                                prop_assert_eq!(s.to_bits(), 0, "{}", ctx);
                            }
                        } else {
                            let t = tol(query.iter().zip(row).map(|(x, y)| x * y));
                            prop_assert!((s - naive_dot(query, row)).abs() <= t, "{ctx}: {s}");
                        }
                    }
                }
                for q_lo in 0..nq {
                    for r_lo in 0..rows {
                        // From (q_lo, r_lo) to the end, and from the start up to it.
                        for (qs, rs) in [(q_lo..nq, r_lo..rows), (0..q_lo + 1, 0..r_lo + 1)] {
                            let got = tile(
                                be,
                                dim,
                                &queries[qs.start * dim..qs.end * dim],
                                &block[rs.start * dim..rs.end * dim],
                                cosine,
                            );
                            for (i, q) in qs.clone().enumerate() {
                                for (j, r) in rs.clone().enumerate() {
                                    prop_assert_eq!(
                                        got[i * rs.len() + j].to_bits(),
                                        alone[q * rows + r],
                                        "{} cosine={} dim {}: pair ({}, {}) in block {:?} x {:?}",
                                        be.name, cosine, dim, q, r, qs, rs
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

/// True when `x` and `y` agree as dispatch-equivalent results: identical
/// special-value class (NaN is NaN, infinities match exactly including
/// sign), otherwise within `tol`.
fn agree(x: f32, y: f32, tol: f32) -> bool {
    if x.is_nan() || y.is_nan() {
        return x.is_nan() && y.is_nan();
    }
    if x.is_infinite() || y.is_infinite() {
        return x == y;
    }
    (x - y).abs() <= tol
}

/// Equal-length vector pairs across the full tail-shape range (0–257),
/// plus an offset to test unaligned sub-slices.
fn backend_inputs() -> impl Strategy<Value = (Vec<f32>, Vec<f32>, usize)> {
    (0usize..258, 0usize..8).prop_flat_map(|(n, off)| {
        (
            proptest::collection::vec(-1.0f32..1.0, n),
            proptest::collection::vec(-1.0f32..1.0, n),
            Just(off.min(n)),
        )
    })
}

fn i8_inputs() -> impl Strategy<Value = (Vec<i8>, Vec<i8>, usize)> {
    (0usize..258, 0usize..8).prop_flat_map(|(n, off)| {
        (
            proptest::collection::vec(any::<i8>(), n),
            proptest::collection::vec(any::<i8>(), n),
            Just(off.min(n)),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every f32 kernel of every available intrinsic backend agrees with
    /// the portable reference, including on unaligned sub-slices.
    #[test]
    fn backend_equivalence_f32((a, b, off) in backend_inputs()) {
        let p = &kernels::PORTABLE;
        for be in kernels::available_backends() {
            for (x, y) in [(&a[..], &b[..]), (&a[off..], &b[off..])] {
                let t = tol(x.iter().chain(y).copied());
                prop_assert!(agree((be.dot)(x, y), (p.dot)(x, y), t), "dot {}", be.name);
                prop_assert!(agree((be.l2_sq)(x, y), (p.l2_sq)(x, y), t), "l2_sq {}", be.name);
                prop_assert!(agree((be.norm_sq)(x), (p.norm_sq)(x), t), "norm_sq {}", be.name);
                // Cosine is bounded in [-1, 1]; 2e-5 absorbs the worst-case
                // reduction-order drift at dim 257.
                prop_assert!(agree((be.cosine)(x, y), (p.cosine)(x, y), 2e-5), "cosine {}", be.name);
                let qn = (p.norm_sq)(x).sqrt();
                prop_assert!(
                    agree((be.cosine_qnorm)(x, qn, y), (p.cosine_qnorm)(x, qn, y), 2e-5),
                    "cosine_qnorm {}", be.name
                );
                prop_assert!(agree((be.dot3)(x, y, x), (p.dot3)(x, y, x), t), "dot3 {}", be.name);
                // With t == h the difference reduces to r elementwise, so
                // the summed terms are r² (identical across backends; only
                // accumulation order differs).
                let tt = tol(y.iter().map(|r| r * r));
                prop_assert!(
                    agree((be.translate_l2_sq)(x, y, x), (p.translate_l2_sq)(x, y, x), tt),
                    "translate_l2_sq {}", be.name
                );
            }
        }
    }

    /// Integer kernels are bit-exact across backends; the mixed f32·i8
    /// kernels carry the scaled f32 tolerance.
    #[test]
    fn backend_equivalence_i8((a, b, off) in i8_inputs()) {
        let p = &kernels::PORTABLE;
        let q: Vec<f32> = a.iter().map(|&v| v as f32 / 128.0).collect();
        for be in kernels::available_backends() {
            for (x, y, f) in [(&a[..], &b[..], &q[..]), (&a[off..], &b[off..], &q[off..])] {
                prop_assert_eq!((be.dot_i8i8)(x, y), (p.dot_i8i8)(x, y), "dot_i8i8 {}", be.name);
                prop_assert_eq!((be.norm_sq_i8)(x), (p.norm_sq_i8)(x), "norm_sq_i8 {}", be.name);
                let t = tol(f.iter().zip(y).map(|(qv, bv)| qv * *bv as f32));
                prop_assert!(
                    agree((be.dot_f32i8)(f, y), (p.dot_f32i8)(f, y), t),
                    "dot_f32i8 {}", be.name
                );
                let td = tol(f.iter().zip(y).map(|(qv, bv)| {
                    let d = qv - 0.013 * *bv as f32;
                    d * d
                }));
                prop_assert!(
                    agree(
                        (be.l2_sq_f32i8_direct)(f, y, 0.013),
                        (p.l2_sq_f32i8_direct)(f, y, 0.013),
                        td
                    ),
                    "l2_sq_f32i8_direct {}", be.name
                );
            }
        }
    }

    /// NaN/inf propagation: one special value injected per vector (so the
    /// result class is independent of accumulation order) must produce the
    /// same class on every backend.
    #[test]
    fn backend_equivalence_special_values(
        (a, b, _) in backend_inputs(),
        idx in 0usize..258,
        special in prop_oneof![Just(f32::NAN), Just(f32::INFINITY), Just(f32::NEG_INFINITY)],
    ) {
        prop_assume!(!a.is_empty());
        let mut a = a;
        let idx = idx % a.len();
        a[idx] = special;
        let p = &kernels::PORTABLE;
        for be in kernels::available_backends() {
            let t = tol(a.iter().chain(&b).copied());
            prop_assert!(agree((be.dot)(&a, &b), (p.dot)(&a, &b), t), "dot {}", be.name);
            prop_assert!(agree((be.l2_sq)(&a, &b), (p.l2_sq)(&a, &b), t), "l2_sq {}", be.name);
            prop_assert!(agree((be.norm_sq)(&a), (p.norm_sq)(&a), t), "norm_sq {}", be.name);
        }
    }
}

/// Dispatch surface invariants. Under `--no-default-features` this test
/// proves the build agrees with the portable path unconditionally; under
/// `simd` it proves the active backend is one of the detected ones. The
/// same binary data goes through the public (dispatched) API and the
/// portable table — on the portable backend results must be identical, on
/// intrinsic backends within tolerance (covered above).
#[test]
fn dispatch_agrees_with_portable_reference() {
    assert_eq!(kernels::simd_compiled(), cfg!(feature = "simd"));
    let names: Vec<&str> = kernels::available_backends().iter().map(|b| b.name).collect();
    assert!(names.contains(&kernels::backend_name()));
    if !kernels::simd_compiled() {
        assert_eq!(kernels::backend_name(), "portable");
        assert_eq!(names, ["portable"]);
        // Without intrinsic backends the public API must be bit-for-bit
        // the portable implementation.
        let a: Vec<f32> = (0..131).map(|i| (i as f32 * 0.37).sin()).collect();
        let b: Vec<f32> = (0..131).map(|i| (i as f32 * 0.53).cos()).collect();
        assert_eq!(kernels::dot(&a, &b).to_bits(), (kernels::PORTABLE.dot)(&a, &b).to_bits());
        assert_eq!(kernels::cosine(&a, &b).to_bits(), (kernels::PORTABLE.cosine)(&a, &b).to_bits());
    }
}
