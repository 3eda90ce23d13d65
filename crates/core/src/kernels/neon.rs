//! NEON backend: explicit `core::arch` intrinsics for the scoring hot path
//! on `aarch64`.
//!
//! NEON is architecturally baseline on AArch64, so [`available`] is a
//! formality — but the backend still goes through the same runtime-dispatch
//! table as AVX2 so behavior (force hook, env override, provenance
//! recording) is uniform across architectures. The wins mirror the x86
//! backend's: hardware FMA chains (`vfmaq_f32`) with explicit register
//! accumulators, fused single-pass cosine, and widening i8 sequences
//! (`vmull_s8`/`vpadalq_s16` for the integer dot, `vmovl_s8`→`vmovl_s16`→
//! `vcvtq_f32_s32` feeding FMA for the mixed f32·i8 dot) that the
//! autovectorizer does not emit for the portable loop shapes.
//!
//! Integer kernels are exact and match the portable backend bit-for-bit;
//! f32 kernels differ only by reassociation/FMA rounding (pinned by the
//! property suite, same contract as [`super::x86`]).

use super::Backend;
use core::arch::aarch64::*;

/// True when the running CPU supports this backend.
pub fn available() -> bool {
    std::arch::is_aarch64_feature_detected!("neon")
}

/// The NEON kernel table. Must only be installed after [`available`]
/// returned true.
pub static BACKEND: Backend = Backend {
    name: "neon",
    dot,
    l2_sq,
    norm_sq,
    cosine,
    cosine_qnorm,
    dot3,
    translate_l2_sq,
    dot_i8i8,
    dot_f32i8,
    norm_sq_i8,
    l2_sq_f32i8_direct,
    dot_tile,
    l2_sq_block,
    dot_f32i8_block,
};

const _: () = assert!(super::ROW_TILE == 4, "tiled kernels are unrolled for 4 rows");
const _: () = assert!(super::QUERY_TILE == 4, "the scan tile is unrolled for 4 queries");

// Safe table wrappers. SAFETY (shared by all): `BACKEND` is only selected
// by the dispatcher (or the force hook) after `available()` confirmed neon
// on this CPU, so calling the `target_feature` impls is sound.

fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    unsafe { dot_impl(a, b) }
}

fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    unsafe { l2_sq_impl(a, b) }
}

fn norm_sq(v: &[f32]) -> f32 {
    unsafe { norm_sq_impl(v) }
}

fn cosine(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    unsafe { cosine_impl(a, b) }
}

fn cosine_qnorm(q: &[f32], q_norm: f32, b: &[f32]) -> f32 {
    debug_assert_eq!(q.len(), b.len());
    unsafe { cosine_qnorm_impl(q, q_norm, b) }
}

fn dot3(a: &[f32], b: &[f32], c: &[f32]) -> f32 {
    debug_assert!(a.len() == b.len() && b.len() == c.len());
    unsafe { dot3_impl(a, b, c) }
}

fn translate_l2_sq(h: &[f32], r: &[f32], t: &[f32]) -> f32 {
    debug_assert!(h.len() == r.len() && r.len() == t.len());
    unsafe { translate_l2_sq_impl(h, r, t) }
}

fn dot_i8i8(a: &[i8], b: &[i8]) -> i32 {
    debug_assert_eq!(a.len(), b.len());
    unsafe { dot_i8i8_impl(a, b) }
}

fn dot_f32i8(q: &[f32], b: &[i8]) -> f32 {
    debug_assert_eq!(q.len(), b.len());
    unsafe { dot_f32i8_impl(q, b) }
}

fn norm_sq_i8(v: &[i8]) -> i32 {
    unsafe { norm_sq_i8_impl(v) }
}

fn l2_sq_f32i8_direct(q: &[f32], b: &[i8], scale: f32) -> f32 {
    debug_assert_eq!(q.len(), b.len());
    unsafe { l2_sq_f32i8_direct_impl(q, b, scale) }
}

fn dot_tile(
    dim: usize,
    queries: &[f32],
    block: &[f32],
    norms: Option<(&[f32], &[f32])>,
    out: &mut [f32],
) {
    let (nq, rows) = super::tile_shape(dim, queries, block, norms, out);
    // SAFETY: the shared argument above, and `tile_shape` checked (with
    // `assert!`) every length the impl indexes raw pointers by.
    unsafe { dot_tile_impl(dim, nq, rows, queries, block, norms, out) }
}

fn l2_sq_block(q: &[f32], block: &[f32], out: &mut [f32]) {
    debug_assert_eq!(block.len(), q.len() * out.len());
    unsafe { l2_sq_block_impl(q, block, out) }
}

fn dot_f32i8_block(q: &[f32], block: &[i8], out: &mut [f32]) {
    debug_assert_eq!(block.len(), q.len() * out.len());
    unsafe { dot_f32i8_block_impl(q, block, out) }
}

#[target_feature(enable = "neon")]
unsafe fn dot_impl(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len().min(b.len());
    let (pa, pb) = (a.as_ptr(), b.as_ptr());
    let mut acc0 = vdupq_n_f32(0.0);
    let mut acc1 = vdupq_n_f32(0.0);
    let mut acc2 = vdupq_n_f32(0.0);
    let mut acc3 = vdupq_n_f32(0.0);
    let mut i = 0usize;
    while i + 16 <= n {
        acc0 = vfmaq_f32(acc0, vld1q_f32(pa.add(i)), vld1q_f32(pb.add(i)));
        acc1 = vfmaq_f32(acc1, vld1q_f32(pa.add(i + 4)), vld1q_f32(pb.add(i + 4)));
        acc2 = vfmaq_f32(acc2, vld1q_f32(pa.add(i + 8)), vld1q_f32(pb.add(i + 8)));
        acc3 = vfmaq_f32(acc3, vld1q_f32(pa.add(i + 12)), vld1q_f32(pb.add(i + 12)));
        i += 16;
    }
    while i + 4 <= n {
        acc0 = vfmaq_f32(acc0, vld1q_f32(pa.add(i)), vld1q_f32(pb.add(i)));
        i += 4;
    }
    let mut s = vaddvq_f32(vaddq_f32(vaddq_f32(acc0, acc1), vaddq_f32(acc2, acc3)));
    while i < n {
        s += *pa.add(i) * *pb.add(i);
        i += 1;
    }
    s
}

#[target_feature(enable = "neon")]
unsafe fn l2_sq_impl(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len().min(b.len());
    let (pa, pb) = (a.as_ptr(), b.as_ptr());
    let mut acc0 = vdupq_n_f32(0.0);
    let mut acc1 = vdupq_n_f32(0.0);
    let mut i = 0usize;
    while i + 8 <= n {
        let d0 = vsubq_f32(vld1q_f32(pa.add(i)), vld1q_f32(pb.add(i)));
        let d1 = vsubq_f32(vld1q_f32(pa.add(i + 4)), vld1q_f32(pb.add(i + 4)));
        acc0 = vfmaq_f32(acc0, d0, d0);
        acc1 = vfmaq_f32(acc1, d1, d1);
        i += 8;
    }
    while i + 4 <= n {
        let d = vsubq_f32(vld1q_f32(pa.add(i)), vld1q_f32(pb.add(i)));
        acc0 = vfmaq_f32(acc0, d, d);
        i += 4;
    }
    let mut s = vaddvq_f32(vaddq_f32(acc0, acc1));
    while i < n {
        let d = *pa.add(i) - *pb.add(i);
        s += d * d;
        i += 1;
    }
    s
}

#[target_feature(enable = "neon")]
unsafe fn norm_sq_impl(v: &[f32]) -> f32 {
    let n = v.len();
    let pv = v.as_ptr();
    let mut acc0 = vdupq_n_f32(0.0);
    let mut acc1 = vdupq_n_f32(0.0);
    let mut i = 0usize;
    while i + 8 <= n {
        let x0 = vld1q_f32(pv.add(i));
        let x1 = vld1q_f32(pv.add(i + 4));
        acc0 = vfmaq_f32(acc0, x0, x0);
        acc1 = vfmaq_f32(acc1, x1, x1);
        i += 8;
    }
    while i + 4 <= n {
        let x = vld1q_f32(pv.add(i));
        acc0 = vfmaq_f32(acc0, x, x);
        i += 4;
    }
    let mut s = vaddvq_f32(vaddq_f32(acc0, acc1));
    while i < n {
        let x = *pv.add(i);
        s += x * x;
        i += 1;
    }
    s
}

/// Fused single-pass cosine (see [`super::x86::cosine`] for why the fused
/// shape is viable with explicit register accumulators).
#[target_feature(enable = "neon")]
unsafe fn cosine_impl(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len().min(b.len());
    let (pa, pb) = (a.as_ptr(), b.as_ptr());
    let mut d0 = vdupq_n_f32(0.0);
    let mut na0 = vdupq_n_f32(0.0);
    let mut nb0 = vdupq_n_f32(0.0);
    let mut i = 0usize;
    while i + 4 <= n {
        let x = vld1q_f32(pa.add(i));
        let y = vld1q_f32(pb.add(i));
        d0 = vfmaq_f32(d0, x, y);
        na0 = vfmaq_f32(na0, x, x);
        nb0 = vfmaq_f32(nb0, y, y);
        i += 4;
    }
    let mut d = vaddvq_f32(d0);
    let mut na = vaddvq_f32(na0);
    let mut nb = vaddvq_f32(nb0);
    while i < n {
        let x = *pa.add(i);
        let y = *pb.add(i);
        d += x * y;
        na += x * x;
        nb += y * y;
        i += 1;
    }
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        d / (na.sqrt() * nb.sqrt())
    }
}

#[target_feature(enable = "neon")]
unsafe fn cosine_qnorm_impl(q: &[f32], q_norm: f32, b: &[f32]) -> f32 {
    let n = q.len().min(b.len());
    let (pq, pb) = (q.as_ptr(), b.as_ptr());
    let mut d0 = vdupq_n_f32(0.0);
    let mut d1 = vdupq_n_f32(0.0);
    let mut nb0 = vdupq_n_f32(0.0);
    let mut nb1 = vdupq_n_f32(0.0);
    let mut i = 0usize;
    while i + 8 <= n {
        let x0 = vld1q_f32(pq.add(i));
        let y0 = vld1q_f32(pb.add(i));
        let x1 = vld1q_f32(pq.add(i + 4));
        let y1 = vld1q_f32(pb.add(i + 4));
        d0 = vfmaq_f32(d0, x0, y0);
        d1 = vfmaq_f32(d1, x1, y1);
        nb0 = vfmaq_f32(nb0, y0, y0);
        nb1 = vfmaq_f32(nb1, y1, y1);
        i += 8;
    }
    while i + 4 <= n {
        let x = vld1q_f32(pq.add(i));
        let y = vld1q_f32(pb.add(i));
        d0 = vfmaq_f32(d0, x, y);
        nb0 = vfmaq_f32(nb0, y, y);
        i += 4;
    }
    let mut d = vaddvq_f32(vaddq_f32(d0, d1));
    let mut nb = vaddvq_f32(vaddq_f32(nb0, nb1));
    while i < n {
        let x = *pq.add(i);
        let y = *pb.add(i);
        d += x * y;
        nb += y * y;
        i += 1;
    }
    if q_norm == 0.0 || nb == 0.0 {
        0.0
    } else {
        d / (q_norm * nb.sqrt())
    }
}

#[target_feature(enable = "neon")]
unsafe fn dot3_impl(a: &[f32], b: &[f32], c: &[f32]) -> f32 {
    let n = a.len().min(b.len()).min(c.len());
    let (pa, pb, pc) = (a.as_ptr(), b.as_ptr(), c.as_ptr());
    let mut acc0 = vdupq_n_f32(0.0);
    let mut acc1 = vdupq_n_f32(0.0);
    let mut i = 0usize;
    while i + 8 <= n {
        let t0 = vmulq_f32(vld1q_f32(pa.add(i)), vld1q_f32(pb.add(i)));
        let t1 = vmulq_f32(vld1q_f32(pa.add(i + 4)), vld1q_f32(pb.add(i + 4)));
        acc0 = vfmaq_f32(acc0, t0, vld1q_f32(pc.add(i)));
        acc1 = vfmaq_f32(acc1, t1, vld1q_f32(pc.add(i + 4)));
        i += 8;
    }
    while i + 4 <= n {
        let t = vmulq_f32(vld1q_f32(pa.add(i)), vld1q_f32(pb.add(i)));
        acc0 = vfmaq_f32(acc0, t, vld1q_f32(pc.add(i)));
        i += 4;
    }
    let mut s = vaddvq_f32(vaddq_f32(acc0, acc1));
    while i < n {
        s += *pa.add(i) * *pb.add(i) * *pc.add(i);
        i += 1;
    }
    s
}

#[target_feature(enable = "neon")]
unsafe fn translate_l2_sq_impl(h: &[f32], r: &[f32], t: &[f32]) -> f32 {
    let n = h.len().min(r.len()).min(t.len());
    let (ph, pr, pt) = (h.as_ptr(), r.as_ptr(), t.as_ptr());
    let mut acc0 = vdupq_n_f32(0.0);
    let mut acc1 = vdupq_n_f32(0.0);
    let mut i = 0usize;
    while i + 8 <= n {
        let d0 =
            vsubq_f32(vaddq_f32(vld1q_f32(ph.add(i)), vld1q_f32(pr.add(i))), vld1q_f32(pt.add(i)));
        let d1 = vsubq_f32(
            vaddq_f32(vld1q_f32(ph.add(i + 4)), vld1q_f32(pr.add(i + 4))),
            vld1q_f32(pt.add(i + 4)),
        );
        acc0 = vfmaq_f32(acc0, d0, d0);
        acc1 = vfmaq_f32(acc1, d1, d1);
        i += 8;
    }
    while i + 4 <= n {
        let d =
            vsubq_f32(vaddq_f32(vld1q_f32(ph.add(i)), vld1q_f32(pr.add(i))), vld1q_f32(pt.add(i)));
        acc0 = vfmaq_f32(acc0, d, d);
        i += 4;
    }
    let mut s = vaddvq_f32(vaddq_f32(acc0, acc1));
    while i < n {
        let d = *ph.add(i) + *pr.add(i) - *pt.add(i);
        s += d * d;
        i += 1;
    }
    s
}

/// Pure-integer dot: widening multiply (`vmull_s8`/`vmull_high_s8`) into
/// i16 products, pairwise-accumulated into i32 lanes (`vpadalq_s16`) —
/// exact, bit-identical to the portable backend.
#[target_feature(enable = "neon")]
unsafe fn dot_i8i8_impl(a: &[i8], b: &[i8]) -> i32 {
    let n = a.len().min(b.len());
    let (pa, pb) = (a.as_ptr(), b.as_ptr());
    let mut acc = vdupq_n_s32(0);
    let mut i = 0usize;
    while i + 16 <= n {
        let va = vld1q_s8(pa.add(i));
        let vb = vld1q_s8(pb.add(i));
        let lo = vmull_s8(vget_low_s8(va), vget_low_s8(vb));
        let hi = vmull_high_s8(va, vb);
        acc = vpadalq_s16(acc, lo);
        acc = vpadalq_s16(acc, hi);
        i += 16;
    }
    let mut s = vaddvq_s32(acc);
    while i < n {
        s += *pa.add(i) as i32 * *pb.add(i) as i32;
        i += 1;
    }
    s
}

/// Mixed f32·i8 dot: sign-extend 8 bytes through i16 to two i32x4 lanes,
/// convert to f32 (`vcvtq_f32_s32`), FMA against the query.
#[target_feature(enable = "neon")]
unsafe fn dot_f32i8_impl(q: &[f32], b: &[i8]) -> f32 {
    let n = q.len().min(b.len());
    let (pq, pb) = (q.as_ptr(), b.as_ptr());
    let mut acc0 = vdupq_n_f32(0.0);
    let mut acc1 = vdupq_n_f32(0.0);
    let mut i = 0usize;
    while i + 8 <= n {
        let bytes = vld1_s8(pb.add(i));
        let wide = vmovl_s8(bytes);
        let lo = vcvtq_f32_s32(vmovl_s16(vget_low_s16(wide)));
        let hi = vcvtq_f32_s32(vmovl_high_s16(wide));
        acc0 = vfmaq_f32(acc0, vld1q_f32(pq.add(i)), lo);
        acc1 = vfmaq_f32(acc1, vld1q_f32(pq.add(i + 4)), hi);
        i += 8;
    }
    let mut s = vaddvq_f32(vaddq_f32(acc0, acc1));
    while i < n {
        s += *pq.add(i) * *pb.add(i) as f32;
        i += 1;
    }
    s
}

#[target_feature(enable = "neon")]
unsafe fn norm_sq_i8_impl(v: &[i8]) -> i32 {
    let n = v.len();
    let pv = v.as_ptr();
    let mut acc = vdupq_n_s32(0);
    let mut i = 0usize;
    while i + 16 <= n {
        let x = vld1q_s8(pv.add(i));
        let lo = vmull_s8(vget_low_s8(x), vget_low_s8(x));
        let hi = vmull_high_s8(x, x);
        acc = vpadalq_s16(acc, lo);
        acc = vpadalq_s16(acc, hi);
        i += 16;
    }
    let mut s = vaddvq_s32(acc);
    while i < n {
        let x = *pv.add(i) as i32;
        s += x * x;
        i += 1;
    }
    s
}

/// Horizontal sums of four accumulators at once, lane `i` of the result
/// being `(v[i][0] + v[i][1]) + (v[i][2] + v[i][3])`. The scan tile's only
/// reduction: a lone pair goes through it too (its accumulator in every
/// slot), so a pair's bits cannot depend on what it was reduced beside.
#[target_feature(enable = "neon")]
#[inline]
unsafe fn hsum4(v: [float32x4_t; 4]) -> float32x4_t {
    vpaddq_f32(vpaddq_f32(v[0], v[1]), vpaddq_f32(v[2], v[3]))
}

/// The per-pair sequence every path of the scan tile runs: one accumulator
/// over `i += 4`, [`hsum4`], a scalar tail in index order.
#[target_feature(enable = "neon")]
#[inline]
unsafe fn dot_pair(dim: usize, q: *const f32, row: *const f32) -> f32 {
    let mut acc = vdupq_n_f32(0.0);
    let mut i = 0usize;
    while i + 4 <= dim {
        acc = vfmaq_f32(acc, vld1q_f32(q.add(i)), vld1q_f32(row.add(i)));
        i += 4;
    }
    let mut s = vgetq_lane_f32::<0>(hsum4([acc, acc, acc, acc]));
    while i < dim {
        s += *q.add(i) * *row.add(i);
        i += 1;
    }
    s
}

/// [`super::cosine_of`] on four lanes: the same multiply and divide, the
/// zero-norm lanes selected to +0.0.
#[target_feature(enable = "neon")]
#[inline]
unsafe fn cosine4(d: float32x4_t, q_norms: float32x4_t, row_norms: float32x4_t) -> float32x4_t {
    let zero = vdupq_n_f32(0.0);
    let dead = vorrq_u32(vceqq_f32(q_norms, zero), vceqq_f32(row_norms, zero));
    vbslq_f32(dead, zero, vdivq_f32(d, vmulq_f32(q_norms, row_norms)))
}

/// Scalar tails of four pairs in index order (`dim % 4` elements from
/// `from`): `pairs[k]` is the (query, row) behind lane `k` of `sums`.
#[target_feature(enable = "neon")]
#[inline]
unsafe fn add_tails(
    sums: float32x4_t,
    pairs: [(*const f32, *const f32); 4],
    from: usize,
    dim: usize,
) -> float32x4_t {
    let mut t = [0.0f32; 4];
    vst1q_f32(t.as_mut_ptr(), sums);
    for (tk, (q, row)) in t.iter_mut().zip(pairs) {
        for i in from..dim {
            *tk += *q.add(i) * *row.add(i);
        }
    }
    vld1q_f32(t.as_ptr())
}

/// The scan tile (contract: [`super::dot_tile`]); the shape of
/// [`super::x86`]'s at half the vector width. Whole query tiles run
/// 4 queries × 2 rows (eight accumulators, two [`hsum4`]s, 8-byte stores);
/// queries left over run 1 query × 8 rows; rows left over from either run
/// [`dot_pair`]. All three perform the per-pair sequence of the module docs.
///
/// # Safety
/// Requires neon, and `nq`, `rows` as [`super::tile_shape`] returned them
/// for these slices.
#[target_feature(enable = "neon")]
unsafe fn dot_tile_impl(
    dim: usize,
    nq: usize,
    rows: usize,
    queries: &[f32],
    block: &[f32],
    norms: Option<(&[f32], &[f32])>,
    out: &mut [f32],
) {
    // Every offset below is within `nq × dim` of `pq`, `rows × dim` of `pb`,
    // `nq × rows` of `po` or the norm slices' `nq` / `rows`: loops run
    // `q < nq`, `r < rows`, `i < dim`, and tiles are entered only when whole
    // (`q + 4 <= nq`, `r + 2 <= rows`, `r + 8 <= rows`, `i + lanes <= dim`).
    let (pq, pb, po) = (queries.as_ptr(), block.as_ptr(), out.as_mut_ptr());
    let finish = |d: f32, q: usize, r: usize| match norms {
        Some((q_norms, row_norms)) => super::cosine_of(d, q_norms[q], row_norms[r]),
        None => d,
    };
    let mut q = 0usize;
    while q + 4 <= nq {
        let (qa, qb, qc, qd) =
            (pq.add(q * dim), pq.add((q + 1) * dim), pq.add((q + 2) * dim), pq.add((q + 3) * dim));
        // Lane order of a tile's two sum registers: [a·r0 a·r1 b·r0 b·r1]
        // and [c·r0 c·r1 d·r0 d·r1].
        let (ab_norms, cd_norms) = match norms {
            Some((n, _)) => (
                vcombine_f32(vdup_n_f32(n[q]), vdup_n_f32(n[q + 1])),
                vcombine_f32(vdup_n_f32(n[q + 2]), vdup_n_f32(n[q + 3])),
            ),
            None => (vdupq_n_f32(0.0), vdupq_n_f32(0.0)),
        };
        let mut r = 0usize;
        while r + 2 <= rows {
            let (r0, r1) = (pb.add(r * dim), pb.add((r + 1) * dim));
            let mut a0 = vdupq_n_f32(0.0);
            let mut a1 = vdupq_n_f32(0.0);
            let mut b0 = vdupq_n_f32(0.0);
            let mut b1 = vdupq_n_f32(0.0);
            let mut c0 = vdupq_n_f32(0.0);
            let mut c1 = vdupq_n_f32(0.0);
            let mut d0 = vdupq_n_f32(0.0);
            let mut d1 = vdupq_n_f32(0.0);
            let mut i = 0usize;
            while i + 4 <= dim {
                let y0 = vld1q_f32(r0.add(i));
                let y1 = vld1q_f32(r1.add(i));
                let x = vld1q_f32(qa.add(i));
                a0 = vfmaq_f32(a0, x, y0);
                a1 = vfmaq_f32(a1, x, y1);
                let x = vld1q_f32(qb.add(i));
                b0 = vfmaq_f32(b0, x, y0);
                b1 = vfmaq_f32(b1, x, y1);
                let x = vld1q_f32(qc.add(i));
                c0 = vfmaq_f32(c0, x, y0);
                c1 = vfmaq_f32(c1, x, y1);
                let x = vld1q_f32(qd.add(i));
                d0 = vfmaq_f32(d0, x, y0);
                d1 = vfmaq_f32(d1, x, y1);
                i += 4;
            }
            let mut ab = hsum4([a0, a1, b0, b1]);
            let mut cd = hsum4([c0, c1, d0, d1]);
            if i < dim {
                ab = add_tails(ab, [(qa, r0), (qa, r1), (qb, r0), (qb, r1)], i, dim);
                cd = add_tails(cd, [(qc, r0), (qc, r1), (qd, r0), (qd, r1)], i, dim);
            }
            if let Some((_, row_norms)) = norms {
                // Two adjacent row norms, repeated down the register.
                let pair = vld1_f32(row_norms.as_ptr().add(r));
                let rn = vcombine_f32(pair, pair);
                ab = cosine4(ab, ab_norms, rn);
                cd = cosine4(cd, cd_norms, rn);
            }
            vst1_f32(po.add(q * rows + r), vget_low_f32(ab));
            vst1_f32(po.add((q + 1) * rows + r), vget_high_f32(ab));
            vst1_f32(po.add((q + 2) * rows + r), vget_low_f32(cd));
            vst1_f32(po.add((q + 3) * rows + r), vget_high_f32(cd));
            r += 2;
        }
        if r < rows {
            for k in q..q + 4 {
                *po.add(k * rows + r) =
                    finish(dot_pair(dim, pq.add(k * dim), pb.add(r * dim)), k, r);
            }
        }
        q += 4;
    }
    while q < nq {
        let qp = pq.add(q * dim);
        let mut r = 0usize;
        while r + 8 <= rows {
            let row = |k: usize| pb.add((r + k) * dim);
            let mut acc = [vdupq_n_f32(0.0); 8];
            let mut i = 0usize;
            while i + 4 <= dim {
                let x = vld1q_f32(qp.add(i));
                acc[0] = vfmaq_f32(acc[0], x, vld1q_f32(row(0).add(i)));
                acc[1] = vfmaq_f32(acc[1], x, vld1q_f32(row(1).add(i)));
                acc[2] = vfmaq_f32(acc[2], x, vld1q_f32(row(2).add(i)));
                acc[3] = vfmaq_f32(acc[3], x, vld1q_f32(row(3).add(i)));
                acc[4] = vfmaq_f32(acc[4], x, vld1q_f32(row(4).add(i)));
                acc[5] = vfmaq_f32(acc[5], x, vld1q_f32(row(5).add(i)));
                acc[6] = vfmaq_f32(acc[6], x, vld1q_f32(row(6).add(i)));
                acc[7] = vfmaq_f32(acc[7], x, vld1q_f32(row(7).add(i)));
                i += 4;
            }
            let mut lo = hsum4([acc[0], acc[1], acc[2], acc[3]]);
            let mut hi = hsum4([acc[4], acc[5], acc[6], acc[7]]);
            if i < dim {
                lo = add_tails(lo, [0, 1, 2, 3].map(|k| (qp, row(k))), i, dim);
                hi = add_tails(hi, [4, 5, 6, 7].map(|k| (qp, row(k))), i, dim);
            }
            if let Some((q_norms, row_norms)) = norms {
                let qn = vdupq_n_f32(q_norms[q]);
                lo = cosine4(lo, qn, vld1q_f32(row_norms.as_ptr().add(r)));
                hi = cosine4(hi, qn, vld1q_f32(row_norms.as_ptr().add(r + 4)));
            }
            vst1q_f32(po.add(q * rows + r), lo);
            vst1q_f32(po.add(q * rows + r + 4), hi);
            r += 8;
        }
        while r < rows {
            *po.add(q * rows + r) = finish(dot_pair(dim, qp, pb.add(r * dim)), q, r);
            r += 1;
        }
        q += 1;
    }
}

/// Tiled batch squared Euclidean distance: four rows share each resident
/// 4-lane query load (see [`super::x86::l2_sq_block`] for the
/// load-amortization argument; the NEON shape is identical at half the vector
/// width).
#[target_feature(enable = "neon")]
unsafe fn l2_sq_block_impl(q: &[f32], block: &[f32], out: &mut [f32]) {
    let dim = q.len();
    let rows = out.len();
    let (pq, pb) = (q.as_ptr(), block.as_ptr());
    let tiles = rows / 4;
    for t in 0..tiles {
        let r0 = pb.add(4 * t * dim);
        let r1 = r0.add(dim);
        let r2 = r1.add(dim);
        let r3 = r2.add(dim);
        let mut acc0 = vdupq_n_f32(0.0);
        let mut acc1 = vdupq_n_f32(0.0);
        let mut acc2 = vdupq_n_f32(0.0);
        let mut acc3 = vdupq_n_f32(0.0);
        let mut i = 0usize;
        while i + 4 <= dim {
            let qv = vld1q_f32(pq.add(i));
            let d0 = vsubq_f32(qv, vld1q_f32(r0.add(i)));
            let d1 = vsubq_f32(qv, vld1q_f32(r1.add(i)));
            let d2 = vsubq_f32(qv, vld1q_f32(r2.add(i)));
            let d3 = vsubq_f32(qv, vld1q_f32(r3.add(i)));
            acc0 = vfmaq_f32(acc0, d0, d0);
            acc1 = vfmaq_f32(acc1, d1, d1);
            acc2 = vfmaq_f32(acc2, d2, d2);
            acc3 = vfmaq_f32(acc3, d3, d3);
            i += 4;
        }
        let mut s0 = vaddvq_f32(acc0);
        let mut s1 = vaddvq_f32(acc1);
        let mut s2 = vaddvq_f32(acc2);
        let mut s3 = vaddvq_f32(acc3);
        while i < dim {
            let qv = *pq.add(i);
            let (d0, d1, d2, d3) =
                (qv - *r0.add(i), qv - *r1.add(i), qv - *r2.add(i), qv - *r3.add(i));
            s0 += d0 * d0;
            s1 += d1 * d1;
            s2 += d2 * d2;
            s3 += d3 * d3;
            i += 1;
        }
        out[4 * t] = s0;
        out[4 * t + 1] = s1;
        out[4 * t + 2] = s2;
        out[4 * t + 3] = s3;
    }
    for r in tiles * 4..rows {
        out[r] = l2_sq_impl(q, core::slice::from_raw_parts(pb.add(r * dim), dim));
    }
}

/// Tiled batch mixed f32·i8 dot: two rows per tile — the 8-dim widening
/// step already needs two accumulators per row, so two rows keep the
/// accumulator count at four and each pair of query loads amortized.
#[target_feature(enable = "neon")]
unsafe fn dot_f32i8_block_impl(q: &[f32], block: &[i8], out: &mut [f32]) {
    let dim = q.len();
    let rows = out.len();
    let (pq, pb) = (q.as_ptr(), block.as_ptr());
    let tiles = rows / 2;
    for t in 0..tiles {
        let r0 = pb.add(2 * t * dim);
        let r1 = r0.add(dim);
        let mut acc00 = vdupq_n_f32(0.0);
        let mut acc01 = vdupq_n_f32(0.0);
        let mut acc10 = vdupq_n_f32(0.0);
        let mut acc11 = vdupq_n_f32(0.0);
        let mut i = 0usize;
        while i + 8 <= dim {
            let q0 = vld1q_f32(pq.add(i));
            let q1 = vld1q_f32(pq.add(i + 4));
            let w0 = vmovl_s8(vld1_s8(r0.add(i)));
            let w1 = vmovl_s8(vld1_s8(r1.add(i)));
            acc00 = vfmaq_f32(acc00, q0, vcvtq_f32_s32(vmovl_s16(vget_low_s16(w0))));
            acc01 = vfmaq_f32(acc01, q1, vcvtq_f32_s32(vmovl_high_s16(w0)));
            acc10 = vfmaq_f32(acc10, q0, vcvtq_f32_s32(vmovl_s16(vget_low_s16(w1))));
            acc11 = vfmaq_f32(acc11, q1, vcvtq_f32_s32(vmovl_high_s16(w1)));
            i += 8;
        }
        let mut s0 = vaddvq_f32(vaddq_f32(acc00, acc01));
        let mut s1 = vaddvq_f32(vaddq_f32(acc10, acc11));
        while i < dim {
            let qv = *pq.add(i);
            s0 += qv * *r0.add(i) as f32;
            s1 += qv * *r1.add(i) as f32;
            i += 1;
        }
        out[2 * t] = s0;
        out[2 * t + 1] = s1;
    }
    for r in tiles * 2..rows {
        out[r] = dot_f32i8_impl(q, core::slice::from_raw_parts(pb.add(r * dim), dim));
    }
}

#[target_feature(enable = "neon")]
unsafe fn l2_sq_f32i8_direct_impl(q: &[f32], b: &[i8], scale: f32) -> f32 {
    let n = q.len().min(b.len());
    let (pq, pb) = (q.as_ptr(), b.as_ptr());
    let vs = vdupq_n_f32(scale);
    let mut acc0 = vdupq_n_f32(0.0);
    let mut acc1 = vdupq_n_f32(0.0);
    let mut i = 0usize;
    while i + 8 <= n {
        let bytes = vld1_s8(pb.add(i));
        let wide = vmovl_s8(bytes);
        let lo = vcvtq_f32_s32(vmovl_s16(vget_low_s16(wide)));
        let hi = vcvtq_f32_s32(vmovl_high_s16(wide));
        // d = q − scale·b via fused multiply-subtract, matching the fused
        // rounding of the accumulate below.
        let d0 = vfmsq_f32(vld1q_f32(pq.add(i)), vs, lo);
        let d1 = vfmsq_f32(vld1q_f32(pq.add(i + 4)), vs, hi);
        acc0 = vfmaq_f32(acc0, d0, d0);
        acc1 = vfmaq_f32(acc1, d1, d1);
        i += 8;
    }
    let mut s = vaddvq_f32(vaddq_f32(acc0, acc1));
    while i < n {
        let d = *pq.add(i) - scale * *pb.add(i) as f32;
        s += d * d;
        i += 1;
    }
    s
}
