//! AVX2(+FMA) backend: explicit `core::arch` intrinsics for the scoring hot
//! path on `x86_64`.
//!
//! Selected by the dispatcher in [`super`] only after
//! [`available`] confirmed both `avx2` and `fma` at runtime, so the default
//! binary reaches native-target kernel speed without `-C target-cpu=native`.
//! Two families of wins over the autovectorized portable lanes on a
//! default-feature build:
//!
//! - **f32 reductions** run 256-bit with hardware FMA (the portable build is
//!   limited to 128-bit SSE2 and separate mul+add), and the multi-output
//!   loops (`cosine`, `cosine_qnorm`) fuse into a single pass — explicit
//!   register accumulators sidestep the 3-accumulator-array shape that
//!   defeats LLVM's autovectorizer.
//! - **i8 kernels** use the sign-extend+convert sequence the autovectorizer
//!   never emits on a default target: `vpmovsxbd`+`vcvtdq2ps` feeding FMA
//!   for the mixed f32·i8 dot, and `vpmovsxbw`+`vpmaddwd` for the pure
//!   integer dot. Integer results are exact, so they match the portable
//!   backend bit-for-bit; f32 results differ only by reassociation/FMA
//!   rounding (ULP-bounded, pinned by the property suite).
//!
//! Every `_impl` below is an `unsafe fn` carrying
//! `#[target_feature(enable = "avx2,fma")]`; the safe table wrappers are the
//! only entry points and are reachable solely through a [`super::Backend`]
//! selected after the feature check.

use super::Backend;
use core::arch::x86_64::*;

/// True when the running CPU supports this backend (AVX2 and FMA).
pub fn available() -> bool {
    std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma")
}

/// The AVX2(+FMA) kernel table. Must only be installed after [`available`]
/// returned true — the wrappers assume the target features are present.
pub static BACKEND: Backend = Backend {
    name: "avx2",
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

// Safe table wrappers. SAFETY (shared by all): `BACKEND` is only selected by
// the dispatcher (or the test/bench force hook) after `available()` confirmed
// avx2+fma on this CPU, so calling the `target_feature` impls is sound.

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

/// Horizontal sum of 8 f32 lanes.
#[target_feature(enable = "avx2,fma")]
unsafe fn hsum_ps(v: __m256) -> f32 {
    let s = _mm_add_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps(v, 1));
    let s = _mm_add_ps(s, _mm_movehl_ps(s, s));
    let s = _mm_add_ss(s, _mm_movehdup_ps(s));
    _mm_cvtss_f32(s)
}

/// Horizontal sums of eight accumulators at once, lane `i` of the result
/// being the sum of `v[i]` — by [`hsum_ps`]'s tree, addition for addition, so
/// a pair reduced here and a pair reduced alone have the same bits. The
/// three steps are `hsum_ps`'s three, transposed: halves (`lo + hi`, two
/// accumulators per register), then lanes `0+2 | 1+3`, then `0+1`.
#[target_feature(enable = "avx2,fma")]
#[inline]
unsafe fn hsum8_ps(v: [__m256; 8]) -> __m256 {
    // Pairing v[i] with v[i+4] in the first step is what lands the sums in
    // index order: the 128-bit halves stay apart through steps two and three.
    let x0 = add_lanes_02_13(add_halves(v[0], v[4]), add_halves(v[1], v[5]));
    let x1 = add_lanes_02_13(add_halves(v[2], v[6]), add_halves(v[3], v[7]));
    _mm256_add_ps(
        _mm256_shuffle_ps::<0b10_00_10_00>(x0, x1),
        _mm256_shuffle_ps::<0b11_01_11_01>(x0, x1),
    )
}

/// `[a.lo + a.hi | b.lo + b.hi]`.
#[target_feature(enable = "avx2,fma")]
#[inline]
unsafe fn add_halves(a: __m256, b: __m256) -> __m256 {
    _mm256_add_ps(_mm256_permute2f128_ps::<0x20>(a, b), _mm256_permute2f128_ps::<0x31>(a, b))
}

/// Per 128-bit half: `[a0 + a2, a1 + a3, b0 + b2, b1 + b3]`.
#[target_feature(enable = "avx2,fma")]
#[inline]
unsafe fn add_lanes_02_13(a: __m256, b: __m256) -> __m256 {
    _mm256_add_ps(
        _mm256_shuffle_ps::<0b01_00_01_00>(a, b),
        _mm256_shuffle_ps::<0b11_10_11_10>(a, b),
    )
}

/// Horizontal sum of 8 i32 lanes (wrapping — callers stay below overflow).
#[target_feature(enable = "avx2")]
unsafe fn hsum_epi32(v: __m256i) -> i32 {
    let s = _mm_add_epi32(_mm256_castsi256_si128(v), _mm256_extracti128_si256(v, 1));
    let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b00_00_11_10));
    let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b00_00_00_01));
    _mm_cvtsi128_si32(s)
}

#[target_feature(enable = "avx2,fma")]
unsafe fn dot_impl(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len().min(b.len());
    let (pa, pb) = (a.as_ptr(), b.as_ptr());
    let mut acc0 = _mm256_setzero_ps();
    let mut acc1 = _mm256_setzero_ps();
    let mut acc2 = _mm256_setzero_ps();
    let mut acc3 = _mm256_setzero_ps();
    let mut i = 0usize;
    while i + 32 <= n {
        acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)), acc0);
        acc1 =
            _mm256_fmadd_ps(_mm256_loadu_ps(pa.add(i + 8)), _mm256_loadu_ps(pb.add(i + 8)), acc1);
        acc2 =
            _mm256_fmadd_ps(_mm256_loadu_ps(pa.add(i + 16)), _mm256_loadu_ps(pb.add(i + 16)), acc2);
        acc3 =
            _mm256_fmadd_ps(_mm256_loadu_ps(pa.add(i + 24)), _mm256_loadu_ps(pb.add(i + 24)), acc3);
        i += 32;
    }
    while i + 8 <= n {
        acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)), acc0);
        i += 8;
    }
    let mut s = hsum_ps(_mm256_add_ps(_mm256_add_ps(acc0, acc1), _mm256_add_ps(acc2, acc3)));
    while i < n {
        s += *pa.add(i) * *pb.add(i);
        i += 1;
    }
    s
}

#[target_feature(enable = "avx2,fma")]
unsafe fn l2_sq_impl(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len().min(b.len());
    let (pa, pb) = (a.as_ptr(), b.as_ptr());
    let mut acc0 = _mm256_setzero_ps();
    let mut acc1 = _mm256_setzero_ps();
    let mut i = 0usize;
    while i + 16 <= n {
        let d0 = _mm256_sub_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)));
        let d1 = _mm256_sub_ps(_mm256_loadu_ps(pa.add(i + 8)), _mm256_loadu_ps(pb.add(i + 8)));
        acc0 = _mm256_fmadd_ps(d0, d0, acc0);
        acc1 = _mm256_fmadd_ps(d1, d1, acc1);
        i += 16;
    }
    while i + 8 <= n {
        let d = _mm256_sub_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)));
        acc0 = _mm256_fmadd_ps(d, d, acc0);
        i += 8;
    }
    let mut s = hsum_ps(_mm256_add_ps(acc0, acc1));
    while i < n {
        let d = *pa.add(i) - *pb.add(i);
        s += d * d;
        i += 1;
    }
    s
}

#[target_feature(enable = "avx2,fma")]
unsafe fn norm_sq_impl(v: &[f32]) -> f32 {
    let n = v.len();
    let pv = v.as_ptr();
    let mut acc0 = _mm256_setzero_ps();
    let mut acc1 = _mm256_setzero_ps();
    let mut i = 0usize;
    while i + 16 <= n {
        let x0 = _mm256_loadu_ps(pv.add(i));
        let x1 = _mm256_loadu_ps(pv.add(i + 8));
        acc0 = _mm256_fmadd_ps(x0, x0, acc0);
        acc1 = _mm256_fmadd_ps(x1, x1, acc1);
        i += 16;
    }
    while i + 8 <= n {
        let x = _mm256_loadu_ps(pv.add(i));
        acc0 = _mm256_fmadd_ps(x, x, acc0);
        i += 8;
    }
    let mut s = hsum_ps(_mm256_add_ps(acc0, acc1));
    while i < n {
        let x = *pv.add(i);
        s += x * x;
        i += 1;
    }
    s
}

/// Fused single-pass cosine: dot and both norms in one sweep over the data.
///
/// This is the loop shape the portable backend had to reject (three
/// accumulator arrays defeat the autovectorizer); with explicit register
/// accumulators the three FMA chains issue independently and the data is
/// touched once instead of three times.
#[target_feature(enable = "avx2,fma")]
unsafe fn cosine_impl(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len().min(b.len());
    let (pa, pb) = (a.as_ptr(), b.as_ptr());
    let mut d0 = _mm256_setzero_ps();
    let mut d1 = _mm256_setzero_ps();
    let mut na0 = _mm256_setzero_ps();
    let mut na1 = _mm256_setzero_ps();
    let mut nb0 = _mm256_setzero_ps();
    let mut nb1 = _mm256_setzero_ps();
    let mut i = 0usize;
    while i + 16 <= n {
        let x0 = _mm256_loadu_ps(pa.add(i));
        let y0 = _mm256_loadu_ps(pb.add(i));
        let x1 = _mm256_loadu_ps(pa.add(i + 8));
        let y1 = _mm256_loadu_ps(pb.add(i + 8));
        d0 = _mm256_fmadd_ps(x0, y0, d0);
        d1 = _mm256_fmadd_ps(x1, y1, d1);
        na0 = _mm256_fmadd_ps(x0, x0, na0);
        na1 = _mm256_fmadd_ps(x1, x1, na1);
        nb0 = _mm256_fmadd_ps(y0, y0, nb0);
        nb1 = _mm256_fmadd_ps(y1, y1, nb1);
        i += 16;
    }
    while i + 8 <= n {
        let x = _mm256_loadu_ps(pa.add(i));
        let y = _mm256_loadu_ps(pb.add(i));
        d0 = _mm256_fmadd_ps(x, y, d0);
        na0 = _mm256_fmadd_ps(x, x, na0);
        nb0 = _mm256_fmadd_ps(y, y, nb0);
        i += 8;
    }
    let mut d = hsum_ps(_mm256_add_ps(d0, d1));
    let mut na = hsum_ps(_mm256_add_ps(na0, na1));
    let mut nb = hsum_ps(_mm256_add_ps(nb0, nb1));
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

/// Fused two-output serving-shape cosine: dot and candidate norm in one pass
/// (the query norm is precomputed by the caller).
#[target_feature(enable = "avx2,fma")]
unsafe fn cosine_qnorm_impl(q: &[f32], q_norm: f32, b: &[f32]) -> f32 {
    let n = q.len().min(b.len());
    let (pq, pb) = (q.as_ptr(), b.as_ptr());
    let mut d0 = _mm256_setzero_ps();
    let mut d1 = _mm256_setzero_ps();
    let mut nb0 = _mm256_setzero_ps();
    let mut nb1 = _mm256_setzero_ps();
    let mut i = 0usize;
    while i + 16 <= n {
        let x0 = _mm256_loadu_ps(pq.add(i));
        let y0 = _mm256_loadu_ps(pb.add(i));
        let x1 = _mm256_loadu_ps(pq.add(i + 8));
        let y1 = _mm256_loadu_ps(pb.add(i + 8));
        d0 = _mm256_fmadd_ps(x0, y0, d0);
        d1 = _mm256_fmadd_ps(x1, y1, d1);
        nb0 = _mm256_fmadd_ps(y0, y0, nb0);
        nb1 = _mm256_fmadd_ps(y1, y1, nb1);
        i += 16;
    }
    while i + 8 <= n {
        let x = _mm256_loadu_ps(pq.add(i));
        let y = _mm256_loadu_ps(pb.add(i));
        d0 = _mm256_fmadd_ps(x, y, d0);
        nb0 = _mm256_fmadd_ps(y, y, nb0);
        i += 8;
    }
    let mut d = hsum_ps(_mm256_add_ps(d0, d1));
    let mut nb = hsum_ps(_mm256_add_ps(nb0, nb1));
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

#[target_feature(enable = "avx2,fma")]
unsafe fn dot3_impl(a: &[f32], b: &[f32], c: &[f32]) -> f32 {
    let n = a.len().min(b.len()).min(c.len());
    let (pa, pb, pc) = (a.as_ptr(), b.as_ptr(), c.as_ptr());
    let mut acc0 = _mm256_setzero_ps();
    let mut acc1 = _mm256_setzero_ps();
    let mut i = 0usize;
    while i + 16 <= n {
        let t0 = _mm256_mul_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)));
        let t1 = _mm256_mul_ps(_mm256_loadu_ps(pa.add(i + 8)), _mm256_loadu_ps(pb.add(i + 8)));
        acc0 = _mm256_fmadd_ps(t0, _mm256_loadu_ps(pc.add(i)), acc0);
        acc1 = _mm256_fmadd_ps(t1, _mm256_loadu_ps(pc.add(i + 8)), acc1);
        i += 16;
    }
    while i + 8 <= n {
        let t = _mm256_mul_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)));
        acc0 = _mm256_fmadd_ps(t, _mm256_loadu_ps(pc.add(i)), acc0);
        i += 8;
    }
    let mut s = hsum_ps(_mm256_add_ps(acc0, acc1));
    while i < n {
        s += *pa.add(i) * *pb.add(i) * *pc.add(i);
        i += 1;
    }
    s
}

#[target_feature(enable = "avx2,fma")]
unsafe fn translate_l2_sq_impl(h: &[f32], r: &[f32], t: &[f32]) -> f32 {
    let n = h.len().min(r.len()).min(t.len());
    let (ph, pr, pt) = (h.as_ptr(), r.as_ptr(), t.as_ptr());
    let mut acc0 = _mm256_setzero_ps();
    let mut acc1 = _mm256_setzero_ps();
    let mut i = 0usize;
    while i + 16 <= n {
        let d0 = _mm256_sub_ps(
            _mm256_add_ps(_mm256_loadu_ps(ph.add(i)), _mm256_loadu_ps(pr.add(i))),
            _mm256_loadu_ps(pt.add(i)),
        );
        let d1 = _mm256_sub_ps(
            _mm256_add_ps(_mm256_loadu_ps(ph.add(i + 8)), _mm256_loadu_ps(pr.add(i + 8))),
            _mm256_loadu_ps(pt.add(i + 8)),
        );
        acc0 = _mm256_fmadd_ps(d0, d0, acc0);
        acc1 = _mm256_fmadd_ps(d1, d1, acc1);
        i += 16;
    }
    while i + 8 <= n {
        let d = _mm256_sub_ps(
            _mm256_add_ps(_mm256_loadu_ps(ph.add(i)), _mm256_loadu_ps(pr.add(i))),
            _mm256_loadu_ps(pt.add(i)),
        );
        acc0 = _mm256_fmadd_ps(d, d, acc0);
        i += 8;
    }
    let mut s = hsum_ps(_mm256_add_ps(acc0, acc1));
    while i < n {
        let d = *ph.add(i) + *pr.add(i) - *pt.add(i);
        s += d * d;
        i += 1;
    }
    s
}

/// Pure-integer dot: 16 i8 sign-extend to i16 (`vpmovsxbw`), multiply-add
/// pairs into i32 lanes (`vpmaddwd`) — exact, so it matches the portable
/// backend bit-for-bit. Per-lane accumulation stays far below i32 overflow
/// for the same reason the portable kernel's does (127²·n < 2³¹).
#[target_feature(enable = "avx2")]
unsafe fn dot_i8i8_impl(a: &[i8], b: &[i8]) -> i32 {
    let n = a.len().min(b.len());
    let (pa, pb) = (a.as_ptr(), b.as_ptr());
    let mut acc0 = _mm256_setzero_si256();
    let mut acc1 = _mm256_setzero_si256();
    let mut i = 0usize;
    while i + 32 <= n {
        let va0 = _mm256_cvtepi8_epi16(_mm_loadu_si128(pa.add(i) as *const __m128i));
        let vb0 = _mm256_cvtepi8_epi16(_mm_loadu_si128(pb.add(i) as *const __m128i));
        let va1 = _mm256_cvtepi8_epi16(_mm_loadu_si128(pa.add(i + 16) as *const __m128i));
        let vb1 = _mm256_cvtepi8_epi16(_mm_loadu_si128(pb.add(i + 16) as *const __m128i));
        acc0 = _mm256_add_epi32(acc0, _mm256_madd_epi16(va0, vb0));
        acc1 = _mm256_add_epi32(acc1, _mm256_madd_epi16(va1, vb1));
        i += 32;
    }
    while i + 16 <= n {
        let va = _mm256_cvtepi8_epi16(_mm_loadu_si128(pa.add(i) as *const __m128i));
        let vb = _mm256_cvtepi8_epi16(_mm_loadu_si128(pb.add(i) as *const __m128i));
        acc0 = _mm256_add_epi32(acc0, _mm256_madd_epi16(va, vb));
        i += 16;
    }
    let mut s = hsum_epi32(_mm256_add_epi32(acc0, acc1));
    while i < n {
        s += *pa.add(i) as i32 * *pb.add(i) as i32;
        i += 1;
    }
    s
}

/// The headline mixed-precision sequence: 16 i8 sign-extend to two 8-lane
/// i32 vectors (`vpmovsxbd`), convert to f32 (`vcvtdq2ps`), FMA against the
/// f32 query — the ~2.4× the default-target autovectorized form leaves on
/// the table (measured at PR 2).
#[target_feature(enable = "avx2,fma")]
unsafe fn dot_f32i8_impl(q: &[f32], b: &[i8]) -> f32 {
    let n = q.len().min(b.len());
    let (pq, pb) = (q.as_ptr(), b.as_ptr());
    let mut acc0 = _mm256_setzero_ps();
    let mut acc1 = _mm256_setzero_ps();
    let mut i = 0usize;
    while i + 16 <= n {
        let bytes = _mm_loadu_si128(pb.add(i) as *const __m128i);
        let lo = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(bytes));
        let hi = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(_mm_srli_si128(bytes, 8)));
        acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(pq.add(i)), lo, acc0);
        acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(pq.add(i + 8)), hi, acc1);
        i += 16;
    }
    if i + 8 <= n {
        let bytes = _mm_loadl_epi64(pb.add(i) as *const __m128i);
        let f = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(bytes));
        acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(pq.add(i)), f, acc0);
        i += 8;
    }
    let mut s = hsum_ps(_mm256_add_ps(acc0, acc1));
    while i < n {
        s += *pq.add(i) * *pb.add(i) as f32;
        i += 1;
    }
    s
}

#[target_feature(enable = "avx2")]
unsafe fn norm_sq_i8_impl(v: &[i8]) -> i32 {
    let n = v.len();
    let pv = v.as_ptr();
    let mut acc0 = _mm256_setzero_si256();
    let mut acc1 = _mm256_setzero_si256();
    let mut i = 0usize;
    while i + 32 <= n {
        let x0 = _mm256_cvtepi8_epi16(_mm_loadu_si128(pv.add(i) as *const __m128i));
        let x1 = _mm256_cvtepi8_epi16(_mm_loadu_si128(pv.add(i + 16) as *const __m128i));
        acc0 = _mm256_add_epi32(acc0, _mm256_madd_epi16(x0, x0));
        acc1 = _mm256_add_epi32(acc1, _mm256_madd_epi16(x1, x1));
        i += 32;
    }
    while i + 16 <= n {
        let x = _mm256_cvtepi8_epi16(_mm_loadu_si128(pv.add(i) as *const __m128i));
        acc0 = _mm256_add_epi32(acc0, _mm256_madd_epi16(x, x));
        i += 16;
    }
    let mut s = hsum_epi32(_mm256_add_epi32(acc0, acc1));
    while i < n {
        let x = *pv.add(i) as i32;
        s += x * x;
        i += 1;
    }
    s
}

/// The per-pair sequence every path of the scan tile runs: one accumulator
/// over `i += 8`, [`hsum_ps`], a scalar tail in index order.
#[target_feature(enable = "avx2,fma")]
#[inline]
unsafe fn dot_pair(dim: usize, q: *const f32, row: *const f32) -> f32 {
    let mut acc = _mm256_setzero_ps();
    let mut i = 0usize;
    while i + 8 <= dim {
        acc = _mm256_fmadd_ps(_mm256_loadu_ps(q.add(i)), _mm256_loadu_ps(row.add(i)), acc);
        i += 8;
    }
    let mut s = hsum_ps(acc);
    while i < dim {
        s += *q.add(i) * *row.add(i);
        i += 1;
    }
    s
}

/// [`super::cosine_of`] on eight lanes: the same multiply and divide, the
/// zero-norm lanes masked to +0.0.
#[target_feature(enable = "avx2,fma")]
#[inline]
unsafe fn cosine8(d: __m256, q_norms: __m256, row_norms: __m256) -> __m256 {
    let zero = _mm256_setzero_ps();
    let dead = _mm256_or_ps(
        _mm256_cmp_ps::<_CMP_EQ_OQ>(q_norms, zero),
        _mm256_cmp_ps::<_CMP_EQ_OQ>(row_norms, zero),
    );
    _mm256_andnot_ps(dead, _mm256_div_ps(d, _mm256_mul_ps(q_norms, row_norms)))
}

/// Scalar tails of eight pairs in index order (`dim % 8` elements from `i`):
/// `pairs[k]` is the (query, row) behind lane `k` of `sums`.
#[target_feature(enable = "avx2,fma")]
#[inline]
unsafe fn add_tails(
    sums: __m256,
    pairs: [(*const f32, *const f32); 8],
    from: usize,
    dim: usize,
) -> __m256 {
    let mut t = [0.0f32; 8];
    _mm256_storeu_ps(t.as_mut_ptr(), sums);
    for (tk, (q, row)) in t.iter_mut().zip(pairs) {
        for i in from..dim {
            *tk += *q.add(i) * *row.add(i);
        }
    }
    _mm256_loadu_ps(t.as_ptr())
}

/// The scan tile (contract: [`super::dot_tile`]). Whole query tiles run
/// 4 queries × 2 rows: each row register feeds four FMAs against query
/// operands that stay in L1, eight accumulators, [`hsum8_ps`], one vector
/// epilogue, four 8-byte stores. Queries left over run 1 query × 8 rows —
/// the same eight accumulators and reduction, the shape a lone query gets.
/// Rows left over from either run [`dot_pair`]. All three perform the
/// per-pair sequence of the module docs, so the score bits do not depend on
/// which one a pair fell into.
///
/// # Safety
/// Requires avx2+fma, and `nq`, `rows` as [`super::tile_shape`] returned
/// them for these slices.
#[target_feature(enable = "avx2,fma")]
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
        // Lane order of a tile's sums: [a·r0 a·r1 b·r0 b·r1 | c·r0 c·r1 d·r0 d·r1].
        let tile_q_norms = match norms {
            Some((n, _)) => _mm256_setr_ps(
                n[q],
                n[q],
                n[q + 1],
                n[q + 1],
                n[q + 2],
                n[q + 2],
                n[q + 3],
                n[q + 3],
            ),
            None => _mm256_setzero_ps(),
        };
        let mut r = 0usize;
        while r + 2 <= rows {
            let (r0, r1) = (pb.add(r * dim), pb.add((r + 1) * dim));
            let mut a0 = _mm256_setzero_ps();
            let mut a1 = _mm256_setzero_ps();
            let mut b0 = _mm256_setzero_ps();
            let mut b1 = _mm256_setzero_ps();
            let mut c0 = _mm256_setzero_ps();
            let mut c1 = _mm256_setzero_ps();
            let mut d0 = _mm256_setzero_ps();
            let mut d1 = _mm256_setzero_ps();
            let mut i = 0usize;
            while i + 8 <= dim {
                let y0 = _mm256_loadu_ps(r0.add(i));
                let y1 = _mm256_loadu_ps(r1.add(i));
                let x = _mm256_loadu_ps(qa.add(i));
                a0 = _mm256_fmadd_ps(x, y0, a0);
                a1 = _mm256_fmadd_ps(x, y1, a1);
                let x = _mm256_loadu_ps(qb.add(i));
                b0 = _mm256_fmadd_ps(x, y0, b0);
                b1 = _mm256_fmadd_ps(x, y1, b1);
                let x = _mm256_loadu_ps(qc.add(i));
                c0 = _mm256_fmadd_ps(x, y0, c0);
                c1 = _mm256_fmadd_ps(x, y1, c1);
                let x = _mm256_loadu_ps(qd.add(i));
                d0 = _mm256_fmadd_ps(x, y0, d0);
                d1 = _mm256_fmadd_ps(x, y1, d1);
                i += 8;
            }
            let mut s = hsum8_ps([a0, a1, b0, b1, c0, c1, d0, d1]);
            if i < dim {
                let pairs = [
                    (qa, r0),
                    (qa, r1),
                    (qb, r0),
                    (qb, r1),
                    (qc, r0),
                    (qc, r1),
                    (qd, r0),
                    (qd, r1),
                ];
                s = add_tails(s, pairs, i, dim);
            }
            if let Some((_, row_norms)) = norms {
                // Two adjacent row norms, repeated down the register.
                let pair = (row_norms.as_ptr().add(r) as *const f64).read_unaligned();
                s = cosine8(s, tile_q_norms, _mm256_castpd_ps(_mm256_set1_pd(pair)));
            }
            let (lo, hi) = (_mm256_castps256_ps128(s), _mm256_extractf128_ps::<1>(s));
            _mm_storel_pd(po.add(q * rows + r) as *mut f64, _mm_castps_pd(lo));
            _mm_storeh_pd(po.add((q + 1) * rows + r) as *mut f64, _mm_castps_pd(lo));
            _mm_storel_pd(po.add((q + 2) * rows + r) as *mut f64, _mm_castps_pd(hi));
            _mm_storeh_pd(po.add((q + 3) * rows + r) as *mut f64, _mm_castps_pd(hi));
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
            let mut acc = [_mm256_setzero_ps(); 8];
            let mut i = 0usize;
            while i + 8 <= dim {
                let x = _mm256_loadu_ps(qp.add(i));
                acc[0] = _mm256_fmadd_ps(x, _mm256_loadu_ps(row(0).add(i)), acc[0]);
                acc[1] = _mm256_fmadd_ps(x, _mm256_loadu_ps(row(1).add(i)), acc[1]);
                acc[2] = _mm256_fmadd_ps(x, _mm256_loadu_ps(row(2).add(i)), acc[2]);
                acc[3] = _mm256_fmadd_ps(x, _mm256_loadu_ps(row(3).add(i)), acc[3]);
                acc[4] = _mm256_fmadd_ps(x, _mm256_loadu_ps(row(4).add(i)), acc[4]);
                acc[5] = _mm256_fmadd_ps(x, _mm256_loadu_ps(row(5).add(i)), acc[5]);
                acc[6] = _mm256_fmadd_ps(x, _mm256_loadu_ps(row(6).add(i)), acc[6]);
                acc[7] = _mm256_fmadd_ps(x, _mm256_loadu_ps(row(7).add(i)), acc[7]);
                i += 8;
            }
            let mut s = hsum8_ps(acc);
            if i < dim {
                let pairs = [0, 1, 2, 3, 4, 5, 6, 7].map(|k| (qp, row(k)));
                s = add_tails(s, pairs, i, dim);
            }
            if let Some((q_norms, row_norms)) = norms {
                let rn = _mm256_loadu_ps(row_norms.as_ptr().add(r));
                s = cosine8(s, _mm256_set1_ps(q_norms[q]), rn);
            }
            _mm256_storeu_ps(po.add(q * rows + r), s);
            r += 8;
        }
        while r < rows {
            *po.add(q * rows + r) = finish(dot_pair(dim, qp, pb.add(r * dim)), q, r);
            r += 1;
        }
        q += 1;
    }
}

/// Tiled batch squared Euclidean distance: four rows stream against one
/// resident query. The single-row kernel issues two loads (query + row) per
/// FMA and saturates the load ports; here each 8-lane query load is amortized
/// over four row FMAs (1.25 loads/FMA). Remainder rows (`out.len() % 4`) fall
/// back to the single-row kernel.
#[target_feature(enable = "avx2,fma")]
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
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut acc2 = _mm256_setzero_ps();
        let mut acc3 = _mm256_setzero_ps();
        let mut i = 0usize;
        while i + 8 <= dim {
            let qv = _mm256_loadu_ps(pq.add(i));
            let d0 = _mm256_sub_ps(qv, _mm256_loadu_ps(r0.add(i)));
            let d1 = _mm256_sub_ps(qv, _mm256_loadu_ps(r1.add(i)));
            let d2 = _mm256_sub_ps(qv, _mm256_loadu_ps(r2.add(i)));
            let d3 = _mm256_sub_ps(qv, _mm256_loadu_ps(r3.add(i)));
            acc0 = _mm256_fmadd_ps(d0, d0, acc0);
            acc1 = _mm256_fmadd_ps(d1, d1, acc1);
            acc2 = _mm256_fmadd_ps(d2, d2, acc2);
            acc3 = _mm256_fmadd_ps(d3, d3, acc3);
            i += 8;
        }
        let mut s0 = hsum_ps(acc0);
        let mut s1 = hsum_ps(acc1);
        let mut s2 = hsum_ps(acc2);
        let mut s3 = hsum_ps(acc3);
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

/// Tiled batch mixed f32·i8 dot: four quantized rows widen
/// (`vpmovsxbd`+`vcvtdq2ps`) against one resident query load per step.
#[target_feature(enable = "avx2,fma")]
unsafe fn dot_f32i8_block_impl(q: &[f32], block: &[i8], out: &mut [f32]) {
    let dim = q.len();
    let rows = out.len();
    let (pq, pb) = (q.as_ptr(), block.as_ptr());
    let tiles = rows / 4;
    for t in 0..tiles {
        let r0 = pb.add(4 * t * dim);
        let r1 = r0.add(dim);
        let r2 = r1.add(dim);
        let r3 = r2.add(dim);
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut acc2 = _mm256_setzero_ps();
        let mut acc3 = _mm256_setzero_ps();
        let mut i = 0usize;
        while i + 8 <= dim {
            let qv = _mm256_loadu_ps(pq.add(i));
            let f0 =
                _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(_mm_loadl_epi64(r0.add(i) as *const _)));
            let f1 =
                _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(_mm_loadl_epi64(r1.add(i) as *const _)));
            let f2 =
                _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(_mm_loadl_epi64(r2.add(i) as *const _)));
            let f3 =
                _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(_mm_loadl_epi64(r3.add(i) as *const _)));
            acc0 = _mm256_fmadd_ps(qv, f0, acc0);
            acc1 = _mm256_fmadd_ps(qv, f1, acc1);
            acc2 = _mm256_fmadd_ps(qv, f2, acc2);
            acc3 = _mm256_fmadd_ps(qv, f3, acc3);
            i += 8;
        }
        let mut s0 = hsum_ps(acc0);
        let mut s1 = hsum_ps(acc1);
        let mut s2 = hsum_ps(acc2);
        let mut s3 = hsum_ps(acc3);
        while i < dim {
            let qv = *pq.add(i);
            s0 += qv * *r0.add(i) as f32;
            s1 += qv * *r1.add(i) as f32;
            s2 += qv * *r2.add(i) as f32;
            s3 += qv * *r3.add(i) as f32;
            i += 1;
        }
        out[4 * t] = s0;
        out[4 * t + 1] = s1;
        out[4 * t + 2] = s2;
        out[4 * t + 3] = s3;
    }
    for r in tiles * 4..rows {
        out[r] = dot_f32i8_impl(q, core::slice::from_raw_parts(pb.add(r * dim), dim));
    }
}

#[target_feature(enable = "avx2,fma")]
unsafe fn l2_sq_f32i8_direct_impl(q: &[f32], b: &[i8], scale: f32) -> f32 {
    let n = q.len().min(b.len());
    let (pq, pb) = (q.as_ptr(), b.as_ptr());
    let vs = _mm256_set1_ps(scale);
    let mut acc0 = _mm256_setzero_ps();
    let mut acc1 = _mm256_setzero_ps();
    let mut i = 0usize;
    while i + 16 <= n {
        let bytes = _mm_loadu_si128(pb.add(i) as *const __m128i);
        let lo = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(bytes));
        let hi = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(_mm_srli_si128(bytes, 8)));
        // d = q − scale·b via fnmadd (−(scale·b) + q), matching the fused
        // rounding of the accumulate below.
        let d0 = _mm256_fnmadd_ps(vs, lo, _mm256_loadu_ps(pq.add(i)));
        let d1 = _mm256_fnmadd_ps(vs, hi, _mm256_loadu_ps(pq.add(i + 8)));
        acc0 = _mm256_fmadd_ps(d0, d0, acc0);
        acc1 = _mm256_fmadd_ps(d1, d1, acc1);
        i += 16;
    }
    if i + 8 <= n {
        let bytes = _mm_loadl_epi64(pb.add(i) as *const __m128i);
        let f = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(bytes));
        let d = _mm256_fnmadd_ps(vs, f, _mm256_loadu_ps(pq.add(i)));
        acc0 = _mm256_fmadd_ps(d, d, acc0);
        i += 8;
    }
    let mut s = hsum_ps(_mm256_add_ps(acc0, acc1));
    while i < n {
        let d = *pq.add(i) - scale * *pb.add(i) as f32;
        s += d * d;
        i += 1;
    }
    s
}
