//! Portable autovectorized backend — the reference implementation every
//! intrinsic backend is pinned against.
//!
//! Each kernel unrolls into independent accumulator lanes so the loop body
//! carries no serial dependency chain — the shape LLVM autovectorizes into
//! SIMD without `-ffast-math` or explicit intrinsics. This backend is always
//! compiled (on every architecture, with or without the `simd` feature) and
//! is what `--no-default-features` builds dispatch to unconditionally.
//!
//! `f32::mul_add` is avoided throughout: without a guaranteed FMA target
//! feature it lowers to a libm call. The explicit-intrinsic backends
//! ([`super::x86`], [`super::neon`]) use hardware FMA instead, which is why
//! cross-backend comparisons need a reassociation/FMA tolerance while this
//! backend's results are bit-stable across builds.

/// Accumulator lanes for the unrolled f32 reductions.
const LANES: usize = 8;

#[inline]
fn sum8(acc: [f32; 8]) -> f32 {
    ((acc[0] + acc[4]) + (acc[1] + acc[5])) + ((acc[2] + acc[6]) + (acc[3] + acc[7]))
}

/// Inner product `Σ a·b`.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; LANES];
    let ra = a.chunks_exact(LANES).remainder();
    let rb = b.chunks_exact(LANES).remainder();
    for (x, y) in a.chunks_exact(LANES).zip(b.chunks_exact(LANES)) {
        for l in 0..LANES {
            acc[l] += x[l] * y[l];
        }
    }
    let mut tail = 0.0f32;
    for (x, y) in ra.iter().zip(rb) {
        tail += x * y;
    }
    sum8(acc) + tail
}

/// Squared Euclidean distance `Σ (a−b)²`.
#[inline]
pub fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; LANES];
    let ra = a.chunks_exact(LANES).remainder();
    let rb = b.chunks_exact(LANES).remainder();
    for (x, y) in a.chunks_exact(LANES).zip(b.chunks_exact(LANES)) {
        for l in 0..LANES {
            let d = x[l] - y[l];
            acc[l] += d * d;
        }
    }
    let mut tail = 0.0f32;
    for (x, y) in ra.iter().zip(rb) {
        let d = x - y;
        tail += d * d;
    }
    sum8(acc) + tail
}

/// Squared L2 norm `Σ v²`.
#[inline]
pub fn norm_sq(v: &[f32]) -> f32 {
    let mut acc = [0.0f32; LANES];
    let rv = v.chunks_exact(LANES).remainder();
    for x in v.chunks_exact(LANES) {
        for l in 0..LANES {
            acc[l] += x[l] * x[l];
        }
    }
    let mut tail = 0.0f32;
    for x in rv {
        tail += x * x;
    }
    sum8(acc) + tail
}

/// Cosine similarity (0.0 when either vector is zero).
///
/// Composed of three single-reduction passes rather than one fused loop: a
/// loop updating three accumulator arrays defeats LLVM's vectorizer, while
/// each single reduction autovectorizes cleanly — measured ~35% faster at
/// dim 128 despite touching the data three times (it stays in L1). The
/// intrinsic backends fuse all three reductions into one pass instead:
/// explicit register accumulators make the 3-output loop viable there.
#[inline]
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let d = dot(a, b);
    let na = norm_sq(a);
    let nb = norm_sq(b);
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        d / (na.sqrt() * nb.sqrt())
    }
}

/// Cosine similarity with the query norm precomputed (`q_norm = l2_norm(q)`)
/// — the shape the contextual reranker wants when one query is scored
/// against many cached entity embeddings: two vectorized passes per
/// candidate instead of three.
#[inline]
pub fn cosine_qnorm(q: &[f32], q_norm: f32, b: &[f32]) -> f32 {
    debug_assert_eq!(q.len(), b.len());
    let d = dot(q, b);
    let nb = norm_sq(b);
    if q_norm == 0.0 || nb == 0.0 {
        0.0
    } else {
        d / (q_norm * nb.sqrt())
    }
}

/// Triple product `Σ a·b·c` — the DistMult scoring kernel.
#[inline]
pub fn dot3(a: &[f32], b: &[f32], c: &[f32]) -> f32 {
    debug_assert!(a.len() == b.len() && b.len() == c.len());
    let mut acc = [0.0f32; LANES];
    let ra = a.chunks_exact(LANES).remainder();
    let rb = b.chunks_exact(LANES).remainder();
    let rc = c.chunks_exact(LANES).remainder();
    for ((x, y), z) in a.chunks_exact(LANES).zip(b.chunks_exact(LANES)).zip(c.chunks_exact(LANES)) {
        for l in 0..LANES {
            acc[l] += x[l] * y[l] * z[l];
        }
    }
    let mut tail = 0.0f32;
    for ((x, y), z) in ra.iter().zip(rb).zip(rc) {
        tail += x * y * z;
    }
    sum8(acc) + tail
}

/// Translation error `Σ (h + r − t)²` — the TransE scoring kernel
/// (`score = −translate_l2_sq`).
#[inline]
pub fn translate_l2_sq(h: &[f32], r: &[f32], t: &[f32]) -> f32 {
    debug_assert!(h.len() == r.len() && r.len() == t.len());
    let mut acc = [0.0f32; LANES];
    let rh = h.chunks_exact(LANES).remainder();
    let rr = r.chunks_exact(LANES).remainder();
    let rt = t.chunks_exact(LANES).remainder();
    for ((x, y), z) in h.chunks_exact(LANES).zip(r.chunks_exact(LANES)).zip(t.chunks_exact(LANES)) {
        for l in 0..LANES {
            let d = x[l] + y[l] - z[l];
            acc[l] += d * d;
        }
    }
    let mut tail = 0.0f32;
    for ((x, y), z) in rh.iter().zip(rr).zip(rt) {
        let d = x + y - z;
        tail += d * d;
    }
    sum8(acc) + tail
}

/// Lane count for the i8 kernels. Wider than the f32 kernels' [`LANES`]:
/// sixteen i8 values fill one 128-bit vector, so the conversion-heavy
/// mixed loop needs the extra unroll depth before the multiply-add chain
/// saturates the pipeline (measured ~1.7× over 8 lanes at dim 128).
const LANES_I8: usize = 16;

// Both 16-lane reductions use the plain sequential-fold idiom: LLVM
// recognizes it and keeps the accumulator in vector registers, whereas an
// explicit pairwise tree (as in `sum8`) forces the 16-wide accumulator to
// memory and defeats vectorization of the main loop (~1.7× slower).

#[inline]
fn sum16(acc: [f32; LANES_I8]) -> f32 {
    let mut s = 0.0f32;
    for a in acc {
        s += a;
    }
    s
}

#[inline]
fn sum16i(acc: [i32; LANES_I8]) -> i32 {
    let mut s = 0i32;
    for a in acc {
        s += a;
    }
    s
}

/// Integer inner product `Σ a·b` over i8 lanes with i32 accumulation.
///
/// The accumulator cannot overflow below ~133k dimensions
/// (127² · n < 2³¹), far beyond any embedding dimension used here, so the
/// loop carries no saturation checks and autovectorizes like its f32
/// sibling. Callers apply the two quantization scales once to the final
/// sum — never per element — which is what makes the quantized serving
/// path dequantize-free.
#[inline]
pub fn dot_i8i8(a: &[i8], b: &[i8]) -> i32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0i32; LANES_I8];
    let ra = a.chunks_exact(LANES_I8).remainder();
    let rb = b.chunks_exact(LANES_I8).remainder();
    for (x, y) in a.chunks_exact(LANES_I8).zip(b.chunks_exact(LANES_I8)) {
        for l in 0..LANES_I8 {
            acc[l] += x[l] as i32 * y[l] as i32;
        }
    }
    let mut tail = 0i32;
    for (x, y) in ra.iter().zip(rb) {
        tail += *x as i32 * *y as i32;
    }
    sum16i(acc) + tail
}

/// Mixed inner product `Σ q·b` of an f32 query against an i8 row — the
/// asymmetric serving shape (full-precision query, quantized store). The
/// caller multiplies the row's scale into the result once.
#[inline]
pub fn dot_f32i8(q: &[f32], b: &[i8]) -> f32 {
    debug_assert_eq!(q.len(), b.len());
    let mut acc = [0.0f32; LANES_I8];
    let rq = q.chunks_exact(LANES_I8).remainder();
    let rb = b.chunks_exact(LANES_I8).remainder();
    for (x, y) in q.chunks_exact(LANES_I8).zip(b.chunks_exact(LANES_I8)) {
        for l in 0..LANES_I8 {
            acc[l] += x[l] * y[l] as f32;
        }
    }
    let mut tail = 0.0f32;
    for (x, y) in rq.iter().zip(rb) {
        tail += x * *y as f32;
    }
    sum16(acc) + tail
}

/// Squared L2 norm `Σ v²` of an i8 row, in integer units. Dequantized
/// norm = `scale · sqrt(norm_sq_i8(v))`; tables precompute this once per
/// row at build time so cosine/euclidean scoring needs only a dot product
/// per candidate.
#[inline]
pub fn norm_sq_i8(v: &[i8]) -> i32 {
    let mut acc = [0i32; LANES_I8];
    let rv = v.chunks_exact(LANES_I8).remainder();
    for x in v.chunks_exact(LANES_I8) {
        for l in 0..LANES_I8 {
            acc[l] += x[l] as i32 * x[l] as i32;
        }
    }
    let mut tail = 0i32;
    for x in rv {
        tail += *x as i32 * *x as i32;
    }
    sum16i(acc) + tail
}

// The tile and `*_block` kernels: on this backend they are canonical row
// loops over the single-row kernels, NOT register tiles. Holding operands
// resident across a tile requires explicit register accumulators; expressed
// as scalar accumulator arrays the tile body defeats LLVM's autovectorizer
// and measures *slower* than the row loop (0.66–0.86× at dim 128 × 256 rows,
// measured at PR 7) — the same rule that keeps [`cosine`] composed of
// single-reduction passes. The intrinsic backends ([`super::x86`],
// [`super::neon`]) implement the true tiles.

/// The scan tile (contract: [`super::dot_tile`]): [`dot`] per pair, so the
/// per-pair invariant holds by construction. What a query block buys here is
/// the caller's strip walk — every query passes over a row strip while it is
/// in L1 — not register reuse.
#[inline]
pub fn dot_tile(
    dim: usize,
    queries: &[f32],
    block: &[f32],
    norms: Option<(&[f32], &[f32])>,
    out: &mut [f32],
) {
    let (_, rows) = super::tile_shape(dim, queries, block, norms, out);
    for (q, query) in queries.chunks_exact(dim).enumerate() {
        for (r, row) in block.chunks_exact(dim).enumerate() {
            let d = dot(query, row);
            out[q * rows + r] = match norms {
                Some((q_norms, row_norms)) => super::cosine_of(d, q_norms[q], row_norms[r]),
                None => d,
            };
        }
    }
}

/// Batch squared Euclidean distance per row of a row-major `block`
/// (`block.len() == q.len() * out.len()`); row loop — see the note above.
#[inline]
pub fn l2_sq_block(q: &[f32], block: &[f32], out: &mut [f32]) {
    let dim = q.len();
    debug_assert_eq!(block.len(), dim * out.len());
    for (r, o) in out.iter_mut().enumerate() {
        *o = l2_sq(q, &block[r * dim..(r + 1) * dim]);
    }
}

/// Batch mixed f32·i8 dot per row, unscaled (row loop; see the note above).
#[inline]
pub fn dot_f32i8_block(q: &[f32], block: &[i8], out: &mut [f32]) {
    let dim = q.len();
    debug_assert_eq!(block.len(), dim * out.len());
    for (r, o) in out.iter_mut().enumerate() {
        *o = dot_f32i8(q, &block[r * dim..(r + 1) * dim]);
    }
}

/// One-pass squared Euclidean distance between an f32 query and a
/// dequantized i8 row: fuses the dequantize-multiply into the difference,
/// `Σ (q − s·b)²`, so a single sweep replaces the norm pass plus the
/// norm-expansion algebra. This is the canonical f32·i8 distance; the
/// norm-expansion form lives in [`super::l2_sq_f32i8`] as a thin wrapper.
#[inline]
pub fn l2_sq_f32i8_direct(q: &[f32], b: &[i8], scale: f32) -> f32 {
    debug_assert_eq!(q.len(), b.len());
    let mut acc = [0.0f32; LANES_I8];
    let rq = q.chunks_exact(LANES_I8).remainder();
    let rb = b.chunks_exact(LANES_I8).remainder();
    for (x, y) in q.chunks_exact(LANES_I8).zip(b.chunks_exact(LANES_I8)) {
        for l in 0..LANES_I8 {
            let d = x[l] - scale * y[l] as f32;
            acc[l] += d * d;
        }
    }
    let mut tail = 0.0f32;
    for (x, y) in rq.iter().zip(rb) {
        let d = x - scale * *y as f32;
        tail += d * d;
    }
    sum16(acc) + tail
}
