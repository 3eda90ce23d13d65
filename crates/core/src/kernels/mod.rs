//! Shared dense-vector kernels — the single hot-path implementation of
//! dot/L2/cosine scoring used by every serving and training layer.
//!
//! The paper's serving stack leans on one primitive everywhere: dense
//! vector scoring (graph-embedding fact ranking, the cached-entity-embedding
//! contextual reranker, the low-latency kNN tier). Centralizing it here
//! keeps one fast implementation instead of N naive scalar loops.
//!
//! # Backend dispatch
//!
//! Three backends implement the same kernel table ([`Backend`]):
//!
//! - [`portable`] — autovectorized lane-unrolled loops; always compiled on
//!   every architecture and the reference the intrinsic backends are pinned
//!   against.
//! - [`x86`] — AVX2(+FMA) `core::arch` intrinsics, compiled on `x86_64`
//!   when the `simd` cargo feature (default-on) is enabled.
//! - [`neon`] — NEON intrinsics, compiled on `aarch64` under the same
//!   feature.
//!
//! Selection happens **once**, at first kernel call: runtime CPU-feature
//! detection (`is_x86_feature_detected!` / `is_aarch64_feature_detected!`)
//! resolves into a `OnceLock`'d table of function pointers, so the default
//! binary reaches native-target kernel speed without `-C target-cpu=native`
//! and the warm serving path pays one predictable indirect call per kernel
//! (batch variants resolve the table once per block, not per row). Building
//! with `--no-default-features` removes the intrinsic backends and the
//! dispatch indirection entirely — public functions compile to direct calls
//! into [`portable`], bit-for-bit today's behavior.
//!
//! Overrides, in precedence order: [`force_backend`] (test/bench hook),
//! the `SAGA_KERNEL_BACKEND` environment variable (`portable` / `avx2` /
//! `neon` / `auto`, read once at first dispatch), then auto-detection.
//!
//! Numerically: the i8 integer kernels are **bit-exact across backends**
//! (integer arithmetic has one right answer); f32 kernels differ only by
//! reduction order and FMA rounding, bounded by the property suite in
//! `tests/kernels_properties.rs`.
//!
//! # The scan tile
//!
//! The flat scan — every coalesced search batch, and a single query as its
//! `nq = 1` case — runs on one kernel, [`dot_tile`]: a block of queries
//! against a strip of rows, one score per (query, row) pair, raw dot or
//! cosine over caller-stored norms. The intrinsic backends block it
//! [`QUERY_TILE`] queries × 2 rows (each row register feeds four FMAs, eight
//! accumulators, the query operands from L1), reduce the eight accumulators
//! together with a transposed add tree and finish the cosine with one vector
//! multiply and divide; queries left over from a query tile run one query ×
//! eight rows with the same reduction.
//!
//! **The per-pair invariant.** The score bits of a (query, row) pair are a
//! function of (query, row, norms, backend) only — never of how many queries
//! rode the call, the query's slot in its tile, the row's place in a tile or
//! strip, or whether a remainder path scored it. Every path runs the same
//! per-pair sequence: one accumulator over `dim` in vector-width steps, that
//! backend's one horizontal-sum tree, a scalar tail in index order, then
//! `d / (‖q‖ · ‖row‖)` with the zero-norm rule. Serving depends on it (a
//! repeated query must return the same bytes whatever batch it rode in);
//! `tile_scores_do_not_depend_on_the_tiling` pins it on every backend.
//!
//! The remaining `*_batch` variants score one query against a contiguous
//! row-major block, writing into a caller-owned buffer so steady-state
//! serving performs no allocation.

pub mod portable;

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
pub mod x86;

#[cfg(all(feature = "simd", target_arch = "aarch64"))]
pub mod neon;

/// Signature of the scan tile, `(dim, queries, block, norms, out)` with
/// `norms = Some((q_norms, row_norms))` for cosine; see [`dot_tile`].
pub type DotTile = fn(usize, &[f32], &[f32], Option<(&[f32], &[f32])>, &mut [f32]);

/// A complete kernel implementation: one function pointer per hot-path
/// primitive. Public so tests and benches can pin two backends against each
/// other without going through (and mutating) global dispatch state.
pub struct Backend {
    /// Stable identifier: `"portable"`, `"avx2"`, or `"neon"`.
    pub name: &'static str,
    /// Dot product of two f32 slices.
    pub dot: fn(&[f32], &[f32]) -> f32,
    /// Squared Euclidean distance between two f32 slices.
    pub l2_sq: fn(&[f32], &[f32]) -> f32,
    /// Squared L2 norm of an f32 slice.
    pub norm_sq: fn(&[f32]) -> f32,
    /// Cosine similarity (0.0 when either input has zero norm).
    pub cosine: fn(&[f32], &[f32]) -> f32,
    /// Cosine with the query norm precomputed (serving shape).
    pub cosine_qnorm: fn(&[f32], f32, &[f32]) -> f32,
    /// Triple elementwise product sum (DistMult score).
    pub dot3: fn(&[f32], &[f32], &[f32]) -> f32,
    /// Squared L2 of `h + r - t` (TransE translation error).
    pub translate_l2_sq: fn(&[f32], &[f32], &[f32]) -> f32,
    /// Integer dot of two i8 rows (exact, i32 accumulation).
    pub dot_i8i8: fn(&[i8], &[i8]) -> i32,
    /// Mixed dot: f32 query against a raw i8 row (scale applied by caller).
    pub dot_f32i8: fn(&[f32], &[i8]) -> f32,
    /// Squared L2 norm of an i8 row (exact, i32 accumulation).
    pub norm_sq_i8: fn(&[i8]) -> i32,
    /// Fused one-pass squared L2 between an f32 query and a scaled i8 row.
    pub l2_sq_f32i8_direct: fn(&[f32], &[i8], f32) -> f32,
    /// The scan tile: every query of a row-major `nq × dim` block against
    /// every row of a row-major `rows × dim` block, `out[q * rows + r]`; see
    /// [`dot_tile`].
    pub dot_tile: DotTile,
    /// Tiled batch squared Euclidean distance: one score per row of a
    /// row-major block (`block.len() == q.len() * out.len()`), the query held
    /// resident across a [`ROW_TILE`]-row tile.
    pub l2_sq_block: fn(&[f32], &[f32], &mut [f32]),
    /// Tiled batch mixed f32·i8 dot per row (unscaled; caller folds scales).
    pub dot_f32i8_block: fn(&[f32], &[i8], &mut [f32]),
}

/// Queries per tile of the scan kernel ([`dot_tile`]) on the intrinsic
/// backends: four queries × two rows is eight accumulators, two row registers
/// and one query operand at a time — inside 16 vector registers — and every
/// row load feeds four FMAs, so the tile is FMA-bound where one query per
/// sweep is load-bound.
pub const QUERY_TILE: usize = 4;

/// Rows scored per tile by the single-query `*_block` kernels
/// (`l2_sq_block`, `dot_f32i8_block`): one resident query vector, four row
/// streams and four accumulators, each query load amortized over four FMAs.
pub const ROW_TILE: usize = 4;

/// Cosine from a dot product and the two norms, 0.0 when either norm is
/// zero — the scalar form of the scan tile's epilogue. The vector forms
/// perform the same multiply and divide, so a pair scores the same bits on
/// either.
#[inline]
pub(crate) fn cosine_of(d: f32, q_norm: f32, row_norm: f32) -> f32 {
    if q_norm == 0.0 || row_norm == 0.0 {
        0.0
    } else {
        d / (q_norm * row_norm)
    }
}

/// Checks a scan tile's arguments against each other and returns
/// `(queries, rows)`. The intrinsic tiles index raw pointers by these
/// counts, so the checks hold in release builds too.
pub(crate) fn tile_shape(
    dim: usize,
    queries: &[f32],
    block: &[f32],
    norms: Option<(&[f32], &[f32])>,
    out: &[f32],
) -> (usize, usize) {
    assert!(dim > 0, "dimension must be positive");
    assert_eq!(queries.len() % dim, 0, "queries must be whole rows");
    assert_eq!(block.len() % dim, 0, "block must be whole rows");
    let (nq, rows) = (queries.len() / dim, block.len() / dim);
    assert_eq!(out.len(), nq * rows, "tile output must hold one score per pair");
    if let Some((q_norms, row_norms)) = norms {
        assert!(q_norms.len() == nq && row_norms.len() == rows, "one norm per query and per row");
    }
    (nq, rows)
}

/// The always-available reference backend.
pub static PORTABLE: Backend = Backend {
    name: "portable",
    dot: portable::dot,
    l2_sq: portable::l2_sq,
    norm_sq: portable::norm_sq,
    cosine: portable::cosine,
    cosine_qnorm: portable::cosine_qnorm,
    dot3: portable::dot3,
    translate_l2_sq: portable::translate_l2_sq,
    dot_i8i8: portable::dot_i8i8,
    dot_f32i8: portable::dot_f32i8,
    norm_sq_i8: portable::norm_sq_i8,
    l2_sq_f32i8_direct: portable::l2_sq_f32i8_direct,
    dot_tile: portable::dot_tile,
    l2_sq_block: portable::l2_sq_block,
    dot_f32i8_block: portable::dot_f32i8_block,
};

#[cfg(feature = "simd")]
mod dispatch {
    use super::*;
    use std::ptr;
    use std::sync::atomic::{AtomicPtr, Ordering};
    use std::sync::OnceLock;

    /// Auto-selected backend, resolved once at first kernel call.
    static AUTO: OnceLock<&'static Backend> = OnceLock::new();
    /// Test/bench override; null means "use AUTO". Stored as a raw pointer
    /// to a `'static` table so reads are a single relaxed atomic load.
    static OVERRIDE: AtomicPtr<Backend> = AtomicPtr::new(ptr::null_mut());

    #[inline]
    pub(super) fn active() -> &'static Backend {
        let forced = OVERRIDE.load(Ordering::Relaxed);
        if !forced.is_null() {
            // SAFETY: OVERRIDE is only ever set (in `force`) to a pointer
            // derived from a `&'static Backend`.
            return unsafe { &*forced };
        }
        AUTO.get_or_init(select_auto)
    }

    fn select_auto() -> &'static Backend {
        if let Ok(requested) = std::env::var("SAGA_KERNEL_BACKEND") {
            if !requested.is_empty() && requested != "auto" {
                for be in super::available_backends() {
                    if be.name == requested {
                        return be;
                    }
                }
                // Unknown/unavailable name: fall through to detection
                // rather than silently changing numerics mid-fleet.
            }
        }
        best_available()
    }

    pub(super) fn best_available() -> &'static Backend {
        #[cfg(target_arch = "x86_64")]
        if x86::available() {
            return &x86::BACKEND;
        }
        #[cfg(target_arch = "aarch64")]
        if neon::available() {
            return &neon::BACKEND;
        }
        &PORTABLE
    }

    pub(super) fn force(backend: Option<&'static Backend>) {
        let p = backend.map_or(ptr::null_mut(), |be| be as *const Backend as *mut Backend);
        OVERRIDE.store(p, Ordering::Relaxed);
    }
}

#[cfg(feature = "simd")]
use dispatch::active;

/// Every backend usable on this CPU with this build, portable first. The
/// equivalence test suite iterates this to pin intrinsic backends against
/// the reference without touching global dispatch state.
pub fn available_backends() -> Vec<&'static Backend> {
    let mut backends = vec![&PORTABLE];
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if x86::available() {
        backends.push(&x86::BACKEND);
    }
    #[cfg(all(feature = "simd", target_arch = "aarch64"))]
    if neon::available() {
        backends.push(&neon::BACKEND);
    }
    backends
}

/// Name of the backend the next kernel call will dispatch to.
pub fn backend_name() -> &'static str {
    #[cfg(feature = "simd")]
    {
        active().name
    }
    #[cfg(not(feature = "simd"))]
    {
        PORTABLE.name
    }
}

/// True when the intrinsic backends were compiled in (`simd` feature).
pub const fn simd_compiled() -> bool {
    cfg!(feature = "simd")
}

/// Scoring-relevant CPU features detected at runtime, independent of which
/// backend is active — recorded beside the backend name in the obs
/// registry (`record_kernel_backend`) and in `saga stats` output.
pub fn detected_cpu_features() -> Vec<&'static str> {
    #[allow(unused_mut)]
    let mut features: Vec<&'static str> = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if std::is_x86_feature_detected!("avx2") {
            features.push("avx2");
        }
        if std::is_x86_feature_detected!("fma") {
            features.push("fma");
        }
        if std::is_x86_feature_detected!("avx512f") {
            features.push("avx512f");
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if std::arch::is_aarch64_feature_detected!("neon") {
            features.push("neon");
        }
    }
    features
}

/// Pin dispatch to the named backend (`"portable"`, `"avx2"`, `"neon"`) or
/// restore auto-detection with `"auto"`. Returns `false` (and changes
/// nothing) when the name is unknown or unavailable on this CPU/build.
///
/// A test/bench hook: it swaps one `'static` table pointer atomically, so
/// it is safe (if confusing) to race, but production code should rely on
/// auto-detection or `SAGA_KERNEL_BACKEND`.
pub fn force_backend(name: &str) -> bool {
    #[cfg(feature = "simd")]
    {
        if name == "auto" {
            dispatch::force(None);
            return true;
        }
        for be in available_backends() {
            if be.name == name {
                dispatch::force(Some(be));
                return true;
            }
        }
        false
    }
    #[cfg(not(feature = "simd"))]
    {
        // Without the intrinsic backends there is nothing to switch; accept
        // the two names that describe the only possible state.
        name == "auto" || name == "portable"
    }
}

/// Expands to a dispatched call under `simd`, a direct (inlinable) portable
/// call without it — so `--no-default-features` carries zero dispatch
/// overhead and is bit-for-bit the pre-dispatch build.
macro_rules! dispatched {
    ($field:ident, $($arg:expr),*) => {{
        #[cfg(feature = "simd")]
        let r = (active().$field)($($arg),*);
        #[cfg(not(feature = "simd"))]
        let r = portable::$field($($arg),*);
        r
    }};
}

/// Inner product `Σ a·b`.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    dispatched!(dot, a, b)
}

/// Squared Euclidean distance `Σ (a−b)²`.
#[inline]
pub fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    dispatched!(l2_sq, a, b)
}

/// Squared L2 norm `Σ v²`.
#[inline]
pub fn norm_sq(v: &[f32]) -> f32 {
    dispatched!(norm_sq, v)
}

/// L2 norm of a vector.
#[inline]
pub fn l2_norm(v: &[f32]) -> f32 {
    norm_sq(v).sqrt()
}

/// Cosine similarity (0.0 when either vector is zero).
#[inline]
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    dispatched!(cosine, a, b)
}

/// Cosine similarity with the query norm precomputed (`q_norm = l2_norm(q)`)
/// — the shape the contextual reranker wants when one query is scored
/// against many cached entity embeddings.
#[inline]
pub fn cosine_qnorm(q: &[f32], q_norm: f32, b: &[f32]) -> f32 {
    debug_assert_eq!(q.len(), b.len());
    dispatched!(cosine_qnorm, q, q_norm, b)
}

/// Triple product `Σ a·b·c` — the DistMult scoring kernel.
#[inline]
pub fn dot3(a: &[f32], b: &[f32], c: &[f32]) -> f32 {
    debug_assert!(a.len() == b.len() && b.len() == c.len());
    dispatched!(dot3, a, b, c)
}

/// Translation error `Σ (h + r − t)²` — the TransE scoring kernel
/// (`score = −translate_l2_sq`).
#[inline]
pub fn translate_l2_sq(h: &[f32], r: &[f32], t: &[f32]) -> f32 {
    debug_assert!(h.len() == r.len() && r.len() == t.len());
    dispatched!(translate_l2_sq, h, r, t)
}

/// Integer inner product `Σ a·b` over i8 lanes with i32 accumulation.
/// Bit-exact across backends; see [`portable::dot_i8i8`] for the overflow
/// headroom argument.
#[inline]
pub fn dot_i8i8(a: &[i8], b: &[i8]) -> i32 {
    debug_assert_eq!(a.len(), b.len());
    dispatched!(dot_i8i8, a, b)
}

/// Mixed inner product `Σ q·b` of an f32 query against an i8 row — the
/// asymmetric serving shape (full-precision query, quantized store). The
/// caller multiplies the row's scale into the result once.
#[inline]
pub fn dot_f32i8(q: &[f32], b: &[i8]) -> f32 {
    debug_assert_eq!(q.len(), b.len());
    dispatched!(dot_f32i8, q, b)
}

/// Squared L2 norm `Σ v²` of an i8 row, in integer units. Bit-exact across
/// backends.
#[inline]
pub fn norm_sq_i8(v: &[i8]) -> i32 {
    dispatched!(norm_sq_i8, v)
}

/// Below this dimension the fused one-pass distance beats the
/// norm-expansion algebra even with both norms precomputed: the expansion's
/// fixed cost (a separate dot kernel call plus the scalar algebra) is not
/// amortized until the row is long enough for the dot's wider loop to
/// dominate (measured at PR 7: direct wins through dim 16, the two tie
/// from dim 32 to 64, the expansion wins at 128).
pub const L2_F32I8_DIRECT_MAX_DIM: usize = 32;

/// Squared Euclidean distance between an f32 query and a dequantized i8
/// row with caller-precomputed norms (`q_norm_sq = norm_sq(q)`,
/// `b_norm = scale · sqrt(norm_sq_i8(b))`).
///
/// Thin wrapper over one canonical implementation per regime: at small
/// dims (≤ [`L2_F32I8_DIRECT_MAX_DIM`]) the precomputed norms cannot pay
/// for the expansion's fixed cost, so this routes to the fused
/// [`l2_sq_f32i8_direct`] sweep and ignores the norms; above it, the
/// norm-expansion `‖q−s·b‖² = ‖q‖² − 2s(q·b) + (s‖b‖)²` reuses them and
/// only pays one dot kernel. Clamped at zero: the expansion can go
/// slightly negative under f32 rounding when the vectors nearly coincide.
#[inline]
pub fn l2_sq_f32i8(q: &[f32], q_norm_sq: f32, b: &[i8], scale: f32, b_norm: f32) -> f32 {
    if q.len() <= L2_F32I8_DIRECT_MAX_DIM {
        return l2_sq_f32i8_direct(q, b, scale);
    }
    let d = dot_f32i8(q, b);
    (q_norm_sq - 2.0 * scale * d + b_norm * b_norm).max(0.0)
}

/// One-pass squared Euclidean distance between an f32 query and a
/// dequantized i8 row: fuses the dequantize-multiply into the difference,
/// `Σ (q − s·b)²`. The canonical f32·i8 distance; [`l2_sq_f32i8`] is the
/// norm-reusing wrapper.
#[inline]
pub fn l2_sq_f32i8_direct(q: &[f32], b: &[i8], scale: f32) -> f32 {
    debug_assert_eq!(q.len(), b.len());
    dispatched!(l2_sq_f32i8_direct, q, b, scale)
}

/// Expands a batch kernel body resolving the dispatch table once per block
/// — rows then go through the already-loaded function pointer, keeping the
/// per-row cost identical to a single-kernel call. Used by the batch
/// kernels that have no tiled `*_block` variant.
macro_rules! batch_body {
    ($field:ident, $q:ident, $block:ident, $out:ident, |$f:ident, $row:ident| $call:expr) => {{
        assert!(!$q.is_empty(), "query must be non-empty");
        debug_assert_eq!($block.len() % $q.len(), 0);
        #[cfg(feature = "simd")]
        let $f = active().$field;
        #[cfg(not(feature = "simd"))]
        let $f = portable::$field;
        $out.clear();
        $out.extend($block.chunks_exact($q.len()).map(|$row| $call));
    }};
}

/// Expands a tiled batch kernel body: sizes `out` to the row count (clear +
/// resize, so a warm buffer never reallocates) and hands the whole block to
/// the backend's `*_block` kernel, which keeps the query resident across a
/// [`ROW_TILE`]-row tile instead of looping the single-row kernel.
macro_rules! block_body {
    ($field:ident, $q:ident, $block:ident, $out:ident, $($arg:expr),*) => {{
        assert!(!$q.is_empty(), "query must be non-empty");
        debug_assert_eq!($block.len() % $q.len(), 0);
        let rows = $block.len() / $q.len();
        $out.clear();
        $out.resize(rows, Default::default());
        #[cfg(feature = "simd")]
        (active().$field)($($arg),*);
        #[cfg(not(feature = "simd"))]
        portable::$field($($arg),*);
    }};
}

/// The scan tile: scores every query of a row-major `queries` block
/// (`nq × dim`) against every row of a row-major `block` (`rows × dim`),
/// `out[q * rows + r]` for the pair (q, r). With
/// `norms = Some((q_norms, row_norms))` a score is the cosine
/// `d / (q_norms[q] · row_norms[r])`, 0.0 when either norm is zero; with
/// `None` it is the raw dot. Score bits obey the per-pair invariant of the
/// module docs.
///
/// # Panics
/// Panics when the slice lengths do not describe `nq × dim`, `rows × dim`,
/// `nq × rows` and one norm per query and row.
pub fn dot_tile(
    dim: usize,
    queries: &[f32],
    block: &[f32],
    norms: Option<(&[f32], &[f32])>,
    out: &mut [f32],
) {
    dispatched!(dot_tile, dim, queries, block, norms, out)
}

/// Scores `q` against every row of a contiguous row-major `block`
/// (`block.len()` must be a multiple of `q.len()`), writing one dot
/// product per row into `out`. Reuses `out`'s capacity — no allocation once
/// the buffer has grown to the block's row count. The `nq = 1` case of
/// [`dot_tile`].
pub fn dot_batch(q: &[f32], block: &[f32], out: &mut Vec<f32>) {
    assert!(!q.is_empty(), "query must be non-empty");
    out.resize(block.len() / q.len(), 0.0);
    dot_tile(q.len(), q, block, None, out);
}

/// Batch counterpart of [`l2_sq`]: squared distance per row of `block`.
pub fn l2_sq_batch(q: &[f32], block: &[f32], out: &mut Vec<f32>) {
    block_body!(l2_sq_block, q, block, out, q, block, out);
}

/// Batch counterpart of [`dot_i8i8`]: one i32 inner product per row of a
/// contiguous i8 `block`, written into a caller-owned buffer (same
/// contract as [`dot_batch`]).
pub fn dot_i8i8_batch(q: &[i8], block: &[i8], out: &mut Vec<i32>) {
    batch_body!(dot_i8i8, q, block, out, |f, row| f(q, row));
}

/// Batch counterpart of [`dot_f32i8`]: raw (unscaled) mixed inner product
/// per row; the caller folds in each row's scale. Tiled like [`l2_sq_batch`]
/// — this is the quantized table's full-scan scoring shape.
pub fn dot_f32i8_batch(q: &[f32], block: &[i8], out: &mut Vec<f32>) {
    block_body!(dot_f32i8_block, q, block, out, q, block, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_dot(a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    fn naive_cosine(a: &[f32], b: &[f32]) -> f32 {
        let (mut d, mut na, mut nb) = (0.0f32, 0.0f32, 0.0f32);
        for (x, y) in a.iter().zip(b) {
            d += x * y;
            na += x * x;
            nb += y * y;
        }
        if na == 0.0 || nb == 0.0 {
            0.0
        } else {
            d / (na.sqrt() * nb.sqrt())
        }
    }

    fn seq(n: usize, seed: u64) -> Vec<f32> {
        // Cheap deterministic pseudo-random values in [-1, 1).
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1);
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 11) as f32 / (1u64 << 52) as f32 * 2.0 - 1.0
            })
            .collect()
    }

    #[test]
    fn dot_matches_naive_across_dims() {
        for dim in [1, 3, 7, 8, 9, 16, 31, 64, 127, 128, 200] {
            let a = seq(dim, 1 + dim as u64);
            let b = seq(dim, 1000 + dim as u64);
            assert!(
                (dot(&a, &b) - naive_dot(&a, &b)).abs() < 1e-4,
                "dim {dim}: {} vs {}",
                dot(&a, &b),
                naive_dot(&a, &b)
            );
        }
    }

    #[test]
    fn l2_and_norms_match_naive() {
        for dim in [1, 5, 8, 13, 64, 129] {
            let a = seq(dim, dim as u64);
            let b = seq(dim, 7 * dim as u64);
            let naive: f32 = a.iter().zip(&b).map(|(x, y)| (x - y) * (x - y)).sum();
            assert!((l2_sq(&a, &b) - naive).abs() < 1e-4, "dim {dim}");
            let nn: f32 = a.iter().map(|x| x * x).sum();
            assert!((norm_sq(&a) - nn).abs() < 1e-4);
            assert!((l2_norm(&a) - nn.sqrt()).abs() < 1e-4);
        }
    }

    #[test]
    fn cosine_matches_naive_and_handles_zero() {
        for dim in [1, 4, 6, 12, 48, 100] {
            let a = seq(dim, 3 * dim as u64);
            let b = seq(dim, 11 * dim as u64);
            assert!((cosine(&a, &b) - naive_cosine(&a, &b)).abs() < 1e-5, "dim {dim}");
            let qn = l2_norm(&a);
            assert!((cosine_qnorm(&a, qn, &b) - naive_cosine(&a, &b)).abs() < 1e-5);
        }
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 2.0]), 0.0);
        assert_eq!(cosine_qnorm(&[0.0, 0.0], 0.0, &[1.0, 2.0]), 0.0);
    }

    #[test]
    fn triple_kernels_match_naive() {
        for dim in [1, 2, 8, 9, 32, 65] {
            let h = seq(dim, dim as u64);
            let r = seq(dim, 2 * dim as u64 + 1);
            let t = seq(dim, 3 * dim as u64 + 2);
            let nd3: f32 = (0..dim).map(|i| h[i] * r[i] * t[i]).sum();
            assert!((dot3(&h, &r, &t) - nd3).abs() < 1e-4, "dot3 dim {dim}");
            let ntr: f32 = (0..dim)
                .map(|i| {
                    let d = h[i] + r[i] - t[i];
                    d * d
                })
                .sum();
            assert!((translate_l2_sq(&h, &r, &t) - ntr).abs() < 1e-4, "transe dim {dim}");
        }
    }

    fn seq_i8(n: usize, seed: u64) -> Vec<i8> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1);
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 32) as i8
            })
            .collect()
    }

    #[test]
    fn i8_dot_and_norm_match_naive_across_dims() {
        for dim in [1, 3, 7, 8, 9, 16, 31, 64, 127, 128, 200] {
            let a = seq_i8(dim, 1 + dim as u64);
            let b = seq_i8(dim, 1000 + dim as u64);
            let nd: i32 = a.iter().zip(&b).map(|(x, y)| *x as i32 * *y as i32).sum();
            assert_eq!(dot_i8i8(&a, &b), nd, "dim {dim}");
            let nn: i32 = a.iter().map(|x| *x as i32 * *x as i32).sum();
            assert_eq!(norm_sq_i8(&a), nn, "dim {dim}");
        }
    }

    #[test]
    fn i8_dot_saturated_rows_do_not_overflow() {
        // 4096 dims of ±127 is the worst case at realistic sizes.
        let a = vec![127i8; 4096];
        let b = vec![-127i8; 4096];
        assert_eq!(dot_i8i8(&a, &b), -127 * 127 * 4096);
        assert_eq!(norm_sq_i8(&a), 127 * 127 * 4096);
    }

    #[test]
    fn mixed_dot_matches_dequantized_reference() {
        for dim in [1, 5, 8, 13, 48, 129] {
            let q = seq(dim, 3 * dim as u64);
            let b = seq_i8(dim, 7 * dim as u64);
            let scale = 0.013f32;
            let deq: Vec<f32> = b.iter().map(|x| *x as f32 * scale).collect();
            let want = naive_dot(&q, &deq);
            let got = scale * dot_f32i8(&q, &b);
            assert!((got - want).abs() < 1e-4, "dim {dim}: {got} vs {want}");
        }
    }

    #[test]
    fn l2_expansion_matches_direct_distance() {
        for dim in [1, 4, 8, 17, 64, 130] {
            let q = seq(dim, 11 * dim as u64);
            let b = seq_i8(dim, 13 * dim as u64);
            let scale = 0.0077f32;
            let deq: Vec<f32> = b.iter().map(|x| *x as f32 * scale).collect();
            let want = l2_sq(&q, &deq);
            let b_norm = scale * (norm_sq_i8(&b) as f32).sqrt();
            let got = l2_sq_f32i8(&q, norm_sq(&q), &b, scale, b_norm);
            assert!((got - want).abs() < 1e-3, "dim {dim}: {got} vs {want}");
            let direct = l2_sq_f32i8_direct(&q, &b, scale);
            assert!((direct - want).abs() < 1e-3, "dim {dim}: direct {direct} vs {want}");
        }
        // Identical vectors: expansion may dip below zero in f32; clamped.
        // (dim 64 > L2_F32I8_DIRECT_MAX_DIM, so this exercises the
        // expansion path, not the fused fallback.)
        let b = seq_i8(64, 5);
        let scale = 0.01f32;
        let q: Vec<f32> = b.iter().map(|x| *x as f32 * scale).collect();
        let b_norm = scale * (norm_sq_i8(&b) as f32).sqrt();
        let got = l2_sq_f32i8(&q, norm_sq(&q), &b, scale, b_norm);
        assert!((0.0..1e-3).contains(&got));
    }

    #[test]
    fn i8_batch_kernels_match_single_calls() {
        let dim = 24;
        let rows = 17;
        let qi = seq_i8(dim, 5);
        let qf = seq(dim, 5);
        let block: Vec<i8> = (0..rows).flat_map(|i| seq_i8(dim, 100 + i as u64)).collect();
        let mut out_i = Vec::new();
        dot_i8i8_batch(&qi, &block, &mut out_i);
        assert_eq!(out_i.len(), rows);
        for (i, s) in out_i.iter().enumerate() {
            assert_eq!(*s, dot_i8i8(&qi, &block[i * dim..(i + 1) * dim]));
        }
        let mut out_f = Vec::new();
        dot_f32i8_batch(&qf, &block, &mut out_f);
        assert_eq!(out_f.len(), rows);
        // The tiled block kernel accumulates in a different order than the
        // single-row kernel, so f32 results agree within tolerance, not
        // bitwise (integer dot_i8i8 above stays exact — order-free).
        for (i, s) in out_f.iter().enumerate() {
            assert!((s - dot_f32i8(&qf, &block[i * dim..(i + 1) * dim])).abs() < 1e-3);
        }
        let cap = out_i.capacity();
        dot_i8i8_batch(&qi, &block, &mut out_i);
        assert_eq!(out_i.capacity(), cap);
    }

    #[test]
    fn batch_kernels_match_single_calls() {
        let dim = 24;
        let q = seq(dim, 5);
        let rows = 17;
        let block: Vec<f32> = (0..rows).flat_map(|i| seq(dim, 100 + i as u64)).collect();
        let mut out = Vec::new();
        // The batch kernels accumulate in a different order than the
        // single-row kernels, so agreement is within tolerance, not bitwise.
        dot_batch(&q, &block, &mut out);
        assert_eq!(out.len(), rows);
        for (i, s) in out.iter().enumerate() {
            let row = &block[i * dim..(i + 1) * dim];
            assert!((s - dot(&q, row)).abs() < 1e-4);
        }
        l2_sq_batch(&q, &block, &mut out);
        for (i, s) in out.iter().enumerate() {
            let row = &block[i * dim..(i + 1) * dim];
            assert!((s - l2_sq(&q, row)).abs() < 1e-4);
        }
        // Buffer is reused: capacity survives clears.
        let cap = out.capacity();
        dot_batch(&q, &block, &mut out);
        assert_eq!(out.capacity(), cap);
    }

    /// The single-query block kernels must agree with the single-row
    /// kernels on every backend, including remainder rows
    /// (`rows % ROW_TILE != 0`) and remainder dims.
    #[test]
    fn block_kernels_match_single_rows_on_every_backend() {
        for be in available_backends() {
            for (dim, rows) in [(1, 1), (7, 3), (8, 4), (24, 17), (64, 5), (129, 9)] {
                let q = seq(dim, 5);
                let block: Vec<f32> = (0..rows).flat_map(|i| seq(dim, 100 + i as u64)).collect();
                let bi8: Vec<i8> = (0..rows).flat_map(|i| seq_i8(dim, 100 + i as u64)).collect();
                let mut out = vec![0.0f32; rows];
                (be.l2_sq_block)(&q, &block, &mut out);
                for (i, s) in out.iter().enumerate() {
                    let row = &block[i * dim..(i + 1) * dim];
                    assert!(
                        (s - (be.l2_sq)(&q, row)).abs() < 1e-4,
                        "{} l2_sq_block dim {dim} row {i}",
                        be.name
                    );
                }
                (be.dot_f32i8_block)(&q, &bi8, &mut out);
                for (i, s) in out.iter().enumerate() {
                    let row = &bi8[i * dim..(i + 1) * dim];
                    assert!(
                        (s - (be.dot_f32i8)(&q, row)).abs() < 1e-3,
                        "{} dot_f32i8_block dim {dim} row {i}",
                        be.name
                    );
                }
            }
        }
    }

    #[test]
    fn dispatch_introspection_is_consistent() {
        let backends = available_backends();
        assert_eq!(backends[0].name, "portable");
        // The active backend is always one of the available ones.
        assert!(backends.iter().any(|be| be.name == backend_name()));
        if !simd_compiled() {
            assert_eq!(backend_name(), "portable");
            assert_eq!(backends.len(), 1);
        }
        // On x86_64 with avx2+fma detected, the simd build must pick avx2.
        #[cfg(target_arch = "x86_64")]
        if simd_compiled()
            && std::is_x86_feature_detected!("avx2")
            && std::is_x86_feature_detected!("fma")
        {
            assert!(backends.iter().any(|be| be.name == "avx2"));
        }
    }

    /// Single test for the force hook (global state: keep the round trip in
    /// one test so parallel test threads never observe a half-forced
    /// state... they would still compute correct results — all backends
    /// agree within test tolerances — but the assertion set stays simple).
    #[test]
    fn force_backend_round_trip() {
        assert!(force_backend("portable"));
        assert_eq!(backend_name(), "portable");
        assert!(!force_backend("no-such-backend"));
        assert_eq!(backend_name(), "portable");
        for be in available_backends() {
            assert!(force_backend(be.name));
            assert_eq!(backend_name(), be.name);
            // Kernels stay correct under every forced backend.
            let a = seq(67, 1);
            let b = seq(67, 2);
            assert!((dot(&a, &b) - naive_dot(&a, &b)).abs() < 1e-4);
        }
        assert!(force_backend("auto"));
        assert!(available_backends().iter().any(|be| be.name == backend_name()));
    }
}
