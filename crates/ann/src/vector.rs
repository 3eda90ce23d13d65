//! The similarity metric shared by the indexes, backed by the unrolled
//! kernels in [`saga_core::kernels`].

use saga_core::kernels;

/// Distance/similarity metric for a vector index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Cosine similarity (vectors are compared after normalization).
    Cosine,
    /// Negative squared Euclidean distance (so larger = closer, uniformly).
    Euclidean,
    /// Inner product.
    Dot,
}

impl Metric {
    /// Similarity score; larger is more similar for every metric.
    #[inline]
    pub fn score(self, a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        match self {
            Metric::Cosine => kernels::cosine(a, b),
            Metric::Euclidean => -kernels::l2_sq(a, b),
            Metric::Dot => kernels::dot(a, b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_rank_consistently() {
        let a = [1.0, 0.0, 0.0];
        let close = [0.9, 0.1, 0.0];
        let far = [0.0, 0.0, 1.0];
        for m in [Metric::Cosine, Metric::Euclidean, Metric::Dot] {
            assert!(m.score(&a, &close) > m.score(&a, &far), "{m:?}");
            // Self-similarity is maximal among the three candidates.
            assert!(m.score(&a, &a) >= m.score(&a, &close));
        }
    }

    #[test]
    fn euclidean_is_negative_distance() {
        assert_eq!(Metric::Euclidean.score(&[0.0], &[3.0]), -9.0);
        assert_eq!(Metric::Euclidean.score(&[1.0], &[1.0]), 0.0);
    }
}
