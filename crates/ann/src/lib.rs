//! # saga-ann
//!
//! The vector substrate behind the platform's embedding service (paper
//! Fig. 1): exact and approximate k-nearest-neighbour retrieval, scalar
//! quantization for on-device deployment, and the low-latency embedding
//! key-value cache used by the semantic annotation service.

#![warn(missing_docs)]
#![allow(clippy::len_without_is_empty)]

pub mod flat;
pub mod hnsw;
pub mod kv;
pub mod pq;
pub mod quant;
pub mod vector;

pub use flat::{FlatIndex, FlatScratch, Hit};
pub use hnsw::{HnswIndex, HnswParams, SearchScratch};
pub use kv::{CacheStats, EmbeddingCache};
pub use pq::{PqCodebook, PqConfig, PqIndex, PqScratch};
pub use quant::{QuantScratch, QuantizedTable, QuantizedVector};
pub use vector::Metric;

/// The one fan-out behind every `search_batch`: `queries` cut into
/// contiguous chunks of `ceil(n / workers)`, the first searched on the
/// calling thread and each other on a scoped thread of its own, the results
/// concatenated in query order. A worker's panic resumes on the caller.
fn fan_out<T: Send>(
    queries: &[Vec<f32>],
    workers: usize,
    search: impl Fn(&[Vec<f32>]) -> Vec<T> + Sync,
) -> Vec<T> {
    let workers = workers.max(1);
    if workers == 1 || queries.len() <= 1 {
        return search(queries);
    }
    let search = &search;
    let mut chunks = queries.chunks(queries.len().div_ceil(workers));
    let first = chunks.next().unwrap_or_default();
    std::thread::scope(|s| {
        let rest: Vec<_> = chunks.map(|c| s.spawn(move || search(c))).collect();
        let mut out = search(first);
        for h in rest {
            out.extend(h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
        }
        out
    })
}
