//! # saga-pipeline
//!
//! The top of the stack: an end-to-end growth driver wiring the corpus
//! change feed, semantic annotation, open-domain knowledge extraction,
//! the persistent graph store, embedding training and ANN maintenance
//! into one pipeline (paper Sec. 3.1, "Growing the graph").
//!
//! - [`grow_batch`] bootstraps everything from a corpus snapshot;
//! - [`grow_incremental`] advances the stack by one crawl interval,
//!   processing only what changed — every stage chained off the shared
//!   [`saga_core::delta`] contract, with the [`saga_core::KgStore`]
//!   commit-delta cursor as the single feed driving the model layers;
//! - [`published_bytes`] renders the grown graph as a canonical,
//!   history-free image, the form in which the two paths are provably
//!   equivalent (see `tests/equivalence.rs`).

#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]

pub mod grow;
pub mod publish;

pub use grow::{grow_batch, grow_incremental, GrowthConfig, GrowthReport, GrowthState};
pub use publish::published_bytes;
