//! # saga-graph
//!
//! The graph query engine layered on the `saga-core` triple store:
//!
//! - [`pattern`] — index-dispatched triple-pattern scans;
//! - [`view`] — declarative views, filters over the graph's keys (the fact
//!   filtering of paper Sec. 2 and the static knowledge asset of Sec. 5);
//! - [`traverse`] — CSR adjacency, seeded random walks
//!   and the pre-computed traversal corpora used for related-entity
//!   embeddings;
//! - [`mod@profile`] — predicate statistics, coverage and staleness analysis
//!   feeding the ODKE profiler (Sec. 4);
//! - [`query`] — conjunctive queries for entity retrieval;
//! - [`lookup`] — frozen CSR point-lookup snapshots for the serving
//!   front-end (O(1), zero-allocation fact access).

#![warn(missing_docs)]

pub mod lookup;
pub mod pattern;
pub mod profile;
pub mod query;
pub mod traverse;
pub mod view;

pub use lookup::PointLookupIndex;
pub use pattern::{scan, TriplePattern};
pub use profile::{missing_facts, profile, stale_facts, GraphProfile, MissingFact, StaleFact};
pub use query::{solve, Clause, ConjunctiveQuery, Term};
pub use traverse::{co_visit_counts, precompute_walk_corpus, related_by_walks, Adjacency};
pub use view::{Edge, GraphView, ViewDef};
