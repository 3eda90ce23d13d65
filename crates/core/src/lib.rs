//! # saga-core
//!
//! The knowledge-graph data model and triple store underlying our
//! reproduction of *Growing and Serving Large Open-domain Knowledge Graphs*
//! (SIGMOD-Companion 2023).
//!
//! This crate provides:
//! - strongly-typed ids and string interning ([`ids`]);
//! - triples, typed literal values and provenance ([`triple`], [`value`],
//!   [`literal`]);
//! - a unified ontology with predicate metadata driving fact filtering and
//!   coverage profiling ([`ontology`]);
//! - a commit-based triple store with SPO/POS/OSP covering indexes and
//!   change deltas ([`store`]);
//! - the shared incremental-growth contract — page/entity dirty sets
//!   pulled through monotone cursors with `Lapsed → full-rebuild`
//!   fallback ([`delta`]);
//! - checksummed binary persistence frames, a torn-tail-recovering
//!   write-ahead log, and a crash-safe MVCC storage engine with a durable
//!   change cursor ([`persist`], [`persist::engine`], [`persist::kg`]);
//! - deterministic fault injection, retry/backoff, retry budgets and
//!   circuit breakers over a virtual clock ([`fault`]);
//! - shared text utilities — tokenizer, stable hashing, hashed feature
//!   embeddings ([`text`]);
//! - unrolled dense-vector kernels shared by every scoring hot path
//!   ([`kernels`]);
//! - the unified observability substrate — sharded counters, log2 latency
//!   histograms, span timers and deterministic metric snapshots ([`obs`]);
//! - a deterministic synthetic open-domain KG generator standing in for the
//!   paper's production graph ([`synth`]);
//! - deterministic Zipfian request traces for the serving load harness
//!   ([`trace`]);
//! - a persistent worker pool so serving fan-out spawns zero threads in
//!   steady state ([`pool`]).

#![warn(missing_docs)]
#![allow(clippy::len_without_is_empty)]

pub mod delta;
pub mod entity;
pub mod error;
pub mod fault;
pub mod ids;
pub mod kernels;
pub mod literal;
pub mod obs;
pub mod ontology;
pub mod persist;
pub mod pool;
pub mod store;
pub mod synth;
pub mod text;
pub mod trace;
pub mod triple;
pub mod value;

pub use delta::{record_lapse, DeltaBatch, DeltaCursor, DeltaPull, DELTA_SCOPE};
pub use entity::{EntityBuilder, EntityRecord};
pub use error::{Result, SagaError};
pub use fault::{
    crash_matrix, unit_hash, BreakerConfig, BreakerSet, CircuitBreaker, CrashMatrixReport,
    FaultInjector, FaultKind, FaultPlan, KillMode, KillSwitch, RetryBudget, RetryPolicy,
    SiteFaults, VirtualClock,
};
pub use ids::{DocId, EntityId, Interner, LiteralId, PredicateId, SourceId, TypeId};
pub use obs::{
    Clock, Counter, Histogram, HistogramSnapshot, MetricValue, MetricsSnapshot, Registry, Scope,
    SpanTimer, WallClock,
};
pub use ontology::{Cardinality, Ontology, PredicateInfo, TypeInfo, Volatility};
pub use persist::engine::{AppendOutcome, Engine, EngineChanges, EngineOptions, EngineStats};
pub use persist::kg::{Changes, GraphPin, KgStore, StoreTxn};
pub use store::{fact_content_key, Delta, FactContentKey, KnowledgeGraph};
pub use triple::{FactMeta, ObjKey, Triple, TripleKey};
pub use value::{Date, Value, ValueKind};
