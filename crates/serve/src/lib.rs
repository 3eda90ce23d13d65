//! # saga-serve — the sharded serving front-end
//!
//! Serves point lookups (graph facts by entity) and vector searches (exact
//! flat k-NN) behind a sharded, concurrent front-end:
//!
//! * [`policy`] — shard routing (entity-hash), coalescing windows, and the
//!   latency-budget admission rule ([`policy::should_shed`]) with its
//!   sliding-window p99 histogram. Pure data + arithmetic, unit-tested on
//!   its own.
//! * [`shard`] — the threaded engine: one persistent worker per shard
//!   coalescing concurrent requests into micro-batches, shedding at
//!   admission when the shard's p99 burns its budget.
//! * [`server`] — the engine bound to real backends: partitioned flat ANN
//!   indexes, the graph store's [`saga_graph::PointLookupIndex`], obs
//!   counters, fault-driven brownout, and the [`SlotBoard`] completion
//!   board callers wait on.
//! * [`net`] — the fault-tolerant network layer: framed wire protocol,
//!   TCP/memory transports, a deadline-propagating server, a shed-aware
//!   retry client, and the seeded chaos transport that proves them.
//!
//! The crate carries no load generator: performance numbers come from
//! `perf-ledger/`, which drives this crate's public API.

#![deny(clippy::unwrap_used)]

pub mod net;
pub mod policy;
pub mod server;
pub mod shard;

pub use net::{ClientConfig, NetServer, NetServerConfig, SagaClient};
pub use policy::{route, should_shed, CoalescePolicy, ShedPolicy, WindowHistogram};
pub use server::{IndexKind, ShardedService, SlotBoard};
pub use shard::{
    BatchExecutor, EngineClock, Job, MicrosClock, ShardEngine, ShardStats, SubmitOutcome,
};
