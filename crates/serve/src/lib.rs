//! # saga-serve — the sharded serving front-end
//!
//! Serves point lookups (graph facts by entity) and vector searches
//! (flat / HNSW / quantized k-NN) behind a sharded, concurrent front-end,
//! with the load generators its tests drive it with:
//!
//! * [`policy`] — shard routing (entity-hash), coalescing windows, and the
//!   latency-budget admission rule ([`policy::should_shed`]) with its
//!   sliding-window p99 histogram. Pure data + arithmetic: the same
//!   decision code runs in the engine and the simulator.
//! * [`shard`] — the threaded engine: one persistent worker per shard
//!   coalescing concurrent requests into micro-batches, shedding at
//!   admission when the shard's p99 burns its budget.
//! * [`sim`] — bit-reproducible virtual-time replay of the same policies,
//!   for determinism tests and policy reasoning.
//! * [`loadgen`] — closed-loop (capacity) and open-loop (offered-load)
//!   generators over [`saga_core::trace`] request traces, with exact
//!   percentiles. They are the in-process reference for the `retry_after`
//!   discipline the [`net`] client follows; performance numbers come from
//!   `perf-ledger/`, not from here.
//! * [`server`] — the engine bound to real backends: partitioned ANN
//!   indexes, the graph store's [`saga_graph::PointLookupIndex`], obs
//!   counters and fault-driven brownout.
//! * [`net`] — the fault-tolerant network layer: framed wire protocol,
//!   TCP/memory transports, a deadline-propagating server, a shed-aware
//!   retry client, and the seeded chaos transport that proves them.

#![deny(clippy::unwrap_used)]

pub mod loadgen;
pub mod net;
pub mod policy;
pub mod server;
pub mod shard;
pub mod sim;

pub use loadgen::{
    run_load, run_load_retry, LoadMode, LoadReport, RetryConfig, RetryStats, RetryStyle, SlotBoard,
};
pub use net::{ClientConfig, NetServer, NetServerConfig, SagaClient};
pub use policy::{route, should_shed, CoalescePolicy, ShedPolicy, WindowHistogram};
pub use server::{IndexKind, ShardedService};
pub use shard::{
    BatchExecutor, EngineClock, Job, MicrosClock, ShardEngine, ShardStats, SubmitOutcome,
};
pub use sim::{simulate, simulate_partitioned, ServiceModel, SimConfig, SimResult};
