//! Fault-tolerant network serving layer.
//!
//! Dependency-free networked serving over std TCP (or in-process memory
//! links), structured as four cooperating pieces:
//!
//! * [`wire`] — length-prefixed, checksummed, version-tagged frames using
//!   the `persist::codec` byte discipline. Hostile input is safe by
//!   construction: lengths validate before allocation, corruption decodes
//!   to typed errors, never panics.
//! * [`transport`] — the [`transport::Transport`] / [`transport::FrameConn`]
//!   abstraction with a TCP implementation and an in-memory loopback used
//!   by the deterministic tests.
//! * [`server`] — a thread-per-connection front-end over the
//!   [`crate::shard::ShardEngine`] with deadline propagation, admission
//!   control, and graceful drain.
//! * [`client`] — [`client::SagaClient`], a pooled retry client built on
//!   `saga_core::fault` (retry policy, budget, circuit breaker) that
//!   honors server shed hints.
//! * [`chaos`] — a seeded fault-injecting transport (drop, duplicate,
//!   delay, torn write, bit flip, disconnect) powering the chaos matrix:
//!   every seed must yield either a correct response or a typed error.

pub mod chaos;
pub mod client;
pub mod server;
pub mod transport;
pub mod wire;

pub use chaos::{ChaosConfig, ChaosStats, ChaosTransport};
pub use client::{ClientConfig, ClientStats, SagaClient};
pub use server::{oracle_lookup, oracle_search, NetServer, NetServerConfig, NetServerStats};
pub use transport::{
    Acceptor, FrameConn, MemListener, MemTransport, TcpAcceptor, TcpTransport, Transport,
};
pub use wire::{ErrorCode, Request, RequestBody, Response, ResponseBody, WireHit};
