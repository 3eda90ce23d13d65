//! `SagaClient`: a pooled, retrying network client for the saga wire
//! protocol, built on the `saga_core::fault` resilience primitives.
//!
//! ## Failure discipline
//!
//! * **Shed** replies are flow control, not failure: they charge the
//!   shared [`RetryBudget`] and the client honors the server's
//!   `retry_after_micros` hint (plus deterministic jitter) — but they do
//!   NOT trip the circuit breaker, because a shedding server is a healthy
//!   server telling us to slow down.
//! * **Io / Corrupt** outcomes poison the connection (never returned to
//!   the pool), count against the per-endpoint [`CircuitBreaker`], and
//!   back off on the [`RetryPolicy`]'s exponential-with-jitter schedule.
//! * Retries carry **fresh request ids** (`call_id << 8 | attempt`), so a
//!   duplicated or delayed response to an abandoned attempt is recognized
//!   by id and discarded instead of being mistaken for the live attempt's
//!   answer.
//!
//! Time is virtualized through [`VirtualClock`]: chaos tests run the whole
//! retry schedule without wall-clock sleeps, while production TCP clients
//! set [`ClientConfig::real_sleep`] and physically wait.

use crate::net::transport::{FrameConn, Transport};
use crate::net::wire::{peek_request_id, ErrorCode, Request, RequestBody, Response, ResponseBody};
use saga_core::fault::{
    unit_hash, BreakerConfig, BreakerSet, CircuitBreaker, RetryBudget, RetryPolicy, VirtualClock,
};
use saga_core::{Result, SagaError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Tuning for [`SagaClient`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Backoff schedule for Io/Corrupt retries.
    pub retry: RetryPolicy,
    /// Per-endpoint breaker tuning.
    pub breaker: BreakerConfig,
    /// Shared retry budget across every call on this client.
    pub retry_budget: u32,
    /// How long one attempt waits for its response frame.
    pub request_timeout: Duration,
    /// Relative deadline stamped on every request frame, in µs (0 = none).
    pub deadline_micros: u64,
    /// Idle connections kept for reuse.
    pub pool_size: usize,
    /// Physically sleep during backoff (TCP) instead of only advancing the
    /// virtual clock (deterministic tests).
    pub real_sleep: bool,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
            retry_budget: 64,
            request_timeout: Duration::from_secs(2),
            deadline_micros: 0,
            pool_size: 4,
            real_sleep: true,
        }
    }
}

/// Monotonic counters a client accumulates over its lifetime.
#[derive(Debug, Default)]
struct Counters {
    calls: AtomicU64,
    attempts: AtomicU64,
    retries: AtomicU64,
    shed_received: AtomicU64,
    io_errors: AtomicU64,
    corrupt: AtomicU64,
    stale_discarded: AtomicU64,
    breaker_rejections: AtomicU64,
    budget_exhausted: AtomicU64,
}

/// Snapshot of [`SagaClient`] counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Logical calls issued.
    pub calls: u64,
    /// Wire attempts (first tries + retries).
    pub attempts: u64,
    /// Attempts beyond the first.
    pub retries: u64,
    /// `Shed` responses received.
    pub shed_received: u64,
    /// Attempts that failed with an I/O error.
    pub io_errors: u64,
    /// Attempts that failed with a corrupt frame.
    pub corrupt: u64,
    /// Responses discarded because their id matched no live attempt.
    pub stale_discarded: u64,
    /// Calls refused locally by an open circuit breaker.
    pub breaker_rejections: u64,
    /// Calls abandoned because the retry budget ran dry.
    pub budget_exhausted: u64,
}

/// Max mismatched-id frames discarded within one attempt before the
/// attempt is declared failed (guards against a frame-flooding peer).
const MAX_STALE_PER_ATTEMPT: u32 = 64;

/// An idle connection and the frame buffer its requests are encoded into;
/// the buffer keeps its capacity across calls, so a warm call encodes
/// without allocating.
struct PooledConn {
    conn: Box<dyn FrameConn>,
    frame: Vec<u8>,
}

/// A pooled, breaker-guarded, shed-aware client for one endpoint.
pub struct SagaClient {
    transport: Arc<dyn Transport>,
    pool: Mutex<Vec<PooledConn>>,
    cfg: ClientConfig,
    clock: Arc<VirtualClock>,
    budget: RetryBudget,
    breakers: BreakerSet,
    next_call: AtomicU64,
    counters: Counters,
}

impl SagaClient {
    /// A client over `transport` with its own clock.
    pub fn new(transport: Arc<dyn Transport>, cfg: ClientConfig) -> Self {
        Self::with_clock(transport, cfg, Arc::new(VirtualClock::new()))
    }

    /// A client sharing an externally-driven [`VirtualClock`] (chaos
    /// harnesses advance it to step breaker cooldowns deterministically).
    pub fn with_clock(
        transport: Arc<dyn Transport>,
        cfg: ClientConfig,
        clock: Arc<VirtualClock>,
    ) -> Self {
        let budget = RetryBudget::new(cfg.retry_budget);
        let breakers = BreakerSet::new(cfg.breaker);
        SagaClient {
            transport,
            pool: Mutex::new(Vec::new()),
            cfg,
            clock,
            budget,
            breakers,
            next_call: AtomicU64::new(1),
            counters: Counters::default(),
        }
    }

    /// Fact count for an entity.
    pub fn lookup(&self, entity: u64) -> Result<ResponseBody> {
        self.call(RequestBody::Lookup { entity })
    }

    /// Top-k vector search for a deterministic query seed.
    pub fn search(&self, query_seed: u64, k: u32) -> Result<ResponseBody> {
        self.call(RequestBody::Search { query_seed, k })
    }

    /// Several operations in one frame.
    pub fn batch(&self, items: Vec<RequestBody>) -> Result<ResponseBody> {
        self.call(RequestBody::Batch(items))
    }

    /// Liveness probe.
    pub fn ping(&self) -> Result<ResponseBody> {
        self.call(RequestBody::Ping)
    }

    /// Retries still available in the shared budget.
    pub fn budget_remaining(&self) -> u64 {
        self.budget.remaining()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ClientStats {
        let c = &self.counters;
        ClientStats {
            calls: c.calls.load(Ordering::Relaxed),
            attempts: c.attempts.load(Ordering::Relaxed),
            retries: c.retries.load(Ordering::Relaxed),
            shed_received: c.shed_received.load(Ordering::Relaxed),
            io_errors: c.io_errors.load(Ordering::Relaxed),
            corrupt: c.corrupt.load(Ordering::Relaxed),
            stale_discarded: c.stale_discarded.load(Ordering::Relaxed),
            breaker_rejections: c.breaker_rejections.load(Ordering::Relaxed),
            budget_exhausted: c.budget_exhausted.load(Ordering::Relaxed),
        }
    }

    /// Issues one logical call: attempts, shed-aware waits, breaker gating
    /// and budgeted retries until a terminal response or typed error.
    pub fn call(&self, body: RequestBody) -> Result<ResponseBody> {
        self.counters.calls.fetch_add(1, Ordering::Relaxed);
        let call_id = self.next_call.fetch_add(1, Ordering::Relaxed);
        let breaker = self.breakers.breaker(self.transport.endpoint());
        // One envelope per call: each attempt only restamps the id.
        let mut req = Request { request_id: 0, timeout_micros: self.cfg.deadline_micros, body };
        let mut last_err = None;
        for attempt in 0..self.cfg.retry.max_attempts {
            self.counters.attempts.fetch_add(1, Ordering::Relaxed);
            if attempt > 0 {
                self.counters.retries.fetch_add(1, Ordering::Relaxed);
            }
            if !breaker.allow(self.clock.now_ms()) {
                self.counters.breaker_rejections.fetch_add(1, Ordering::Relaxed);
                return Err(SagaError::Unavailable { site: "net/breaker".into(), transient: true });
            }
            req.request_id = (call_id << 8) | u64::from(attempt & 0xff);
            let (err, wait_ms) = match self.attempt(&req) {
                Ok(ResponseBody::Shed { retry_after_micros }) => {
                    self.counters.shed_received.fetch_add(1, Ordering::Relaxed);
                    // The server answered: it is healthy, just saturated.
                    breaker.record(self.clock.now_ms(), true);
                    (
                        SagaError::Unavailable { site: "net/shed".into(), transient: true },
                        self.shed_wait_ms(retry_after_micros, call_id, attempt),
                    )
                }
                Ok(ResponseBody::Error { code: ErrorCode::BadRequest, message }) => {
                    // Our own frame was malformed; retrying identical bytes
                    // cannot help.
                    breaker.record(self.clock.now_ms(), true);
                    return Err(SagaError::InvalidArgument(message));
                }
                Ok(ResponseBody::Error { .. }) => {
                    breaker.record(self.clock.now_ms(), false);
                    (
                        SagaError::Unavailable { site: "net/server-error".into(), transient: true },
                        self.cfg.retry.delay_ms(attempt, call_id),
                    )
                }
                Ok(resp) => {
                    breaker.record(self.clock.now_ms(), true);
                    return Ok(resp);
                }
                Err(e) => {
                    match &e {
                        SagaError::Corrupt(_) => {
                            self.counters.corrupt.fetch_add(1, Ordering::Relaxed)
                        }
                        _ => self.counters.io_errors.fetch_add(1, Ordering::Relaxed),
                    };
                    breaker.record(self.clock.now_ms(), false);
                    (e, self.cfg.retry.delay_ms(attempt, call_id))
                }
            };
            if !self.take_retry() {
                return Err(err);
            }
            last_err = Some(err);
            self.sleep_ms(wait_ms);
        }
        // Only a zero-attempt policy gets here without an error in hand.
        Err(last_err.unwrap_or_else(|| SagaError::Unavailable {
            site: "net/client".into(),
            transient: true,
        }))
    }

    /// One wire attempt. A connection that saw any error is dropped, never
    /// pooled; a clean exchange returns its connection for reuse.
    fn attempt(&self, req: &Request) -> Result<ResponseBody> {
        let pooled = self.pool.lock().expect("conn pool").pop();
        let mut pooled = match pooled {
            Some(p) => p,
            None => PooledConn { conn: self.transport.connect()?, frame: Vec::new() },
        };
        req.encode_into(&mut pooled.frame)?;
        pooled.conn.send_frame(&pooled.frame)?;
        let mut stale = 0u32;
        loop {
            match pooled.conn.recv_frame(self.cfg.request_timeout) {
                Ok(None) => {
                    // No response within the attempt window: the request
                    // (or its reply) is lost somewhere. The conn may still
                    // deliver it later, so it cannot be reused.
                    return Err(SagaError::Io(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        "no response within attempt window",
                    )));
                }
                Err(e) => return Err(e),
                Ok(Some(bytes)) => {
                    if peek_request_id(&bytes)? != req.request_id {
                        // Late/duplicate answer to an abandoned attempt.
                        self.counters.stale_discarded.fetch_add(1, Ordering::Relaxed);
                        stale += 1;
                        if stale > MAX_STALE_PER_ATTEMPT {
                            return Err(SagaError::Io(std::io::Error::new(
                                std::io::ErrorKind::InvalidData,
                                "flooded with stale frames",
                            )));
                        }
                        continue;
                    }
                    let resp = Response::from_frame(&bytes)?;
                    let mut pool = self.pool.lock().expect("conn pool");
                    if pool.len() < self.cfg.pool_size {
                        pool.push(pooled);
                    }
                    return Ok(resp.body);
                }
            }
        }
    }

    /// Honors the server's shed hint with ±25% deterministic jitter so a
    /// synchronized client herd doesn't return in lockstep.
    fn shed_wait_ms(&self, retry_after_micros: u64, call_id: u64, attempt: u32) -> u64 {
        let base = (retry_after_micros / 1_000).max(1);
        let u = unit_hash(call_id, &[0x5348_4544, u64::from(attempt)]);
        let jitter = ((u - 0.5) * 0.5 * base as f64) as i64;
        base.saturating_add_signed(jitter).max(1)
    }

    fn take_retry(&self) -> bool {
        if self.budget.try_take() {
            true
        } else {
            self.counters.budget_exhausted.fetch_add(1, Ordering::Relaxed);
            false
        }
    }

    /// Advances virtual time always; wall time only when configured.
    fn sleep_ms(&self, ms: u64) {
        self.clock.advance_ms(ms);
        if self.cfg.real_sleep {
            std::thread::sleep(Duration::from_millis(ms));
        }
    }

    /// Breaker for this client's endpoint (tests poke its state).
    pub fn breaker(&self) -> Arc<CircuitBreaker> {
        self.breakers.breaker(self.transport.endpoint())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::net::transport::{Acceptor, MemListener, MemTransport};

    /// A shed reply is flow control: the client waits out the server's
    /// `retry_after` hint (±25 % jitter) on its clock, retries under a fresh
    /// id, charges the budget once and records a breaker success. The
    /// breaker trips on a single failure, so a shed counted as one would
    /// fail the call.
    #[test]
    fn shed_reply_honours_the_hint_and_keeps_the_breaker_closed() {
        let listener = MemListener::new();
        let acceptor = listener.clone();
        let peer = std::thread::spawn(move || {
            let mut conn = acceptor.accept(Duration::from_secs(5)).unwrap().unwrap();
            let replies = [
                ResponseBody::Shed { retry_after_micros: 40_000 },
                ResponseBody::LookupOk { entity: 7, fact_count: 3 },
            ];
            let mut ids = Vec::new();
            for body in replies {
                let frame = conn.recv_frame(Duration::from_secs(5)).unwrap().unwrap();
                let request_id = Request::from_frame(&frame).unwrap().request_id;
                conn.send_frame(&Response { request_id, body }.to_frame().unwrap()).unwrap();
                ids.push(request_id);
            }
            ids
        });
        let clock = Arc::new(VirtualClock::new());
        let cfg = ClientConfig {
            breaker: BreakerConfig { failure_threshold: 1, cooldown_ms: 60_000 },
            real_sleep: false,
            ..ClientConfig::default()
        };
        let client =
            SagaClient::with_clock(Arc::new(MemTransport::new(listener)), cfg, Arc::clone(&clock));
        let budget = client.budget_remaining();

        let reply = client.lookup(7).unwrap();

        assert_eq!(reply, ResponseBody::LookupOk { entity: 7, fact_count: 3 });
        let stats = client.stats();
        assert_eq!((stats.shed_received, stats.retries), (1, 1), "{stats:?}");
        assert_eq!(client.budget_remaining(), budget - 1);
        assert!(!client.breaker().is_open(clock.now_ms()));
        let waited = clock.now_ms();
        assert!((30..=50).contains(&waited), "waited {waited} ms for a 40 ms hint");
        let ids = peer.join().unwrap();
        assert_ne!(ids[0], ids[1], "the retry reused the shed attempt's id");
    }
}
