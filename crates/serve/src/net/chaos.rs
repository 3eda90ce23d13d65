//! Deterministic network chaos: a [`Transport`] that mutilates frames on
//! an in-process link, driven by the same pure-hash fault discipline as
//! `saga_core::fault`.
//!
//! Every delivery decision is `unit_hash(seed, [direction, fnv1a(frame)])`
//! — a pure function of the seed and the frame *bytes*, so it is
//! reproducible regardless of thread interleaving, and retries (which
//! carry a fresh attempt-tagged request id, hence different bytes) roll
//! independently instead of deterministically dying the same death.
//!
//! Fault classes (`ISSUE` matrix): **drop** (frame vanishes → receiver
//! times out), **duplicate** (delivered twice → client discards by
//! request id), **delay** (held briefly → reordering/timeout pressure),
//! **torn frame** (prefix delivered, then the connection dies → typed
//! `Corrupt`/`Io`), **bit flip** (checksum mismatch → typed `Corrupt`),
//! and **disconnect** (connection killed — applied on the response
//! direction this models a server killed mid-request: work executed, ack
//! lost, retry must be safe).

use saga_core::error::Result;
use saga_core::fault::unit_hash;
use saga_core::text::fnv1a;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use super::transport::{FrameConn, MemConn, MemListener, Transport};

/// Per-class fault rates in `[0, 1]`; they partition the unit interval, so
/// their sum must stay ≤ 1 (the remainder is clean delivery). The default
/// turns every class off.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChaosConfig {
    /// Seed for every delivery decision.
    pub seed: u64,
    /// Frame silently vanishes.
    pub drop: f64,
    /// Frame delivered twice.
    pub duplicate: f64,
    /// Frame delivered after a short deterministic delay.
    pub delay: f64,
    /// A prefix of the frame is delivered, then the connection dies.
    pub torn: f64,
    /// One deterministic bit of the frame is flipped.
    pub bit_flip: f64,
    /// The connection is killed instead of delivering.
    pub disconnect: f64,
}

impl ChaosConfig {
    fn total(&self) -> f64 {
        self.drop + self.duplicate + self.delay + self.torn + self.bit_flip + self.disconnect
    }
}

/// Counters of injected faults, shared across every connection of one
/// [`ChaosTransport`] — the matrix asserts faults actually fired.
#[derive(Debug, Default)]
pub struct ChaosStats {
    /// Frames dropped.
    pub dropped: AtomicU64,
    /// Frames duplicated.
    pub duplicated: AtomicU64,
    /// Frames delayed.
    pub delayed: AtomicU64,
    /// Frames torn.
    pub torn: AtomicU64,
    /// Frames bit-flipped.
    pub bit_flipped: AtomicU64,
    /// Connections killed.
    pub disconnected: AtomicU64,
}

impl ChaosStats {
    /// Total faults injected.
    pub fn total(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
            + self.duplicated.load(Ordering::Relaxed)
            + self.delayed.load(Ordering::Relaxed)
            + self.torn.load(Ordering::Relaxed)
            + self.bit_flipped.load(Ordering::Relaxed)
            + self.disconnected.load(Ordering::Relaxed)
    }
}

enum Verdict {
    Deliver,
    Drop,
    Duplicate,
    Delay,
    Torn,
    BitFlip,
    Disconnect,
}

const DIR_SEND: u64 = 0;
const DIR_RECV: u64 = 1;

fn verdict(cfg: &ChaosConfig, dir: u64, frame: &[u8]) -> Verdict {
    debug_assert!(cfg.total() <= 1.0 + 1e-9, "fault rates exceed 1.0");
    let roll = unit_hash(cfg.seed, &[dir, fnv1a(frame)]);
    let mut edge = cfg.drop;
    if roll < edge {
        return Verdict::Drop;
    }
    edge += cfg.duplicate;
    if roll < edge {
        return Verdict::Duplicate;
    }
    edge += cfg.delay;
    if roll < edge {
        return Verdict::Delay;
    }
    edge += cfg.torn;
    if roll < edge {
        return Verdict::Torn;
    }
    edge += cfg.bit_flip;
    if roll < edge {
        return Verdict::BitFlip;
    }
    edge += cfg.disconnect;
    if roll < edge {
        return Verdict::Disconnect;
    }
    Verdict::Deliver
}

/// Deterministic per-frame delay: 1–8 ms derived from the frame hash.
fn delay_for(cfg: &ChaosConfig, frame: &[u8]) -> Duration {
    let h = (unit_hash(cfg.seed ^ 0xD31A, &[fnv1a(frame)]) * 7.0) as u64;
    Duration::from_millis(1 + h)
}

/// Deterministic bit position to flip.
fn flip_bit(cfg: &ChaosConfig, frame: &mut [u8]) {
    let bits = frame.len() * 8;
    let pick = (unit_hash(cfg.seed ^ 0xB17F, &[fnv1a(frame)]) * bits as f64) as usize;
    let pick = pick.min(bits - 1);
    frame[pick / 8] ^= 1 << (pick % 8);
}

/// A [`MemConn`] whose deliveries pass through the fault roller. Faults
/// are applied on the client side of the link in both directions: outbound
/// frames on `send_frame`, inbound frames as they are dequeued.
pub struct ChaosConn {
    inner: MemConn,
    cfg: ChaosConfig,
    stats: Arc<ChaosStats>,
    /// A recv-side duplicate held for the next `recv_frame` call. Kept out
    /// of the queue so the copy does not re-roll its own verdict (which
    /// would duplicate forever — identical bytes, identical roll).
    pending_dup: Option<Vec<u8>>,
    /// Once a torn/disconnect verdict fires the link is dead; subsequent
    /// calls fail fast like a closed socket.
    broken: bool,
}

impl ChaosConn {
    fn kill(&mut self) {
        self.broken = true;
        self.inner.close_both();
    }
}

impl FrameConn for ChaosConn {
    fn send_frame(&mut self, frame: &[u8]) -> Result<()> {
        if self.broken {
            return Err(saga_core::SagaError::Io(std::io::Error::other("chaos link dead")));
        }
        match verdict(&self.cfg, DIR_SEND, frame) {
            Verdict::Deliver => self.inner.send_frame(frame),
            Verdict::Drop => {
                self.stats.dropped.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Verdict::Duplicate => {
                self.stats.duplicated.fetch_add(1, Ordering::Relaxed);
                self.inner.send_frame(frame)?;
                self.inner.send_frame(frame)
            }
            Verdict::Delay => {
                self.stats.delayed.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(delay_for(&self.cfg, frame));
                self.inner.send_frame(frame)
            }
            Verdict::Torn => {
                self.stats.torn.fetch_add(1, Ordering::Relaxed);
                let cut = (frame.len() / 2).max(1);
                let _ = self.inner.send_frame(&frame[..cut]);
                self.kill();
                // The sender sees success — like a kernel buffer accepting
                // bytes the wire then mangles.
                Ok(())
            }
            Verdict::BitFlip => {
                self.stats.bit_flipped.fetch_add(1, Ordering::Relaxed);
                let mut m = frame.to_vec();
                flip_bit(&self.cfg, &mut m);
                self.inner.send_frame(&m)
            }
            Verdict::Disconnect => {
                self.stats.disconnected.fetch_add(1, Ordering::Relaxed);
                self.kill();
                Err(saga_core::SagaError::Io(std::io::Error::other(
                    "chaos: connection killed on send",
                )))
            }
        }
    }

    fn recv_frame(&mut self, timeout: Duration) -> Result<Option<Vec<u8>>> {
        if self.broken {
            return Err(saga_core::SagaError::Io(std::io::Error::other("chaos link dead")));
        }
        if let Some(dup) = self.pending_dup.take() {
            return Ok(Some(dup));
        }
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let now = std::time::Instant::now();
            let left = deadline.saturating_duration_since(now);
            let Some(frame) = self.inner.recv_frame(left)? else {
                return Ok(None);
            };
            match verdict(&self.cfg, DIR_RECV, &frame) {
                Verdict::Deliver => return Ok(Some(frame)),
                Verdict::Drop => {
                    // The response evaporated in flight; keep waiting for
                    // whatever (if anything) comes next.
                    self.stats.dropped.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                Verdict::Duplicate => {
                    self.stats.duplicated.fetch_add(1, Ordering::Relaxed);
                    self.pending_dup = Some(frame.clone());
                    return Ok(Some(frame));
                }
                Verdict::Delay => {
                    self.stats.delayed.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(delay_for(&self.cfg, &frame));
                    return Ok(Some(frame));
                }
                Verdict::Torn => {
                    self.stats.torn.fetch_add(1, Ordering::Relaxed);
                    let cut = (frame.len() / 2).max(1);
                    let torn = frame[..cut].to_vec();
                    self.kill();
                    return Ok(Some(torn));
                }
                Verdict::BitFlip => {
                    self.stats.bit_flipped.fetch_add(1, Ordering::Relaxed);
                    let mut m = frame;
                    flip_bit(&self.cfg, &mut m);
                    return Ok(Some(m));
                }
                Verdict::Disconnect => {
                    // Server killed after executing the request: the work
                    // happened, the ack is gone, the link is dead.
                    self.stats.disconnected.fetch_add(1, Ordering::Relaxed);
                    self.kill();
                    return Err(saga_core::SagaError::Io(std::io::Error::other(
                        "chaos: connection killed before response",
                    )));
                }
            }
        }
    }

    fn peer(&self) -> &str {
        "mem:chaos"
    }
}

/// Client transport whose connections run through the fault roller. The
/// server side accepts plain [`MemConn`]s from the shared listener and
/// never sees the chaos layer — exactly like a real lossy network.
pub struct ChaosTransport {
    listener: MemListener,
    cfg: ChaosConfig,
    stats: Arc<ChaosStats>,
    endpoint: String,
}

impl ChaosTransport {
    /// Chaos transport dialing `listener` under `cfg`.
    pub fn new(listener: MemListener, cfg: ChaosConfig) -> Self {
        ChaosTransport {
            listener,
            cfg,
            stats: Arc::new(ChaosStats::default()),
            endpoint: format!("mem:chaos:{}", cfg.seed),
        }
    }

    /// Shared injection counters.
    pub fn stats(&self) -> Arc<ChaosStats> {
        Arc::clone(&self.stats)
    }
}

impl Transport for ChaosTransport {
    fn connect(&self) -> Result<Box<dyn FrameConn>> {
        Ok(Box::new(ChaosConn {
            inner: self.listener.dial(),
            cfg: self.cfg,
            stats: Arc::clone(&self.stats),
            pending_dup: None,
            broken: false,
        }))
    }

    fn endpoint(&self) -> &str {
        &self.endpoint
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::net::transport::Acceptor;
    use crate::net::wire::{Request, RequestBody};

    fn frame(id: u64) -> Vec<u8> {
        Request { request_id: id, timeout_micros: 0, body: RequestBody::Ping }.to_frame().unwrap()
    }

    #[test]
    fn verdicts_are_deterministic_in_frame_bytes() {
        let cfg = ChaosConfig {
            seed: 42,
            drop: 0.06,
            duplicate: 0.06,
            delay: 0.06,
            torn: 0.04,
            bit_flip: 0.06,
            disconnect: 0.04,
        };
        for id in 0..200u64 {
            let f = frame(id);
            let a = matches!(verdict(&cfg, DIR_SEND, &f), Verdict::Deliver);
            let b = matches!(verdict(&cfg, DIR_SEND, &f), Verdict::Deliver);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn clean_config_never_mutates() {
        let listener = MemListener::new();
        let t = ChaosTransport::new(
            listener.clone(),
            ChaosConfig { seed: 7, ..ChaosConfig::default() },
        );
        let mut client = t.connect().unwrap();
        let mut server = listener.accept(Duration::from_millis(100)).unwrap().unwrap();
        for id in 0..50u64 {
            let f = frame(id);
            client.send_frame(&f).unwrap();
            let got = server.recv_frame(Duration::from_millis(100)).unwrap().unwrap();
            assert_eq!(got, f);
        }
        assert_eq!(t.stats().total(), 0);
    }

    #[test]
    fn heavy_drop_rate_actually_drops() {
        let listener = MemListener::new();
        let t = ChaosTransport::new(
            listener.clone(),
            ChaosConfig { seed: 3, drop: 0.9, ..ChaosConfig::default() },
        );
        let mut client = t.connect().unwrap();
        let _server = listener.accept(Duration::from_millis(100)).unwrap().unwrap();
        for id in 0..100u64 {
            client.send_frame(&frame(id)).unwrap();
        }
        let dropped = t.stats().dropped.load(Ordering::Relaxed);
        assert!(dropped > 50, "expected most frames dropped, got {dropped}");
    }
}
