//! Deterministic fault injection and resilience primitives.
//!
//! The production systems this repo reproduces run over unreliable
//! substrates: web search times out, document fetches 404, embedding
//! caches shed load, device links drop packets. This module provides the
//! shared vocabulary every pipeline uses to *test* and *survive* those
//! failures:
//!
//! - a **fault taxonomy** ([`FaultKind`]): `Transient` failures may clear
//!   on retry (timeouts, overload); `Permanent` failures never will (the
//!   resource is gone) and callers must quarantine or degrade;
//! - a seeded, purely-functional [`FaultPlan`] mapping *sites* (named
//!   operations such as `"search"` or `"fetch"`) to failure rates and
//!   latency classes. Decisions are a hash of `(seed, site, key, attempt)`
//!   — no hidden state — so runs are bit-reproducible regardless of thread
//!   interleaving;
//! - a [`FaultInjector`] wrapping a plan with per-site statistics and a
//!   [`VirtualClock`] that is charged simulated latency, so tests covering
//!   hours of backoff run in microseconds;
//! - a [`RetryPolicy`] with exponential backoff and deterministic jitter,
//!   bounded per operation by its attempt count, and a [`RetryBudget`] that
//!   caps a network client's retries across all of its calls;
//! - a per-site [`CircuitBreaker`] that stops hammering a failing
//!   dependency and half-opens after a cooldown.
//!
//! Errors surface as [`SagaError::Unavailable`]; `is_transient()` is the
//! single retry-eligibility predicate used across the workspace.

#![deny(clippy::unwrap_used)]

use crate::error::{Result, SagaError};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

// ---------------------------------------------------------------- clock

/// A shared virtual clock in milliseconds. All resilience primitives read
/// and advance this instead of the wall clock, making backoff and breaker
/// cooldowns deterministic and instantaneous under test.
#[derive(Debug, Clone, Default)]
pub struct VirtualClock(Arc<AtomicU64>);

impl VirtualClock {
    /// A clock starting at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current virtual time in milliseconds.
    pub fn now_ms(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Advances the clock by `ms` (e.g. simulated latency or a backoff
    /// sleep) and returns the new time.
    pub fn advance_ms(&self, ms: u64) -> u64 {
        self.0.fetch_add(ms, Ordering::Relaxed) + ms
    }
}

// ------------------------------------------------------------- taxonomy

/// The two failure classes of the fault model (DESIGN.md §7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// May succeed if retried: timeouts, overload, flaky transport.
    Transient,
    /// Will never succeed: the resource is gone. Retrying is wasted work;
    /// quarantine the target or degrade the tier instead.
    Permanent,
}

/// Failure rates and latency class of one site.
#[derive(Debug, Clone, Copy)]
pub struct SiteFaults {
    /// Probability in `[0, 1]` that any single attempt fails transiently.
    /// Independent per attempt, so retries eventually clear it.
    pub transient_rate: f64,
    /// Probability in `[0, 1]` that a given key fails *permanently* at
    /// this site. Drawn once per `(site, key)` — every attempt fails.
    pub permanent_rate: f64,
    /// Simulated latency charged to the virtual clock per successful call.
    pub latency_ms: u64,
    /// Extra latency charged when a call faults (a timeout costs more than
    /// a fast answer).
    pub fault_latency_ms: u64,
}

impl SiteFaults {
    /// A purely-transient failure profile with default latencies.
    pub fn transient(rate: f64) -> Self {
        Self { transient_rate: rate, permanent_rate: 0.0, latency_ms: 1, fault_latency_ms: 10 }
    }
}

/// A seeded, declarative description of where and how often faults occur.
/// Decisions are pure functions of `(seed, site, key, attempt)`: two plans
/// with the same seed and rates produce identical fault sequences, and a
/// plan consulted from eight worker threads behaves exactly like one
/// consulted sequentially.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    sites: BTreeMap<String, SiteFaults>,
}

/// SplitMix64 finalizer — decorrelates the combined decision hash.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Maps a hash to a unit float in `[0, 1)` using the top 53 bits.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Deterministic `[0, 1)` draw for `(seed, parts…)` — the same SplitMix64
/// mixing the fault plan uses, exposed for other deterministic failure
/// models (e.g. the on-device lossy sync link).
pub fn unit_hash(seed: u64, parts: &[u64]) -> f64 {
    let mut h = mix(seed);
    for &p in parts {
        h = mix(h ^ p);
    }
    unit(h)
}

impl FaultPlan {
    /// A plan with no faulty sites — every call succeeds.
    pub fn reliable(seed: u64) -> Self {
        Self { seed, sites: BTreeMap::new() }
    }

    /// Adds (or replaces) a site's failure profile.
    pub fn with_site(mut self, site: &str, faults: SiteFaults) -> Self {
        self.sites.insert(site.to_owned(), faults);
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Decides the outcome of attempt `attempt` of the operation identified
    /// by `key` at `site`. `None` means success. Deterministic: no state.
    pub fn decide(&self, site: &str, key: u64, attempt: u32) -> Option<FaultKind> {
        let faults = self.sites.get(site)?;
        let site_h = crate::text::fnv1a(site.as_bytes());
        if faults.permanent_rate > 0.0 {
            let h = mix(self.seed ^ site_h.rotate_left(17) ^ key.wrapping_mul(0x9e37));
            if unit(h) < faults.permanent_rate {
                return Some(FaultKind::Permanent);
            }
        }
        if faults.transient_rate > 0.0 {
            let h = mix(self.seed
                ^ site_h
                ^ key.wrapping_mul(0xff51_afd7_ed55_8ccd)
                ^ u64::from(attempt).rotate_left(43));
            if unit(h) < faults.transient_rate {
                return Some(FaultKind::Transient);
            }
        }
        None
    }

    /// Latency profile of a site (zeros for unlisted sites).
    pub fn latency(&self, site: &str) -> (u64, u64) {
        self.sites.get(site).map_or((0, 0), |f| (f.latency_ms, f.fault_latency_ms))
    }
}

// ------------------------------------------------------------- injector

/// Per-site observed fault counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct SiteStats {
    /// Total calls checked.
    pub calls: u64,
    /// Calls that failed transiently.
    pub transient_faults: u64,
    /// Calls that failed permanently.
    pub permanent_faults: u64,
}

/// Applies a [`FaultPlan`] at runtime: charges latency to a shared
/// [`VirtualClock`], records per-site statistics, and reports faults as
/// [`SagaError::Unavailable`]. Thread-safe; decisions stay deterministic
/// because they come from the stateless plan.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    clock: VirtualClock,
    stats: Mutex<BTreeMap<String, SiteStats>>,
}

impl FaultInjector {
    /// Wraps a plan with a fresh clock.
    pub fn new(plan: FaultPlan) -> Self {
        Self::with_clock(plan, VirtualClock::new())
    }

    /// Wraps a plan, sharing an existing clock.
    pub fn with_clock(plan: FaultPlan, clock: VirtualClock) -> Self {
        Self { plan, clock, stats: Mutex::new(BTreeMap::new()) }
    }

    /// The underlying plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// Checks whether attempt `attempt` of operation `key` at `site`
    /// succeeds. On success charges the site's base latency; on fault
    /// charges the fault latency and returns [`SagaError::Unavailable`].
    pub fn check(&self, site: &str, key: u64, attempt: u32) -> Result<()> {
        let (ok_ms, fault_ms) = self.plan.latency(site);
        let decision = self.plan.decide(site, key, attempt);
        let mut stats = self.stats.lock().expect("fault stats lock");
        let s = stats.entry(site.to_owned()).or_default();
        s.calls += 1;
        match decision {
            None => {
                drop(stats);
                self.clock.advance_ms(ok_ms);
                Ok(())
            }
            Some(kind) => {
                match kind {
                    FaultKind::Transient => s.transient_faults += 1,
                    FaultKind::Permanent => s.permanent_faults += 1,
                }
                drop(stats);
                self.clock.advance_ms(fault_ms);
                Err(SagaError::Unavailable {
                    site: site.to_owned(),
                    transient: kind == FaultKind::Transient,
                })
            }
        }
    }

    /// Observed statistics for one site.
    pub fn site_stats(&self, site: &str) -> SiteStats {
        self.stats.lock().expect("fault stats lock").get(site).copied().unwrap_or_default()
    }
}

// -------------------------------------------------------------- retries

/// A shared cap on the *total* number of retries a network client may
/// spend across every call it makes, so a flapping server cannot turn one
/// caller into a retry storm. The client spends it one retry at a time
/// through [`try_take`](Self::try_take). Batch runs have no budget: their
/// retries are bounded per operation by [`RetryPolicy::max_attempts`], which
/// keeps every retry decision a pure function of the operation and its
/// attempt, independent of the worker count.
#[derive(Debug)]
pub struct RetryBudget(AtomicI64);

impl RetryBudget {
    /// A budget of `n` retries shared by every call site that holds it.
    pub fn new(n: u32) -> Self {
        Self(AtomicI64::new(i64::from(n)))
    }

    /// Takes one retry from the budget; `false` when exhausted.
    pub fn try_take(&self) -> bool {
        self.0.fetch_sub(1, Ordering::Relaxed) > 0
    }

    /// Retries still available (0 when exhausted).
    pub fn remaining(&self) -> u64 {
        self.0.load(Ordering::Relaxed).max(0) as u64
    }
}

/// Exponential backoff with deterministic jitter, driven by the virtual
/// clock. Retries only [`SagaError::is_transient`] errors.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Maximum attempts per operation (1 = no retries).
    pub max_attempts: u32,
    /// Delay before the first retry.
    pub base_delay_ms: u64,
    /// Multiplier applied per subsequent retry.
    pub multiplier: f64,
    /// Ceiling on a single backoff delay.
    pub max_delay_ms: u64,
    /// Jitter fraction in `[0, 1]`: each delay is scaled by a deterministic
    /// factor in `[1 - jitter, 1 + jitter]` derived from the salt and
    /// attempt, decorrelating concurrent retriers.
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 6,
            base_delay_ms: 20,
            multiplier: 2.0,
            max_delay_ms: 2_000,
            jitter: 0.25,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries.
    pub fn no_retries() -> Self {
        Self { max_attempts: 1, ..Self::default() }
    }

    /// The backoff delay after failed attempt `attempt` (0-based), jittered
    /// deterministically by `salt`.
    pub fn delay_ms(&self, attempt: u32, salt: u64) -> u64 {
        let exp = self.base_delay_ms as f64 * self.multiplier.powi(attempt as i32);
        let capped = exp.min(self.max_delay_ms as f64);
        let h = mix(salt ^ u64::from(attempt).wrapping_mul(0xc2b2_ae3d_27d4_eb4f));
        let factor = 1.0 + self.jitter * (2.0 * unit(h) - 1.0);
        (capped * factor).round() as u64
    }

    /// Runs `op` with retries: transient errors are retried (charging the
    /// backoff to `clock`) until an attempt succeeds, a permanent error
    /// surfaces, or attempts run out. `op` receives the 0-based attempt
    /// number.
    pub fn run<T>(
        &self,
        clock: &VirtualClock,
        salt: u64,
        mut op: impl FnMut(u32) -> Result<T>,
    ) -> Result<T> {
        let attempts = self.max_attempts.max(1);
        let mut attempt = 0;
        loop {
            match op(attempt) {
                Ok(v) => return Ok(v),
                Err(e) if !e.is_transient() => return Err(e),
                Err(e) => {
                    if attempt + 1 >= attempts {
                        return Err(e);
                    }
                    clock.advance_ms(self.delay_ms(attempt, salt));
                    attempt += 1;
                }
            }
        }
    }
}

// ------------------------------------------------------------- breakers

/// Circuit-breaker configuration.
#[derive(Debug, Clone, Copy)]
pub struct BreakerConfig {
    /// Consecutive failures that trip the breaker open.
    pub failure_threshold: u32,
    /// Virtual-clock cooldown before the breaker half-opens.
    pub cooldown_ms: u64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        Self { failure_threshold: 5, cooldown_ms: 10_000 }
    }
}

#[derive(Debug, Default)]
struct BreakerState {
    consecutive_failures: u32,
    open_until_ms: Option<u64>,
}

/// A circuit breaker for one dependency site: after `failure_threshold`
/// consecutive failures it rejects calls outright (`allow` = false) until
/// the cooldown elapses on the virtual clock, then half-opens to probe.
#[derive(Debug)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    state: Mutex<BreakerState>,
}

impl CircuitBreaker {
    /// A closed breaker.
    pub fn new(cfg: BreakerConfig) -> Self {
        Self { cfg, state: Mutex::new(BreakerState::default()) }
    }

    /// Whether a call may proceed at virtual time `now_ms`. An open breaker
    /// whose cooldown has elapsed half-opens: the call proceeds as a probe.
    pub fn allow(&self, now_ms: u64) -> bool {
        let state = self.state.lock().expect("breaker lock");
        match state.open_until_ms {
            Some(until) => now_ms >= until,
            None => true,
        }
    }

    /// Records the outcome of a call. Success closes the breaker; failure
    /// counts toward the threshold and (re)opens it when reached.
    pub fn record(&self, now_ms: u64, ok: bool) {
        let mut state = self.state.lock().expect("breaker lock");
        if ok {
            state.consecutive_failures = 0;
            state.open_until_ms = None;
        } else {
            state.consecutive_failures += 1;
            if state.consecutive_failures >= self.cfg.failure_threshold {
                state.open_until_ms = Some(now_ms + self.cfg.cooldown_ms);
            }
        }
    }

    /// Whether the breaker is currently open (rejecting) at `now_ms`.
    pub fn is_open(&self, now_ms: u64) -> bool {
        !self.allow(now_ms)
    }
}

/// Lazily-created per-site circuit breakers sharing one configuration.
#[derive(Debug)]
pub struct BreakerSet {
    cfg: BreakerConfig,
    breakers: Mutex<BTreeMap<String, Arc<CircuitBreaker>>>,
}

impl BreakerSet {
    /// An empty set.
    pub fn new(cfg: BreakerConfig) -> Self {
        Self { cfg, breakers: Mutex::new(BTreeMap::new()) }
    }

    /// The breaker guarding `site`, created closed on first use.
    pub fn breaker(&self, site: &str) -> Arc<CircuitBreaker> {
        let mut map = self.breakers.lock().expect("breaker set lock");
        match map.get(site) {
            Some(b) => Arc::clone(b),
            None => {
                let b = Arc::new(CircuitBreaker::new(self.cfg));
                map.insert(site.to_owned(), Arc::clone(&b));
                b
            }
        }
    }
}

// -------------------------------------------------------- crash testing

/// How an armed [`KillSwitch`] dies at its target operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillMode {
    /// The process dies *before* the operation: nothing of it reaches disk.
    Before,
    /// The process dies *mid-write*: a prefix of the buffer reaches disk
    /// (a torn write), then everything stops.
    Torn,
}

/// What an instrumented write should do after consulting the switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteVerdict {
    /// Write the whole buffer.
    Full,
    /// Write only this many bytes, then fail with [`SagaError::Killed`] —
    /// the simulated crash tore the write.
    Partial(usize),
}

/// A deterministic sync-point kill switch for crash-matrix testing.
///
/// Crash-safe code threads every durability-relevant I/O operation (page
/// writes, log appends, superblock flips, fsyncs) through a switch. Each
/// operation increments a global counter; when the counter reaches the
/// armed target, the switch "kills the process": the current operation
/// fails with [`SagaError::Killed`] (optionally after a torn partial
/// write), and every subsequent operation fails too — the instrumented
/// component is dead until dropped and reopened, exactly like a `kill -9`
/// whose surviving bytes are what had already been handed to the kernel.
///
/// A switch [`armed`](Self::armed) at `u64::MAX` never fires and just counts, so
/// a harness can first discover how many kill points a workload has, then
/// enumerate them all — the kill-at-every-sync-point matrix.
#[derive(Debug)]
pub struct KillSwitch {
    /// Operation index to die at; `u64::MAX` observes without killing.
    target: u64,
    mode: KillMode,
    counter: AtomicU64,
    fired: std::sync::atomic::AtomicBool,
}

impl KillSwitch {
    /// A switch that kills at 0-based operation `target`.
    pub fn armed(target: u64, mode: KillMode) -> Arc<Self> {
        Arc::new(Self {
            target,
            mode,
            counter: AtomicU64::new(0),
            fired: std::sync::atomic::AtomicBool::new(false),
        })
    }

    /// Operations consulted so far.
    pub fn ops_seen(&self) -> u64 {
        self.counter.load(Ordering::SeqCst)
    }

    /// True once the simulated crash has happened.
    pub fn fired(&self) -> bool {
        self.fired.load(Ordering::SeqCst)
    }

    fn killed(&self, site: &str, op: u64) -> SagaError {
        self.fired.store(true, Ordering::SeqCst);
        SagaError::Killed { site: site.to_owned(), op }
    }

    /// Consults the switch for a write of `len` bytes at `site`.
    pub fn on_write(&self, site: &str, len: usize) -> Result<WriteVerdict> {
        if self.fired() {
            return Err(SagaError::Killed { site: site.to_owned(), op: self.target });
        }
        let op = self.counter.fetch_add(1, Ordering::SeqCst);
        if op != self.target {
            return Ok(WriteVerdict::Full);
        }
        match self.mode {
            KillMode::Before => Err(self.killed(site, op)),
            KillMode::Torn => {
                self.fired.store(true, Ordering::SeqCst);
                Ok(WriteVerdict::Partial(len / 2))
            }
        }
    }

    /// Consults the switch for an fsync (or any non-write sync point) at
    /// `site`. Dying here models a crash after the data was written but
    /// before it was made durable.
    pub fn on_sync(&self, site: &str) -> Result<()> {
        if self.fired() {
            return Err(SagaError::Killed { site: site.to_owned(), op: self.target });
        }
        let op = self.counter.fetch_add(1, Ordering::SeqCst);
        if op == self.target {
            return Err(self.killed(site, op));
        }
        Ok(())
    }
}

/// The outcome of a [`crash_matrix`] sweep.
#[derive(Debug, Clone, Default)]
pub struct CrashMatrixReport {
    /// Kill points exercised.
    pub points: usize,
    /// Human-readable descriptions of points whose check failed.
    pub failures: Vec<String>,
}

impl CrashMatrixReport {
    /// Panics (listing every failing point) unless the whole matrix passed.
    /// `what` names the matrix in the panic message.
    pub fn assert_clean(&self, what: &str) {
        assert!(self.points > 0, "{what}: crash matrix exercised no kill points");
        assert!(
            self.failures.is_empty(),
            "{what}: {}/{} kill points failed:\n  {}",
            self.failures.len(),
            self.points,
            self.failures.join("\n  ")
        );
    }
}

/// Runs `check` for every kill point in `points`, collecting failures
/// instead of stopping at the first — a failing crash matrix should report
/// *every* unsafe sync point, not just the earliest.
///
/// `check` receives one point (e.g. a `(seed, workers, kill_at)` tuple for
/// the trainer matrix, or an `(op, KillMode)` pair driving a [`KillSwitch`]
/// for the storage-engine matrix), performs the kill + recovery + verify
/// cycle, and returns `Err(description)` when the recovered state violates
/// the invariant under test.
pub fn crash_matrix<P: std::fmt::Debug>(
    points: impl IntoIterator<Item = P>,
    mut check: impl FnMut(&P) -> std::result::Result<(), String>,
) -> CrashMatrixReport {
    let mut report = CrashMatrixReport::default();
    for p in points {
        report.points += 1;
        if let Err(msg) = check(&p) {
            report.failures.push(format!("{p:?}: {msg}"));
        }
    }
    report
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_and_stateless() {
        let plan = FaultPlan::reliable(42)
            .with_site("search", SiteFaults { permanent_rate: 0.1, ..SiteFaults::transient(0.3) });
        let twin = FaultPlan::reliable(42)
            .with_site("search", SiteFaults { permanent_rate: 0.1, ..SiteFaults::transient(0.3) });
        for key in 0..200 {
            for attempt in 0..4 {
                assert_eq!(
                    plan.decide("search", key, attempt),
                    twin.decide("search", key, attempt),
                );
                // Consulting again does not change the answer.
                assert_eq!(
                    plan.decide("search", key, attempt),
                    plan.decide("search", key, attempt),
                );
            }
        }
        // Different seeds give different fault patterns.
        let other = FaultPlan::reliable(43)
            .with_site("search", SiteFaults { permanent_rate: 0.1, ..SiteFaults::transient(0.3) });
        let same: usize = (0..200)
            .filter(|&k| plan.decide("search", k, 0) == other.decide("search", k, 0))
            .count();
        assert!(same < 200, "seeds must matter");
    }

    #[test]
    fn rates_are_roughly_respected() {
        let plan = FaultPlan::reliable(7)
            .with_site("fetch", SiteFaults { permanent_rate: 0.1, ..SiteFaults::transient(0.3) });
        let n = 10_000u64;
        let mut transient = 0;
        let mut permanent = 0;
        for key in 0..n {
            match plan.decide("fetch", key, 0) {
                Some(FaultKind::Permanent) => permanent += 1,
                Some(FaultKind::Transient) => transient += 1,
                None => {}
            }
        }
        let pr = permanent as f64 / n as f64;
        // Transient draws only happen for keys that are not permanent.
        let tr = transient as f64 / (n - permanent) as f64;
        assert!((pr - 0.1).abs() < 0.02, "permanent rate {pr}");
        assert!((tr - 0.3).abs() < 0.02, "transient rate {tr}");
    }

    #[test]
    fn unlisted_sites_never_fault() {
        let plan = FaultPlan::reliable(1).with_site("search", SiteFaults::transient(1.0));
        assert_eq!(plan.decide("fetch", 0, 0), None);
        let injector = FaultInjector::new(plan);
        assert!(injector.check("fetch", 0, 0).is_ok());
    }

    #[test]
    fn permanent_faults_stick_across_attempts() {
        let plan = FaultPlan::reliable(3)
            .with_site("fetch", SiteFaults { permanent_rate: 0.5, ..SiteFaults::transient(0.0) });
        let perm_key =
            (0..1000).find(|&k| plan.decide("fetch", k, 0) == Some(FaultKind::Permanent)).unwrap();
        for attempt in 0..10 {
            assert_eq!(plan.decide("fetch", perm_key, attempt), Some(FaultKind::Permanent));
        }
    }

    #[test]
    fn injector_charges_latency_and_counts() {
        let plan = FaultPlan::reliable(5).with_site(
            "search",
            SiteFaults {
                transient_rate: 0.5,
                permanent_rate: 0.0,
                latency_ms: 2,
                fault_latency_ms: 30,
            },
        );
        let injector = FaultInjector::new(plan);
        let mut oks = 0u64;
        let mut faults = 0u64;
        for key in 0..100 {
            match injector.check("search", key, 0) {
                Ok(()) => oks += 1,
                Err(e) => {
                    assert!(e.is_transient());
                    faults += 1;
                }
            }
        }
        let stats = injector.site_stats("search");
        assert_eq!(stats.calls, 100);
        assert_eq!(stats.transient_faults, faults);
        assert_eq!(injector.clock().now_ms(), oks * 2 + faults * 30);
        assert!(oks > 0 && faults > 0);
    }

    #[test]
    fn backoff_grows_is_capped_and_jitter_is_deterministic() {
        let p = RetryPolicy {
            max_attempts: 10,
            base_delay_ms: 100,
            multiplier: 2.0,
            max_delay_ms: 1_000,
            jitter: 0.25,
        };
        let d: Vec<u64> = (0..8).map(|a| p.delay_ms(a, 99)).collect();
        // Deterministic.
        assert_eq!(d, (0..8).map(|a| p.delay_ms(a, 99)).collect::<Vec<_>>());
        // Within jitter bounds of the exponential curve, capped.
        for (a, &delay) in d.iter().enumerate() {
            let ideal = (100.0 * 2.0f64.powi(a as i32)).min(1_000.0);
            assert!(delay as f64 >= ideal * 0.75 - 1.0, "attempt {a}: {delay} vs {ideal}");
            assert!(delay as f64 <= ideal * 1.25 + 1.0, "attempt {a}: {delay} vs {ideal}");
        }
        // Different salts decorrelate.
        assert_ne!(
            (0..8).map(|a| p.delay_ms(a, 1)).collect::<Vec<_>>(),
            (0..8).map(|a| p.delay_ms(a, 2)).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn retry_clears_transients_and_respects_permanents() {
        let clock = VirtualClock::new();
        let policy = RetryPolicy::default();
        // Fails twice transiently, then succeeds.
        let mut calls = 0;
        let out = policy.run(&clock, 0, |attempt| {
            calls += 1;
            if attempt < 2 {
                Err(SagaError::Unavailable { site: "s".into(), transient: true })
            } else {
                Ok(attempt)
            }
        });
        assert_eq!(out.unwrap(), 2);
        assert_eq!(calls, 3);
        assert!(clock.now_ms() > 0, "backoff was charged to the clock");

        // Permanent errors are not retried.
        let mut calls = 0;
        let out: Result<()> = policy.run(&clock, 0, |_| {
            calls += 1;
            Err(SagaError::Unavailable { site: "s".into(), transient: false })
        });
        assert!(out.is_err());
        assert_eq!(calls, 1);
    }

    #[test]
    fn retry_budget_limits_total_retries() {
        let budget = RetryBudget::new(3);
        assert_eq!(budget.remaining(), 3);
        for _ in 0..3 {
            assert!(budget.try_take());
        }
        assert!(!budget.try_take(), "the fourth retry is refused");
        assert_eq!(budget.remaining(), 0);
    }

    #[test]
    fn breaker_opens_after_threshold_and_half_opens_after_cooldown() {
        let clock = VirtualClock::new();
        let b = CircuitBreaker::new(BreakerConfig { failure_threshold: 3, cooldown_ms: 500 });
        for _ in 0..2 {
            assert!(b.allow(clock.now_ms()));
            b.record(clock.now_ms(), false);
        }
        assert!(b.allow(clock.now_ms()), "below threshold stays closed");
        b.record(clock.now_ms(), false);
        assert!(b.is_open(clock.now_ms()), "third consecutive failure trips it");
        clock.advance_ms(499);
        assert!(b.is_open(clock.now_ms()));
        clock.advance_ms(1);
        assert!(b.allow(clock.now_ms()), "cooldown elapsed: half-open probe allowed");
        // A failed probe re-opens for a fresh cooldown.
        b.record(clock.now_ms(), false);
        assert!(b.is_open(clock.now_ms()));
        // A successful probe closes it fully.
        clock.advance_ms(500);
        b.record(clock.now_ms(), true);
        assert!(b.allow(clock.now_ms()));
        let set = BreakerSet::new(BreakerConfig::default());
        assert!(Arc::ptr_eq(&set.breaker("x"), &set.breaker("x")));
    }
}
