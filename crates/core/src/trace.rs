//! Deterministic Zipfian request traces for the serving load harness.
//!
//! The serving load generators (`saga-serve`'s tests and `perf-ledger`)
//! replay the same synthetic open-domain workload: a skewed mix of point
//! lookups and ANN searches whose popularity follows the
//! [`zipf_popularity`] curve the synthetic KG uses for entity popularity.
//! Generating the trace up front — instead of sampling inside the load
//! generator — is what makes the harness reproducible: a fixed seed yields a
//! bit-identical request sequence regardless of how many worker threads later
//! replay it, so shed/served counts can be asserted exactly across
//! configurations. The hand-rolled SplitMix64 (not the `rand` crate) is part
//! of that contract: the bit stream is this file's.

/// One step of the SplitMix64 mixer: a high-quality 64→64 bit finalizer.
///
/// Used both as the PRNG state update and as a standalone hash (entity →
/// shard routing uses it so that sequential entity ids spread uniformly).
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Minimal deterministic PRNG (SplitMix64 sequence). Not cryptographic;
/// statistically solid for workload synthesis and cheap enough to sit in a
/// generation loop.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// PRNG seeded so that nearby seeds produce uncorrelated streams.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: splitmix64(seed ^ 0x5851_f42d_4c95_7f2d) }
    }

    /// Next 64 uniform bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform f64 in `[0, 1)` (53 mantissa bits).
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`; `n` must be non-zero.
    #[inline]
    pub fn next_below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        // Multiply-shift rejection-free mapping; bias is < 2^-64 * n,
        // irrelevant at workload scale.
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// Popularity of the entity at `rank` (0 = most popular) among `n`: the
/// canonical skew curve shared by the synthetic KG generator
/// (`synth::generate` sets entity popularity from it) and the serving
/// workload sampler, so load tests hit the store with the same skew the data
/// was built with. Roughly Zipf with exponent 0.7 plus a linear tail fade.
pub fn zipf_popularity(rank: usize, n: usize) -> f32 {
    // popularity ∝ 1/rank, normalized so rank 0 ≈ 1.0.
    let r = rank as f32 + 1.0;
    (1.0 / r).powf(0.7).min(1.0) * (1.0 - (rank as f32 / (n as f32 * 4.0))).max(0.1)
}

/// Samples ranks `0..n` with probability proportional to
/// [`zipf_popularity`]. Builds the CDF once (one allocation); each sample is
/// then a binary search — allocation-free and O(log n).
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Sampler over `n` ranks; `n` must be non-zero.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "ZipfSampler needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for rank in 0..n {
            acc += zipf_popularity(rank, n) as f64;
            cdf.push(acc);
        }
        ZipfSampler { cdf }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True when the sampler has exactly one rank.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Draw one rank. Allocation-free.
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let total = *self.cdf.last().expect("non-empty cdf");
        let u = rng.next_f64() * total;
        // partition_point: first index whose cumulative mass exceeds u.
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

/// What a request asks the serving layer to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// Point lookup of one entity's facts; routed to the owning shard.
    Lookup {
        /// Entity key (dense rank hashed through [`splitmix64`] so routing
        /// sees uniformly spread keys with Zipf-skewed frequencies).
        entity: u64,
    },
    /// ANN search; fans out to every shard and merges top-k.
    Search {
        /// Seed for the deterministic query vector. Drawn from a small
        /// Zipf-skewed pool so hot queries repeat — the coalescing-friendly
        /// shape real serving traffic has.
        query_seed: u64,
    },
}

/// One request in a synthetic trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Position in the trace (stable across replays; used as the fault-plan
    /// key in brownout scenarios).
    pub id: u32,
    /// Lookup or search.
    pub kind: RequestKind,
    /// Open-loop arrival offset from trace start, in abstract ticks at the
    /// trace's native rate (exponential inter-arrivals, mean
    /// [`TraceConfig::mean_interarrival_ticks`]). Closed-loop replay ignores
    /// it; open-loop replay rescales it to the target rate with integer
    /// arithmetic so the schedule stays deterministic.
    pub arrival_ticks: u64,
}

/// Parameters for [`generate_trace`]. Everything is data — two equal configs
/// produce bit-identical traces.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceConfig {
    /// PRNG seed; the only source of randomness.
    pub seed: u64,
    /// Number of requests to generate.
    pub requests: usize,
    /// Entity universe size for lookups (ranks `0..entities`).
    pub entities: usize,
    /// Distinct query identities for searches (hot queries repeat).
    pub query_pool: usize,
    /// Fraction of requests that are point lookups (rest are searches).
    pub lookup_fraction: f64,
    /// Mean exponential inter-arrival gap, in ticks.
    pub mean_interarrival_ticks: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            seed: 0xC0FFEE,
            requests: 10_000,
            entities: 100_000,
            query_pool: 1_000,
            lookup_fraction: 0.7,
            mean_interarrival_ticks: 1_000,
        }
    }
}

/// Generate a request trace. Deterministic in the config: same config ⇒
/// bit-identical `Vec<Request>` (see [`trace_fingerprint`]).
pub fn generate_trace(cfg: &TraceConfig) -> Vec<Request> {
    assert!(cfg.entities > 0 && cfg.query_pool > 0, "empty universes");
    let mut rng = SplitMix64::new(cfg.seed);
    let entity_zipf = ZipfSampler::new(cfg.entities);
    let query_zipf = ZipfSampler::new(cfg.query_pool);
    let mut out = Vec::with_capacity(cfg.requests);
    let mut clock = 0u64;
    for id in 0..cfg.requests {
        // Exponential inter-arrival; ceil keeps gaps >= 1 tick so arrival
        // order is strictly increasing and replay never divides by zero.
        let u = rng.next_f64();
        let gap = (-(1.0 - u).ln() * cfg.mean_interarrival_ticks as f64).ceil();
        clock += (gap as u64).max(1);
        let kind = if rng.next_f64() < cfg.lookup_fraction {
            let rank = entity_zipf.sample(&mut rng);
            RequestKind::Lookup { entity: splitmix64(rank as u64) }
        } else {
            let rank = query_zipf.sample(&mut rng);
            RequestKind::Search { query_seed: splitmix64(0x5EA2C4 ^ rank as u64) }
        };
        out.push(Request { id: id as u32, kind, arrival_ticks: clock });
    }
    out
}

/// Order-sensitive 64-bit fingerprint of a trace. Two traces fingerprint
/// equal iff every field of every request matches — the determinism tests
/// compare this instead of materializing both traces.
pub fn trace_fingerprint(trace: &[Request]) -> u64 {
    let mut acc = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |v: u64| {
        acc = splitmix64(acc ^ v);
    };
    for r in trace {
        fold(r.id as u64);
        match r.kind {
            RequestKind::Lookup { entity } => {
                fold(1);
                fold(entity);
            }
            RequestKind::Search { query_seed } => {
                fold(2);
                fold(query_seed);
            }
        }
        fold(r.arrival_ticks);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_deterministic_and_seed_sensitive() {
        let cfg = TraceConfig { requests: 2_000, ..TraceConfig::default() };
        let a = generate_trace(&cfg);
        let b = generate_trace(&cfg);
        assert_eq!(a, b);
        assert_eq!(trace_fingerprint(&a), trace_fingerprint(&b));
        let c = generate_trace(&TraceConfig { seed: cfg.seed + 1, ..cfg });
        assert_ne!(trace_fingerprint(&a), trace_fingerprint(&c));
    }

    #[test]
    fn fingerprint_is_order_and_field_sensitive() {
        let cfg = TraceConfig { requests: 64, ..TraceConfig::default() };
        let a = generate_trace(&cfg);
        let mut swapped = a.clone();
        swapped.swap(0, 1);
        assert_ne!(trace_fingerprint(&a), trace_fingerprint(&swapped));
        let mut bumped = a.clone();
        bumped[10].arrival_ticks += 1;
        assert_ne!(trace_fingerprint(&a), trace_fingerprint(&bumped));
    }

    #[test]
    fn mix_and_skew_are_roughly_respected() {
        let cfg = TraceConfig { requests: 20_000, lookup_fraction: 0.7, ..TraceConfig::default() };
        let trace = generate_trace(&cfg);
        let lookups = trace.iter().filter(|r| matches!(r.kind, RequestKind::Lookup { .. })).count();
        let frac = lookups as f64 / trace.len() as f64;
        assert!((frac - 0.7).abs() < 0.02, "lookup fraction {frac}");
        // Zipf skew: the single hottest entity should absorb far more than a
        // uniform share of lookups.
        let hot = splitmix64(0);
        let hot_hits = trace
            .iter()
            .filter(|r| matches!(r.kind, RequestKind::Lookup { entity } if entity == hot))
            .count();
        assert!(
            hot_hits as f64 > 20.0 * lookups as f64 / cfg.entities as f64,
            "hot entity hits {hot_hits} of {lookups}"
        );
    }

    #[test]
    fn arrivals_strictly_increase_with_sane_mean() {
        let cfg = TraceConfig { requests: 5_000, ..TraceConfig::default() };
        let trace = generate_trace(&cfg);
        for w in trace.windows(2) {
            assert!(w[1].arrival_ticks > w[0].arrival_ticks);
        }
        let span = trace.last().unwrap().arrival_ticks as f64;
        let mean = span / trace.len() as f64;
        let target = cfg.mean_interarrival_ticks as f64;
        assert!(mean > 0.8 * target && mean < 1.2 * target, "mean gap {mean}");
    }

    #[test]
    fn zipf_sampler_orders_mass_by_rank() {
        let z = ZipfSampler::new(100);
        let mut rng = SplitMix64::new(7);
        let mut counts = [0u32; 100];
        for _ in 0..50_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10] && counts[10] > counts[60]);
        assert!(counts[0] > 1_500, "rank 0 drew {}", counts[0]);
    }
}
