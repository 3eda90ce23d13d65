//! The ledger's arithmetic: percentiles, the quiet-window statistic, and the
//! metric list a run prints.

/// Percentile `q` in `[0, 1]` of `values` by linear interpolation between
/// order statistics (position `q * (n - 1)`). 0.0 for an empty sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let Some(last) = sorted.len().checked_sub(1) else { return 0.0 };
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The quiet-window statistic: the 25th percentile over per-window values.
///
/// Disturbances on a shared host only ever add time, so the lower quartile
/// over windows estimates the cost on an undisturbed machine. It is blind
/// to anything that touches fewer than three quarters of the windows — that
/// is a tail effect and shows in the all-window median and p99.
pub fn quiet(window_values: &[f64]) -> f64 {
    percentile(window_values, 0.25)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// What one window of ops measured.
#[derive(Debug, Clone)]
pub struct Window {
    /// Median op latency, µs.
    pub p50_us: f64,
    /// Process CPU time over the timed ops ÷ ops, µs.
    pub cpu_us_per_op: f64,
    /// Allocation requests ÷ ops.
    pub allocs_per_op: f64,
    /// KiB requested from the allocator ÷ ops.
    pub alloc_kb_per_op: f64,
    /// Modelled flushes ÷ ops.
    pub flushes_per_op: f64,
}

impl Window {
    /// Folds one window's op latencies (ns) and resource use.
    pub fn from_ops(latencies_ns: &[u64], used: crate::sys::Usage) -> Self {
        let ops = latencies_ns.len().max(1);
        let lat: Vec<f64> = latencies_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
        Window {
            p50_us: median(&lat),
            cpu_us_per_op: used.cpu_ns as f64 / 1e3 / ops as f64,
            allocs_per_op: used.alloc_calls as f64 / ops as f64,
            alloc_kb_per_op: used.alloc_bytes as f64 / 1024.0 / ops as f64,
            flushes_per_op: used.flushes as f64 / ops as f64,
        }
    }
}

/// Op latencies as a fixed-size log-linear histogram: 64 sub-buckets per
/// power of two, so a reported percentile is within 1.6 % of the sample's.
/// A log of every latency would make the run's memory follow its op count.
#[derive(Debug, Clone)]
pub struct LatencyHist {
    buckets: Vec<u64>,
    count: u64,
}

const SUB_BITS: u32 = 6;

impl Default for LatencyHist {
    fn default() -> Self {
        LatencyHist { buckets: vec![0; (64 - SUB_BITS as usize + 1) << SUB_BITS], count: 0 }
    }
}

impl LatencyHist {
    fn bucket(ns: u64) -> usize {
        let octave = (63 - (ns | 1).leading_zeros()).saturating_sub(SUB_BITS);
        let base = if ns >> SUB_BITS == 0 { 0 } else { (octave as usize + 1) << SUB_BITS };
        base + ((ns >> octave) as usize & ((1 << SUB_BITS) - 1))
    }

    /// The smallest value that lands in bucket `i`.
    fn floor_ns(i: usize) -> u64 {
        let (row, sub) = (i >> SUB_BITS, (i & ((1 << SUB_BITS) - 1)) as u64);
        match row {
            0 => sub,
            _ => ((1 << SUB_BITS) + sub) << (row - 1),
        }
    }

    pub fn record_ns(&mut self, ns: u64) {
        self.buckets[Self::bucket(ns)] += 1;
        self.count += 1;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Percentile `q` in µs (lower edge of the bucket holding that rank).
    pub fn percentile_us(&self, q: f64) -> f64 {
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::floor_ns(i) as f64 / 1e3;
            }
        }
        0.0
    }
}

/// Everything a measured phase yields: its windows, its op latencies, the
/// set-up samples, and the wall time the ops themselves took.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    pub windows: Vec<Window>,
    pub latencies: LatencyHist,
    pub setup_s: Vec<f64>,
    pub op_wall_s: f64,
    pub attempted: u64,
    pub failed: u64,
}

impl Phase {
    fn over_windows(&self, f: impl Fn(&Window) -> f64) -> Vec<f64> {
        self.windows.iter().map(f).collect()
    }

    pub fn op_p50_us(&self) -> f64 {
        quiet(&self.over_windows(|w| w.p50_us))
    }

    pub fn cpu_us_per_op(&self) -> f64 {
        quiet(&self.over_windows(|w| w.cpu_us_per_op))
    }

    pub fn allocs_per_op(&self) -> f64 {
        median(&self.over_windows(|w| w.allocs_per_op))
    }

    pub fn alloc_kb_per_op(&self) -> f64 {
        median(&self.over_windows(|w| w.alloc_kb_per_op))
    }

    pub fn flushes_per_op(&self) -> f64 {
        median(&self.over_windows(|w| w.flushes_per_op))
    }

    pub fn setup_s(&self) -> f64 {
        quiet(&self.setup_s)
    }

    /// Median over windows of the window medians (ungated; wanders with the
    /// host where [`op_p50_us`](Self::op_p50_us) does not).
    pub fn op_p50_all_us(&self) -> f64 {
        median(&self.over_windows(|w| w.p50_us))
    }

    pub fn op_p99_us(&self) -> f64 {
        self.latencies.percentile_us(0.99)
    }

    pub fn ops_per_s(&self) -> f64 {
        if self.op_wall_s > 0.0 {
            self.latencies.count() as f64 / self.op_wall_s
        } else {
            0.0
        }
    }

    /// The six end-to-end metrics, in `BENCHMARK.json` order.
    pub fn end_to_end(&self, peak_rss_mb: f64) -> Vec<Metric> {
        vec![
            Metric::new("setup_s", "s", self.setup_s()),
            Metric::new("peak_rss_mb", "MiB", peak_rss_mb),
            Metric::new("op_p50_us", "us", self.op_p50_us()),
            Metric::new("cpu_us_per_op", "us", self.cpu_us_per_op()),
            Metric::new("allocs_per_op", "count", self.allocs_per_op()),
            Metric::new("alloc_kb_per_op", "KiB", self.alloc_kb_per_op()),
        ]
    }
}

/// One printed metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Metric { name, unit, value }
    }
}

/// A float as JSON: shortest round-trip digits, and never `NaN`/`inf`
/// (which JSON cannot carry) — a non-finite value prints as 0.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The contract's result line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.25), 2.0);
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert_eq!(percentile(&[1.0, 2.0], 0.25), 1.25);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn latency_hist_is_within_its_resolution() {
        let mut h = LatencyHist::default();
        for ns in (0..200_000u64).map(|i| 1 + i * 37) {
            h.record_ns(ns);
        }
        h.record_ns(u64::MAX);
        assert_eq!(h.count(), 200_001);
        for q in [0.01, 0.5, 0.99] {
            let exact = (1.0 + (q * 200_001.0 - 1.0) * 37.0) / 1e3;
            let got = h.percentile_us(q);
            assert!(
                got <= exact * 1.0001 && got >= exact * (1.0 - 1.0 / 64.0),
                "{q}: {got} vs {exact}"
            );
        }
        for ns in [0, 1, 63, 64, 65, 127, 128, 1 << 40, u64::MAX] {
            let i = LatencyHist::bucket(ns);
            assert!(LatencyHist::floor_ns(i) <= ns && i < h.buckets.len(), "{ns}");
        }
    }
}
