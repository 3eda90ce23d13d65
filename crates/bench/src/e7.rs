//! E7 — Sec. 5 resource constraints: spill-to-disk memory curves and the
//! quantized on-device embedding footprint.

use crate::report::{f3, ExperimentResult, Table};
use crate::world::Scale;
use saga_ann::{FlatIndex, Metric, QuantizedTable};
use saga_ondevice::{block_observations, generate_device_data, DeviceDataConfig};
use std::time::Instant;

/// Runs E7.
pub fn run(scale: Scale) -> ExperimentResult {
    let mut result = ExperimentResult::new("E7", "Sec. 5 — resource-constrained construction");
    let cfg = match scale {
        Scale::Quick => {
            DeviceDataConfig { seed: 71, num_persons: 200, ..DeviceDataConfig::default() }
        }
        Scale::Full => {
            DeviceDataConfig { seed: 71, num_persons: 2_000, ..DeviceDataConfig::default() }
        }
    };
    let (obs, _) = generate_device_data(&cfg);

    // ---- memory budget curve ------------------------------------------------
    let budgets: Vec<usize> = vec![4 << 10, 16 << 10, 64 << 10, 1 << 20, 16 << 20];
    let mut t = Table::new(
        format!("spill-to-disk blocking over {} observations (memory bound honored)", obs.len()),
        &["budget_bytes", "peak_memory", "runs_spilled", "bytes_spilled", "elapsed_ms", "pairs"],
    );
    let dir = std::env::temp_dir().join(format!("saga-e7-{}", std::process::id()));
    for budget in budgets {
        let start = Instant::now();
        let r = block_observations(&obs, &dir, budget).expect("blocking");
        let elapsed = start.elapsed();
        assert!(
            r.spill_stats.peak_memory_bytes <= budget + 512,
            "budget violated: {} > {budget}",
            r.spill_stats.peak_memory_bytes
        );
        t.row(&[
            budget.to_string(),
            r.spill_stats.peak_memory_bytes.to_string(),
            r.spill_stats.runs_spilled.to_string(),
            r.spill_stats.bytes_spilled.to_string(),
            format!("{:.1}", elapsed.as_secs_f64() * 1e3),
            r.pairs.len().to_string(),
        ]);
    }
    result.tables.push(t);

    // ---- quantized on-device embedding asset ---------------------------------
    use saga_core::rng::SplitMix64;
    let dim = 48;
    let n = match scale {
        Scale::Quick => 3_000,
        Scale::Full => 20_000,
    };
    let mut rng = SplitMix64::new(5);
    let vecs: Vec<Vec<f32>> =
        (0..n).map(|_| (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect()).collect();
    let mut flat = FlatIndex::new(dim, Metric::Cosine);
    for (i, v) in vecs.iter().enumerate() {
        flat.add(i as u64, v);
    }
    let table =
        QuantizedTable::build(dim, vecs.iter().enumerate().map(|(i, v)| (i as u64, v.clone())));
    let mut recall = 0.0f64;
    let queries = 30;
    for qi in 0..queries {
        let q = &vecs[qi * 7 % n];
        let truth: std::collections::HashSet<u64> =
            flat.search(q, 10).into_iter().map(|h| h.id).collect();
        let hits = table.search(Metric::Cosine, q, 10);
        recall += hits.iter().filter(|h| truth.contains(&h.id)).count() as f64 / 10.0;
    }
    let mut qt = Table::new(
        "on-device model compression (float precision reduction)",
        &["asset", "bytes", "recall@10"],
    );
    qt.row(&["f32 embeddings".into(), (n * dim * 4).to_string(), "1.000".into()]);
    qt.row(&["i8 quantized".into(), table.bytes().to_string(), f3(recall / queries as f64)]);
    result.tables.push(qt);

    result.notes.push(
        "expected shape: peak memory tracks the budget (never exceeds), throughput improves \
         with budget; quantized asset ≈4x smaller at near-identical retrieval quality"
            .into(),
    );
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e7_quick_budget_curve_holds() {
        let r = run(Scale::Quick);
        let rows = &r.tables[0].rows;
        // Smallest budget spills the most.
        let spills_small: usize = rows[0][2].parse().unwrap();
        let spills_large: usize = rows[rows.len() - 1][2].parse().unwrap();
        assert!(spills_small > spills_large);
        // Pair output identical across budgets (spilling is transparent).
        let pairs: std::collections::HashSet<String> = rows.iter().map(|r| r[5].clone()).collect();
        assert_eq!(pairs.len(), 1, "pair counts must not depend on budget: {pairs:?}");
    }
}
