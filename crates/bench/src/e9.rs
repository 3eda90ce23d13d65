//! E9 — Sec. 2 scalability: multi-worker partitioned training speedup and
//! disk-streamed training under different partition-buffer capacities.

use crate::report::{f3, ExperimentResult, Table};
use crate::world::{Scale, World};
use saga_embeddings::{train, train_disk, train_partitioned, ModelKind, TrainConfig, TrainingSet};
use saga_graph::{GraphView, ViewDef};
use std::time::Instant;

fn cfg(scale: Scale) -> TrainConfig {
    match scale {
        Scale::Quick => {
            TrainConfig { model: ModelKind::TransE, dim: 16, epochs: 3, ..Default::default() }
        }
        Scale::Full => {
            TrainConfig { model: ModelKind::TransE, dim: 32, epochs: 5, ..Default::default() }
        }
    }
}

/// Runs E9.
pub fn run(scale: Scale) -> ExperimentResult {
    let mut result = ExperimentResult::new("E9", "Sec. 2 — scalable embedding training");
    let world = World::build(scale, 37);
    let view = GraphView::materialize(&world.synth.kg, ViewDef::embedding_training(5));
    let ds = TrainingSet::from_edges(&view.edges(), 0.02, 0.02, 41);
    let cfg = cfg(scale);
    let edges_total = ds.train.len() * cfg.epochs;

    // ---- multi-worker speedup ------------------------------------------
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut t = Table::new(
        format!(
            "partitioned multi-worker training ({} train edges, 8 partitions, host cores: {cores})",
            ds.train.len()
        ),
        &["workers", "wall_s", "edges_per_s", "speedup", "max_overlap", "final_loss"],
    );
    let mut base = 0.0f64;
    for workers in [1usize, 2, 4] {
        let start = Instant::now();
        let (model, stats) = train_partitioned(&ds, &cfg, 8, workers);
        let secs = start.elapsed().as_secs_f64();
        if workers == 1 {
            base = secs;
        }
        t.row(&[
            workers.to_string(),
            format!("{secs:.2}"),
            format!("{:.0}", edges_total as f64 / secs),
            format!("{:.2}x", base / secs),
            stats.max_concurrency_observed.to_string(),
            f3(*model.epoch_losses.last().unwrap_or(&0.0) as f64),
        ]);
    }
    result.tables.push(t);
    result.notes.push(format!(
        "host has {cores} core(s): wall-clock speedup is bounded by min(workers, cores); \
         max_overlap shows the schedule itself sustains concurrent bucket training"
    ));

    // ---- in-memory baseline ------------------------------------------------
    let start = Instant::now();
    let m = train(&ds, &cfg);
    let mem_secs = start.elapsed().as_secs_f64();

    // ---- disk-streamed training with bounded buffer -------------------------
    let mut d = Table::new(
        "disk-streamed training (Marius-style partition buffer, 8 partitions)",
        &["configuration", "wall_s", "partition_loads", "evictions", "final_loss"],
    );
    d.row(&[
        "in-memory (baseline)".into(),
        format!("{mem_secs:.2}"),
        "0".into(),
        "0".into(),
        f3(*m.epoch_losses.last().unwrap_or(&0.0) as f64),
    ]);
    for buffer in [2usize, 4, 8] {
        let dir = std::env::temp_dir().join(format!("saga-e9-{}-{buffer}", std::process::id()));
        let start = Instant::now();
        let (model, stats) = train_disk(&ds, &cfg, 8, buffer, &dir).expect("disk training");
        let secs = start.elapsed().as_secs_f64();
        d.row(&[
            format!("disk, buffer={buffer}/8 partitions"),
            format!("{secs:.2}"),
            stats.partition_loads.to_string(),
            stats.partition_evictions.to_string(),
            f3(*model.epoch_losses.last().unwrap_or(&0.0) as f64),
        ]);
        std::fs::remove_dir_all(&dir).ok();
    }
    result.tables.push(d);

    result.notes.push(
        "expected shape: wall time drops with workers (sub-linear: bucket locking + relation \
         contention); disk evictions fall as the buffer grows, converging to in-memory behavior"
            .into(),
    );
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e9_quick_shapes_hold() {
        let r = run(Scale::Quick);
        let workers = &r.tables[0].rows;
        // Wall clock is not asserted: on a small, loaded host it says
        // nothing about the schedule. The schedule is asserted instead:
        // the worker count never reaches the model, and 4 workers do
        // train buckets side by side.
        let losses: Vec<&str> = workers.iter().map(|row| row[5].as_str()).collect();
        assert_eq!(losses, [losses[0]; 3], "final loss at 1, 2 and 4 workers");
        let overlap: usize = workers[2][4].parse().unwrap();
        assert!(overlap >= 2, "scheduler must sustain concurrent buckets: {overlap}");
        let disk = &r.tables[1].rows;
        let evict_small: usize = disk[1][3].parse().unwrap();
        let evict_large: usize = disk[3][3].parse().unwrap();
        assert!(evict_small > evict_large, "{evict_small} vs {evict_large}");
        assert_eq!(evict_large, 0, "full buffer never evicts");
        // The buffer decides where tables live, never the model.
        let losses: Vec<&str> = disk[1..].iter().map(|row| row[4].as_str()).collect();
        assert_eq!(losses, [losses[0]; 3], "final loss at every buffer size");
    }
}
