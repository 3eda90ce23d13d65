//! Disk-streamed training: entity partitions live on disk and a bounded
//! buffer swaps them in and out while iterating edge buckets.
//!
//! Paper Sec. 2 lists "IO-optimized disk-based graph operations" as one of
//! the two approaches Saga uses ("for general KG embeddings we use
//! disk-based training"). The design follows Marius: embedding partitions
//! are stored on disk, and a fixed-capacity in-memory buffer holds a subset.
//! Marius also orders the edge buckets to minimize partition swaps; this
//! module does not. It holds the buffer, and the loop is
//! [`CheckpointedTrainer`]'s, run
//! [`with_buffer`](CheckpointedTrainer::with_buffer): each round is one
//! bucket, and buckets run in `(head, tail)` key order. That order is not
//! planned for the buffer. Under its LRU eviction it is close to the worst
//! order: the head partition stays resident, and a cyclic scan of the other
//! tails misses on nearly every bucket. [`train_disk`] is that loop run
//! without a log. Experiment E9 counts partition loads against in-memory
//! training.

use crate::checkpoint::{CheckpointedTrainer, TrainRun};
use crate::dataset::TrainingSet;
use crate::table::EmbeddingTable;
use crate::train::{TrainConfig, TrainedModel};
use saga_core::persist::{load_value, save_value};
use saga_core::{Result, SagaError};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// IO totals of the buffered run in this process.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DiskStats {
    /// Partitions read from disk.
    pub partition_loads: usize,
    /// Partitions evicted (written back).
    pub partition_evictions: usize,
    /// Bytes read from disk.
    pub bytes_read: usize,
    /// Bytes written to disk.
    pub bytes_written: usize,
}

/// Partition tables on disk, one [`save_value`] file each (written
/// atomically, so a crash mid-save never leaves a torn partition), and the
/// least-recently-used bookkeeping of the `capacity` tables held resident.
/// The tables themselves stay in the trainer's slots; an evicted slot holds
/// an empty table.
#[derive(Debug)]
pub(crate) struct PartitionBuffer {
    dir: PathBuf,
    capacity: usize,
    /// Per partition, its last-use tick while resident.
    last_use: Vec<Option<u64>>,
    tick: u64,
    stats: DiskStats,
}

impl PartitionBuffer {
    /// An empty buffer of `capacity` tables over `num_parts` partition
    /// files in `dir`.
    pub(crate) fn new(capacity: usize, dir: &Path, num_parts: usize) -> Result<Self> {
        if capacity < 2 {
            return Err(SagaError::InvalidArgument(format!(
                "a partition buffer holds both partitions of a bucket, not {capacity}"
            )));
        }
        std::fs::create_dir_all(dir)?;
        let last_use = vec![None; num_parts];
        Ok(Self {
            dir: dir.to_path_buf(),
            capacity,
            last_use,
            tick: 0,
            stats: DiskStats::default(),
        })
    }

    /// The IO totals so far.
    pub(crate) fn stats(&self) -> DiskStats {
        self.stats
    }

    /// True while partition `p`'s table is in its slot.
    pub(crate) fn is_resident(&self, p: usize) -> bool {
        self.last_use[p].is_some()
    }

    fn path(&self, p: usize) -> PathBuf {
        self.dir.join(format!("part-{p:04}.emb"))
    }

    /// Writes partition `p`'s table to its file.
    pub(crate) fn save(&mut self, p: usize, table: &EmbeddingTable) -> Result<()> {
        let path = self.path(p);
        save_value(&path, table)?;
        self.stats.bytes_written += std::fs::metadata(&path).map_or(0, |m| m.len() as usize);
        Ok(())
    }

    /// Reads partition `p`'s table from its file.
    pub(crate) fn load(&mut self, p: usize) -> Result<EmbeddingTable> {
        let path = self.path(p);
        self.stats.partition_loads += 1;
        self.stats.bytes_read += std::fs::metadata(&path).map_or(0, |m| m.len() as usize);
        load_value(&path)
    }

    /// Makes partition `p` resident in `tables`, first writing back the
    /// least recently used resident tables other than `pinned` while the
    /// buffer is full.
    pub(crate) fn ensure(
        &mut self,
        p: usize,
        pinned: Option<usize>,
        tables: &[Mutex<EmbeddingTable>],
    ) -> Result<()> {
        self.tick += 1;
        if let Some(last) = &mut self.last_use[p] {
            *last = self.tick;
            return Ok(());
        }
        while self.last_use.iter().flatten().count() >= self.capacity {
            let victim = (0..self.last_use.len())
                .filter(|&q| Some(q) != pinned)
                .filter_map(|q| self.last_use[q].map(|tick| (tick, q)))
                .min()
                .map(|(_, q)| q)
                .expect("capacity >= 2 leaves an evictable partition");
            let mut slot = tables[victim].lock().expect("partition lock");
            let dim = slot.dim();
            let table = std::mem::replace(&mut *slot, EmbeddingTable::zeros(0, dim));
            drop(slot);
            self.save(victim, &table)?;
            self.last_use[victim] = None;
            self.stats.partition_evictions += 1;
        }
        *tables[p].lock().expect("partition lock") = self.load(p)?;
        self.last_use[p] = Some(self.tick);
        Ok(())
    }
}

/// Trains with disk-resident partitions and an in-memory buffer of
/// `buffer_capacity` partitions: the [`CheckpointedTrainer`] loop run
/// [`with_buffer`](CheckpointedTrainer::with_buffer) and without a log.
/// Returns the model and the run's IO totals.
pub fn train_disk(
    ds: &TrainingSet,
    cfg: &TrainConfig,
    num_parts: usize,
    buffer_capacity: usize,
    workdir: &Path,
) -> Result<(TrainedModel, DiskStats)> {
    let TrainRun { model, io, .. } = CheckpointedTrainer::new(cfg.clone(), num_parts, 1)
        .with_buffer(buffer_capacity, workdir)
        .run(ds, None)?;
    Ok((model.expect("a run without a kill hook completes"), io))
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::model::ModelKind;
    use saga_core::synth::{generate, SynthConfig};
    use saga_graph::{GraphView, ViewDef};
    use std::collections::BTreeSet;

    fn dataset() -> TrainingSet {
        let s = generate(&SynthConfig::tiny(71));
        let v = GraphView::materialize(&s.kg, ViewDef::embedding_training(2));
        TrainingSet::from_edges(&v.edges(), 0.05, 0.05, 3)
    }

    fn workdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir()
            .join("saga-disk-tests")
            .join(format!("{}-{name}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn disk_training_converges() {
        let ds = dataset();
        let cfg =
            TrainConfig { dim: 12, epochs: 4, model: ModelKind::TransE, ..Default::default() };
        let dir = workdir("converge");
        let (model, stats) = train_disk(&ds, &cfg, 4, 2, &dir).unwrap();
        assert!(stats.partition_loads > 0);
        assert!(stats.bytes_read > 0 && stats.bytes_written > 0);
        let first = model.epoch_losses[0];
        let last = *model.epoch_losses.last().unwrap();
        assert!(last < first, "loss {first} -> {last}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn small_buffer_causes_more_evictions_than_large() {
        let ds = dataset();
        let cfg = TrainConfig { dim: 8, epochs: 2, ..Default::default() };
        let d1 = workdir("small-buf");
        let (_, small) = train_disk(&ds, &cfg, 6, 2, &d1).unwrap();
        let d2 = workdir("large-buf");
        let (_, large) = train_disk(&ds, &cfg, 6, 6, &d2).unwrap();
        assert!(
            small.partition_evictions > large.partition_evictions,
            "small {} vs large {}",
            small.partition_evictions,
            large.partition_evictions
        );
        std::fs::remove_dir_all(&d1).ok();
        std::fs::remove_dir_all(&d2).ok();
    }

    #[test]
    fn full_buffer_matches_no_eviction() {
        let ds = dataset();
        let cfg = TrainConfig { dim: 8, epochs: 1, ..Default::default() };
        let d = workdir("no-evict");
        let (_, stats) = train_disk(&ds, &cfg, 4, 4, &d).unwrap();
        assert_eq!(stats.partition_evictions, 0);
        // Exactly one load per partition; the model is assembled from the
        // tables still resident.
        assert_eq!(stats.partition_loads, 4, "4 train loads, no assembly loads");
        std::fs::remove_dir_all(&d).ok();
    }

    /// The buffer decides only where tables live, never what a round
    /// computes: the models at capacity 2, 4 and P are bit-identical.
    #[test]
    fn buffer_capacity_never_changes_the_model() {
        let ds = dataset();
        let cfg = TrainConfig { dim: 8, epochs: 2, negatives: 3, ..Default::default() };
        let d = workdir("capacity");
        let (base, _) = train_disk(&ds, &cfg, 6, 6, &d).unwrap();
        for capacity in [2, 4] {
            let (model, stats) = train_disk(&ds, &cfg, 6, capacity, &d).unwrap();
            assert!(stats.partition_evictions > 0, "capacity {capacity} swaps");
            assert_eq!(model.epoch_losses, base.epoch_losses, "losses at capacity {capacity}");
            assert_eq!(model.entities.to_bytes(), base.entities.to_bytes(), "capacity {capacity}");
            assert_eq!(
                model.relations.to_bytes(),
                base.relations.to_bytes(),
                "capacity {capacity}"
            );
        }
        std::fs::remove_dir_all(&d).ok();
    }

    /// A buffered run starts fresh over every bucket: a warm start, a delta
    /// set or a buffer too small for one bucket is a typed error.
    #[test]
    fn a_buffer_refuses_warm_starts_delta_runs_and_one_slot() {
        let ds = dataset();
        let cfg = TrainConfig { dim: 8, epochs: 1, ..Default::default() };
        let d = workdir("refuse");
        let (prior, _) = train_disk(&ds, &cfg, 4, 2, &d).unwrap();
        let trainer =
            |capacity| CheckpointedTrainer::new(cfg.clone(), 4, 1).with_buffer(capacity, &d);
        let runs = [
            trainer(2).with_warm_start(&prior).run(&ds, None),
            trainer(2).with_delta_partitions(BTreeSet::from([0])).run(&ds, None),
            trainer(1).run(&ds, None),
        ];
        for run in runs {
            assert!(matches!(run, Err(SagaError::InvalidArgument(_))), "{run:?}");
        }
        std::fs::remove_dir_all(&d).ok();
    }
}
