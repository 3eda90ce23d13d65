//! Crash-safe checkpointed embedding training.
//!
//! Paper Sec. 2 trains embeddings over week-scale graph snapshots; a
//! mid-run crash cannot mean restarting from triple zero. Following
//! PyTorch-BigGraph/DGL-KE, the partition bucket is the unit of recoverable
//! work: after every partition-disjoint *round* a full run appends one
//! checksummed snapshot frame (meta cursor + relation table + the partition
//! tables dirtied since the last durable frame) to a
//! [`Wal`](saga_core::persist::Wal) through the generalized
//! `core::persist` snapshot format. Because
//!
//! - the trainer core is seeded entirely by `(cfg, num_parts)`,
//! - per-bucket RNG streams are keyed by `(seed, epoch, head, tail)` and
//!   re-created per bucket (the "RNG cursor" is just the `(epoch, round)`
//!   cursor itself),
//! - epoch shuffles are replayed deterministically on resume, and
//! - round merges happen in fixed round order,
//!
//! a run killed at *any* round boundary resumes to a model bit-identical
//! to an uninterrupted run, at every worker count. Torn checkpoint tails
//! truncate to the last valid round on open (the WAL recovery contract).
//!
//! **Checkpoint granularity.** How often a frame is due follows from what a
//! lost round costs, and the caller has already said which case it is. A
//! *full* run is minutes to weeks of work, so it pays one frame and one
//! flush per round. A *delta* run
//! ([`with_delta_partitions`](CheckpointedTrainer::with_delta_partitions))
//! is a few milliseconds of training off a warm start that its caller still
//! holds; there a frame per round is a hundred flushes around two
//! milliseconds of work. Durability is owed where the run is acknowledged —
//! when `train` returns the model — so a delta run writes **one** frame,
//! after its last round, carrying the final cursor and counters, the
//! relations and every partition the run touched. Training against that log
//! again restores the model without re-running a round. A delta run killed
//! before its last round leaves an empty log and restarts from the warm
//! start: it loses the interval's milliseconds, and is still bit-identical.
//!
//! Fault injection threads through two sites: [`SITE_TRAIN_BUCKET`] gates
//! every bucket start (before any mutation, so retries never corrupt
//! sibling buckets' scratch; exhausted retries quarantine the partition
//! pair), and [`SITE_CHECKPOINT_WRITE`] gates frame appends (a failed
//! write skips the frame and carries its dirty partitions into the next
//! one; a delta run whose only frame is skipped still returns its model —
//! degradation, not corruption). Everything that happened is
//! recorded on a [`TrainReport`], mirroring the extraction pipeline's
//! `OdkeReport`.

use crate::dataset::TrainingSet;
use crate::partition::{normalize_losses, RoundFaults, TrainerCore};
use crate::table::EmbeddingTable;
use crate::train::{TrainConfig, TrainedModel};
use saga_core::fault::{FaultInjector, RetryBudget, RetryPolicy};
use saga_core::persist::{Snapshot, SnapshotBuilder, Wal};
use saga_core::text::fnv1a;
use saga_core::{Result, SagaError};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::atomic::AtomicUsize;

/// Fault site: start of one bucket's training (keyed by
/// `(epoch << 32) | (head_part << 16) | tail_part`).
pub const SITE_TRAIN_BUCKET: &str = "train-bucket";
/// Fault site: one checkpoint frame append (keyed by
/// `(epoch << 32) | round`).
pub const SITE_CHECKPOINT_WRITE: &str = "checkpoint-write";

/// Snapshot kind tag for round-granular partitioned-training frames.
pub(crate) const KIND_TRAIN_ROUND: &str = "train-round-v1";
/// Snapshot kind tag for bucket-granular disk-training frames.
pub(crate) const KIND_DISK_BUCKET: &str = "train-disk-bucket-v1";

/// What a (possibly killed, possibly resumed) checkpointed training run
/// did — the training mirror of the extraction pipeline's `OdkeReport`.
/// Counters are cumulative across resumes: a report produced after a
/// kill+resume covers the whole logical run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TrainReport {
    /// Epochs fully completed.
    pub epochs_completed: usize,
    /// Partition-disjoint rounds completed.
    pub rounds_completed: usize,
    /// Buckets trained (quarantined/skipped buckets excluded).
    pub buckets_trained: usize,
    /// Total bucket attempts, including retries.
    pub bucket_attempts: u64,
    /// Bucket retries only (attempts beyond each bucket's first).
    pub retries: u64,
    /// Wall-clock cost in round units: per round, the max attempts of any
    /// bucket in it (concurrent buckets overlap, retries serialize). Equal
    /// to `rounds_completed` in a fault-free run.
    pub wall_round_units: u64,
    /// Partition pairs quarantined after exhausting bucket retries.
    pub quarantined: Vec<(u16, u16)>,
    /// Checkpoint frames durably appended.
    pub checkpoints_written: usize,
    /// Checkpoint frames skipped because the write site faulted through
    /// its retries (their dirty partitions ride along in the next frame).
    pub checkpoints_skipped: usize,
    /// Retries spent on checkpoint writes.
    pub checkpoint_retries: u64,
    /// `(epoch, round)` cursor this process resumed at, if it did.
    pub resumed_at: Option<(usize, usize)>,
    /// Peak simultaneous bucket workers in this process.
    pub max_concurrency_observed: usize,
}

impl TrainReport {
    /// Record this run's cumulative totals through an obs scope (call once
    /// per run — counters add): every numeric field becomes a counter of
    /// the same name, plus `quarantined` as the quarantine-set size.
    pub fn record_to(&self, scope: &saga_core::obs::Scope) {
        scope.counter("epochs_completed").add(self.epochs_completed as u64);
        scope.counter("rounds_completed").add(self.rounds_completed as u64);
        scope.counter("buckets_trained").add(self.buckets_trained as u64);
        scope.counter("bucket_attempts").add(self.bucket_attempts);
        scope.counter("retries").add(self.retries);
        scope.counter("wall_round_units").add(self.wall_round_units);
        scope.counter("quarantined").add(self.quarantined.len() as u64);
        scope.counter("checkpoints_written").add(self.checkpoints_written as u64);
        scope.counter("checkpoints_skipped").add(self.checkpoints_skipped as u64);
        scope.counter("checkpoint_retries").add(self.checkpoint_retries);
        scope.counter("max_concurrency_observed").add(self.max_concurrency_observed as u64);
    }
}

/// The meta table of one checkpoint frame: the `(epoch, round)` cursor,
/// accumulated losses, quarantine set and cumulative counters. Encoded
/// manually (little-endian) so checkpoints are self-contained binary.
#[derive(Debug, Clone, Default)]
pub(crate) struct CheckpointMeta {
    /// Digest of `(cfg, num_parts)` — a log replays only onto the exact
    /// configuration that wrote it.
    pub config_digest: u64,
    /// Epoch of the round this frame checkpoints.
    pub epoch: u64,
    /// Round index within the epoch (for disk training: bucket index).
    pub round: u64,
    /// Raw (unnormalized) losses of fully completed epochs.
    pub epoch_losses_done: Vec<f64>,
    /// Raw loss accumulated so far in the current epoch.
    pub cur_epoch_loss: f64,
    /// Cumulative counters at encode time (see [`TrainReport`]).
    pub rounds_completed: u64,
    pub buckets_trained: u64,
    pub bucket_attempts: u64,
    pub retries: u64,
    pub wall_round_units: u64,
    pub checkpoints_skipped: u64,
    pub checkpoint_retries: u64,
    /// Quarantined partition pairs at encode time.
    pub quarantined: Vec<(u16, u16)>,
}

impl CheckpointMeta {
    pub(crate) fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(128 + 8 * self.epoch_losses_done.len());
        for v in [
            self.config_digest,
            self.epoch,
            self.round,
            self.rounds_completed,
            self.buckets_trained,
            self.bucket_attempts,
            self.retries,
            self.wall_round_units,
            self.checkpoints_skipped,
            self.checkpoint_retries,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&self.cur_epoch_loss.to_bits().to_le_bytes());
        out.extend_from_slice(&(self.epoch_losses_done.len() as u32).to_le_bytes());
        for l in &self.epoch_losses_done {
            out.extend_from_slice(&l.to_bits().to_le_bytes());
        }
        out.extend_from_slice(&(self.quarantined.len() as u32).to_le_bytes());
        for (ph, pt) in &self.quarantined {
            out.extend_from_slice(&ph.to_le_bytes());
            out.extend_from_slice(&pt.to_le_bytes());
        }
        out
    }

    pub(crate) fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Result<&[u8]> {
            let lo = *pos;
            let hi = lo
                .checked_add(n)
                .filter(|&hi| hi <= bytes.len())
                .ok_or_else(|| SagaError::Corrupt("checkpoint meta truncated".into()))?;
            *pos = hi;
            Ok(&bytes[lo..hi])
        };
        let mut u64s = [0u64; 10];
        for v in &mut u64s {
            let b: [u8; 8] = take(&mut pos, 8)?
                .try_into()
                .map_err(|_| SagaError::Corrupt("checkpoint meta truncated".into()))?;
            *v = u64::from_le_bytes(b);
        }
        let f64_at = |b: &[u8]| -> Result<f64> {
            let arr: [u8; 8] =
                b.try_into().map_err(|_| SagaError::Corrupt("checkpoint meta truncated".into()))?;
            Ok(f64::from_bits(u64::from_le_bytes(arr)))
        };
        let cur_epoch_loss = f64_at(take(&mut pos, 8)?)?;
        let u32_at = |b: &[u8]| -> Result<u32> {
            let arr: [u8; 4] =
                b.try_into().map_err(|_| SagaError::Corrupt("checkpoint meta truncated".into()))?;
            Ok(u32::from_le_bytes(arr))
        };
        let n_losses = u32_at(take(&mut pos, 4)?)? as usize;
        let mut epoch_losses_done = Vec::with_capacity(n_losses.min(1 << 16));
        for _ in 0..n_losses {
            epoch_losses_done.push(f64_at(take(&mut pos, 8)?)?);
        }
        let n_quar = u32_at(take(&mut pos, 4)?)? as usize;
        let mut quarantined = Vec::with_capacity(n_quar.min(1 << 16));
        for _ in 0..n_quar {
            let b = take(&mut pos, 4)?;
            quarantined.push((u16::from_le_bytes([b[0], b[1]]), u16::from_le_bytes([b[2], b[3]])));
        }
        if pos != bytes.len() {
            return Err(SagaError::Corrupt("checkpoint meta has trailing bytes".into()));
        }
        Ok(Self {
            config_digest: u64s[0],
            epoch: u64s[1],
            round: u64s[2],
            rounds_completed: u64s[3],
            buckets_trained: u64s[4],
            bucket_attempts: u64s[5],
            retries: u64s[6],
            wall_round_units: u64s[7],
            checkpoints_skipped: u64s[8],
            checkpoint_retries: u64s[9],
            cur_epoch_loss,
            epoch_losses_done,
            quarantined,
        })
    }
}

/// One decoded checkpoint frame: cursor meta, the full relation table, and
/// the partition tables dirtied since the previous durable frame.
pub(crate) struct RecoveredFrame {
    pub kind: String,
    pub meta: CheckpointMeta,
    pub relations: EmbeddingTable,
    pub parts: Vec<(u16, EmbeddingTable)>,
    /// Trainer-specific side tables (e.g. the disk trainer's IO stats),
    /// anything that is neither `meta`, `relations` nor `part-*`.
    pub extra: Vec<(String, Vec<u8>)>,
}

/// Encodes one checkpoint frame through the snapshot format. `extra`
/// carries trainer-specific side tables verbatim.
pub(crate) fn encode_frame(
    kind: &str,
    meta: &CheckpointMeta,
    relations: &EmbeddingTable,
    parts: &[(u16, EmbeddingTable)],
    extra: &[(String, Vec<u8>)],
) -> Result<Vec<u8>> {
    let mut b = SnapshotBuilder::new(kind);
    b.add_table("meta", meta.to_bytes());
    b.add_table("relations", relations.to_bytes());
    for (p, t) in parts {
        b.add_table(&format!("part-{p:04}"), t.to_bytes());
    }
    for (name, bytes) in extra {
        b.add_table(name, bytes.clone());
    }
    b.to_bytes()
}

/// Decodes one checkpoint frame, validating the snapshot's per-table
/// checksums and each table's shape header.
pub(crate) fn decode_frame(payload: &[u8]) -> Result<RecoveredFrame> {
    let snap = Snapshot::from_bytes(payload)?;
    let meta_b = snap
        .table("meta")
        .ok_or_else(|| SagaError::Corrupt("checkpoint frame has no meta table".into()))?;
    let meta = CheckpointMeta::from_bytes(meta_b)?;
    let rel_b = snap
        .table("relations")
        .ok_or_else(|| SagaError::Corrupt("checkpoint frame has no relations table".into()))?;
    let relations = EmbeddingTable::from_bytes(rel_b)?;
    let mut parts = Vec::new();
    let mut extra = Vec::new();
    for name in snap.table_names() {
        let bytes =
            snap.table(name).ok_or_else(|| SagaError::Corrupt("snapshot table vanished".into()))?;
        if let Some(idx) = name.strip_prefix("part-") {
            let p: u16 = idx.parse().map_err(|_| {
                SagaError::Corrupt(format!("bad partition table name {name:?} in checkpoint"))
            })?;
            parts.push((p, EmbeddingTable::from_bytes(bytes)?));
        } else if name != "meta" && name != "relations" {
            extra.push((name.to_string(), bytes.to_vec()));
        }
    }
    Ok(RecoveredFrame { kind: snap.kind().to_string(), meta, relations, parts, extra })
}

/// A WAL of checkpoint frames. Opening replays the valid prefix and
/// truncates a torn or checksum-failing tail in place — a process killed
/// mid-append resumes from the last fully durable round.
pub struct TrainCheckpointLog {
    pub(crate) wal: Wal,
    pub(crate) frames: Vec<RecoveredFrame>,
}

impl TrainCheckpointLog {
    /// Opens (or creates) the checkpoint log at `path`, recovering every
    /// valid frame. A frame that passes the WAL checksum but fails
    /// snapshot validation ends recovery at the preceding frame.
    pub fn open(path: &Path) -> Result<Self> {
        let (wal, raw) = Wal::open(path)?;
        let mut frames = Vec::with_capacity(raw.len());
        for payload in &raw {
            match decode_frame(payload) {
                Ok(f) => frames.push(f),
                Err(_) => break,
            }
        }
        Ok(Self { wal, frames })
    }

    /// Number of durable rounds recovered on open.
    pub fn rounds_recovered(&self) -> usize {
        self.frames.len()
    }
}

/// The result of a checkpointed run: the model (None if the run was killed
/// by the test hook before completing) and the cumulative report.
#[derive(Debug)]
pub struct TrainRun {
    /// The trained model, present when the run ran to completion.
    pub model: Option<TrainedModel>,
    /// What happened, cumulative across resumes.
    pub report: TrainReport,
}

/// Wraps `train_partitioned` with checkpoints — per round for a full run,
/// one at the end for a delta run — and fault injection (see the module
/// docs). Construction is cheap; all state lives in the
/// [`TrainCheckpointLog`] passed to [`train`](Self::train).
pub struct CheckpointedTrainer<'a> {
    cfg: TrainConfig,
    num_parts: usize,
    workers: usize,
    retry: RetryPolicy,
    budget: RetryBudget,
    faults: Option<&'a FaultInjector>,
    kill_after_rounds: Option<usize>,
    obs: Option<saga_core::obs::Scope>,
    warm_start: Option<&'a TrainedModel>,
    delta_parts: Option<BTreeSet<u16>>,
}

impl<'a> CheckpointedTrainer<'a> {
    /// A trainer for `(cfg, num_parts)` fanning each round over `workers`
    /// threads. Defaults: default retry policy, unlimited retry budget, no
    /// fault injection.
    pub fn new(cfg: TrainConfig, num_parts: usize, workers: usize) -> Self {
        assert!(workers >= 1);
        Self {
            cfg,
            num_parts,
            workers,
            retry: RetryPolicy::default(),
            budget: RetryBudget::unlimited(),
            faults: None,
            kill_after_rounds: None,
            obs: None,
            warm_start: None,
            delta_parts: None,
        }
    }

    /// Seeds every overlapping entity/relation row from a previously
    /// trained model before training starts. Rows absent from `prior` keep
    /// the fresh deterministic init. A warm start changes the *starting
    /// point*, never the schedule, so worker-count determinism holds.
    pub fn with_warm_start(mut self, prior: &'a TrainedModel) -> Self {
        self.warm_start = Some(prior);
        self
    }

    /// Delta mode: train only the edge buckets touching a partition in
    /// `dirty` (see [`dirty_partitions`](crate::partition::dirty_partitions)).
    /// Combined with [`with_warm_start`](Self::with_warm_start), this is the
    /// incremental retrain of the growth pipeline — cost scales with the
    /// churned fraction instead of the whole graph. The dirty set is folded
    /// into the checkpoint config digest, so a delta log can only resume a
    /// delta run over the same dirty set. A delta run checkpoints once, after
    /// its last round (module docs, "Checkpoint granularity").
    pub fn with_delta_partitions(mut self, dirty: BTreeSet<u16>) -> Self {
        self.delta_parts = Some(dirty);
        self
    }

    /// Routes bucket starts and checkpoint writes through `injector`.
    pub fn with_faults(mut self, injector: &'a FaultInjector) -> Self {
        self.faults = Some(injector);
        self
    }

    /// Overrides the retry policy for both fault sites.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Caps total retries across the run. Note: with a finite budget and
    /// multiple workers, *which* bucket gets the last retry token depends
    /// on scheduling, so bit-reproducibility across worker counts is only
    /// guaranteed with an unlimited budget (the default).
    pub fn with_budget(mut self, budget: RetryBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Test hook: return (model `None`) after this process has completed
    /// `n` rounds — simulating a kill at a round boundary. The kill comes
    /// after that round's checkpoint, where one is due.
    pub fn with_kill_after_rounds(mut self, n: usize) -> Self {
        self.kill_after_rounds = Some(n);
        self
    }

    /// Records training through `scope`: per-round `round_wall_units` /
    /// `round_buckets` histograms under a [`SITE_TRAIN_BUCKET`] child (all
    /// values from [`RoundOutcome`](crate::partition), never clock deltas,
    /// so snapshots are bit-identical at every worker count) and the final
    /// [`TrainReport`] counters on `scope` itself.
    pub fn with_obs(mut self, scope: saga_core::obs::Scope) -> Self {
        self.obs = Some(scope);
        self
    }

    fn config_digest(&self) -> u64 {
        match &self.delta_parts {
            None => fnv1a(format!("{:?}|parts={}", self.cfg, self.num_parts).as_bytes()),
            Some(d) => {
                fnv1a(format!("{:?}|parts={}|delta={:?}", self.cfg, self.num_parts, d).as_bytes())
            }
        }
    }

    /// Trains (or resumes) against `log`. On a fresh log this is exactly
    /// `train_partitioned`; on a log with recovered frames it restores the
    /// newest durable state, replays the epoch shuffles up to the cursor,
    /// and continues from the next round — bit-identical to never having
    /// been killed.
    pub fn train(&self, ds: &TrainingSet, log: &mut TrainCheckpointLog) -> Result<TrainRun> {
        let cfg = &self.cfg;
        let digest = self.config_digest();
        let mut core = TrainerCore::new(ds, cfg, self.num_parts);
        if let Some(prior) = self.warm_start {
            core.warm_start(ds, prior);
        }
        if let Some(dirty) = &self.delta_parts {
            let skipped = core.retain_dirty_buckets(dirty);
            if let Some(scope) = &self.obs {
                scope.counter("delta_partitions").add(dirty.len() as u64);
                scope.counter("delta_buckets_skipped").add(skipped as u64);
            }
        }
        let running = AtomicUsize::new(0);
        let max_running = AtomicUsize::new(0);

        let mut report = TrainReport::default();
        let mut quarantined: BTreeSet<(u16, u16)> = BTreeSet::new();
        let mut epoch_losses_done: Vec<f64> = Vec::new();
        let mut cur_epoch_loss = 0.0f64;
        let mut start_epoch = 0usize;
        let mut start_round = 0usize;

        // ---- resume: restore the newest durable state (later frames win
        // per partition), then adopt the last frame's cursor/counters. ----
        let frames = std::mem::take(&mut log.frames);
        for f in &frames {
            if f.kind != KIND_TRAIN_ROUND {
                return Err(SagaError::InvalidArgument(format!(
                    "checkpoint log kind {:?} is not a partitioned-training log",
                    f.kind
                )));
            }
            if f.meta.config_digest != digest {
                return Err(SagaError::InvalidArgument(
                    "checkpoint log was written by a different train config".into(),
                ));
            }
            for (p, t) in &f.parts {
                core.restore_partition(*p as usize, t.clone())?;
            }
            core.restore_relations(&f.relations)?;
        }
        if let Some(last) = frames.last() {
            let m = &last.meta;
            quarantined = m.quarantined.iter().copied().collect();
            epoch_losses_done = m.epoch_losses_done.clone();
            cur_epoch_loss = m.cur_epoch_loss;
            report.rounds_completed = m.rounds_completed as usize;
            report.buckets_trained = m.buckets_trained as usize;
            report.bucket_attempts = m.bucket_attempts;
            report.retries = m.retries;
            report.wall_round_units = m.wall_round_units;
            report.checkpoints_skipped = m.checkpoints_skipped as usize;
            report.checkpoint_retries = m.checkpoint_retries;
            report.checkpoints_written = frames.len();
            start_epoch = m.epoch as usize;
            start_round = m.round as usize + 1;
            report.resumed_at = Some((start_epoch, start_round));
        }
        drop(frames);

        // Shuffles are cumulative: replay every epoch's shuffle up to and
        // including the one we resume inside.
        if cfg.epochs > 0 {
            for e in 0..=start_epoch.min(cfg.epochs - 1) {
                core.shuffle_epoch(cfg.seed, e);
            }
        }

        let obs_round = self.obs.as_ref().map(|s| {
            let bucket = s.child(SITE_TRAIN_BUCKET);
            (bucket.histogram("round_wall_units"), bucket.histogram("round_buckets"))
        });
        let mut rounds_this_process = 0usize;
        let mut dirty: BTreeSet<u16> = BTreeSet::new();
        let mut epoch = start_epoch;
        while epoch < cfg.epochs {
            if epoch > start_epoch {
                core.shuffle_epoch(cfg.seed, epoch);
            }
            let rounds = core.pack_current_rounds();
            let first = if epoch == start_epoch { start_round } else { 0 };
            for (ri, round) in rounds.iter().enumerate().skip(first).take(rounds.len()) {
                let faults_ctx = self.faults.map(|injector| RoundFaults {
                    injector,
                    retry: self.retry,
                    budget: &self.budget,
                });
                let out = core.run_round(
                    cfg,
                    epoch,
                    round,
                    self.workers,
                    &quarantined,
                    faults_ctx.as_ref(),
                    &running,
                    &max_running,
                );
                cur_epoch_loss += out.loss;
                report.rounds_completed += 1;
                report.buckets_trained += out.buckets_trained;
                report.bucket_attempts += out.attempts;
                report.retries += out.retries;
                report.wall_round_units += out.wall_attempts;
                if let Some((wall_hist, buckets_hist)) = &obs_round {
                    wall_hist.record(out.wall_attempts);
                    buckets_hist.record(out.buckets_trained as u64);
                }
                for q in out.newly_quarantined {
                    quarantined.insert(q);
                }
                dirty.extend(out.touched_parts);

                // A full run owes a frame per round; a delta run owes one,
                // where it is acknowledged. Until then `dirty` accumulates,
                // so that frame holds every partition the run touched.
                let last_round = epoch + 1 == cfg.epochs && ri + 1 == rounds.len();
                if self.delta_parts.is_none() || last_round {
                    self.write_checkpoint(
                        log,
                        &core,
                        epoch,
                        ri,
                        &epoch_losses_done,
                        cur_epoch_loss,
                        &mut report,
                        &quarantined,
                        &mut dirty,
                        digest,
                    )?;
                }

                rounds_this_process += 1;
                if self.kill_after_rounds == Some(rounds_this_process) {
                    report.epochs_completed =
                        epoch_losses_done.len() + usize::from(ri + 1 == rounds.len());
                    report.quarantined = quarantined.into_iter().collect();
                    report.max_concurrency_observed =
                        max_running.load(std::sync::atomic::Ordering::SeqCst);
                    if let Some(scope) = &self.obs {
                        report.record_to(scope);
                    }
                    return Ok(TrainRun { model: None, report });
                }
            }
            epoch_losses_done.push(cur_epoch_loss);
            cur_epoch_loss = 0.0;
            epoch += 1;
        }

        report.epochs_completed = cfg.epochs;
        report.quarantined = quarantined.into_iter().collect();
        report.max_concurrency_observed = max_running.load(std::sync::atomic::Ordering::SeqCst);
        if let Some(scope) = &self.obs {
            report.record_to(scope);
        }
        let losses = normalize_losses(ds, cfg, &epoch_losses_done);
        let model = core.assemble(cfg, ds, losses);
        Ok(TrainRun { model: Some(model), report })
    }

    /// Appends the checkpoint frame due after `(epoch, round)`, gated (when
    /// fault injection is on) through [`SITE_CHECKPOINT_WRITE`]. A write
    /// that faults through its retries is *skipped*: the dirty set is kept
    /// so the next successful frame carries these partitions too — recovery
    /// then just resumes from one round earlier.
    #[allow(clippy::too_many_arguments)]
    fn write_checkpoint(
        &self,
        log: &mut TrainCheckpointLog,
        core: &TrainerCore,
        epoch: usize,
        round: usize,
        epoch_losses_done: &[f64],
        cur_epoch_loss: f64,
        report: &mut TrainReport,
        quarantined: &BTreeSet<(u16, u16)>,
        dirty: &mut BTreeSet<u16>,
        digest: u64,
    ) -> Result<()> {
        let meta = CheckpointMeta {
            config_digest: digest,
            epoch: epoch as u64,
            round: round as u64,
            epoch_losses_done: epoch_losses_done.to_vec(),
            cur_epoch_loss,
            rounds_completed: report.rounds_completed as u64,
            buckets_trained: report.buckets_trained as u64,
            bucket_attempts: report.bucket_attempts,
            retries: report.retries,
            wall_round_units: report.wall_round_units,
            checkpoints_skipped: report.checkpoints_skipped as u64,
            checkpoint_retries: report.checkpoint_retries,
            quarantined: quarantined.iter().copied().collect(),
        };
        let relations = core.snapshot_relations();
        let parts: Vec<(u16, EmbeddingTable)> =
            dirty.iter().map(|&p| (p, core.snapshot_partition(p as usize))).collect();
        let payload = encode_frame(KIND_TRAIN_ROUND, &meta, &relations, &parts, &[])?;

        if let Some(injector) = self.faults {
            let key = ((epoch as u64) << 32) | round as u64;
            let mut last_attempt = 0u32;
            let gate = self.retry.run(injector.clock(), &self.budget, key ^ 0xc4e0, |attempt| {
                last_attempt = attempt;
                injector.check(SITE_CHECKPOINT_WRITE, key, attempt)
            });
            report.checkpoint_retries += u64::from(last_attempt);
            if let Err(e) = gate {
                if matches!(e, SagaError::Unavailable { .. }) {
                    // Degrade: skip this frame, carry the dirty partitions
                    // forward. Recovery resumes one round earlier.
                    report.checkpoints_skipped += 1;
                    return Ok(());
                }
                return Err(e);
            }
        }
        log.wal.append(&payload)?;
        log.wal.sync()?;
        report.checkpoints_written += 1;
        dirty.clear();
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn meta_round_trips_all_fields() {
        let meta = CheckpointMeta {
            config_digest: 0xdead_beef_cafe,
            epoch: 3,
            round: 7,
            epoch_losses_done: vec![1.25, -0.5, f64::MIN_POSITIVE],
            cur_epoch_loss: 42.0625,
            rounds_completed: 29,
            buckets_trained: 101,
            bucket_attempts: 130,
            retries: 29,
            wall_round_units: 33,
            checkpoints_skipped: 2,
            checkpoint_retries: 5,
            quarantined: vec![(1, 2), (3, 3)],
        };
        let bytes = meta.to_bytes();
        let back = CheckpointMeta::from_bytes(&bytes).unwrap();
        assert_eq!(back.config_digest, meta.config_digest);
        assert_eq!(back.epoch, 3);
        assert_eq!(back.round, 7);
        assert_eq!(back.epoch_losses_done, meta.epoch_losses_done);
        assert_eq!(back.cur_epoch_loss, meta.cur_epoch_loss);
        assert_eq!(back.rounds_completed, 29);
        assert_eq!(back.buckets_trained, 101);
        assert_eq!(back.bucket_attempts, 130);
        assert_eq!(back.retries, 29);
        assert_eq!(back.wall_round_units, 33);
        assert_eq!(back.checkpoints_skipped, 2);
        assert_eq!(back.checkpoint_retries, 5);
        assert_eq!(back.quarantined, vec![(1, 2), (3, 3)]);
        // Truncations are rejected.
        for cut in [0, 8, bytes.len() - 1] {
            assert!(CheckpointMeta::from_bytes(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn frame_round_trips_tables() {
        let meta = CheckpointMeta { epoch: 1, round: 2, ..Default::default() };
        let rel = EmbeddingTable::init(3, 4, 9);
        let parts =
            vec![(0u16, EmbeddingTable::init(5, 4, 1)), (2u16, EmbeddingTable::init(6, 4, 2))];
        let extra = vec![("disk-stats".to_string(), vec![1u8, 2, 3])];
        let payload = encode_frame(KIND_TRAIN_ROUND, &meta, &rel, &parts, &extra).unwrap();
        let frame = decode_frame(&payload).unwrap();
        assert_eq!(frame.kind, KIND_TRAIN_ROUND);
        assert_eq!(frame.meta.epoch, 1);
        assert_eq!(frame.meta.round, 2);
        assert_eq!(frame.relations.row(2), rel.row(2));
        assert_eq!(frame.parts.len(), 2);
        assert_eq!(frame.parts[0].0, 0);
        assert_eq!(frame.parts[1].0, 2);
        assert_eq!(frame.parts[1].1.row(5), parts[1].1.row(5));
        assert_eq!(frame.extra, extra);
    }
}
