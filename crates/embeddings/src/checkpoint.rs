//! Crash-safe checkpointed embedding training — and the only epoch loop
//! over partition tables: [`CheckpointedTrainer`] drives the partition
//! module's `TrainerCore` over epochs and rounds, with a
//! [`TrainCheckpointLog`] through [`train`](CheckpointedTrainer::train) and
//! without one through [`train_partitioned`](crate::partition::train_partitioned)
//! and, with its tables streamed from disk through a bounded buffer,
//! [`train_disk`](crate::disk::train_disk).
//!
//! Paper Sec. 2 trains embeddings over week-scale graph snapshots; a
//! mid-run crash cannot mean restarting from triple zero. Following
//! PyTorch-BigGraph/DGL-KE, the partition bucket is the unit of recoverable
//! work: after every partition-disjoint *round* a full run appends one
//! frame to a [`Wal`] — the `core::persist::codec`
//! encoding of one `CheckpointFrame`: kind tag, cursor meta, relation
//! table and the partition tables dirtied since the last durable frame.
//! The WAL's per-frame checksum is the frame's integrity check. With a
//! buffer ([`with_buffer`](CheckpointedTrainer::with_buffer)) a round is one
//! bucket, so a frame follows every bucket. Because
//!
//! - the trainer core is seeded entirely by `(cfg, num_parts)`,
//! - per-bucket RNG streams are keyed by `(seed, epoch, head, tail)` and
//!   re-created per bucket (the "RNG cursor" is just the `(epoch, round)`
//!   cursor itself),
//! - epoch shuffles are replayed deterministically on resume, and
//! - round merges happen in fixed round order,
//!
//! a run killed at *any* round boundary resumes to a model bit-identical
//! to an uninterrupted run, at every worker count and every buffer
//! capacity. Torn checkpoint tails
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
use crate::disk::{DiskStats, PartitionBuffer};
use crate::partition::{normalize_losses, RoundFaults, Rounds, TrainerCore};
use crate::table::EmbeddingTable;
use crate::train::{TrainConfig, TrainedModel};
use saga_core::fault::{FaultInjector, RetryPolicy};
use saga_core::persist::codec::{self, BinCodec, Reader};
use saga_core::persist::Wal;
use saga_core::text::fnv1a;
use saga_core::{Result, SagaError};
use std::collections::BTreeSet;
use std::path::Path;

/// Fault site: start of one bucket's training (keyed by
/// `(epoch << 32) | (head_part << 16) | tail_part`).
pub const SITE_TRAIN_BUCKET: &str = "train-bucket";
/// Fault site: one checkpoint frame append (keyed by
/// `(epoch << 32) | round`).
pub const SITE_CHECKPOINT_WRITE: &str = "checkpoint-write";

/// Kind tag of round-granular partitioned-training frames.
pub(crate) const KIND_TRAIN_ROUND: &str = "train-round-v1";

/// What a (possibly killed, possibly resumed) checkpointed training run
/// did — the training mirror of the extraction pipeline's `OdkeReport`.
/// Counters are cumulative across resumes: a report produced after a
/// kill+resume covers the whole logical run.
#[derive(Debug, Clone, Default, PartialEq)]
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

/// The cursor part of one checkpoint frame: the `(epoch, round)` cursor,
/// accumulated losses, quarantine set and cumulative counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct CheckpointMeta {
    /// Digest of `(cfg, num_parts)` — a log replays only onto the exact
    /// configuration that wrote it.
    pub config_digest: u64,
    /// Epoch of the round this frame checkpoints.
    pub epoch: u64,
    /// Round index within the epoch.
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
    /// Bytes the [`BinCodec`] encoding takes: eleven `u64`/`f64` fields,
    /// and two length-prefixed sequences of 8-byte losses and 4-byte pairs.
    fn encoded_len(&self) -> usize {
        11 * 8 + (8 + 8 * self.epoch_losses_done.len()) + (8 + 4 * self.quarantined.len())
    }
}

impl BinCodec for CheckpointMeta {
    fn enc(&self, out: &mut Vec<u8>) {
        self.config_digest.enc(out);
        self.epoch.enc(out);
        self.round.enc(out);
        self.epoch_losses_done.enc(out);
        self.cur_epoch_loss.enc(out);
        self.rounds_completed.enc(out);
        self.buckets_trained.enc(out);
        self.bucket_attempts.enc(out);
        self.retries.enc(out);
        self.wall_round_units.enc(out);
        self.checkpoints_skipped.enc(out);
        self.checkpoint_retries.enc(out);
        self.quarantined.enc(out);
    }

    // Fields decode in the order they are written above.
    fn dec(rd: &mut Reader<'_>) -> Result<Self> {
        Ok(Self {
            config_digest: u64::dec(rd)?,
            epoch: u64::dec(rd)?,
            round: u64::dec(rd)?,
            epoch_losses_done: Vec::dec(rd)?,
            cur_epoch_loss: f64::dec(rd)?,
            rounds_completed: u64::dec(rd)?,
            buckets_trained: u64::dec(rd)?,
            bucket_attempts: u64::dec(rd)?,
            retries: u64::dec(rd)?,
            wall_round_units: u64::dec(rd)?,
            checkpoints_skipped: u64::dec(rd)?,
            checkpoint_retries: u64::dec(rd)?,
            quarantined: Vec::dec(rd)?,
        })
    }
}

/// One checkpoint frame — one [`Wal`] frame, one codec value: the kind
/// tag, the cursor meta, the full relation table and the partition tables
/// dirtied since the previous durable frame. The WAL frame checksum is its
/// integrity check. A frame is read back as this value; it is written by
/// [`encode_frame`], from the trainer's own tables.
#[derive(Debug, Clone)]
pub(crate) struct CheckpointFrame {
    pub kind: String,
    pub meta: CheckpointMeta,
    pub relations: EmbeddingTable,
    pub parts: Vec<(u16, EmbeddingTable)>,
}

impl BinCodec for CheckpointFrame {
    fn enc(&self, out: &mut Vec<u8>) {
        self.kind.enc(out);
        self.meta.enc(out);
        self.relations.enc(out);
        self.parts.enc(out);
    }

    fn dec(rd: &mut Reader<'_>) -> Result<Self> {
        Ok(Self {
            kind: String::dec(rd)?,
            meta: CheckpointMeta::dec(rd)?,
            relations: EmbeddingTable::dec(rd)?,
            parts: Vec::dec(rd)?,
        })
    }
}

/// The bytes of the frame of kind [`KIND_TRAIN_ROUND`] with `meta`, the
/// core's relation table and the partition tables it touched since the
/// last durable frame — what [`codec::to_bytes`] of that
/// [`CheckpointFrame`] is, encoded from the core's tables instead of copies
/// of them, into a buffer sized once.
fn encode_frame(meta: &CheckpointMeta, core: &mut TrainerCore) -> Result<Vec<u8>> {
    let kind = KIND_TRAIN_ROUND.as_bytes();
    let relations = core.relations();
    let len = 8
        + kind.len()
        + meta.encoded_len()
        + EmbeddingTable::encoded_len(relations.len(), relations.dim())
        + core.touched_encoded_len();
    let mut out = Vec::with_capacity(len);
    // A `String` encodes as the sequence of its bytes.
    codec::enc_seq(kind.iter(), &mut out);
    meta.enc(&mut out);
    relations.enc(&mut out);
    core.enc_touched(&mut out)?;
    debug_assert_eq!(out.len(), len, "frame size");
    Ok(out)
}

/// A WAL of checkpoint frames. Opening replays the valid prefix and
/// truncates a torn or checksum-failing tail in place — a process killed
/// mid-append resumes from the last fully durable round.
pub struct TrainCheckpointLog {
    pub(crate) wal: Wal,
    pub(crate) frames: Vec<CheckpointFrame>,
}

impl TrainCheckpointLog {
    /// Opens (or creates) the checkpoint log at `path`, recovering every
    /// valid frame. A frame that passes the WAL checksum but does not
    /// decode ends recovery at the preceding frame.
    pub fn open(path: &Path) -> Result<Self> {
        let (wal, raw) = Wal::open(path)?;
        let mut frames = Vec::with_capacity(raw.len());
        for payload in &raw {
            match codec::from_bytes(payload) {
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
/// by the test hook before completing), the cumulative report and this
/// process's IO totals.
#[derive(Debug)]
pub struct TrainRun {
    /// The trained model, present when the run ran to completion.
    pub model: Option<TrainedModel>,
    /// What happened, cumulative across resumes.
    pub report: TrainReport,
    /// Partition IO of this process (zero without a buffer).
    pub io: DiskStats,
}

/// The partitioned trainer's round loop, with checkpoints — per round for a
/// full run, one at the end for a delta run — and fault injection (see the
/// module docs). Construction is cheap; all state lives in the
/// [`TrainCheckpointLog`] passed to [`train`](Self::train).
/// [`train_partitioned`](crate::partition::train_partitioned) is this loop
/// run without a log, and [`train_disk`](crate::disk::train_disk) is it run
/// without a log and with a buffer.
pub struct CheckpointedTrainer<'a> {
    cfg: TrainConfig,
    num_parts: usize,
    workers: usize,
    retry: RetryPolicy,
    faults: Option<&'a FaultInjector>,
    kill_after_rounds: Option<usize>,
    obs: Option<saga_core::obs::Scope>,
    warm_start: Option<&'a TrainedModel>,
    delta_parts: Option<BTreeSet<u16>>,
    buffer: Option<(usize, &'a Path)>,
}

impl<'a> CheckpointedTrainer<'a> {
    /// A trainer for `(cfg, num_parts)` fanning each round over `workers`
    /// threads. Defaults: default retry policy, no fault injection.
    pub fn new(cfg: TrainConfig, num_parts: usize, workers: usize) -> Self {
        assert!(workers >= 1);
        Self {
            cfg,
            num_parts,
            workers,
            retry: RetryPolicy::default(),
            faults: None,
            kill_after_rounds: None,
            obs: None,
            warm_start: None,
            delta_parts: None,
            buffer: None,
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

    /// Streams the partition tables through `dir`: each is an atomic
    /// `save_value` file there, and at most `capacity` (at least 2) are in
    /// memory at once, the least recently used written back first. Each
    /// round is then one bucket, in `(head, tail)` key order with no epoch
    /// shuffle. That order is fixed, not planned for the buffer: under LRU
    /// it reloads a partition for nearly every bucket once the buffer holds
    /// fewer than all of them (ROADMAP item 6). The capacity never changes
    /// the model, so a killed run may resume at another one.
    /// A fresh start over every bucket is the only mode: combined with
    /// [`with_warm_start`](Self::with_warm_start) or
    /// [`with_delta_partitions`](Self::with_delta_partitions), training
    /// returns [`SagaError::InvalidArgument`].
    pub fn with_buffer(mut self, capacity: usize, dir: &'a Path) -> Self {
        self.buffer = Some((capacity, dir));
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
        // A buffered run's rounds are single buckets, so its cursor means
        // something else; its capacity changes nothing and is left out.
        let buffered = if self.buffer.is_some() { "|buffered" } else { "" };
        match &self.delta_parts {
            None => fnv1a(format!("{:?}|parts={}{buffered}", self.cfg, self.num_parts).as_bytes()),
            Some(d) => {
                fnv1a(format!("{:?}|parts={}|delta={:?}", self.cfg, self.num_parts, d).as_bytes())
            }
        }
    }

    /// Trains (or resumes) against `log`. On a fresh log this computes
    /// exactly what [`train_partitioned`](crate::partition::train_partitioned)
    /// does; on a log with recovered frames it restores the newest durable
    /// state, replays the epoch shuffles up to the cursor, and continues from
    /// the next round — bit-identical to never having been killed.
    pub fn train(&self, ds: &TrainingSet, log: &mut TrainCheckpointLog) -> Result<TrainRun> {
        self.run(ds, Some(log))
    }

    /// The round loop, the only one over [`TrainerCore`]: with a log it
    /// resumes from the log's frames and appends the frames that fall due;
    /// without one it starts fresh and writes nothing.
    pub(crate) fn run(
        &self,
        ds: &TrainingSet,
        mut log: Option<&mut TrainCheckpointLog>,
    ) -> Result<TrainRun> {
        let cfg = &self.cfg;
        let digest = self.config_digest();
        if self.buffer.is_some() && (self.warm_start.is_some() || self.delta_parts.is_some()) {
            return Err(SagaError::InvalidArgument(
                "a partition buffer trains every bucket from a fresh start".into(),
            ));
        }
        let buffer = self
            .buffer
            .map(|(capacity, dir)| PartitionBuffer::new(capacity, dir, self.num_parts))
            .transpose()?;
        let mut core = TrainerCore::new(ds, cfg, self.num_parts, buffer)?;
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

        let mut report = TrainReport::default();
        let mut quarantined: BTreeSet<(u16, u16)> = BTreeSet::new();
        let mut epoch_losses_done: Vec<f64> = Vec::with_capacity(cfg.epochs);
        let mut cur_epoch_loss = 0.0f64;
        let mut start_epoch = 0usize;
        let mut start_round = 0usize;

        // ---- resume: restore the newest durable state (later frames win
        // per partition), then adopt the last frame's cursor/counters. ----
        let frames =
            log.as_deref_mut().map(|log| std::mem::take(&mut log.frames)).unwrap_or_default();
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
            epoch_losses_done.extend_from_slice(&m.epoch_losses_done);
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
        let mut rounds = Rounds::default();
        let mut epoch = start_epoch;
        while epoch < cfg.epochs {
            if epoch > start_epoch {
                core.shuffle_epoch(cfg.seed, epoch);
            }
            core.pack_rounds(&mut rounds);
            let first = if epoch == start_epoch { start_round } else { 0 };
            for ri in first..rounds.len() {
                let faults_ctx =
                    self.faults.map(|injector| RoundFaults { injector, retry: self.retry });
                core.page_in(rounds.round(ri))?;
                let out = core.run_round(
                    cfg,
                    epoch,
                    rounds.round(ri),
                    self.workers,
                    &quarantined,
                    faults_ctx.as_ref(),
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
                quarantined.extend(out.newly_quarantined);

                // A full run owes a frame per round; a delta run owes one,
                // where it is acknowledged. Until then the core's touched
                // set accumulates, so that frame holds every partition the
                // run touched.
                let last_round = epoch + 1 == cfg.epochs && ri + 1 == rounds.len();
                if let Some(log) =
                    log.as_deref_mut().filter(|_| self.delta_parts.is_none() || last_round)
                {
                    self.write_checkpoint(
                        log,
                        &mut core,
                        epoch,
                        ri,
                        &epoch_losses_done,
                        cur_epoch_loss,
                        &mut report,
                        &quarantined,
                        digest,
                    )?;
                }

                rounds_this_process += 1;
                if self.kill_after_rounds == Some(rounds_this_process) {
                    report.epochs_completed =
                        epoch_losses_done.len() + usize::from(ri + 1 == rounds.len());
                    report.quarantined = quarantined.into_iter().collect();
                    report.max_concurrency_observed = core.max_concurrency();
                    if let Some(scope) = &self.obs {
                        report.record_to(scope);
                    }
                    return Ok(TrainRun { model: None, report, io: core.io() });
                }
            }
            epoch_losses_done.push(cur_epoch_loss);
            cur_epoch_loss = 0.0;
            epoch += 1;
        }

        report.epochs_completed = cfg.epochs;
        report.quarantined = quarantined.into_iter().collect();
        report.max_concurrency_observed = core.max_concurrency();
        if let Some(scope) = &self.obs {
            report.record_to(scope);
        }
        let losses = normalize_losses(ds, cfg, &epoch_losses_done);
        let (model, io) = core.assemble(cfg, ds, losses)?;
        Ok(TrainRun { model: Some(model), report, io })
    }

    /// Appends the checkpoint frame due after `(epoch, round)`, gated (when
    /// fault injection is on) through [`SITE_CHECKPOINT_WRITE`]. The frame
    /// carries the partitions the core touched since the last durable one.
    /// A write that faults through its retries is *skipped*: the touched
    /// set is kept so the next successful frame carries these partitions
    /// too — recovery then just resumes from one round earlier.
    #[allow(clippy::too_many_arguments)]
    fn write_checkpoint(
        &self,
        log: &mut TrainCheckpointLog,
        core: &mut TrainerCore,
        epoch: usize,
        round: usize,
        epoch_losses_done: &[f64],
        cur_epoch_loss: f64,
        report: &mut TrainReport,
        quarantined: &BTreeSet<(u16, u16)>,
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
        let frame = encode_frame(&meta, core)?;

        if let Some(injector) = self.faults {
            let key = ((epoch as u64) << 32) | round as u64;
            let mut last_attempt = 0u32;
            let gate = self.retry.run(injector.clock(), key ^ 0xc4e0, |attempt| {
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
        log.wal.append(&frame)?;
        log.wal.sync()?;
        report.checkpoints_written += 1;
        core.clear_touched();
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
        let bytes = codec::to_bytes(&meta);
        assert_eq!(bytes.len(), meta.encoded_len());
        assert_eq!(codec::to_bytes(&CheckpointMeta::default()).len(), 104);
        let back: CheckpointMeta = codec::from_bytes(&bytes).unwrap();
        assert_eq!(back, meta);
        // Truncations are rejected.
        for cut in [0, 8, bytes.len() - 1] {
            assert!(codec::from_bytes::<CheckpointMeta>(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn frame_round_trips_tables() {
        let frame = CheckpointFrame {
            kind: KIND_TRAIN_ROUND.into(),
            meta: CheckpointMeta { epoch: 1, round: 2, ..Default::default() },
            relations: EmbeddingTable::init(3, 4, 9),
            parts: vec![(0, EmbeddingTable::init(5, 4, 1)), (2, EmbeddingTable::init(6, 4, 2))],
        };
        let bytes = codec::to_bytes(&frame);
        let back: CheckpointFrame = codec::from_bytes(&bytes).unwrap();
        assert_eq!(codec::to_bytes(&back), bytes);
        assert_eq!(back.kind, KIND_TRAIN_ROUND);
        assert_eq!(back.meta, frame.meta);
        assert_eq!(back.parts.iter().map(|(p, _)| *p).collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(back.parts[1].1.row(5), frame.parts[1].1.row(5));
    }

    /// The frame encoded from the core's tables is byte for byte
    /// `codec::to_bytes` of the frame of copies it replaced: before any
    /// round, after every round of two epochs with the touched set growing
    /// (as in a delta run) and cleared (as in a full run), and with a
    /// buffer that keeps some of the tables on disk.
    #[test]
    fn the_borrowed_frame_encodes_as_the_owned_frame() {
        use crate::disk::PartitionBuffer;
        use crate::partition::Rounds;
        use saga_graph::{GraphView, ViewDef};

        let s = saga_core::synth::generate(&saga_core::synth::SynthConfig::tiny(61));
        let v = GraphView::materialize(&s.kg, ViewDef::embedding_training(2));
        let ds = TrainingSet::from_edges(&v.edges(), 0.05, 0.05, 3);
        let cfg = TrainConfig { dim: 4, epochs: 2, negatives: 2, ..Default::default() };
        let dir = std::env::temp_dir()
            .join("saga-checkpoint-tests")
            .join(format!("{}-frame", std::process::id()));
        let num_parts = 6;
        for (buffered, clear) in [(false, false), (false, true), (true, true)] {
            let buffer = buffered.then(|| PartitionBuffer::new(2, &dir, num_parts).unwrap());
            let mut core = TrainerCore::new(&ds, &cfg, num_parts, buffer).unwrap();
            let mut meta = CheckpointMeta { config_digest: 7, ..Default::default() };
            let mut frames = 0;
            let mut check = |core: &mut TrainerCore, meta: &CheckpointMeta| {
                let owned = CheckpointFrame {
                    kind: KIND_TRAIN_ROUND.into(),
                    meta: meta.clone(),
                    relations: core.relations().clone(),
                    parts: core.touched_tables().unwrap(),
                };
                assert_eq!(encode_frame(meta, core).unwrap(), codec::to_bytes(&owned));
                frames += usize::from(!owned.parts.is_empty());
            };
            check(&mut core, &meta);
            let mut rounds = Rounds::default();
            for epoch in 0..cfg.epochs {
                core.shuffle_epoch(cfg.seed, epoch);
                core.pack_rounds(&mut rounds);
                for ri in 0..rounds.len() {
                    core.page_in(rounds.round(ri)).unwrap();
                    let out =
                        core.run_round(&cfg, epoch, rounds.round(ri), 1, &BTreeSet::new(), None);
                    meta.epoch = epoch as u64;
                    meta.round = ri as u64;
                    meta.cur_epoch_loss += out.loss;
                    meta.quarantined.push((ri as u16, epoch as u16));
                    check(&mut core, &meta);
                    if clear {
                        core.clear_touched();
                    }
                }
                meta.epoch_losses_done.push(meta.cur_epoch_loss);
            }
            assert!(frames > 2, "frames with tables: {frames}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
