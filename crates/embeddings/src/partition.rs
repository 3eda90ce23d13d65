//! Random edge-based graph partitioning and multi-worker bucket training.
//!
//! Paper Sec. 2: "For shallow embedding models, random edge-based
//! partitioning of the graph is a major technique to combat the scalability
//! challenge and hence, they can easily benefit from multi-node distributed
//! training." Following PyTorch-BigGraph/Marius, entities are hashed into
//! `P` partitions and edges are grouped into `P × P` buckets by the
//! partitions of their endpoints.
//!
//! Scheduling is round-based and fully deterministic: each epoch the
//! (deterministically shuffled) bucket list is packed first-fit into rounds
//! of partition-disjoint buckets — every bucket joins the earliest round
//! where both its partitions are still free — and each round fans its
//! buckets out over scoped worker threads with per-worker scratch, the same
//! chunked pattern the ANN indexes use for `search_batch`. Because buckets
//! in a round share no partition, all of them read the same relation
//! snapshot (taken at round start) and their relation deltas and losses are
//! merged in fixed round order afterwards. Per-bucket RNG streams are keyed
//! by `(seed, epoch, head_part, tail_part)` — never by worker index — so
//! the trained model is bit-identical for every worker count.
//!
//! This module holds the partitions, the schedule (`Rounds`) and one
//! round's work (`TrainerCore`); the loop over epochs and rounds is
//! [`CheckpointedTrainer`]'s, and [`train_partitioned`] is that loop run
//! without a checkpoint log. The core sorts the triples into buckets once
//! and keeps every buffer a round uses for the whole run, so after the
//! first round training allocates only where worker threads are spawned.
//! With a partition buffer the tables live on disk instead, and each
//! round is one bucket in key order (see [`crate::disk`]).

use crate::checkpoint::{CheckpointedTrainer, TrainReport, TrainRun, SITE_TRAIN_BUCKET};
use crate::dataset::{DenseTriple, TrainingSet};
use crate::disk::{DiskStats, PartitionBuffer};
use crate::table::EmbeddingTable;
use crate::train::{train_step, TrainConfig, TrainedModel, REL_SEED};
use saga_core::fault::{FaultInjector, RetryPolicy};
use saga_core::persist::codec::BinCodec;
use saga_core::rng::SplitMix64;
use saga_core::{Result, SagaError};
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Assignment of dense entity ids to partitions.
#[derive(Debug, Clone)]
pub struct Partitioning {
    /// Number of partitions.
    pub num_parts: usize,
    /// Dense entity id → partition.
    pub part_of: Vec<u16>,
    /// Dense entity id → row within its partition's table.
    pub local_idx: Vec<u32>,
    /// Entities per partition (global dense ids).
    pub members: Vec<Vec<u32>>,
}

impl Partitioning {
    /// Randomly assigns `num_entities` entities to `num_parts` partitions.
    /// Every partition is drawn first, in entity order, so each member
    /// list is sized once.
    pub fn random(num_entities: usize, num_parts: usize, seed: u64) -> Self {
        assert!(num_parts >= 1 && num_parts <= u16::MAX as usize);
        let mut rng = SplitMix64::new(seed);
        let part_of: Vec<u16> =
            (0..num_entities).map(|_| rng.gen_range(0..num_parts) as u16).collect();
        let mut sizes = vec![0usize; num_parts];
        for &p in &part_of {
            sizes[p as usize] += 1;
        }
        let mut members: Vec<Vec<u32>> = sizes.iter().map(|&n| Vec::with_capacity(n)).collect();
        let local_idx = part_of
            .iter()
            .enumerate()
            .map(|(e, &p)| {
                let m = &mut members[p as usize];
                m.push(e as u32);
                (m.len() - 1) as u32
            })
            .collect();
        Self { num_parts, part_of, local_idx, members }
    }

    /// Groups triples into `(head_part, tail_part)` buckets.
    pub fn buckets(&self, triples: &[DenseTriple]) -> HashMap<(u16, u16), Vec<DenseTriple>> {
        let (sorted, buckets) = self.sort_into_buckets(triples);
        buckets.iter().map(|b| (b.key, sorted[b.start..b.end].to_vec())).collect()
    }

    /// `triples` stably sorted by `(head_part, tail_part)` bucket key, and
    /// the buckets as ranges of that array in key order. One sort on an
    /// integer key lays each bucket's triples out contiguously; the key
    /// carries the triple's index in its low half, so the triples of a
    /// bucket keep their order in `triples`.
    pub(crate) fn sort_into_buckets(
        &self,
        triples: &[DenseTriple],
    ) -> (Vec<DenseTriple>, Vec<Bucket>) {
        let mut keyed: Vec<u64> = triples
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let (ph, pt) = (self.part_of[t.h as usize], self.part_of[t.t as usize]);
                let i = u32::try_from(i).expect("fewer than 2^32 triples");
                (u64::from(ph) << 48) | (u64::from(pt) << 32) | u64::from(i)
            })
            .collect();
        keyed.sort_unstable();
        let sorted = keyed.iter().map(|&k| triples[(k & 0xffff_ffff) as usize]).collect();
        let mut buckets = Vec::new();
        let mut start = 0;
        for bucket in keyed.chunk_by(|a, b| a >> 32 == b >> 32) {
            let end = start + bucket.len();
            buckets.push(Bucket {
                key: ((bucket[0] >> 48) as u16, (bucket[0] >> 32) as u16),
                start,
                end,
            });
            start = end;
        }
        (sorted, buckets)
    }
}

/// One `(head_part, tail_part)` bucket: its key and the range of its
/// triples in a key-sorted triple array.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Bucket {
    key: (u16, u16),
    start: usize,
    end: usize,
}

/// The exact partitioning the partitioned/checkpointed trainers derive
/// from `(ds, cfg, num_parts)`. Callers computing a delta retrain's dirty
/// partitions must use this so the dirty set aligns with the trainer's
/// buckets.
pub fn training_partitioning(
    ds: &TrainingSet,
    cfg: &TrainConfig,
    num_parts: usize,
) -> Partitioning {
    Partitioning::random(ds.num_entities(), num_parts, cfg.seed ^ 0xbeef)
}

/// Maps a delta batch's dirty entities onto the partitions that hold them.
/// Entities outside the training vocabulary (e.g. literal-only subjects)
/// are ignored. The result is the partition set a delta retrain touches.
pub fn dirty_partitions(
    ds: &TrainingSet,
    parts: &Partitioning,
    dirty: impl IntoIterator<Item = saga_core::EntityId>,
) -> BTreeSet<u16> {
    dirty
        .into_iter()
        .filter_map(|e| ds.entity_index(e))
        .map(|g| parts.part_of[g as usize])
        .collect()
}

/// One epoch's schedule: the bucket order packed into partition-disjoint
/// rounds, kept flat — round `r` is `order[starts[r]..starts[r + 1]]`. Its
/// buffers live as long as the schedule, so packing the next epoch into it
/// allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct Rounds {
    /// Bucket indices grouped by round, ascending within a round.
    order: Vec<u32>,
    /// Where each round starts in `order`, plus the end of the last one.
    starts: Vec<u32>,
    /// The round of each bucket.
    round_of: Vec<u32>,
    /// Per partition, a bitset of the rounds that already hold it.
    busy: Vec<u64>,
}

impl Rounds {
    /// Packs buckets with the distinct `keys` (in bucket order) first-fit:
    /// each bucket joins the earliest round in which neither of its
    /// partitions is taken. These are the rounds of the greedy packing that
    /// makes one pass over the remaining buckets per round, because whether
    /// a round refuses a bucket depends only on the buckets before it.
    pub(crate) fn pack(
        &mut self,
        keys: impl ExactSizeIterator<Item = (u16, u16)>,
        num_parts: usize,
    ) {
        let n = keys.len();
        // A bucket waits only for earlier buckets that share one of its
        // partitions, and fewer than 4P distinct keys do.
        let bound = n.min(4 * num_parts);
        let words = bound.div_ceil(64);
        self.busy.clear();
        self.busy.resize(num_parts * words, 0);
        self.starts.clear();
        self.starts.resize(bound + 1, 0);
        self.round_of.clear();
        let mut rounds = 0;
        for (ph, pt) in keys {
            let (h, t) = (ph as usize * words, pt as usize * words);
            let r = (0..words)
                .find_map(|w| {
                    let free = !(self.busy[h + w] | self.busy[t + w]);
                    (free != 0).then(|| w * 64 + free.trailing_zeros() as usize)
                })
                .expect("distinct bucket keys fit in 4 × num_parts rounds");
            self.busy[h + r / 64] |= 1 << (r % 64);
            self.busy[t + r / 64] |= 1 << (r % 64);
            self.round_of.push(r as u32);
            self.starts[r + 1] += 1;
            rounds = rounds.max(r + 1);
        }
        // Counting sort by round: sizes → starts, then place each bucket at
        // its round's cursor, which leaves every start at its round's end.
        self.starts.truncate(rounds + 1);
        for r in 0..rounds {
            self.starts[r + 1] += self.starts[r];
        }
        self.order.clear();
        self.order.resize(n, 0);
        for (i, &r) in self.round_of.iter().enumerate() {
            let at = &mut self.starts[r as usize];
            self.order[*at as usize] = i as u32;
            *at += 1;
        }
        self.starts.copy_within(0..rounds, 1);
        self.starts[0] = 0;
    }

    /// Schedules `n` buckets one per round, in bucket order.
    pub(crate) fn one_per_round(&mut self, n: usize) {
        self.order.clear();
        self.order.extend(0..n as u32);
        self.starts.clear();
        self.starts.extend(0..=n as u32);
    }

    /// Number of rounds.
    pub(crate) fn len(&self) -> usize {
        self.starts.len().saturating_sub(1)
    }

    /// The bucket indices of round `r`, in bucket order.
    pub(crate) fn round(&self, r: usize) -> &[u32] {
        &self.order[self.starts[r] as usize..self.starts[r + 1] as usize]
    }
}

/// Per-worker reusable buffers for bucket training (gradient vectors plus
/// the ≤4-row entity scratch of a step) — one per worker thread, mirroring
/// the per-worker `FlatScratch` of the ANN fan-out.
struct WorkerScratch {
    dh: Vec<f32>,
    dr: Vec<f32>,
    dt: Vec<f32>,
    rows: EmbeddingTable,
}

impl WorkerScratch {
    fn new(dim: usize) -> Self {
        Self {
            dh: vec![0.0; dim],
            dr: vec![0.0; dim],
            dt: vec![0.0; dim],
            rows: EmbeddingTable::zeros(4, dim),
        }
    }
}

/// Fault-injection context for one training round: every bucket start is
/// gated through [`FaultInjector::check`] at [`SITE_TRAIN_BUCKET`] under the
/// retry policy. The gate runs *before* the bucket mutates any state, so a
/// retried bucket never corrupts partition tables or sibling scratch, and a
/// bucket whose retries are exhausted is simply not trained (the caller
/// quarantines its partition pair).
pub(crate) struct RoundFaults<'a> {
    /// The injector deciding per-(bucket, attempt) outcomes.
    pub injector: &'a FaultInjector,
    /// Retry policy for transient bucket faults.
    pub retry: RetryPolicy,
}

/// Per-bucket result carried back to the coordinating thread; the
/// bucket's relation table stays in its round slot.
#[derive(Debug, Clone, Copy, Default)]
struct BucketOutcome {
    /// False if the bucket was skipped or quarantined — nothing to merge.
    trained: bool,
    loss: f64,
    attempts: u64,
    quarantined: bool,
}

/// What one round did, accumulated by the coordinating thread in fixed
/// round order (worker-count independent).
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct RoundOutcome {
    /// Summed bucket losses (merge order = round order).
    pub loss: f64,
    /// Buckets actually trained (skipped/quarantined excluded).
    pub buckets_trained: usize,
    /// Total bucket attempts including retries.
    pub attempts: u64,
    /// Retries only (attempts beyond each bucket's first).
    pub retries: u64,
    /// Wall-clock cost of the round in attempt units: the max attempts of
    /// any single bucket (buckets run concurrently, retries serialize).
    pub wall_attempts: u64,
    /// Partition pairs whose bucket exhausted retries this round.
    pub newly_quarantined: Vec<(u16, u16)>,
}

/// The state of a partitioned training run: partitioning, partition
/// tables, the relation table, the bucketed triples in the current epoch's
/// order, and the buffers every round reuses. One round loop drives it —
/// [`CheckpointedTrainer`]'s, which [`train_partitioned`] runs without a
/// log — so checkpoint/resume changes only *when* rounds run, never *what*
/// they compute.
pub(crate) struct TrainerCore {
    parts: Partitioning,
    /// Partition-local entity tables (row = local id). A round's buckets
    /// are partition-disjoint, so these locks never contend: they only hand
    /// each worker the two tables of its bucket.
    tables: Vec<Mutex<EmbeddingTable>>,
    /// With a buffer, which tables are resident; the others are on disk.
    buffer: Option<PartitionBuffer>,
    /// Relation rows. Buckets read them through the round's snapshot; only
    /// the ordered merge after the round's barrier writes them.
    relations: EmbeddingTable,
    /// The training triples, stably sorted by bucket key.
    triples: Vec<DenseTriple>,
    /// The run's buckets, in the current epoch's order.
    buckets: Vec<Bucket>,
    /// Partitions whose tables changed since the last `clear_touched`.
    touched: Vec<bool>,
    /// Buckets training right now, and the most seen at once.
    running: AtomicUsize,
    max_running: AtomicUsize,
    /// `relations` as the current round started.
    snapshot: EmbeddingTable,
    /// One relation table per bucket slot of a round: the slot's bucket
    /// trains on a copy of `snapshot` here.
    slot_relations: Vec<EmbeddingTable>,
    /// One outcome per bucket slot of a round.
    slot_outcomes: Vec<BucketOutcome>,
    /// One scratch per worker.
    scratch: Vec<WorkerScratch>,
    num_parts: usize,
    dim: usize,
}

impl TrainerCore {
    /// Deterministically initializes partitioning, tables and buckets from
    /// `(ds, cfg, num_parts)` — the exact seeds the monolithic trainer
    /// used, so every consumer starts from the same state. With a `buffer`
    /// every table is written to disk as it is initialized, and none stays
    /// resident.
    pub(crate) fn new(
        ds: &TrainingSet,
        cfg: &TrainConfig,
        num_parts: usize,
        mut buffer: Option<PartitionBuffer>,
    ) -> Result<Self> {
        let parts = training_partitioning(ds, cfg, num_parts);

        // Partition-local entity tables (each row indexed by local id).
        let mut tables = Vec::with_capacity(num_parts);
        for (p, m) in parts.members.iter().enumerate() {
            let mut table = EmbeddingTable::init(m.len(), cfg.dim, cfg.seed ^ p as u64);
            if let Some(buffer) = &mut buffer {
                buffer.save(p, &table)?;
                table = EmbeddingTable::zeros(0, cfg.dim);
            }
            tables.push(Mutex::new(table));
        }
        let relations = EmbeddingTable::init(ds.num_relations(), cfg.dim, cfg.seed ^ REL_SEED);

        let (triples, buckets) = parts.sort_into_buckets(&ds.train);

        Ok(Self {
            parts,
            tables,
            buffer,
            snapshot: EmbeddingTable::zeros(relations.len(), cfg.dim),
            relations,
            triples,
            buckets,
            touched: vec![false; num_parts],
            running: AtomicUsize::new(0),
            max_running: AtomicUsize::new(0),
            slot_relations: Vec::new(),
            slot_outcomes: Vec::new(),
            scratch: Vec::new(),
            num_parts,
            dim: cfg.dim,
        })
    }

    /// Copies every overlapping row of a previously trained model into the
    /// partition tables and the relation table — the warm start of a delta
    /// retrain. Entities/relations absent from `prior` keep their fresh
    /// deterministic init (new vocabulary trains from scratch).
    pub(crate) fn warm_start(&mut self, ds: &TrainingSet, prior: &crate::train::TrainedModel) {
        if prior.dim() != self.dim {
            return; // dimension change: nothing transferable
        }
        for (g, &e) in ds.entities.iter().enumerate() {
            if let Some(row) = prior.entity_embedding(e) {
                let p = self.parts.part_of[g] as usize;
                let local = self.parts.local_idx[g] as usize;
                self.tables[p].lock().expect("partition lock").row_mut(local).copy_from_slice(row);
            }
        }
        for (r, &pid) in ds.relations.iter().enumerate() {
            if let Some(pr) = prior.relation_index(pid) {
                self.relations.row_mut(r).copy_from_slice(prior.relations.row(pr as usize));
            }
        }
    }

    /// Drops every bucket not touching a partition in `dirty` — the core of
    /// a delta retrain. Fewer buckets pack into fewer rounds, so the cost
    /// of the pass scales with the churned fraction of the graph.
    pub(crate) fn retain_dirty_buckets(&mut self, dirty: &BTreeSet<u16>) -> usize {
        let before = self.buckets.len();
        self.buckets.retain(|b| dirty.contains(&b.key.0) || dirty.contains(&b.key.1));
        before - self.buckets.len()
    }

    /// Shuffles the bucket list for `epoch`. Shuffles are cumulative (each
    /// permutes the previous epoch's order), so resuming a run must replay
    /// the shuffles of every epoch up to and including the current one.
    /// With a buffer the buckets keep their `(head, tail)` key order in
    /// every epoch, whatever the buffer's capacity; the order is not
    /// planned for the buffer (ROADMAP item 6).
    pub(crate) fn shuffle_epoch(&mut self, seed: u64, epoch: usize) {
        if self.buffer.is_some() {
            return;
        }
        let mut rng = SplitMix64::new(seed ^ 0x0bd0 ^ epoch as u64);
        rng.shuffle(&mut self.buckets);
    }

    /// Packs the current bucket order into `rounds`: one bucket per round
    /// with a buffer, partition-disjoint rounds without.
    pub(crate) fn pack_rounds(&self, rounds: &mut Rounds) {
        if self.buffer.is_some() {
            rounds.one_per_round(self.buckets.len());
        } else {
            rounds.pack(self.buckets.iter().map(|b| b.key), self.num_parts);
        }
    }

    /// Makes the tables of `round`'s buckets resident before it runs; a
    /// no-op without a buffer.
    pub(crate) fn page_in(&mut self, round: &[u32]) -> Result<()> {
        if let Some(buffer) = &mut self.buffer {
            for &i in round {
                let (ph, pt) = self.buckets[i as usize].key;
                buffer.ensure(ph as usize, None, &self.tables)?;
                buffer.ensure(pt as usize, Some(ph as usize), &self.tables)?;
            }
        }
        Ok(())
    }

    /// The buffer's IO totals (zero without a buffer).
    pub(crate) fn io(&self) -> DiskStats {
        self.buffer.as_ref().map(PartitionBuffer::stats).unwrap_or_default()
    }

    /// Partition `p`'s table read back from disk, if the buffer evicted it.
    fn read_evicted(&mut self, p: usize) -> Result<Option<EmbeddingTable>> {
        match &mut self.buffer {
            Some(buffer) if !buffer.is_resident(p) => buffer.load(p).map(Some),
            _ => Ok(None),
        }
    }

    /// The current relation table.
    pub(crate) fn relations(&self) -> &EmbeddingTable {
        &self.relations
    }

    /// Bytes [`enc_touched`](Self::enc_touched) appends.
    pub(crate) fn touched_encoded_len(&self) -> usize {
        let tables: usize = (0..self.num_parts)
            .filter(|&p| self.touched[p])
            .map(|p| 2 + EmbeddingTable::encoded_len(self.parts.members[p].len(), self.dim))
            .sum();
        8 + tables
    }

    /// Appends what a `Vec<(u16, EmbeddingTable)>` of copies of the tables
    /// that changed since the last [`clear_touched`](Self::clear_touched),
    /// ascending by partition, encodes to — without the copies: a resident
    /// table is encoded under its lock, an evicted one read back from disk.
    pub(crate) fn enc_touched(&mut self, out: &mut Vec<u8>) -> Result<()> {
        self.touched.iter().filter(|&&t| t).count().enc(out);
        for p in 0..self.num_parts {
            if !self.touched[p] {
                continue;
            }
            (p as u16).enc(out);
            match self.read_evicted(p)? {
                Some(table) => table.enc(out),
                None => self.tables[p].lock().expect("partition lock").enc(out),
            }
        }
        Ok(())
    }

    /// Copies of the tables [`enc_touched`](Self::enc_touched) encodes:
    /// what a checkpoint frame held before it borrowed them.
    #[cfg(test)]
    pub(crate) fn touched_tables(&mut self) -> Result<Vec<(u16, EmbeddingTable)>> {
        let mut out = Vec::new();
        for p in 0..self.num_parts {
            if self.touched[p] {
                let table = match self.read_evicted(p)? {
                    Some(table) => table,
                    None => self.tables[p].lock().expect("partition lock").clone(),
                };
                out.push((p as u16, table));
            }
        }
        Ok(out)
    }

    /// Forgets which partitions changed (their tables are durable now).
    pub(crate) fn clear_touched(&mut self) {
        self.touched.fill(false);
    }

    /// The most buckets seen training at once.
    pub(crate) fn max_concurrency(&self) -> usize {
        self.max_running.load(Ordering::SeqCst)
    }

    /// Overwrites one partition's table (checkpoint restore), on disk if
    /// the buffer holds it there.
    pub(crate) fn restore_partition(&mut self, p: usize, table: EmbeddingTable) -> Result<()> {
        let rows = self.parts.members.get(p).map(Vec::len).ok_or_else(|| {
            SagaError::Corrupt(format!("checkpoint references partition {p} of {}", self.num_parts))
        })?;
        if table.len() != rows || table.dim() != self.dim {
            return Err(SagaError::Corrupt(format!(
                "checkpoint partition {p} shape {}x{} != expected {rows}x{}",
                table.len(),
                table.dim(),
                self.dim
            )));
        }
        match &mut self.buffer {
            Some(buffer) if !buffer.is_resident(p) => buffer.save(p, &table),
            _ => {
                *self.tables[p].lock().expect("partition lock") = table;
                Ok(())
            }
        }
    }

    /// Overwrites the relation table (checkpoint restore).
    pub(crate) fn restore_relations(&mut self, table: &EmbeddingTable) -> Result<()> {
        if table.len() != self.relations.len() || table.dim() != self.dim {
            return Err(SagaError::Corrupt(format!(
                "checkpoint relations shape {}x{} != expected {}x{}",
                table.len(),
                table.dim(),
                self.relations.len(),
                self.dim
            )));
        }
        self.relations.write_rows(0, table);
        Ok(())
    }

    /// Sizes the reused buffers for a round of `slots` buckets over
    /// `workers` threads. A round holds at most one bucket per partition,
    /// so the slot buffers are sized once, for the largest possible round.
    fn fit_buffers(&mut self, slots: usize, workers: usize) {
        if self.slot_relations.len() < slots {
            let most = self.num_parts.min(self.buckets.len()).max(slots);
            let (n_rel, dim) = (self.relations.len(), self.dim);
            self.slot_relations.resize_with(most, || EmbeddingTable::zeros(n_rel, dim));
            self.slot_outcomes.resize(most, BucketOutcome::default());
        }
        if self.scratch.len() < workers {
            let dim = self.dim;
            self.scratch.resize_with(workers, || WorkerScratch::new(dim));
        }
    }

    /// Runs one partition-disjoint round over `workers` threads.
    ///
    /// Buckets whose pair is in `quarantined` are skipped. With `faults`
    /// set, each bucket start passes through the retry-gated injector
    /// *before* touching any table, and a bucket that exhausts its retries
    /// (or hits a permanent fault) is reported in `newly_quarantined`
    /// without having mutated anything. Merging is in fixed round order on
    /// the calling thread, so the outcome is worker-count independent.
    pub(crate) fn run_round(
        &mut self,
        cfg: &TrainConfig,
        epoch: usize,
        round: &[u32],
        workers: usize,
        quarantined: &BTreeSet<(u16, u16)>,
        faults: Option<&RoundFaults<'_>>,
    ) -> RoundOutcome {
        self.fit_buffers(round.len(), workers);
        // Every bucket in the round trains against the same relation
        // snapshot; deltas merge after the barrier in fixed round order
        // (the async-update strategy of PBG/DGL-KE, made
        // schedule-independent).
        self.snapshot.write_rows(0, &self.relations);
        let TrainerCore {
            parts,
            tables,
            relations,
            triples,
            buckets,
            touched,
            running,
            max_running,
            snapshot,
            slot_relations,
            slot_outcomes,
            scratch,
            ..
        } = self;
        let (parts, tables, triples, buckets, snapshot) =
            (&*parts, &*tables, &*triples, &*buckets, &*snapshot);
        let (running, max_running) = (&*running, &*max_running);

        // One bucket: lock its two (disjoint-in-round) partitions and train
        // its triples against a copy of the snapshot in its slot's table.
        let run_bucket =
            |i: u32, ws: &mut WorkerScratch, local_rel: &mut EmbeddingTable| -> BucketOutcome {
                let Bucket { key: (ph, pt), start, end } = buckets[i as usize];
                if quarantined.contains(&(ph, pt)) {
                    return BucketOutcome::default();
                }
                let mut attempts = 1u64;
                if let Some(f) = faults {
                    // The gate runs before any mutation: a transient fault
                    // costs only a retry, never a rollback.
                    let key = ((epoch as u64) << 32) | ((ph as u64) << 16) | (pt as u64);
                    let mut last_attempt = 0u32;
                    let gate = f.retry.run(f.injector.clock(), key, |attempt| {
                        last_attempt = attempt;
                        f.injector.check(SITE_TRAIN_BUCKET, key, attempt)
                    });
                    attempts = u64::from(last_attempt) + 1;
                    if gate.is_err() {
                        return BucketOutcome { attempts, quarantined: true, ..Default::default() };
                    }
                }
                let cur = running.fetch_add(1, Ordering::SeqCst) + 1;
                max_running.fetch_max(cur, Ordering::SeqCst);
                // Rounds are partition-disjoint so these never contend;
                // ordered acquisition keeps the path deadlock-free anyway.
                let (first, second) = if ph <= pt { (ph, pt) } else { (pt, ph) };
                let lock = |p: u16| tables[p as usize].lock().expect("partition lock");
                let mut guard_a = lock(first);
                let mut guard_b = if first == second { None } else { Some(lock(second)) };

                local_rel.write_rows(0, snapshot);
                // Negatives come from the entities of the two locked
                // partitions, indexed as one list: the head partition's
                // members, then the tail partition's.
                let head_members = &parts.members[ph as usize];
                let tail_members: &[u32] = if ph == pt { &[] } else { &parts.members[pt as usize] };
                let pool_len = head_members.len() + tail_members.len();
                // Keyed by bucket coordinates only — the stream is the same
                // no matter which worker runs the bucket.
                let mut rng = SplitMix64::new(
                    cfg.seed ^ ((epoch as u64) << 32) ^ ((ph as u64) << 16) ^ (pt as u64),
                );

                let mut loss = 0.0f64;
                for pos in &triples[start..end] {
                    for n in 0..cfg.negatives {
                        // Corrupt within the locked pool.
                        let corrupt_head = n % 2 == 0;
                        let mut neg = *pos;
                        for _ in 0..8 {
                            let k = rng.gen_range(0..pool_len);
                            let cand = match head_members.get(k) {
                                Some(&e) => e,
                                None => tail_members[k - head_members.len()],
                            };
                            if corrupt_head {
                                neg.h = cand;
                            } else {
                                neg.t = cand;
                            }
                            if neg != *pos {
                                break;
                            }
                        }
                        loss += bucket_step(
                            cfg,
                            pos,
                            &neg,
                            parts,
                            &mut guard_a,
                            guard_b.as_deref_mut(),
                            first,
                            local_rel,
                            &mut ws.rows,
                            &mut ws.dh,
                            &mut ws.dr,
                            &mut ws.dt,
                        ) as f64;
                    }
                }
                running.fetch_sub(1, Ordering::SeqCst);
                BucketOutcome { trained: true, loss, attempts, quarantined: false }
            };

        // Fan the round out over scoped threads, each with its own scratch
        // — the `search_batch` pattern. Each bucket writes its own slot, so
        // the slots hold round order regardless of scheduling.
        let outcomes = &mut slot_outcomes[..round.len()];
        let rels = &mut slot_relations[..round.len()];
        if workers == 1 || round.len() <= 1 {
            let ws = &mut scratch[0];
            for ((&i, out), rel) in round.iter().zip(outcomes.iter_mut()).zip(rels.iter_mut()) {
                *out = run_bucket(i, ws, rel);
            }
        } else {
            let chunk = round.len().div_ceil(workers);
            std::thread::scope(|s| {
                let chunks = round.chunks(chunk).zip(outcomes.chunks_mut(chunk));
                for ((idxs, outs), (rels, ws)) in
                    chunks.zip(rels.chunks_mut(chunk).zip(&mut *scratch))
                {
                    let run_bucket = &run_bucket;
                    s.spawn(move || {
                        for ((&i, out), rel) in idxs.iter().zip(outs).zip(rels) {
                            *out = run_bucket(i, ws, rel);
                        }
                    });
                }
            });
        }

        // Ordered merge on the coordinating thread: relation deltas,
        // losses and quarantine decisions accumulate in round order,
        // independent of which worker finished first.
        let mut out = RoundOutcome::default();
        for ((&i, b), local_rel) in round.iter().zip(&*outcomes).zip(&*rels) {
            let (ph, pt) = buckets[i as usize].key;
            out.attempts += b.attempts;
            out.retries += b.attempts.saturating_sub(1);
            out.wall_attempts = out.wall_attempts.max(b.attempts);
            if b.quarantined {
                out.newly_quarantined.push((ph, pt));
            }
            if b.trained {
                // Every row, touched or not: `x + (s - s)` is not `x` for
                // -0.0 or a non-finite `s`, and the merge keeps every bit.
                for r in 0..relations.len() {
                    relations.apply_row_delta(r, local_rel, snapshot, r);
                }
                out.loss += b.loss;
                out.buckets_trained += 1;
                touched[ph as usize] = true;
                touched[pt as usize] = true;
            }
        }
        out.wall_attempts = out.wall_attempts.max(1);
        out
    }

    /// Consumes the core into a [`TrainedModel`] — flat entity table from
    /// the partitions, evicted ones read back from disk, plus the relation
    /// table — and the run's IO totals.
    pub(crate) fn assemble(
        mut self,
        cfg: &TrainConfig,
        ds: &TrainingSet,
        losses: Vec<f32>,
    ) -> Result<(TrainedModel, DiskStats)> {
        // Every row is overwritten below, so zeros suffice as the start.
        let mut entities = EmbeddingTable::zeros(ds.num_entities(), cfg.dim);
        for p in 0..self.num_parts {
            let evicted = self.read_evicted(p)?;
            let resident = self.tables[p].lock().expect("partition lock");
            let table = evicted.as_ref().unwrap_or(&resident);
            for (local, &global) in self.parts.members[p].iter().enumerate() {
                entities.row_mut(global as usize).copy_from_slice(table.row(local));
            }
        }
        let io = self.io();
        let model = TrainedModel::assemble(
            cfg.model,
            ds.entities.clone(),
            ds.relations.clone(),
            entities,
            self.relations,
            losses,
        );
        Ok((model, io))
    }
}

/// Normalizes accumulated raw epoch losses the way the trainer reports
/// them: per positive triple and negative sample.
pub(crate) fn normalize_losses(ds: &TrainingSet, cfg: &TrainConfig, raw: &[f64]) -> Vec<f32> {
    let denom = (ds.train.len().max(1) * cfg.negatives.max(1)) as f64;
    raw.iter().map(|l| (l / denom) as f32).collect()
}

/// Trains with `workers` threads over `num_parts` partitions: the
/// [`CheckpointedTrainer`] round loop run without a checkpoint log.
///
/// Within a bucket, negatives are drawn from the union of the two involved
/// partitions so corruption never touches a partition the worker has not
/// locked (the same constraint PBG's bucket training has).
///
/// The result is bit-identical for every `workers` value: scheduling is
/// round-based over partition-disjoint buckets, per-bucket RNG streams are
/// keyed by bucket coordinates, and cross-bucket merges happen in fixed
/// round order on the coordinating thread.
pub fn train_partitioned(
    ds: &TrainingSet,
    cfg: &TrainConfig,
    num_parts: usize,
    workers: usize,
) -> (TrainedModel, TrainReport) {
    let TrainRun { model, report, .. } = CheckpointedTrainer::new(cfg.clone(), num_parts, workers)
        .run(ds, None)
        .expect("a run without a log or fault injector cannot fail");
    (model.expect("a run without a kill hook completes"), report)
}

/// One step where entity rows live in partition-local tables. Translates
/// global dense ids to (table, local row) and runs the shared step logic on
/// a temporary assembled view.
#[allow(clippy::too_many_arguments)]
pub(crate) fn bucket_step(
    cfg: &TrainConfig,
    pos: &DenseTriple,
    neg: &DenseTriple,
    parts: &Partitioning,
    guard_a: &mut EmbeddingTable,
    guard_b: Option<&mut EmbeddingTable>,
    first_part: u16,
    relations: &mut EmbeddingTable,
    scratch: &mut EmbeddingTable,
    dh: &mut [f32],
    dr: &mut [f32],
    dt: &mut [f32],
) -> f32 {
    // `scratch` holds the ≤4 distinct entity rows involved, updated in
    // place then written back (reused across steps — no allocation).
    let mut ids = [pos.h, pos.t, neg.h, neg.t];
    ids.sort_unstable();
    let mut uniq = [0u32; 4];
    let mut n_uniq = 0usize;
    for &g in &ids {
        if n_uniq == 0 || uniq[n_uniq - 1] != g {
            uniq[n_uniq] = g;
            n_uniq += 1;
        }
    }
    let uniq = &uniq[..n_uniq];

    let locate = |g: u32| -> (bool, usize) {
        let p = parts.part_of[g as usize];
        (p == first_part, parts.local_idx[g as usize] as usize)
    };
    // Load.
    for (i, &g) in uniq.iter().enumerate() {
        let (in_a, local) = locate(g);
        let src: &EmbeddingTable =
            if in_a { guard_a } else { guard_b.as_deref().expect("partition B locked") };
        scratch.copy_row_from(i, src, local);
    }
    // Relations live in the caller's bucket-local table (real indices).
    debug_assert_eq!(pos.r, neg.r, "corruption never changes the relation");
    let remap = |g: u32| uniq.iter().position(|&x| x == g).expect("id present") as u32;
    let lpos = DenseTriple { h: remap(pos.h), r: pos.r, t: remap(pos.t) };
    let lneg = DenseTriple { h: remap(neg.h), r: neg.r, t: remap(neg.t) };
    let loss = train_step(cfg, &lpos, &[lneg], scratch, relations, dh, dr, dt);
    // Store back.
    let mut guard_b = guard_b;
    for (i, &g) in uniq.iter().enumerate() {
        let (in_a, local) = locate(g);
        let dst: &mut EmbeddingTable =
            if in_a { guard_a } else { guard_b.as_deref_mut().expect("partition B locked") };
        dst.copy_row_from(local, scratch, i);
    }
    loss
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::model::ModelKind;
    use saga_core::fault::{FaultPlan, SiteFaults};
    use saga_core::synth::{generate, SynthConfig};
    use saga_graph::{GraphView, ViewDef};
    use saga_testkit::{check, SplitMix64};
    use std::collections::HashSet;

    /// The greedy packing first-fit replaced: each pass over the remaining
    /// buckets takes every bucket whose two partitions are still free in
    /// the round it builds.
    fn reference_pack_rounds<T>(
        bucket_list: &[((u16, u16), T)],
        num_parts: usize,
    ) -> Vec<Vec<usize>> {
        let mut assigned = vec![false; bucket_list.len()];
        let mut left = bucket_list.len();
        let mut rounds = Vec::new();
        while left > 0 {
            let mut used = vec![false; num_parts];
            let mut round = Vec::new();
            for (i, ((ph, pt), _)) in bucket_list.iter().enumerate() {
                if assigned[i] || used[*ph as usize] || used[*pt as usize] {
                    continue;
                }
                used[*ph as usize] = true;
                used[*pt as usize] = true;
                assigned[i] = true;
                round.push(i);
            }
            left -= round.len();
            rounds.push(round);
        }
        rounds
    }

    /// First-fit packing of `bucket_list`, one `Vec` per round.
    fn pack_rounds<T>(bucket_list: &[((u16, u16), T)], num_parts: usize) -> Vec<Vec<usize>> {
        let mut rounds = Rounds::default();
        rounds.pack(bucket_list.iter().map(|(key, _)| *key), num_parts);
        (0..rounds.len()).map(|r| rounds.round(r).iter().map(|&i| i as usize).collect()).collect()
    }

    impl TrainerCore {
        /// The round this core's replaced: a fresh relation snapshot per
        /// round, a clone of it and a copy of the negative pool per bucket,
        /// results collected per worker, and every relation row merged
        /// after the barrier in round order.
        fn reference_run_round(
            &mut self,
            cfg: &TrainConfig,
            epoch: usize,
            round: &[u32],
            workers: usize,
            quarantined: &BTreeSet<(u16, u16)>,
            faults: Option<&RoundFaults<'_>>,
        ) -> RoundOutcome {
            struct Outcome {
                rel: Option<EmbeddingTable>,
                loss: f64,
                attempts: u64,
                quarantined: bool,
            }
            let rel_snapshot = self.relations.clone();
            let rel_snapshot = &rel_snapshot;
            let core = &*self;
            let run_bucket = |i: u32, ws: &mut WorkerScratch| -> Outcome {
                let Bucket { key: (ph, pt), start, end } = core.buckets[i as usize];
                if quarantined.contains(&(ph, pt)) {
                    return Outcome { rel: None, loss: 0.0, attempts: 0, quarantined: false };
                }
                let mut attempts = 1u64;
                if let Some(f) = faults {
                    let key = ((epoch as u64) << 32) | ((ph as u64) << 16) | (pt as u64);
                    let mut last_attempt = 0u32;
                    let gate = f.retry.run(f.injector.clock(), key, |attempt| {
                        last_attempt = attempt;
                        f.injector.check(SITE_TRAIN_BUCKET, key, attempt)
                    });
                    attempts = u64::from(last_attempt) + 1;
                    if gate.is_err() {
                        return Outcome { rel: None, loss: 0.0, attempts, quarantined: true };
                    }
                }
                let (first, second) = if ph <= pt { (ph, pt) } else { (pt, ph) };
                let lock = |p: u16| core.tables[p as usize].lock().expect("partition lock");
                let mut guard_a = lock(first);
                let mut guard_b = if first == second { None } else { Some(lock(second)) };
                let mut local_rel = rel_snapshot.clone();
                let mut pool: Vec<u32> = core.parts.members[ph as usize].clone();
                if ph != pt {
                    pool.extend_from_slice(&core.parts.members[pt as usize]);
                }
                let mut rng = SplitMix64::new(
                    cfg.seed ^ ((epoch as u64) << 32) ^ ((ph as u64) << 16) ^ (pt as u64),
                );
                let mut loss = 0.0f64;
                for pos in &core.triples[start..end] {
                    for n in 0..cfg.negatives {
                        let corrupt_head = n % 2 == 0;
                        let mut neg = *pos;
                        for _ in 0..8 {
                            let cand = pool[rng.gen_range(0..pool.len())];
                            if corrupt_head {
                                neg.h = cand;
                            } else {
                                neg.t = cand;
                            }
                            if neg != *pos {
                                break;
                            }
                        }
                        loss += bucket_step(
                            cfg,
                            pos,
                            &neg,
                            &core.parts,
                            &mut guard_a,
                            guard_b.as_deref_mut(),
                            first,
                            &mut local_rel,
                            &mut ws.rows,
                            &mut ws.dh,
                            &mut ws.dr,
                            &mut ws.dt,
                        ) as f64;
                    }
                }
                Outcome { rel: Some(local_rel), loss, attempts, quarantined: false }
            };
            let results: Vec<Outcome> = if workers == 1 || round.len() <= 1 {
                let mut ws = WorkerScratch::new(cfg.dim);
                round.iter().map(|&i| run_bucket(i, &mut ws)).collect()
            } else {
                let chunk = round.len().div_ceil(workers);
                std::thread::scope(|s| {
                    let handles: Vec<_> = round
                        .chunks(chunk)
                        .map(|idxs| {
                            let run_bucket = &run_bucket;
                            s.spawn(move || {
                                let mut ws = WorkerScratch::new(cfg.dim);
                                idxs.iter().map(|&i| run_bucket(i, &mut ws)).collect::<Vec<_>>()
                            })
                        })
                        .collect();
                    handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
                })
            };

            let mut out = RoundOutcome::default();
            let mut touched = BTreeSet::new();
            for (&i, b) in round.iter().zip(&results) {
                let (ph, pt) = self.buckets[i as usize].key;
                out.attempts += b.attempts;
                out.retries += b.attempts.saturating_sub(1);
                out.wall_attempts = out.wall_attempts.max(b.attempts);
                if b.quarantined {
                    out.newly_quarantined.push((ph, pt));
                }
                if let Some(local_rel) = &b.rel {
                    for r in 0..self.relations.len() {
                        self.relations.apply_row_delta(r, local_rel, rel_snapshot, r);
                    }
                    out.loss += b.loss;
                    out.buckets_trained += 1;
                    touched.insert(ph);
                    touched.insert(pt);
                }
            }
            for p in touched {
                self.touched[p as usize] = true;
            }
            out.wall_attempts = out.wall_attempts.max(1);
            out
        }
    }

    fn dataset() -> TrainingSet {
        let s = generate(&SynthConfig::tiny(61));
        let v = GraphView::materialize(&s.kg, ViewDef::embedding_training(2));
        TrainingSet::from_edges(&v.edges(), 0.05, 0.05, 3)
    }

    /// `Partitioning::random` as it pushed into growing member lists: the
    /// oracle of the count-then-fill body.
    fn reference_random(num_entities: usize, num_parts: usize, seed: u64) -> Partitioning {
        let mut rng = SplitMix64::new(seed);
        let mut part_of = vec![0u16; num_entities];
        let mut local_idx = vec![0u32; num_entities];
        let mut members = vec![Vec::new(); num_parts];
        for e in 0..num_entities {
            let p = rng.gen_range(0..num_parts) as u16;
            part_of[e] = p;
            local_idx[e] = members[p as usize].len() as u32;
            members[p as usize].push(e as u32);
        }
        Partitioning { num_parts, part_of, local_idx, members }
    }

    #[test]
    fn random_partitioning_matches_the_push_by_push_reference() {
        for (n, parts, seed) in [(0, 1, 1), (1, 1, 2), (100, 4, 1), (37, 32, 9), (1000, 32, 7)] {
            let got = Partitioning::random(n, parts, seed);
            let want = reference_random(n, parts, seed);
            assert_eq!(got.num_parts, want.num_parts);
            assert_eq!(got.part_of, want.part_of, "({n}, {parts}, {seed})");
            assert_eq!(got.local_idx, want.local_idx, "({n}, {parts}, {seed})");
            assert_eq!(got.members, want.members, "({n}, {parts}, {seed})");
            assert!(got.members.iter().all(|m| m.capacity() == m.len()), "sized once");
        }
    }

    #[test]
    fn partitioning_covers_all_entities() {
        let p = Partitioning::random(100, 4, 1);
        assert_eq!(p.part_of.len(), 100);
        let total: usize = p.members.iter().map(Vec::len).sum();
        assert_eq!(total, 100);
        for (part, members) in p.members.iter().enumerate() {
            for (local, &g) in members.iter().enumerate() {
                assert_eq!(p.part_of[g as usize] as usize, part);
                assert_eq!(p.local_idx[g as usize] as usize, local);
            }
        }
    }

    /// The bucket sort the trainers use against a map built triple by
    /// triple, sorted by key: same keys, same triples in the same order.
    #[test]
    fn bucket_list_equals_the_sorted_map() {
        let ds = dataset();
        for (parts, seed) in [(1, 1), (4, 2), (7, 3)] {
            let p = Partitioning::random(ds.num_entities(), parts, seed);
            let mut map: HashMap<(u16, u16), Vec<DenseTriple>> = HashMap::new();
            for t in &ds.train {
                map.entry((p.part_of[t.h as usize], p.part_of[t.t as usize])).or_default().push(*t);
            }
            let mut want: Vec<((u16, u16), Vec<DenseTriple>)> = map.into_iter().collect();
            want.sort_by_key(|(k, _)| *k);
            let (sorted, buckets) = p.sort_into_buckets(&ds.train);
            assert_eq!(sorted.len(), ds.train.len(), "{parts} parts");
            let got: Vec<((u16, u16), Vec<DenseTriple>)> =
                buckets.iter().map(|b| (b.key, sorted[b.start..b.end].to_vec())).collect();
            assert_eq!(got, want, "{parts} parts");
        }
    }

    #[test]
    fn buckets_partition_the_edges() {
        let ds = dataset();
        let p = Partitioning::random(ds.num_entities(), 4, 2);
        let buckets = p.buckets(&ds.train);
        let total: usize = buckets.values().map(Vec::len).sum();
        assert_eq!(total, ds.train.len());
        for ((ph, pt), ts) in &buckets {
            for t in ts {
                assert_eq!(p.part_of[t.h as usize], *ph);
                assert_eq!(p.part_of[t.t as usize], *pt);
            }
        }
    }

    #[test]
    fn partitioned_training_reduces_loss() {
        let ds = dataset();
        let cfg =
            TrainConfig { dim: 16, epochs: 6, model: ModelKind::TransE, ..Default::default() };
        let (model, stats) = train_partitioned(&ds, &cfg, 4, 2);
        assert!(stats.buckets_trained > 0);
        let first = model.epoch_losses[0];
        let last = *model.epoch_losses.last().unwrap();
        assert!(last < first, "loss {first} -> {last}");
    }

    #[test]
    fn obs_round_metrics_deterministic_across_worker_counts() {
        let ds = dataset();
        let cfg = TrainConfig { dim: 16, epochs: 3, ..Default::default() };
        let snapshot_for = |workers: usize| {
            let registry = saga_core::obs::Registry::new();
            CheckpointedTrainer::new(cfg.clone(), 4, workers)
                .with_obs(registry.scope("embeddings"))
                .run(&ds, None)
                .unwrap();
            registry.snapshot()
        };
        let base = snapshot_for(1);
        assert!(base.counter("embeddings/rounds_completed") > 0);
        for workers in [2usize, 8] {
            let snap = snapshot_for(workers);
            // Round metrics are values, never clock deltas — identical at
            // any worker count. Only the concurrency high-water mark is
            // allowed to differ.
            for metric in ["round_wall_units", "round_buckets"] {
                let name = format!("embeddings/train-bucket/{metric}");
                assert_eq!(base.histogram(&name), snap.histogram(&name), "{name}");
            }
            for metric in ["rounds_completed", "buckets_trained", "bucket_attempts", "retries"] {
                let name = format!("embeddings/{metric}");
                assert_eq!(base.counter(&name), snap.counter(&name), "{name}");
            }
        }
    }

    #[test]
    fn parallel_and_sequential_quality_comparable() {
        let ds = dataset();
        let cfg = TrainConfig { dim: 16, epochs: 6, ..Default::default() };
        let (seq, _) = train_partitioned(&ds, &cfg, 4, 1);
        let (par, _) = train_partitioned(&ds, &cfg, 4, 4);
        // Both must converge to a similar loss scale.
        let l_seq = *seq.epoch_losses.last().unwrap();
        let l_par = *par.epoch_losses.last().unwrap();
        assert!(
            l_par < seq.epoch_losses[0],
            "parallel converges: {l_par} vs initial {}",
            seq.epoch_losses[0]
        );
        assert!((l_seq - l_par).abs() < l_seq.max(l_par), "same order of magnitude");
    }

    #[test]
    fn parallel_training_is_deterministic_across_worker_counts() {
        let ds = dataset();
        let cfg = TrainConfig { dim: 16, epochs: 3, ..Default::default() };
        let (base, _) = train_partitioned(&ds, &cfg, 4, 1);
        for workers in [2, 8] {
            let (m, _) = train_partitioned(&ds, &cfg, 4, workers);
            assert_eq!(m.epoch_losses, base.epoch_losses, "losses, workers={workers}");
            for i in 0..base.entities.len() {
                assert_eq!(m.entities.row(i), base.entities.row(i), "entity {i}, w={workers}");
            }
            for r in 0..base.relations.len() {
                assert_eq!(m.relations.row(r), base.relations.row(r), "relation {r}, w={workers}");
            }
        }
    }

    #[test]
    fn rounds_are_partition_disjoint_and_cover_all_buckets() {
        let ds = dataset();
        let p = Partitioning::random(ds.num_entities(), 6, 3);
        let buckets: Vec<((u16, u16), Vec<DenseTriple>)> =
            p.buckets(&ds.train).into_iter().collect();
        let rounds = pack_rounds(&buckets, 6);
        let mut seen = vec![false; buckets.len()];
        for round in &rounds {
            let mut used = [false; 6];
            for &i in round {
                assert!(!seen[i], "bucket {i} scheduled twice");
                seen[i] = true;
                let (ph, pt) = buckets[i].0;
                assert!(!used[ph as usize], "round reuses partition {ph}");
                used[ph as usize] = true;
                if pt != ph {
                    assert!(!used[pt as usize], "round reuses partition {pt}");
                    used[pt as usize] = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "every bucket scheduled");
    }

    #[test]
    fn workers_actually_overlap() {
        let ds = dataset();
        let cfg = TrainConfig { dim: 8, epochs: 2, ..Default::default() };
        let (_, stats) = train_partitioned(&ds, &cfg, 8, 4);
        assert!(
            stats.max_concurrency_observed >= 2,
            "no concurrency observed: {}",
            stats.max_concurrency_observed
        );
    }

    /// Distinct bucket keys over 1..=40 partitions in random order: from
    /// none to nearly every pair, self-pairs `(p, p)` included.
    fn bucket_keys(rng: &mut SplitMix64) -> (usize, Vec<(u16, u16)>) {
        let p = rng.gen_range(1usize..=40);
        let part = 0..p as u16;
        let mut keys = saga_testkit::vec(rng, 0..=2 * p * p, |rng| {
            (rng.gen_range(part.clone()), rng.gen_range(part.clone()))
        });
        let mut seen = HashSet::new();
        keys.retain(|k| seen.insert(*k));
        (p, keys)
    }

    /// First-fit yields exactly the greedy pass-per-round packing: the
    /// same rounds, each in the same order.
    #[test]
    fn first_fit_packs_the_reference_rounds() {
        check(128, 1, |rng| {
            let (num_parts, keys) = bucket_keys(rng);
            let list: Vec<((u16, u16), ())> = keys.into_iter().map(|k| (k, ())).collect();
            assert_eq!(pack_rounds(&list, num_parts), reference_pack_rounds(&list, num_parts));
        });
    }

    #[test]
    fn an_empty_bucket_list_packs_no_rounds() {
        for num_parts in [1, 7, 40] {
            assert!(pack_rounds::<()>(&[], num_parts).is_empty());
            assert!(reference_pack_rounds::<()>(&[], num_parts).is_empty());
        }
    }

    /// With a buffer, initialisation leaves every table on disk and no round
    /// holds more than `capacity` tables in memory, though it fills them.
    #[test]
    fn a_buffer_bounds_the_resident_tables() {
        let ds = dataset();
        let cfg = TrainConfig { dim: 8, epochs: 2, ..Default::default() };
        let dir = std::env::temp_dir()
            .join("saga-partition-tests")
            .join(format!("{}-bound", std::process::id()));
        let resident = |core: &TrainerCore| {
            core.tables.iter().filter(|t| !t.lock().expect("partition lock").is_empty()).count()
        };
        for capacity in [2, 3, 5] {
            let buffer = PartitionBuffer::new(capacity, &dir, 6).unwrap();
            let mut core = TrainerCore::new(&ds, &cfg, 6, Some(buffer)).unwrap();
            assert_eq!(resident(&core), 0, "capacity {capacity}: initialisation");
            let (mut rounds, mut most) = (Rounds::default(), 0);
            for epoch in 0..cfg.epochs {
                core.shuffle_epoch(cfg.seed, epoch);
                core.pack_rounds(&mut rounds);
                for ri in 0..rounds.len() {
                    core.page_in(rounds.round(ri)).unwrap();
                    most = most.max(resident(&core));
                    core.run_round(&cfg, epoch, rounds.round(ri), 1, &BTreeSet::new(), None);
                }
            }
            assert_eq!(most, capacity, "capacity {capacity}: most tables resident at once");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The round against the reference round, stepped side by side from the
    /// same core state through every round of three epochs: equal partition
    /// tables, relation table (data and AdaGrad), loss bits, outcome and
    /// touched partitions after every round — for each model at 1, 2 and 8
    /// workers, and once with a fault plan that quarantines buckets.
    #[test]
    fn round_matches_the_reference_round() {
        let ds = dataset();
        let injector = FaultInjector::new(FaultPlan::reliable(77).with_site(
            SITE_TRAIN_BUCKET,
            SiteFaults { permanent_rate: 0.2, ..SiteFaults::transient(0.2) },
        ));
        let mut cases: Vec<(ModelKind, usize, bool)> = Vec::new();
        for model in [ModelKind::TransE, ModelKind::DistMult, ModelKind::ComplEx] {
            for workers in [1, 2, 8] {
                cases.push((model, workers, false));
            }
        }
        cases.push((ModelKind::TransE, 2, true));
        for (model, workers, faulty) in cases {
            let cfg = TrainConfig { model, dim: 8, epochs: 3, negatives: 3, ..Default::default() };
            let num_parts = 5;
            let mut core = TrainerCore::new(&ds, &cfg, num_parts, None).unwrap();
            let mut reference = TrainerCore::new(&ds, &cfg, num_parts, None).unwrap();
            let faults =
                faulty.then(|| RoundFaults { injector: &injector, retry: RetryPolicy::default() });
            let mut quarantined = BTreeSet::new();
            let mut rounds = Rounds::default();
            for epoch in 0..cfg.epochs {
                core.shuffle_epoch(cfg.seed, epoch);
                reference.shuffle_epoch(cfg.seed, epoch);
                core.pack_rounds(&mut rounds);
                for ri in 0..rounds.len() {
                    let round = rounds.round(ri);
                    let what = format!("{model:?}, {workers} workers, epoch {epoch} round {ri}");
                    let got =
                        core.run_round(&cfg, epoch, round, workers, &quarantined, faults.as_ref());
                    let want = reference.reference_run_round(
                        &cfg,
                        epoch,
                        round,
                        workers,
                        &quarantined,
                        faults.as_ref(),
                    );
                    assert_eq!(got.loss.to_bits(), want.loss.to_bits(), "{what}: loss");
                    assert_eq!(got, want, "{what}: outcome");
                    assert_eq!(
                        core.relations.to_bytes(),
                        reference.relations.to_bytes(),
                        "{what}: relations"
                    );
                    for p in 0..num_parts {
                        assert_eq!(
                            core.tables[p].lock().expect("partition lock").to_bytes(),
                            reference.tables[p].lock().expect("partition lock").to_bytes(),
                            "{what}: partition {p}"
                        );
                    }
                    assert_eq!(core.touched, reference.touched, "{what}: touched partitions");
                    quarantined.extend(got.newly_quarantined);
                }
            }
            assert_eq!(faulty, !quarantined.is_empty(), "{model:?}: quarantine only under faults");
        }
    }
}
