//! The incremental, pausable construction pipeline (paper Sec. 5,
//! *Privacy*): "this pipeline can be paused and resumed at any point
//! without losing state, allowing deferral of the construction process in
//! favor of any other higher priority task."
//!
//! It is the crate's one entity resolver. Records arrive in batches, and
//! every batch runs the same stages, Ingest → Block → Pair → Match → Fuse.
//! The state remembers `base`, the index of the batch's first record. The
//! first build is the batch that starts from empty (`base` = 0); an
//! increment ([`ConstructionPipeline::begin_increment`]) re-enters the
//! stages at the old record count:
//! - **Ingest** appends the batch's records;
//! - **Block** keys the records from `base` on, then re-sorts the key
//!   list (the sort merges the old sorted run with the new keys);
//! - **Pair** emits only the pairs that touch a record at or past `base`;
//! - **Match** scores only those pairs;
//! - **Fuse** re-clusters every match so far.
//!
//! An increment therefore ends with the clusters of a full rebuild over
//! every record (verified by tests), having scored only its own pairs.
//! Every stage advances a cursor in small steps, and
//! [`ConstructionPipeline::checkpoint`] encodes the complete state
//! (`persist::codec`) between any two of them, in a first build and in an
//! increment alike. Resuming from that checkpoint yields byte-identical
//! results to an uninterrupted run (verified by property tests).

use crate::matching::{block_keys, cut_group, score_pair, BlockKey, UnionFind, MATCH_THRESHOLD};
use crate::sources::PersonObservation;
use saga_core::persist::codec::{self, BinCodec, Reader};
use saga_core::{Result, SagaError};

/// Pipeline stages, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Scanning source records into observations.
    Ingest,
    /// Emitting blocking keys per observation.
    Block,
    /// Generating candidate pairs from sorted key groups.
    Pair,
    /// Scoring candidate pairs.
    Match,
    /// Clustering + finalization.
    Fuse,
    /// Finished.
    Done,
}

impl BinCodec for Stage {
    fn enc(&self, out: &mut Vec<u8>) {
        out.push(match self {
            Stage::Ingest => 0,
            Stage::Block => 1,
            Stage::Pair => 2,
            Stage::Match => 3,
            Stage::Fuse => 4,
            Stage::Done => 5,
        });
    }
    fn dec(rd: &mut Reader<'_>) -> Result<Self> {
        Ok(match rd.u8()? {
            0 => Stage::Ingest,
            1 => Stage::Block,
            2 => Stage::Pair,
            3 => Stage::Match,
            4 => Stage::Fuse,
            5 => Stage::Done,
            b => return Err(SagaError::Corrupt(format!("invalid pipeline stage {b}"))),
        })
    }
}

/// The whole pipeline state: what a checkpoint encodes.
#[derive(Debug, Clone)]
struct PipelineState {
    stage: Stage,
    cursor: usize,
    /// Index of the first record of the batch in flight.
    base: usize,
    observations: Vec<PersonObservation>,
    /// Every record's blocking keys (sorted once Block is done).
    keyed: Vec<(BlockKey, usize)>,
    /// The batch's candidate pairs: those that touch a record `>= base`.
    pairs: Vec<(usize, usize)>,
    /// Every matched pair, of every batch so far.
    matched: Vec<(usize, usize)>,
    clusters: Vec<Vec<usize>>,
}

impl BinCodec for PipelineState {
    fn enc(&self, out: &mut Vec<u8>) {
        self.stage.enc(out);
        self.cursor.enc(out);
        self.base.enc(out);
        self.observations.enc(out);
        self.keyed.enc(out);
        self.pairs.enc(out);
        self.matched.enc(out);
        self.clusters.enc(out);
    }
    fn dec(rd: &mut Reader<'_>) -> Result<Self> {
        Ok(Self {
            stage: Stage::dec(rd)?,
            cursor: usize::dec(rd)?,
            base: usize::dec(rd)?,
            observations: Vec::dec(rd)?,
            keyed: Vec::dec(rd)?,
            pairs: Vec::dec(rd)?,
            matched: Vec::dec(rd)?,
            clusters: Vec::dec(rd)?,
        })
    }
}

/// The pausable construction pipeline over the records fed to it so far.
pub struct ConstructionPipeline {
    input: Vec<PersonObservation>,
    state: PipelineState,
}

impl ConstructionPipeline {
    /// Creates a pipeline whose first batch is `input`.
    pub fn new(input: Vec<PersonObservation>) -> Self {
        let state = PipelineState {
            stage: Stage::Done,
            cursor: 0,
            base: 0,
            observations: Vec::new(),
            keyed: Vec::new(),
            pairs: Vec::new(),
            matched: Vec::new(),
            clusters: Vec::new(),
        };
        let mut p = Self { input: Vec::new(), state };
        p.begin_increment(input);
        p
    }

    /// Current stage.
    pub fn stage(&self) -> Stage {
        self.state.stage
    }

    /// True when the pipeline has finished.
    pub fn is_done(&self) -> bool {
        self.state.stage == Stage::Done
    }

    /// Processes up to `budget` work items, then returns (yielding to
    /// higher-priority tasks). Work items are stage-local units:
    /// observations, keys, groups, pairs.
    pub fn step(&mut self, budget: usize) -> Stage {
        let mut remaining = budget.max(1);
        while remaining > 0 && !self.is_done() {
            let s = &mut self.state;
            let start = s.cursor;
            // Each stage does up to `remaining` items: how many it did, and
            // whether the stage is through.
            let (used, finished) = match s.stage {
                Stage::Ingest => {
                    s.cursor = (start + remaining).min(self.input.len());
                    s.observations.extend_from_slice(&self.input[start..s.cursor]);
                    (s.cursor - start, s.cursor == self.input.len())
                }
                Stage::Block => {
                    s.cursor = (start + remaining).min(s.observations.len());
                    for i in start..s.cursor {
                        s.keyed.extend(block_keys(&s.observations[i]).into_iter().map(|k| (k, i)));
                    }
                    (s.cursor - start, s.cursor == s.observations.len())
                }
                Stage::Pair => {
                    // One key group per work item.
                    let mut groups = 0;
                    while groups < remaining && s.cursor < s.keyed.len() {
                        s.cursor = cut_group(&s.keyed, s.cursor, s.base, &mut s.pairs);
                        groups += 1;
                    }
                    (groups, s.cursor >= s.keyed.len())
                }
                Stage::Match => {
                    s.cursor = (start + remaining).min(s.pairs.len());
                    for &(a, b) in &s.pairs[start..s.cursor] {
                        if score_pair(&s.observations[a], &s.observations[b]).score
                            >= MATCH_THRESHOLD
                        {
                            s.matched.push((a, b));
                        }
                    }
                    (s.cursor - start, s.cursor == s.pairs.len())
                }
                Stage::Fuse => {
                    let mut uf = UnionFind::new(s.observations.len());
                    for &(a, b) in &s.matched {
                        uf.union(a, b);
                    }
                    s.clusters = uf.clusters();
                    (1, true)
                }
                Stage::Done => break,
            };
            remaining -= used.max(1).min(remaining);
            if finished {
                // Deterministic transitions: the key list and the pair list
                // are sorted once their stage is through.
                (s.stage, s.cursor) = match s.stage {
                    Stage::Ingest => (Stage::Block, s.base),
                    Stage::Block => {
                        s.keyed.sort();
                        (Stage::Pair, 0)
                    }
                    Stage::Pair => {
                        s.pairs.sort_unstable();
                        s.pairs.dedup();
                        (Stage::Match, 0)
                    }
                    Stage::Match => (Stage::Fuse, 0),
                    Stage::Fuse | Stage::Done => (Stage::Done, 0),
                };
            }
        }
        self.state.stage
    }

    /// Runs to completion.
    pub fn run_to_completion(&mut self) {
        while !self.is_done() {
            self.step(usize::MAX / 2);
        }
    }

    /// Encodes the full pipeline state (the pause point).
    pub fn checkpoint(&self) -> Vec<u8> {
        codec::to_bytes(&self.state)
    }

    /// Restores a pipeline from a checkpoint over the same input: every
    /// batch fed to the checkpointed pipeline, in order. A checkpoint that
    /// does not decode is [`SagaError::Corrupt`].
    pub fn resume(input: Vec<PersonObservation>, checkpoint: &[u8]) -> Result<Self> {
        Ok(Self { input, state: codec::from_bytes(checkpoint)? })
    }

    /// The resolved clusters (valid once done).
    pub fn clusters(&self) -> &[Vec<usize>] {
        &self.state.clusters
    }

    /// The ingested observations (for fusion).
    pub fn observations(&self) -> &[PersonObservation] {
        &self.state.observations
    }

    /// A stable hash of the result, for equivalence checks.
    pub fn result_fingerprint(&self) -> u64 {
        saga_core::text::fnv1a(format!("{:?}", self.state.clusters).as_bytes())
    }

    /// Continuous construction: appends `batch` to a finished pipeline and
    /// re-enters the stages at the old record count, so that the next
    /// [`step`](Self::step)s block, pair and score only the new records'
    /// work (see the module doc). The increment pauses, checkpoints and
    /// resumes like a first build.
    ///
    /// # Panics
    /// Panics if the pipeline has not finished its current input.
    pub fn begin_increment(&mut self, batch: Vec<PersonObservation>) {
        assert!(self.is_done(), "finish the current input before incrementing");
        self.input.extend(batch);
        let s = &mut self.state;
        s.base = s.observations.len();
        (s.stage, s.cursor) = (Stage::Ingest, s.base);
        s.pairs.clear();
    }

    /// Runs one whole increment ([`begin_increment`](Self::begin_increment)
    /// and then to completion). Equivalent to a full rebuild over the union
    /// (verified by tests) at a fraction of the cost.
    ///
    /// # Panics
    /// Panics if the pipeline has not finished its current input.
    pub fn ingest_increment(&mut self, batch: Vec<PersonObservation>) -> IncrementReport {
        self.begin_increment(batch);
        self.run_to_completion();
        let s = &self.state;
        IncrementReport {
            new_observations: s.observations.len() - s.base,
            pairs_scored: s.pairs.len(),
            // A pair is `(low, high)`; this batch's pairs have `high >= base`.
            pairs_matched: s.matched.iter().filter(|&&(_, b)| b >= s.base).count(),
        }
    }
}

/// Outcome of one incremental ingest.
#[derive(Debug, Clone, Copy)]
pub struct IncrementReport {
    /// Observations added in this increment.
    pub new_observations: usize,
    /// Candidate pairs scored (only those touching a new record).
    pub pairs_scored: usize,
    /// Pairs that matched.
    pub pairs_matched: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sources::{generate_device_data, DeviceDataConfig};

    #[test]
    fn pipeline_reaches_done_and_clusters() {
        let (obs, truth) = generate_device_data(&DeviceDataConfig::tiny(41));
        let mut p = ConstructionPipeline::new(obs);
        p.run_to_completion();
        assert!(p.is_done());
        assert!(!p.clusters().is_empty());
        let diff = (p.clusters().len() as i64 - truth.persons.len() as i64).abs();
        assert!(diff <= (truth.persons.len() / 5) as i64);
    }

    #[test]
    fn tiny_steps_match_one_shot() {
        let (obs, _) = generate_device_data(&DeviceDataConfig::tiny(42));
        let mut one_shot = ConstructionPipeline::new(obs.clone());
        one_shot.run_to_completion();

        let mut stepped = ConstructionPipeline::new(obs);
        while !stepped.is_done() {
            stepped.step(3);
        }
        assert_eq!(stepped.result_fingerprint(), one_shot.result_fingerprint());
    }

    #[test]
    fn pause_resume_at_every_stage_is_lossless() {
        let (obs, _) = generate_device_data(&DeviceDataConfig::tiny(43));
        let mut reference = ConstructionPipeline::new(obs.clone());
        reference.run_to_completion();

        // Pause after each step, serialize, resume in a fresh pipeline.
        let mut p = ConstructionPipeline::new(obs.clone());
        let mut hops = 0;
        while !p.is_done() {
            p.step(7);
            let ckpt = p.checkpoint();
            p = ConstructionPipeline::resume(obs.clone(), &ckpt).unwrap();
            hops += 1;
            assert!(hops < 100_000, "pipeline must terminate");
        }
        assert_eq!(p.result_fingerprint(), reference.result_fingerprint());
        assert!(hops > 5, "the pipeline actually paused multiple times ({hops})");
    }

    #[test]
    fn incremental_ingest_equals_full_rebuild() {
        let (obs, _) = generate_device_data(&DeviceDataConfig::tiny(46));
        let split = obs.len() * 3 / 4;
        let (initial, late) = obs.split_at(split);

        // Incremental: build on the first 75%, then ingest the rest.
        let mut inc = ConstructionPipeline::new(initial.to_vec());
        inc.run_to_completion();
        let before_clusters = inc.clusters().len();
        let report = inc.ingest_increment(late.to_vec());
        assert_eq!(report.new_observations, obs.len() - split);
        assert!(report.pairs_scored > 0);

        // Full rebuild over everything.
        let mut full = ConstructionPipeline::new(obs.clone());
        full.run_to_completion();

        assert_eq!(inc.result_fingerprint(), full.result_fingerprint());
        // The increment only scored pairs touching new records — far fewer
        // than a full rebuild would.
        let full_pairs = {
            let mut p = ConstructionPipeline::new(obs.clone());
            p.run_to_completion();
            p.state.pairs.len()
        };
        assert!(
            report.pairs_scored < full_pairs,
            "incremental {} vs full {}",
            report.pairs_scored,
            full_pairs
        );
        assert!(inc.clusters().len() >= before_clusters);
    }

    #[test]
    fn an_increment_keys_once_and_scores_only_its_own_pairs() {
        let (obs, _) = generate_device_data(&DeviceDataConfig::tiny(48));
        let split = obs.len() / 2;
        let mut prefix = ConstructionPipeline::new(obs[..split].to_vec());
        prefix.run_to_completion();
        let mut full = ConstructionPipeline::new(obs.clone());
        full.run_to_completion();

        let mut inc = ConstructionPipeline::new(obs[..split].to_vec());
        inc.run_to_completion();
        let report = inc.ingest_increment(obs[split..].to_vec());
        // Every record is keyed once: the key list is the full rebuild's.
        assert_eq!(inc.state.keyed, full.state.keyed);
        // The increment scored exactly the full rebuild's pairs that the
        // prefix had not scored.
        let new_pairs: Vec<_> =
            full.state.pairs.iter().filter(|p| !prefix.state.pairs.contains(p)).copied().collect();
        assert!(!new_pairs.is_empty());
        assert_eq!(inc.state.pairs, new_pairs);
        assert_eq!(report.pairs_scored, new_pairs.len());
        assert_eq!(inc.state.matched.len(), full.state.matched.len());
        assert_eq!(prefix.state.matched.len() + report.pairs_matched, full.state.matched.len());
    }

    #[test]
    fn repeated_increments_accumulate() {
        let (obs, truth) = generate_device_data(&DeviceDataConfig::tiny(47));
        let third = obs.len() / 3;
        let mut p = ConstructionPipeline::new(obs[..third].to_vec());
        p.run_to_completion();
        p.ingest_increment(obs[third..2 * third].to_vec());
        p.ingest_increment(obs[2 * third..].to_vec());
        let mut full = ConstructionPipeline::new(obs);
        full.run_to_completion();
        assert_eq!(p.result_fingerprint(), full.result_fingerprint());
        let diff = (p.clusters().len() as i64 - truth.persons.len() as i64).abs();
        assert!(diff <= (truth.persons.len() / 5) as i64);
    }

    #[test]
    fn corrupt_checkpoint_is_rejected() {
        let (obs, _) = generate_device_data(&DeviceDataConfig::tiny(44));
        let r = ConstructionPipeline::resume(obs, b"not json");
        assert!(r.is_err());
    }

    #[test]
    fn stages_progress_in_order() {
        let (obs, _) = generate_device_data(&DeviceDataConfig::tiny(45));
        let mut p = ConstructionPipeline::new(obs);
        let mut seen = vec![p.stage()];
        while !p.is_done() {
            let s = p.step(10);
            if *seen.last().unwrap() != s {
                seen.push(s);
            }
        }
        assert_eq!(
            seen,
            vec![Stage::Ingest, Stage::Block, Stage::Pair, Stage::Match, Stage::Fuse, Stage::Done]
                .into_iter()
                .filter(|s| seen.contains(s))
                .collect::<Vec<_>>()
        );
        assert_eq!(*seen.last().unwrap(), Stage::Done);
    }
}
