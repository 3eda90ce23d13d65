//! The ODKE loop (Fig. 5: search → fetch → extract → corroborate → fuse),
//! written once, over a fallible [`DocumentSource`]: per-operation retry
//! (exponential backoff, deterministic jitter), per-site circuit breakers,
//! target quarantine, and a WAL-backed [`RunCheckpoint`] so a killed run
//! resumes processing only incomplete targets.
//!
//! The fault-free entry points ([`crate::runner::run_odke_obs`] and what
//! calls it) are this runner over a `ReliableSource` with a fresh checkpoint
//! and no journal: every status is `Ok`, no retry is spent and nothing is
//! quarantined. The fuse step below is the only one in the crate.
//!
//! Determinism contract: fault decisions are pure functions of
//! `(plan seed, site, operation key, attempt)` and every retry loop starts
//! its attempt counter at zero, so a resumed run observes byte-identical
//! fault behaviour for each remaining target as the uninterrupted run
//! would have. Circuit-breaker state is process-local and deliberately
//! *not* checkpointed — resume equivalence is exact whenever breakers never
//! trip (the default configuration), and best-effort otherwise.

use crate::corroborate::{EvidenceFeatures, ScoredValue};
use crate::extract::TargetExtractor;
use crate::profiler::FactTarget;
use crate::runner::{OdkeConfig, OdkeReport, TargetOutcome, TargetStatus};
use crate::synthesize::synthesize_queries;
use saga_annotation::AnnotationService;
use saga_core::fault::{BreakerConfig, BreakerSet, RetryPolicy, VirtualClock};
use saga_core::obs::{Scope, SpanTimer};
use saga_core::persist::codec::{BinCodec, Reader};
use saga_core::persist::Wal;
use saga_core::text::fnv1a;
use saga_core::{DocId, KnowledgeGraph, Result, SagaError, Triple};
use saga_webcorpus::{DocumentSource, SITE_FETCH, SITE_SEARCH};
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::path::Path;

/// Obs scope name of the per-document fetch + extract step
/// (`<scope>/extract/doc_ticks`, `<scope>/extract/subject_confirmations`).
pub const SITE_EXTRACT: &str = "extract";

// --------------------------------------------------------- checkpointing

/// Durable progress of one resilient ODKE run, keyed by target index.
///
/// Serializable so it can be persisted wholesale; the incremental path is
/// [`CheckpointLog`], which replays per-target WAL entries back into one
/// of these on open.
#[derive(Debug, Clone, Default)]
pub struct RunCheckpoint {
    /// Completed targets (quarantined ones included — retrying them in the
    /// same run would deterministically fail again), by target index.
    pub done: BTreeMap<usize, TargetOutcome>,
    /// Distinct documents successfully fetched so far.
    pub docs_fetched: BTreeSet<DocId>,
    /// Facts written into the KG so far.
    pub facts_written: usize,
    /// Transient retries spent so far.
    pub retries: u64,
}

impl RunCheckpoint {
    /// Whether target `index` has already been processed.
    pub fn is_done(&self, index: usize) -> bool {
        self.done.contains_key(&index)
    }

    fn apply(&mut self, entry: CheckpointEntry) {
        self.docs_fetched.extend(entry.docs);
        self.facts_written += entry.facts_delta;
        self.retries += entry.retries_delta;
        self.done.insert(entry.index, entry.outcome);
    }
}

/// One completed target, as appended to the checkpoint WAL.
#[derive(Debug, Clone)]
struct CheckpointEntry {
    index: usize,
    outcome: TargetOutcome,
    /// Documents newly fetched while processing this target.
    docs: Vec<DocId>,
    facts_delta: usize,
    retries_delta: u64,
}

/// Append-only checkpoint journal over [`saga_core::persist::Wal`]. One
/// [`BinCodec`]-encoded `CheckpointEntry` per completed target; a torn
/// tail (killed mid-append) silently drops only the unfinished entry.
pub struct CheckpointLog {
    wal: Wal,
}

impl CheckpointLog {
    /// Opens (or creates) the journal at `path` and replays it into the
    /// [`RunCheckpoint`] the interrupted run had reached.
    pub fn open(path: &Path) -> Result<(Self, RunCheckpoint)> {
        let (wal, frames) = Wal::open(path)?;
        let mut checkpoint = RunCheckpoint::default();
        for frame in frames {
            checkpoint.apply(CheckpointEntry::dec(&mut Reader::new(&frame))?);
        }
        Ok((Self { wal }, checkpoint))
    }

    fn record(&mut self, entry: &CheckpointEntry) -> Result<()> {
        let mut frame = Vec::new();
        entry.enc(&mut frame);
        self.wal.append(&frame)?;
        self.wal.sync()
    }
}

// ----------------------------------------------------------------- codec

// Counts are `usize` in memory and `u64` in the journal.
fn dec_usize(rd: &mut Reader<'_>) -> Result<usize> {
    usize::try_from(u64::dec(rd)?)
        .map_err(|_| SagaError::Corrupt("checkpoint count overflows usize".into()))
}

impl BinCodec for EvidenceFeatures {
    fn enc(&self, out: &mut Vec<u8>) {
        for x in self.as_array() {
            x.enc(out);
        }
    }
    fn dec(rd: &mut Reader<'_>) -> Result<Self> {
        Ok(EvidenceFeatures {
            support: f32::dec(rd)?,
            max_confidence: f32::dec(rd)?,
            mean_confidence: f32::dec(rd)?,
            mean_quality: f32::dec(rd)?,
            subject_confirmed_frac: f32::dec(rd)?,
            extractor_diversity: f32::dec(rd)?,
        })
    }
}

impl BinCodec for ScoredValue {
    fn enc(&self, out: &mut Vec<u8>) {
        self.value_text.enc(out);
        self.value.enc(out);
        self.features.enc(out);
        self.probability.enc(out);
        (self.support_count as u64).enc(out);
    }
    fn dec(rd: &mut Reader<'_>) -> Result<Self> {
        Ok(ScoredValue {
            value_text: BinCodec::dec(rd)?,
            value: BinCodec::dec(rd)?,
            features: BinCodec::dec(rd)?,
            probability: f32::dec(rd)?,
            support_count: dec_usize(rd)?,
        })
    }
}

const STATUS_OK: u8 = 0;
const STATUS_DEGRADED: u8 = 1;
const STATUS_SKIPPED: u8 = 2;

impl BinCodec for TargetStatus {
    fn enc(&self, out: &mut Vec<u8>) {
        match self {
            TargetStatus::Ok => out.push(STATUS_OK),
            TargetStatus::Degraded { queries_lost, docs_lost } => {
                out.push(STATUS_DEGRADED);
                (*queries_lost as u64).enc(out);
                (*docs_lost as u64).enc(out);
            }
            TargetStatus::Skipped { error } => {
                out.push(STATUS_SKIPPED);
                error.enc(out);
            }
        }
    }
    fn dec(rd: &mut Reader<'_>) -> Result<Self> {
        match rd.u8()? {
            STATUS_OK => Ok(TargetStatus::Ok),
            STATUS_DEGRADED => Ok(TargetStatus::Degraded {
                queries_lost: dec_usize(rd)?,
                docs_lost: dec_usize(rd)?,
            }),
            STATUS_SKIPPED => Ok(TargetStatus::Skipped { error: BinCodec::dec(rd)? }),
            b => Err(SagaError::Corrupt(format!("invalid target status tag {b:#04x}"))),
        }
    }
}

impl BinCodec for TargetOutcome {
    fn enc(&self, out: &mut Vec<u8>) {
        self.entity.enc(out);
        self.predicate.enc(out);
        self.winner.enc(out);
        self.scored.enc(out);
        (self.docs_examined as u64).enc(out);
        self.status.enc(out);
    }
    fn dec(rd: &mut Reader<'_>) -> Result<Self> {
        Ok(TargetOutcome {
            entity: BinCodec::dec(rd)?,
            predicate: BinCodec::dec(rd)?,
            winner: BinCodec::dec(rd)?,
            scored: BinCodec::dec(rd)?,
            docs_examined: dec_usize(rd)?,
            status: BinCodec::dec(rd)?,
        })
    }
}

impl BinCodec for CheckpointEntry {
    fn enc(&self, out: &mut Vec<u8>) {
        (self.index as u64).enc(out);
        self.outcome.enc(out);
        self.docs.enc(out);
        (self.facts_delta as u64).enc(out);
        self.retries_delta.enc(out);
    }
    fn dec(rd: &mut Reader<'_>) -> Result<Self> {
        Ok(CheckpointEntry {
            index: dec_usize(rd)?,
            outcome: BinCodec::dec(rd)?,
            docs: BinCodec::dec(rd)?,
            facts_delta: dec_usize(rd)?,
            retries_delta: u64::dec(rd)?,
        })
    }
}

// --------------------------------------------------------------- runner

/// The ODKE pipeline over a source that may fail.
pub struct ResilientOdke<'a> {
    source: &'a dyn DocumentSource,
    cfg: OdkeConfig,
    retry: RetryPolicy,
    clock: VirtualClock,
    breakers: BreakerSet,
    max_targets: Option<usize>,
    obs: Option<Scope>,
}

impl<'a> ResilientOdke<'a> {
    /// A runner over `source` with default retry policy, a fresh virtual
    /// clock and default breakers.
    pub fn new(source: &'a dyn DocumentSource, cfg: OdkeConfig) -> Self {
        Self {
            source,
            cfg,
            retry: RetryPolicy::default(),
            clock: VirtualClock::new(),
            breakers: BreakerSet::new(BreakerConfig::default()),
            max_targets: None,
            obs: None,
        }
    }

    /// Records run metrics into `scope`: a whole-run `run_ticks` span and
    /// per-document fetch+extract spans under `<scope>/extract/doc_ticks`,
    /// both on the scope's clock (the target loop is sequential, so the
    /// spans are deterministic under a virtual one); lead annotations under
    /// `<scope>/extract/subject_confirmations`; loss counters under the
    /// `search`/`fetch` site names; and the [`OdkeReport`] counters at the
    /// end of the run.
    pub fn with_obs(mut self, scope: Scope) -> Self {
        self.obs = Some(scope);
        self
    }

    /// Overrides the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Shares a virtual clock (pass the injector's clock so backoff and
    /// breaker cooldowns see injected latency).
    pub fn with_clock(mut self, clock: VirtualClock) -> Self {
        self.clock = clock;
        self
    }

    /// Overrides the circuit-breaker configuration.
    pub fn with_breakers(mut self, cfg: BreakerConfig) -> Self {
        self.breakers = BreakerSet::new(cfg);
        self
    }

    /// Processes at most `n` *new* targets, then stops — the test hook for
    /// simulating a killed run.
    pub fn with_max_targets(mut self, n: usize) -> Self {
        self.max_targets = Some(n);
        self
    }

    /// The runner's virtual clock.
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// Runs `op` under the retry policy, accumulating the retries it spent
    /// into `retries`.
    fn run_retrying<T>(
        &self,
        salt: u64,
        retries: &mut u64,
        mut op: impl FnMut(u32) -> Result<T>,
    ) -> Result<T> {
        let mut last_attempt = 0;
        let result = self.retry.run(&self.clock, salt, |attempt| {
            last_attempt = attempt;
            op(attempt)
        });
        *retries += u64::from(last_attempt);
        result
    }

    /// Runs the pipeline over `targets`, skipping those already recorded
    /// in `checkpoint` and appending each newly completed target to `log`
    /// (when given) before moving on. Accepted facts are written into
    /// `kg`; the returned report covers everything in `checkpoint`,
    /// including work done by previous (interrupted) runs.
    pub fn run(
        &self,
        kg: &mut KnowledgeGraph,
        service: &AnnotationService,
        targets: &[FactTarget],
        checkpoint: &mut RunCheckpoint,
        mut log: Option<&mut CheckpointLog>,
    ) -> Result<OdkeReport> {
        let src = kg.register_source("odke");
        let mut processed = 0usize;
        let doc_ticks =
            self.obs.as_ref().map(|s| (s.child(SITE_EXTRACT).histogram("doc_ticks"), s.clock()));
        let confirmations_c =
            self.obs.as_ref().map(|s| s.child(SITE_EXTRACT).counter("subject_confirmations"));
        let queries_lost_c =
            self.obs.as_ref().map(|s| s.child(SITE_SEARCH).counter("queries_lost"));
        let docs_lost_c = self.obs.as_ref().map(|s| s.child(SITE_FETCH).counter("docs_lost"));
        let run_span = self.obs.as_ref().map(|s| s.span("run_ticks"));

        for (index, target) in targets.iter().enumerate() {
            if checkpoint.is_done(index) {
                continue;
            }
            if self.max_targets.is_some_and(|max| processed >= max) {
                break;
            }
            processed += 1;

            let mut retries_delta = 0u64;
            let mut queries_lost = 0usize;
            let mut docs_lost = 0usize;
            let mut last_error = String::new();

            // 1. Search: each synthesized query independently retried;
            //    a query that never succeeds costs its hits, not the run.
            let search_breaker = self.breakers.breaker(SITE_SEARCH);
            let mut docs: Vec<DocId> = Vec::new();
            let mut seen = HashSet::new();
            for q in synthesize_queries(kg, target) {
                if !search_breaker.allow(self.clock.now_ms()) {
                    queries_lost += 1;
                    last_error = format!("{SITE_SEARCH} circuit open");
                    continue;
                }
                let salt = fnv1a(q.text.as_bytes());
                match self.run_retrying(salt, &mut retries_delta, |attempt| {
                    self.source.search(&q.text, self.cfg.docs_per_query, attempt)
                }) {
                    Ok(hits) => {
                        search_breaker.record(self.clock.now_ms(), true);
                        for hit in hits {
                            if seen.insert(hit.doc) {
                                docs.push(hit.doc);
                            }
                        }
                    }
                    Err(e) => {
                        search_breaker.record(self.clock.now_ms(), false);
                        queries_lost += 1;
                        last_error = e.to_string();
                    }
                }
            }

            // 2. Fetch + extract: per-document retry; a document that
            //    cannot be fetched or extracted costs its evidence only. The
            //    per-target extraction state is built once, outside the
            //    retry closure, so every page and every retried attempt
            //    reuses it.
            let fetch_breaker = self.breakers.breaker(SITE_FETCH);
            let mut extractor = TargetExtractor::new(kg, service, target.entity, target.predicate);
            let mut fetched: Vec<DocId> = Vec::new();
            let mut candidates = Vec::new();
            for &doc in &docs {
                if !fetch_breaker.allow(self.clock.now_ms()) {
                    docs_lost += 1;
                    last_error = format!("{SITE_FETCH} circuit open");
                    continue;
                }
                let doc_span =
                    doc_ticks.as_ref().map(|(h, c)| SpanTimer::start(h.clone(), c.clone()));
                match self.run_retrying(doc.raw(), &mut retries_delta, |attempt| {
                    let page = self.source.fetch(doc, attempt)?;
                    Ok(extractor.extract(page))
                }) {
                    Ok(found) => {
                        fetch_breaker.record(self.clock.now_ms(), true);
                        fetched.push(doc);
                        candidates.extend(found);
                    }
                    Err(e) => {
                        fetch_breaker.record(self.clock.now_ms(), false);
                        docs_lost += 1;
                        last_error = e.to_string();
                    }
                }
                drop(doc_span);
            }
            if let Some(c) = &queries_lost_c {
                c.add(queries_lost as u64);
            }
            if let Some(c) = &docs_lost_c {
                c.add(docs_lost as u64);
            }
            if let Some(c) = &confirmations_c {
                c.add(extractor.confirmations());
            }

            // 3. Corroborate + fuse — unless nothing at all was retrieved,
            //    in which case the target is quarantined rather than scored
            //    on silence.
            let lossy = queries_lost > 0 || docs_lost > 0;
            let status = if !lossy {
                TargetStatus::Ok
            } else if fetched.is_empty() {
                TargetStatus::Skipped { error: last_error }
            } else {
                TargetStatus::Degraded { queries_lost, docs_lost }
            };

            let mut facts_delta = 0usize;
            let (winner, scored) = if matches!(status, TargetStatus::Skipped { .. }) {
                (None, Vec::new())
            } else {
                let scored = self.cfg.corroborator.corroborate(&candidates);
                let winner = scored
                    .iter()
                    .find(|s| s.probability >= self.cfg.min_probability && s.value.is_some())
                    .cloned();
                if let Some(w) = &winner {
                    let value = w
                        .value
                        .clone()
                        .ok_or_else(|| SagaError::Corrupt("winner lost its parsed value".into()))?;
                    // Single-cardinality predicates are *replaced*: a
                    // refreshed value supersedes the stale one (paper
                    // Sec. 4, freshness).
                    let info = kg.ontology().predicate(target.predicate);
                    if info.cardinality == saga_core::Cardinality::Single {
                        for old in kg.objects(target.entity, target.predicate) {
                            if !old.same_as(&value) {
                                kg.remove(&Triple {
                                    subject: target.entity,
                                    predicate: target.predicate,
                                    object: old,
                                });
                            }
                        }
                    }
                    kg.insert_with(
                        Triple {
                            subject: target.entity,
                            predicate: target.predicate,
                            object: value,
                        },
                        src,
                        w.probability,
                    );
                    facts_delta = 1;
                }
                (winner, scored)
            };

            let entry = CheckpointEntry {
                index,
                outcome: TargetOutcome {
                    entity: target.entity,
                    predicate: target.predicate,
                    winner,
                    scored,
                    docs_examined: fetched.len(),
                    status,
                },
                docs: fetched
                    .iter()
                    .filter(|d| !checkpoint.docs_fetched.contains(d))
                    .copied()
                    .collect(),
                facts_delta,
                retries_delta,
            };
            if let Some(log) = log.as_deref_mut() {
                log.record(&entry)?;
            }
            checkpoint.apply(entry);
        }
        kg.commit();

        let outcomes: Vec<TargetOutcome> = checkpoint.done.values().cloned().collect();
        let quarantined = checkpoint
            .done
            .iter()
            .filter(|(_, o)| matches!(o.status, TargetStatus::Skipped { .. }))
            .map(|(&i, _)| i)
            .collect();
        let report = OdkeReport {
            outcomes,
            distinct_docs_fetched: checkpoint.docs_fetched.len(),
            corpus_size: self.source.corpus_size(),
            facts_written: checkpoint.facts_written,
            retries: checkpoint.retries,
            quarantined,
        };
        if let Some(scope) = &self.obs {
            report.record_to(scope);
        }
        drop(run_span);
        Ok(report)
    }
}
