//! Fault-tolerant ODKE runner: the pipeline of [`crate::runner::run_odke`]
//! rebuilt on top of a fallible [`DocumentSource`], with per-operation
//! retry (exponential backoff, deterministic jitter), per-site circuit
//! breakers, target quarantine, and a WAL-backed [`RunCheckpoint`] so a
//! killed run resumes processing only incomplete targets.
//!
//! Determinism contract: fault decisions are pure functions of
//! `(plan seed, site, operation key, attempt)` and every retry loop starts
//! its attempt counter at zero, so a resumed run observes byte-identical
//! fault behaviour for each remaining target as the uninterrupted run
//! would have. Circuit-breaker and retry-budget state is process-local and
//! deliberately *not* checkpointed — resume equivalence is exact whenever
//! breakers never trip and the budget never empties (the default
//! configuration), and best-effort otherwise.

use crate::extract::TargetExtractor;
use crate::profiler::FactTarget;
use crate::runner::{OdkeConfig, OdkeReport, TargetOutcome, TargetStatus};
use crate::synthesize::synthesize_queries;
use saga_annotation::AnnotationService;
use saga_core::fault::{
    BreakerConfig, BreakerSet, FaultInjector, RetryBudget, RetryPolicy, VirtualClock,
};
use saga_core::obs::{Scope, SpanTimer};
use saga_core::persist::Wal;
use saga_core::text::fnv1a;
use saga_core::{DocId, KnowledgeGraph, Result, Triple};
use saga_webcorpus::{DocumentSource, SITE_FETCH, SITE_SEARCH};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::path::Path;
use std::sync::Arc;

/// Fault-injection site name for candidate extraction (a local compute
/// step that can still crash on a pathological document).
pub const SITE_EXTRACT: &str = "extract";

// --------------------------------------------------------- checkpointing

/// Durable progress of one resilient ODKE run, keyed by target index.
///
/// Serializable so it can be persisted wholesale; the incremental path is
/// [`CheckpointLog`], which replays per-target WAL entries back into one
/// of these on open.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
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

    /// Number of targets processed so far.
    pub fn completed(&self) -> usize {
        self.done.len()
    }

    fn apply(&mut self, entry: CheckpointEntry) {
        self.docs_fetched.extend(entry.docs);
        self.facts_written += entry.facts_delta;
        self.retries += entry.retries_delta;
        self.done.insert(entry.index, entry.outcome);
    }
}

/// One completed target, as appended to the checkpoint WAL.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct CheckpointEntry {
    index: usize,
    outcome: TargetOutcome,
    /// Documents newly fetched while processing this target.
    docs: Vec<DocId>,
    facts_delta: usize,
    retries_delta: u64,
}

/// Append-only checkpoint journal over [`saga_core::persist::Wal`]. One
/// JSON-encoded [`CheckpointEntry`] per completed target; a torn tail
/// (killed mid-append) silently drops only the unfinished entry.
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
            let entry: CheckpointEntry = serde_json::from_slice(&frame)?;
            checkpoint.apply(entry);
        }
        Ok((Self { wal }, checkpoint))
    }

    fn record(&mut self, entry: &CheckpointEntry) -> Result<()> {
        self.wal.append(&serde_json::to_vec(entry)?)?;
        self.wal.sync()
    }
}

// --------------------------------------------------------------- runner

/// The resilient pipeline: `run_odke` semantics over a fallible source.
pub struct ResilientOdke<'a> {
    source: &'a dyn DocumentSource,
    cfg: OdkeConfig,
    retry: RetryPolicy,
    clock: VirtualClock,
    breakers: BreakerSet,
    budget: RetryBudget,
    extract_faults: Option<&'a FaultInjector>,
    max_targets: Option<usize>,
    obs: Option<Scope>,
}

impl<'a> ResilientOdke<'a> {
    /// A runner over `source` with default retry policy, a fresh virtual
    /// clock, default breakers, and an unlimited retry budget.
    pub fn new(source: &'a dyn DocumentSource, cfg: OdkeConfig) -> Self {
        Self {
            source,
            cfg,
            retry: RetryPolicy::default(),
            clock: VirtualClock::new(),
            breakers: BreakerSet::new(BreakerConfig::default()),
            budget: RetryBudget::unlimited(),
            extract_faults: None,
            max_targets: None,
            obs: None,
        }
    }

    /// Records run metrics into `scope`: per-document fetch+extract spans
    /// under `<scope>/extract/doc_ticks` (timed on the runner's virtual
    /// clock, deterministic because the target loop is sequential), lead
    /// annotations under `<scope>/extract/subject_confirmations`, loss
    /// counters under the `search`/`fetch` site names, and the
    /// [`OdkeReport`] counters at the end of the run.
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

    /// Caps the shared retry budget.
    pub fn with_budget(mut self, budget: RetryBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Injects faults into the (otherwise local) extraction step, keyed by
    /// document id at site [`SITE_EXTRACT`].
    pub fn with_extract_faults(mut self, injector: &'a FaultInjector) -> Self {
        self.extract_faults = Some(injector);
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
        let result = self.retry.run(&self.clock, &self.budget, salt, |attempt| {
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
        // Span ticks are measured on the runner's own virtual clock so they
        // reproduce bit-for-bit under fault injection.
        let obs_clock: Arc<dyn saga_core::obs::Clock> = Arc::new(self.clock.clone());
        let extract_hist = self.obs.as_ref().map(|s| s.child(SITE_EXTRACT).histogram("doc_ticks"));
        let confirmations_c =
            self.obs.as_ref().map(|s| s.child(SITE_EXTRACT).counter("subject_confirmations"));
        let queries_lost_c =
            self.obs.as_ref().map(|s| s.child(SITE_SEARCH).counter("queries_lost"));
        let docs_lost_c = self.obs.as_ref().map(|s| s.child(SITE_FETCH).counter("docs_lost"));
        let run_span = self
            .obs
            .as_ref()
            .map(|s| SpanTimer::start(s.histogram("run_ticks"), obs_clock.clone()));

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
                    extract_hist.as_ref().map(|h| SpanTimer::start(h.clone(), obs_clock.clone()));
                match self.run_retrying(doc.raw(), &mut retries_delta, |attempt| {
                    let page = self.source.fetch(doc, attempt)?;
                    if let Some(inj) = self.extract_faults {
                        inj.check(SITE_EXTRACT, doc.raw(), attempt)?;
                    }
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

            // 3. Corroborate + fuse, exactly as the infallible runner —
            //    unless nothing at all was retrieved, in which case the
            //    target is quarantined rather than scored on silence.
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
                    let value = w.value.clone().ok_or_else(|| {
                        saga_core::SagaError::Corrupt("winner lost its parsed value".into())
                    })?;
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
