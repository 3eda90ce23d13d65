//! The end-to-end ODKE pipeline (Fig. 5): targets → query synthesis → web
//! search → extraction → corroboration → fact fusion into the KG.

use crate::corroborate::{Corroborator, EvidenceFeatures, ScoredValue};
use crate::extract::TargetExtractor;
use crate::profiler::FactTarget;
use crate::synthesize::synthesize_queries;
use saga_annotation::AnnotationService;
use saga_core::obs::{Registry, Scope, SpanTimer};
use saga_core::{DeltaBatch, DocId, EntityId, KnowledgeGraph, PredicateId, Triple};
use saga_webcorpus::{Corpus, SearchEngine};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Pipeline configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OdkeConfig {
    /// Top search hits fetched per synthesized query.
    pub docs_per_query: usize,
    /// Minimum corroboration probability to accept a value.
    pub min_probability: f32,
    /// The corroboration model.
    pub corroborator: Corroborator,
}

impl Default for OdkeConfig {
    fn default() -> Self {
        Self { docs_per_query: 5, min_probability: 0.5, corroborator: Corroborator::default() }
    }
}

/// How a target fared against the substrate's failures.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum TargetStatus {
    /// Every search, fetch and extraction succeeded.
    #[default]
    Ok,
    /// The target was processed, but some evidence was lost to failures
    /// that retries could not clear — the outcome may rest on fewer
    /// documents than a clean run would have used.
    Degraded {
        /// Queries whose search never succeeded.
        queries_lost: usize,
        /// Documents that could not be fetched or extracted from.
        docs_lost: usize,
    },
    /// Nothing could be retrieved for the target; it was quarantined for a
    /// later run instead of aborting the pipeline.
    Skipped {
        /// The terminal error.
        error: String,
    },
}

/// Outcome for one target.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TargetOutcome {
    /// The entity concerned.
    pub entity: EntityId,
    /// The predicate.
    pub predicate: PredicateId,
    /// Best value, if any cleared the probability bar.
    pub winner: Option<ScoredValue>,
    /// All scored values (diagnostics).
    pub scored: Vec<ScoredValue>,
    /// Documents fetched for this target.
    pub docs_examined: usize,
    /// Failure/degradation status (always `Ok` on the infallible path).
    #[serde(default)]
    pub status: TargetStatus,
}

/// Report of one ODKE run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OdkeReport {
    /// Per-target outcomes.
    pub outcomes: Vec<TargetOutcome>,
    /// Distinct documents fetched across all targets — the "volume
    /// reduction" numerator (denominator = corpus size).
    pub distinct_docs_fetched: usize,
    /// Total pages in the corpus.
    pub corpus_size: usize,
    /// Facts written into the KG.
    pub facts_written: usize,
    /// Transient retries spent across all targets (0 on the infallible path).
    #[serde(default)]
    pub retries: u64,
    /// Indices into the target list that were quarantined as
    /// [`TargetStatus::Skipped`] (empty on the infallible path).
    #[serde(default)]
    pub quarantined: Vec<usize>,
}

impl OdkeReport {
    /// Fraction of the corpus the targeted pipeline actually touched.
    pub fn volume_fraction(&self) -> f64 {
        if self.corpus_size == 0 {
            0.0
        } else {
            self.distinct_docs_fetched as f64 / self.corpus_size as f64
        }
    }

    /// Record this run's outcome through an obs scope (call once per run):
    /// counters `targets`, `facts_written`, `docs_fetched`, `retries`,
    /// `quarantined`, plus a `docs_examined` per-target histogram. All values
    /// are deterministic for a fixed fault seed.
    pub fn record_to(&self, scope: &Scope) {
        scope.counter("targets").add(self.outcomes.len() as u64);
        scope.counter("facts_written").add(self.facts_written as u64);
        scope.counter("docs_fetched").add(self.distinct_docs_fetched as u64);
        scope.counter("retries").add(self.retries);
        scope.counter("quarantined").add(self.quarantined.len() as u64);
        let docs_examined = scope.histogram("docs_examined");
        for outcome in &self.outcomes {
            docs_examined.record(outcome.docs_examined as u64);
        }
    }
}

/// Gathers candidate documents for a target via query synthesis + search.
pub fn find_documents(
    kg: &KnowledgeGraph,
    search: &SearchEngine,
    target: &FactTarget,
    docs_per_query: usize,
) -> Vec<DocId> {
    let mut docs: Vec<DocId> = Vec::new();
    let mut seen = HashSet::new();
    for q in synthesize_queries(kg, target) {
        for hit in search.search(&q.text, docs_per_query) {
            if seen.insert(hit.doc) {
                docs.push(hit.doc);
            }
        }
    }
    docs
}

/// Restricts a full target list to the targets dirtied by a delta pass:
/// exactly those whose entity is in the batch's dirty set — i.e. an
/// evidence page mentioning the entity changed, or the entity's graph
/// facts changed. Relative order (importance ranking) is preserved, so a
/// delta run processes the same targets the full run would, minus the
/// clean ones.
pub fn select_delta_targets(targets: &[FactTarget], batch: &DeltaBatch) -> Vec<FactTarget> {
    targets.iter().filter(|t| batch.dirty_entities.contains(&t.entity)).copied().collect()
}

/// Delta extraction: [`run_odke_obs`] over only the targets
/// [`select_delta_targets`] keeps for `batch`, recording the
/// `targets_reextracted` counter into `delta_scope` (expected: the shared
/// `delta/` scope). An interrupted delta run resumes exactly like a full
/// one — feed the same selected list through
/// [`ResilientOdke::run`](crate::resilient::ResilientOdke::run) with its
/// checkpoint log.
#[allow(clippy::too_many_arguments)]
pub fn run_odke_delta_obs(
    kg: &mut KnowledgeGraph,
    service: &AnnotationService,
    search: &SearchEngine,
    corpus: &Corpus,
    targets: &[FactTarget],
    batch: &DeltaBatch,
    cfg: &OdkeConfig,
    scope: &Scope,
    delta_scope: &Scope,
) -> OdkeReport {
    let selected = select_delta_targets(targets, batch);
    delta_scope.counter("targets_reextracted").add(selected.len() as u64);
    run_odke_obs(kg, service, search, corpus, &selected, cfg, scope)
}

/// Runs the full pipeline over `targets`, writing accepted facts into `kg`.
pub fn run_odke(
    kg: &mut KnowledgeGraph,
    service: &AnnotationService,
    search: &SearchEngine,
    corpus: &Corpus,
    targets: &[FactTarget],
    cfg: &OdkeConfig,
) -> OdkeReport {
    let registry = Registry::new();
    run_odke_obs(kg, service, search, corpus, targets, cfg, &registry.scope("odke"))
}

/// [`run_odke`] recording through an obs scope: a per-document extraction
/// latency histogram under `<scope>/extract/doc_ticks` (the target loop is
/// sequential, so spans are deterministic under a virtual clock), the lead
/// annotations extraction paid for under `<scope>/extract/subject_confirmations`
/// (one per candidate-bearing page, not one per fetched page), a whole-run
/// `run_ticks` span, and the [`OdkeReport`] counters.
pub fn run_odke_obs(
    kg: &mut KnowledgeGraph,
    service: &AnnotationService,
    search: &SearchEngine,
    corpus: &Corpus,
    targets: &[FactTarget],
    cfg: &OdkeConfig,
    scope: &Scope,
) -> OdkeReport {
    let clock = scope.clock();
    let extract_scope = scope.child("extract");
    let extract_hist = extract_scope.histogram("doc_ticks");
    let confirmations = extract_scope.counter("subject_confirmations");
    let run_span = SpanTimer::start(scope.histogram("run_ticks"), clock.clone());
    let src = kg.register_source("odke");
    let mut outcomes = Vec::with_capacity(targets.len());
    let mut all_docs: HashSet<DocId> = HashSet::new();
    let mut facts_written = 0;

    for target in targets {
        let docs = find_documents(kg, search, target, cfg.docs_per_query);
        all_docs.extend(docs.iter().copied());
        let mut extractor = TargetExtractor::new(kg, service, target.entity, target.predicate);
        let mut candidates = Vec::new();
        for &doc in &docs {
            let doc_span = SpanTimer::start(extract_hist.clone(), clock.clone());
            candidates.extend(extractor.extract(corpus.page(doc)));
            doc_span.stop();
        }
        confirmations.add(extractor.confirmations());
        let scored = cfg.corroborator.corroborate(&candidates);
        let winner = scored
            .iter()
            .find(|s| s.probability >= cfg.min_probability && s.value.is_some())
            .cloned();
        if let Some(w) = &winner {
            let value = w.value.clone().expect("winner has parsed value");
            // Single-cardinality predicates are *replaced*: a refreshed
            // value supersedes the stale one (paper Sec. 4, freshness).
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
                Triple { subject: target.entity, predicate: target.predicate, object: value },
                src,
                w.probability,
            );
            facts_written += 1;
        }
        outcomes.push(TargetOutcome {
            entity: target.entity,
            predicate: target.predicate,
            winner,
            scored,
            docs_examined: docs.len(),
            status: TargetStatus::Ok,
        });
    }
    kg.commit();

    let report = OdkeReport {
        outcomes,
        distinct_docs_fetched: all_docs.len(),
        corpus_size: corpus.len(),
        facts_written,
        retries: 0,
        quarantined: Vec::new(),
    };
    report.record_to(scope);
    run_span.stop();
    report
}

/// Calibrates the corroborator on targets whose true value is known: runs
/// retrieval+extraction, labels each scored value by string equality with
/// the truth, and trains the logistic model (the "trained machine learning
/// model" of Sec. 4).
pub fn calibrate_corroborator(
    kg: &KnowledgeGraph,
    service: &AnnotationService,
    search: &SearchEngine,
    corpus: &Corpus,
    labelled: &[(FactTarget, String)],
    docs_per_query: usize,
) -> Corroborator {
    let mut examples: Vec<(EvidenceFeatures, bool)> = Vec::new();
    for (target, truth) in labelled {
        let mut extractor = TargetExtractor::new(kg, service, target.entity, target.predicate);
        let mut candidates = Vec::new();
        for doc in find_documents(kg, search, target, docs_per_query) {
            candidates.extend(extractor.extract(corpus.page(doc)));
        }
        for (value_text, features, _) in crate::corroborate::featurize(&candidates) {
            examples.push((features, &value_text == truth));
        }
    }
    Corroborator::train(&examples, 400, 0.5)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::extract::extract_from_page;
    use crate::profiler::TargetReason;
    use saga_annotation::{LinkerConfig, Tier};
    use saga_core::synth::{generate, SynthConfig};
    use saga_core::{Date, Value};
    use saga_webcorpus::{generate_corpus, CorpusConfig};

    fn setup() -> (
        saga_core::synth::SynthKg,
        Corpus,
        saga_webcorpus::CorpusTruth,
        AnnotationService,
        SearchEngine,
    ) {
        let s = generate(&SynthConfig::tiny(231));
        let extra = vec![(
            s.scenario.mw_singer,
            s.preds.date_of_birth,
            Value::Date(Date::new(1979, 7, 23).unwrap()),
        )];
        let (c, t) = generate_corpus(&s, &extra, &CorpusConfig::tiny(17));
        let svc = AnnotationService::build(&s.kg, LinkerConfig::tier(Tier::T2Contextual));
        let search = SearchEngine::build(&c);
        (s, c, t, svc, search)
    }

    #[test]
    fn fig6_scenario_recovers_the_singer_dob() {
        let (s, c, _t, svc, search) = setup();
        let mut kg = s.kg.clone();
        let target = FactTarget {
            entity: s.scenario.mw_singer,
            predicate: s.preds.date_of_birth,
            reason: TargetReason::CoverageGap,
            importance: 1.0,
        };
        let report = run_odke(&mut kg, &svc, &search, &c, &[target], &OdkeConfig::default());
        let outcome = &report.outcomes[0];
        let winner = outcome.winner.as_ref().expect("a DOB must be found");
        assert_eq!(
            winner.value_text, "1979-07-23",
            "must pick the singer's DOB, not the actress's 1980-09-09: {:?}",
            outcome.scored
        );
        // The fact is now in the KG with ODKE provenance.
        let got = kg.object(s.scenario.mw_singer, s.preds.date_of_birth);
        assert_eq!(got, Some(Value::Date(Date::new(1979, 7, 23).unwrap())));
        assert_eq!(report.facts_written, 1);
    }

    #[test]
    fn targeted_search_touches_a_small_corpus_fraction() {
        let (s, c, _t, svc, search) = setup();
        let mut kg = s.kg.clone();
        let targets: Vec<FactTarget> = s.people[..10]
            .iter()
            .map(|&e| FactTarget {
                entity: e,
                predicate: s.preds.date_of_birth,
                reason: TargetReason::CoverageGap,
                importance: 1.0,
            })
            .collect();
        let report = run_odke(&mut kg, &svc, &search, &c, &targets, &OdkeConfig::default());
        assert!(
            report.volume_fraction() < 0.5,
            "targeted search must not scan the whole corpus: {}",
            report.volume_fraction()
        );
        assert!(report.distinct_docs_fetched > 0);
    }

    #[test]
    fn lead_annotation_is_paid_per_candidate_page_not_per_fetched_page() {
        let (s, c, _t, svc, search) = setup();
        let targets: Vec<FactTarget> = s.people[..10]
            .iter()
            .map(|&e| FactTarget {
                entity: e,
                predicate: s.preds.date_of_birth,
                reason: TargetReason::CoverageGap,
                importance: 1.0,
            })
            .collect();
        let cfg = OdkeConfig::default();
        let mut candidate_pages = 0u64;
        for t in &targets {
            for doc in find_documents(&s.kg, &search, t, cfg.docs_per_query) {
                let found = extract_from_page(&s.kg, &svc, c.page(doc), t.entity, t.predicate);
                candidate_pages += u64::from(!found.is_empty());
            }
        }
        let reg = Registry::new();
        let mut kg = s.kg.clone();
        let report = run_odke_obs(&mut kg, &svc, &search, &c, &targets, &cfg, &reg.scope("odke"));
        let docs_examined: u64 = report.outcomes.iter().map(|o| o.docs_examined as u64).sum();
        let snapshot = reg.snapshot();
        let confirmations = snapshot.counter("odke/extract/subject_confirmations");
        assert_eq!(snapshot.histogram("odke/extract/doc_ticks").unwrap().count(), docs_examined);
        assert!(confirmations > 0 && confirmations <= candidate_pages);
        assert!(
            candidate_pages < docs_examined,
            "{confirmations} confirmations, {candidate_pages} candidate pages, {docs_examined} fetched"
        );
    }

    #[test]
    fn delta_selection_reextracts_only_dirty_targets() {
        let (s, _c, _t, _svc, _search) = setup();
        let targets: Vec<FactTarget> = s.people[..10]
            .iter()
            .map(|&e| FactTarget {
                entity: e,
                predicate: s.preds.date_of_birth,
                reason: TargetReason::CoverageGap,
                importance: 1.0,
            })
            .collect();
        let mut batch = DeltaBatch::empty(0);
        batch.mark_entity(s.people[2]);
        batch.mark_entity(s.people[7]);
        batch.mark_entity(s.people[40]); // dirty but untargeted
        let selected = select_delta_targets(&targets, &batch);
        assert_eq!(
            selected.iter().map(|t| t.entity).collect::<Vec<_>>(),
            vec![s.people[2], s.people[7]],
            "only dirty targeted entities survive, in original order"
        );
        assert!(select_delta_targets(&targets, &DeltaBatch::empty(0)).is_empty());
    }

    #[test]
    fn delta_run_writes_the_same_facts_as_a_full_run_on_dirty_targets() {
        let (s, c, _t, svc, search) = setup();
        let target = FactTarget {
            entity: s.scenario.mw_singer,
            predicate: s.preds.date_of_birth,
            reason: TargetReason::CoverageGap,
            importance: 1.0,
        };
        let mut batch = DeltaBatch::empty(3);
        batch.to = 4;
        batch.mark_entity(s.scenario.mw_singer);
        let reg = Registry::new();
        let mut kg = s.kg.clone();
        let report = run_odke_delta_obs(
            &mut kg,
            &svc,
            &search,
            &c,
            &[target],
            &batch,
            &OdkeConfig::default(),
            &reg.scope("odke"),
            &reg.scope("delta"),
        );
        assert_eq!(report.facts_written, 1);
        assert_eq!(reg.snapshot().counter("delta/targets_reextracted"), 1);
        // Identical to the full run over the same (dirty) target.
        let mut full_kg = s.kg.clone();
        run_odke(&mut full_kg, &svc, &search, &c, &[target], &OdkeConfig::default());
        assert_eq!(
            kg.object(s.scenario.mw_singer, s.preds.date_of_birth),
            full_kg.object(s.scenario.mw_singer, s.preds.date_of_birth)
        );
    }

    #[test]
    fn interrupted_delta_run_resumes_from_checkpoint() {
        use crate::resilient::{CheckpointLog, ResilientOdke, RunCheckpoint};
        use saga_webcorpus::ReliableSource;
        let (s, c, _t, svc, search) = setup();
        let all_targets: Vec<FactTarget> = s.people[..6]
            .iter()
            .map(|&e| FactTarget {
                entity: e,
                predicate: s.preds.date_of_birth,
                reason: TargetReason::CoverageGap,
                importance: 1.0,
            })
            .collect();
        let mut batch = DeltaBatch::empty(0);
        for &e in &s.people[..4] {
            batch.mark_entity(e);
        }
        let selected = select_delta_targets(&all_targets, &batch);
        assert_eq!(selected.len(), 4);
        let source = ReliableSource::new(&search, &c);

        // Uninterrupted reference run.
        let mut ref_kg = s.kg.clone();
        let mut ref_cp = RunCheckpoint::default();
        let ref_report = ResilientOdke::new(&source, OdkeConfig::default())
            .run(&mut ref_kg, &svc, &selected, &mut ref_cp, None)
            .unwrap();

        // Killed after 2 targets, then resumed from the same checkpoint.
        let mut kg = s.kg.clone();
        let mut cp = RunCheckpoint::default();
        ResilientOdke::new(&source, OdkeConfig::default())
            .with_max_targets(2)
            .run(&mut kg, &svc, &selected, &mut cp, None)
            .unwrap();
        assert_eq!(cp.completed(), 2, "killed mid-run");
        let resumed = ResilientOdke::new(&source, OdkeConfig::default())
            .run(&mut kg, &svc, &selected, &mut cp, None)
            .unwrap();
        assert_eq!(cp.completed(), selected.len());
        assert_eq!(resumed.outcomes.len(), ref_report.outcomes.len());
        assert_eq!(resumed.facts_written, ref_report.facts_written);
        for t in &selected {
            assert_eq!(
                kg.object(t.entity, t.predicate),
                ref_kg.object(t.entity, t.predicate),
                "resumed delta run converges to the uninterrupted one"
            );
        }

        // The same kill survives a process death via the WAL. Offline builds
        // link a type-check-only serde stub that cannot persist frames; the
        // WAL replay half only runs with real serde (CI).
        if serde_json::to_string(&1u64).is_err() {
            return;
        }
        let dir = std::env::temp_dir().join(format!("saga-odke-delta-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let log_path = dir.join("delta.ckpt");
        let _ = std::fs::remove_file(&log_path);
        let mut wal_kg = s.kg.clone();
        {
            let (mut log, mut cp) = CheckpointLog::open(&log_path).unwrap();
            ResilientOdke::new(&source, OdkeConfig::default())
                .with_max_targets(2)
                .run(&mut wal_kg, &svc, &selected, &mut cp, Some(&mut log))
                .unwrap();
        }
        let (mut log, mut cp) = CheckpointLog::open(&log_path).unwrap();
        assert_eq!(cp.completed(), 2, "checkpoint survives the kill");
        let wal_resumed = ResilientOdke::new(&source, OdkeConfig::default())
            .run(&mut wal_kg, &svc, &selected, &mut cp, Some(&mut log))
            .unwrap();
        assert_eq!(wal_resumed.outcomes.len(), ref_report.outcomes.len());
        for t in &selected {
            assert_eq!(
                wal_kg.object(t.entity, t.predicate),
                ref_kg.object(t.entity, t.predicate),
                "WAL-resumed delta run converges to the uninterrupted one"
            );
        }
        let _ = std::fs::remove_file(&log_path);
    }

    #[test]
    fn calibration_produces_a_working_model() {
        let (s, c, t, svc, search) = setup();
        // Labelled targets: facts the KG already has, with their truth.
        let mut labelled = Vec::new();
        for (_, e, p, v) in
            t.rendered_facts.iter().filter(|(_, _, p, _)| *p == s.preds.date_of_birth).take(30)
        {
            labelled.push((
                FactTarget {
                    entity: *e,
                    predicate: *p,
                    reason: TargetReason::CoverageGap,
                    importance: 1.0,
                },
                v.clone(),
            ));
        }
        assert!(labelled.len() >= 5, "need calibration data");
        let model = calibrate_corroborator(&s.kg, &svc, &search, &c, &labelled, 4);
        // The trained model should still solve the Fig. 6 scenario.
        let mut kg = s.kg.clone();
        let target = FactTarget {
            entity: s.scenario.mw_singer,
            predicate: s.preds.date_of_birth,
            reason: TargetReason::CoverageGap,
            importance: 1.0,
        };
        let cfg = OdkeConfig { corroborator: model, min_probability: 0.3, ..Default::default() };
        let report = run_odke(&mut kg, &svc, &search, &c, &[target], &cfg);
        let outcome = &report.outcomes[0];
        if let Some(w) = &outcome.winner {
            assert_eq!(w.value_text, "1979-07-23");
        }
    }
}
