//! The web-scale annotation pipeline (paper Fig. 4): sharded parallel
//! annotation of a corpus, incremental re-annotation of only the changed
//! pages, and materialization of entity→document link edges into the KG.

use crate::linker::LinkedMention;
use crate::service::AnnotationService;
use saga_core::obs::{MetricsSnapshot, Registry, Scope, SpanTimer};
use saga_core::{DeltaBatch, DocId, EntityId, KnowledgeGraph, Triple, Value};
use saga_webcorpus::Corpus;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Annotations of one document.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AnnotatedDoc {
    /// Document id.
    pub doc: DocId,
    /// Corpus version the annotation reflects.
    pub version: u64,
    /// Linked mentions of the document.
    pub mentions: Vec<LinkedMention>,
}

/// The annotated corpus: per-document annotations plus the entity→documents
/// inverted map ("linking the Web" — the KG's new edges to documents).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct AnnotatedCorpus {
    /// Per-document annotations.
    pub docs: HashMap<DocId, AnnotatedDoc>,
}

impl AnnotatedCorpus {
    /// The one mention → document inversion: entity → the documents that
    /// mention it, sorted and deduplicated, in a single pass over the
    /// per-document mention lists. With `only`, the map holds exactly those
    /// entities (an empty list for one no document mentions); without, every
    /// mentioned entity.
    fn mention_docs(&self, only: Option<&[EntityId]>) -> HashMap<EntityId, Vec<DocId>> {
        let mut out: HashMap<EntityId, Vec<DocId>> =
            only.unwrap_or_default().iter().map(|&e| (e, Vec::new())).collect();
        for ad in self.docs.values() {
            for m in &ad.mentions {
                let docs = match only {
                    None => Some(out.entry(m.entity).or_default()),
                    Some(_) => out.get_mut(&m.entity),
                };
                if let Some(docs) = docs {
                    docs.push(ad.doc);
                }
            }
        }
        // Duplicates (an entity mentioned several times in one document)
        // collapse in the sort+dedup — cheaper than a per-document set.
        for v in out.values_mut() {
            v.sort_unstable();
            v.dedup();
        }
        out
    }

    /// Inverted map: entity → documents that mention it (sorted).
    pub fn entity_docs(&self) -> HashMap<EntityId, Vec<DocId>> {
        self.mention_docs(None)
    }

    /// Documents mentioning `entity` (sorted) — the inversion restricted to
    /// one entity. A caller with many entities to look up wants one
    /// restricted pass for all of them (as [`sync_kg_links`] does), not one
    /// call each.
    pub fn docs_mentioning(&self, entity: EntityId) -> Vec<DocId> {
        self.mention_docs(Some(&[entity])).remove(&entity).unwrap_or_default()
    }

    /// Total linked mentions.
    pub fn total_mentions(&self) -> usize {
        self.docs.values().map(|d| d.mentions.len()).sum()
    }
}

/// Pipeline statistics for one run (full or incremental).
///
/// A thin view over the `saga-core::obs` metrics the pass recorded: derive it
/// from a snapshot delta with [`PipelineStats::from_snapshot_delta`].
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct PipelineStats {
    /// Documents processed in this pass.
    pub docs_processed: usize,
    /// Mentions linked in this pass.
    pub mentions_found: usize,
    /// Wall-clock time of the pass.
    pub elapsed: std::time::Duration,
}

impl PipelineStats {
    /// Derive the stats for one pass from a [`MetricsSnapshot`] delta
    /// recorded under `scope_path` (see [`annotate_corpus_obs`]). Clock
    /// ticks are interpreted as microseconds (the `WallClock` unit).
    pub fn from_snapshot_delta(delta: &MetricsSnapshot, scope_path: &str) -> PipelineStats {
        let ticks = delta.histogram(&format!("{scope_path}/pass_ticks")).map_or(0, |h| h.sum);
        PipelineStats {
            docs_processed: delta.counter(&format!("{scope_path}/docs_processed")) as usize,
            mentions_found: delta.counter(&format!("{scope_path}/mentions_found")) as usize,
            elapsed: std::time::Duration::from_micros(ticks),
        }
    }
}

/// Annotates the whole corpus with `workers` threads over document shards.
pub fn annotate_corpus(
    service: &AnnotationService,
    corpus: &Corpus,
    workers: usize,
) -> (AnnotatedCorpus, PipelineStats) {
    let registry = Registry::new();
    annotate_corpus_obs(service, corpus, workers, &registry.scope("annotation"))
}

/// [`annotate_corpus`] recording through an obs scope: counters
/// `docs_processed` / `mentions_found`, a `mentions_per_doc` histogram
/// (values, not clock deltas — deterministic under any worker count) and a
/// whole-pass `pass_ticks` span.
pub fn annotate_corpus_obs(
    service: &AnnotationService,
    corpus: &Corpus,
    workers: usize,
    scope: &Scope,
) -> (AnnotatedCorpus, PipelineStats) {
    let before = scope.registry().snapshot();
    let docs_counter = scope.counter("docs_processed");
    let mentions_counter = scope.counter("mentions_found");
    let mentions_per_doc = scope.histogram("mentions_per_doc");
    let span = SpanTimer::start(scope.histogram("pass_ticks"), scope.clock());
    let next = AtomicUsize::new(0);
    let results: Vec<parking_lot::Mutex<Vec<AnnotatedDoc>>> =
        (0..workers.max(1)).map(|_| parking_lot::Mutex::new(Vec::new())).collect();

    crossbeam::thread::scope(|s| {
        for w in 0..workers.max(1) {
            let next = &next;
            let results = &results;
            let mentions_per_doc = &mentions_per_doc;
            s.spawn(move |_| {
                let mut local = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= corpus.pages.len() {
                        break;
                    }
                    let page = &corpus.pages[i];
                    let mentions = service.annotate(&page.full_text());
                    mentions_per_doc.record(mentions.len() as u64);
                    local.push(AnnotatedDoc {
                        doc: page.id,
                        version: page.last_modified,
                        mentions,
                    });
                }
                results[w].lock().extend(local);
            });
        }
    })
    .expect("annotation worker panicked");

    let mut out = AnnotatedCorpus::default();
    for shard in results {
        for ad in shard.into_inner() {
            out.docs.insert(ad.doc, ad);
        }
    }
    docs_counter.add(corpus.pages.len() as u64);
    mentions_counter.add(out.total_mentions() as u64);
    span.stop();
    let mut delta = scope.registry().snapshot();
    delta.diff(&before);
    (out, PipelineStats::from_snapshot_delta(&delta, scope.path()))
}

/// Re-annotates only `changed` documents in place — the paper's incremental
/// processing of "only the changed webpages at a given frequency".
pub fn annotate_incremental(
    service: &AnnotationService,
    corpus: &Corpus,
    annotated: &mut AnnotatedCorpus,
    changed: &[DocId],
) -> PipelineStats {
    let registry = Registry::new();
    annotate_incremental_obs(service, corpus, annotated, changed, &registry.scope("annotation"))
}

/// [`annotate_incremental`] recording through an obs scope. The pass is
/// sequential, so per-document `doc_ticks` spans are deterministic under a
/// virtual clock in addition to the whole-pass `pass_ticks` span.
pub fn annotate_incremental_obs(
    service: &AnnotationService,
    corpus: &Corpus,
    annotated: &mut AnnotatedCorpus,
    changed: &[DocId],
    scope: &Scope,
) -> PipelineStats {
    let before = scope.registry().snapshot();
    let docs_counter = scope.counter("docs_processed");
    let mentions_counter = scope.counter("mentions_found");
    let doc_hist = scope.histogram("doc_ticks");
    let clock = scope.clock();
    let span = SpanTimer::start(scope.histogram("pass_ticks"), clock.clone());
    for &doc in changed {
        let doc_span = SpanTimer::start(doc_hist.clone(), clock.clone());
        let page = corpus.page(doc);
        let mentions = service.annotate(&page.full_text());
        mentions_counter.add(mentions.len() as u64);
        annotated.docs.insert(doc, AnnotatedDoc { doc, version: page.last_modified, mentions });
        doc_span.stop();
    }
    docs_counter.add(changed.len() as u64);
    span.stop();
    let mut delta = scope.registry().snapshot();
    delta.diff(&before);
    PipelineStats::from_snapshot_delta(&delta, scope.path())
}

/// Consumes a page-keyed [`DeltaBatch`] from the webcorpus change feed:
/// re-annotates exactly the dirty pages in place and returns the
/// entity-keyed dirty set — every entity mentioned in a dirty page before
/// or after re-annotation. The set is deliberately a superset of "mention
/// set changed": the page *content* backing those mentions changed, so
/// every entity evidenced by it must be re-examined downstream.
pub fn annotate_delta_obs(
    service: &AnnotationService,
    corpus: &Corpus,
    annotated: &mut AnnotatedCorpus,
    batch: &DeltaBatch,
    scope: &Scope,
) -> (DeltaBatch, PipelineStats) {
    let mut out = DeltaBatch::empty(batch.from);
    out.to = batch.to;
    let changed: Vec<DocId> = batch.dirty_pages.iter().copied().collect();
    for &doc in &changed {
        out.mark_page(doc);
        if let Some(old) = annotated.docs.get(&doc) {
            for m in &old.mentions {
                out.mark_entity(m.entity);
            }
        }
    }
    let stats = annotate_incremental_obs(service, corpus, annotated, &changed, scope);
    for &doc in &changed {
        if let Some(new) = annotated.docs.get(&doc) {
            for m in &new.mentions {
                out.mark_entity(m.entity);
            }
        }
    }
    (out, stats)
}

/// Materializes entity→document links into the KG as `mentioned_in` facts
/// with the document URL as an identifier literal (paper Sec. 3.1:
/// "extending our KG with edges linking KG entities to unstructured Web
/// documents"). Returns the number of link facts written.
pub fn extend_kg_with_links(
    kg: &mut KnowledgeGraph,
    corpus: &Corpus,
    annotated: &AnnotatedCorpus,
    max_docs_per_entity: usize,
) -> usize {
    let pred = kg.ontology_mut().add_predicate(
        "mentioned_in",
        "mentioned in",
        saga_core::ValueKind::Identifier,
        None,
        saga_core::Cardinality::Multi,
        saga_core::Volatility::Slow,
        true, // bookkeeping for embeddings purposes
    );
    let src = kg.register_source("web-annotation");
    let mut written = 0;
    for (entity, docs) in annotated.entity_docs() {
        for doc in docs.into_iter().take(max_docs_per_entity) {
            let url = corpus.page(doc).url.clone();
            kg.insert_with(Triple::new(entity, pred, Value::Identifier(url)), src, 1.0);
            written += 1;
        }
    }
    kg.commit();
    written
}

/// Incrementally reconciles `mentioned_in` links for exactly the dirty
/// entities of a delta pass: per entity, diffs the desired link set (its
/// current mention docs, capped) against the links already in the KG,
/// removing stale edges and adding fresh ones. Equivalent to rebuilding
/// that entity's slice of [`extend_kg_with_links`] output. Returns
/// `(added, removed)` link-fact counts.
///
/// Cost: one pass over the annotated corpus inverts the mentions of all
/// dirty entities at once, whatever their number; per entity only the URL
/// set difference remains, and a URL is copied only when its link changes.
pub fn sync_kg_links(
    kg: &mut KnowledgeGraph,
    corpus: &Corpus,
    annotated: &AnnotatedCorpus,
    dirty_entities: impl IntoIterator<Item = EntityId>,
    max_docs_per_entity: usize,
) -> (usize, usize) {
    let pred = kg.ontology_mut().add_predicate(
        "mentioned_in",
        "mentioned in",
        saga_core::ValueKind::Identifier,
        None,
        saga_core::Cardinality::Multi,
        saga_core::Volatility::Slow,
        true,
    );
    let src = kg.register_source("web-annotation");
    let (mut added, mut removed) = (0, 0);
    let dirty: Vec<EntityId> = dirty_entities.into_iter().collect();
    let mention_docs = annotated.mention_docs(Some(&dirty));
    for entity in dirty {
        let desired: BTreeSet<&str> = mention_docs[&entity]
            .iter()
            .take(max_docs_per_entity)
            .map(|&d| corpus.page(d).url.as_str())
            .collect();
        let objects = kg.objects(entity, pred);
        let existing: BTreeSet<&str> = objects
            .iter()
            .filter_map(|v| match v {
                Value::Identifier(url) => Some(url.as_str()),
                _ => None,
            })
            .collect();
        for &url in existing.difference(&desired) {
            kg.remove(&Triple::new(entity, pred, Value::Identifier(url.to_owned())));
            removed += 1;
        }
        for &url in desired.difference(&existing) {
            kg.insert_with(Triple::new(entity, pred, Value::Identifier(url.to_owned())), src, 1.0);
            added += 1;
        }
    }
    kg.commit();
    (added, removed)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::linker::{LinkerConfig, Tier};
    use saga_core::synth::{generate, SynthConfig};
    use saga_webcorpus::{apply_churn, generate_corpus, ChurnConfig, CorpusConfig};

    fn setup() -> (saga_core::synth::SynthKg, Corpus, AnnotationService) {
        let s = generate(&SynthConfig::tiny(171));
        let (c, _) = generate_corpus(&s, &[], &CorpusConfig::tiny(11));
        let svc = AnnotationService::build(&s.kg, LinkerConfig::tier(Tier::T2Contextual));
        (s, c, svc)
    }

    #[test]
    fn full_pipeline_links_profile_topics() {
        let (s, c, svc) = setup();
        let (annotated, stats) = annotate_corpus(&svc, &c, 4);
        assert_eq!(stats.docs_processed, c.len());
        assert!(stats.mentions_found > c.len() / 2, "mentions: {}", stats.mentions_found);
        // The Benicio profile page should link Benicio.
        let benicio_docs = annotated.docs_mentioning(s.scenario.benicio);
        assert!(!benicio_docs.is_empty());
        let page = c.page(benicio_docs[0]);
        assert!(page.full_text().contains("Benicio"));
    }

    #[test]
    fn parallel_matches_single_worker() {
        let (_, c, svc) = setup();
        let (a1, _) = annotate_corpus(&svc, &c, 1);
        let (a4, _) = annotate_corpus(&svc, &c, 4);
        assert_eq!(a1.docs.len(), a4.docs.len());
        assert_eq!(a1.total_mentions(), a4.total_mentions());
        for (doc, ad) in &a1.docs {
            let bd = &a4.docs[doc];
            assert_eq!(ad.mentions.len(), bd.mentions.len(), "doc {doc:?}");
        }
    }

    #[test]
    fn incremental_processes_only_changed() {
        let (_, mut c, svc) = setup();
        let (mut annotated, full_stats) = annotate_corpus(&svc, &c, 2);
        let report =
            apply_churn(&mut c, &ChurnConfig { edit_fraction: 0.05, new_pages: 5, seed: 3 });
        let inc_stats = annotate_incremental(&svc, &c, &mut annotated, &report.changed);
        assert_eq!(inc_stats.docs_processed, report.changed.len());
        assert!(inc_stats.docs_processed < full_stats.docs_processed / 5);
        // Changed docs now carry the new version.
        for d in &report.changed {
            assert_eq!(annotated.docs[d].version, report.version);
        }
        // All docs annotated (old + new).
        assert_eq!(annotated.docs.len(), c.len());
    }

    #[test]
    fn delta_pass_dirties_mentioned_entities() {
        let (_, mut c, svc) = setup();
        let (mut annotated, _) = annotate_corpus(&svc, &c, 2);
        let report =
            apply_churn(&mut c, &ChurnConfig { edit_fraction: 0.05, new_pages: 5, seed: 3 });
        let page_batch = report.to_delta_batch();
        let reg = saga_core::Registry::new();
        let (entity_batch, stats) =
            annotate_delta_obs(&svc, &c, &mut annotated, &page_batch, &reg.scope("annotation"));
        assert_eq!(stats.docs_processed, report.changed.len());
        assert_eq!((entity_batch.from, entity_batch.to), (page_batch.from, page_batch.to));
        assert_eq!(entity_batch.dirty_pages, page_batch.dirty_pages);
        // Every entity now mentioned in a dirty page is in the dirty set.
        for &doc in &report.changed {
            for m in &annotated.docs[&doc].mentions {
                assert!(entity_batch.dirty_entities.contains(&m.entity));
            }
        }
    }

    #[test]
    fn incremental_link_sync_converges_to_batch_rebuild() {
        let (s, mut c, svc) = setup();
        let cap = 3;
        // Incremental world: annotate, materialize links, then churn and
        // patch via the delta pass + link sync.
        let mut inc_kg = s.kg.clone();
        let (mut annotated, _) = annotate_corpus(&svc, &c, 2);
        extend_kg_with_links(&mut inc_kg, &c, &annotated, cap);
        let report =
            apply_churn(&mut c, &ChurnConfig { edit_fraction: 0.1, new_pages: 8, seed: 7 });
        // Rewrite the first page linking Benicio so it stops mentioning
        // him — generic churn only appends mention-free paragraphs, so
        // this is what exercises the stale-link removal path.
        let benicio = s.scenario.benicio;
        let benicio_name = s.kg.entity(benicio).name.clone();
        let target = annotated.docs_mentioning(benicio)[0];
        {
            let page = c.pages.iter_mut().find(|p| p.id == target).unwrap();
            page.title = page.title.replace(&benicio_name, "an unremarkable person");
            for para in page.paragraphs.iter_mut() {
                *para = para.replace(&benicio_name, "an unremarkable person");
            }
            for row in page.infobox.iter_mut() {
                row.value = row.value.replace(&benicio_name, "an unremarkable person");
            }
            page.last_modified = report.version;
        }
        let mut page_batch = report.to_delta_batch();
        page_batch.mark_page(target);
        let reg = saga_core::Registry::new();
        let (entity_batch, _) =
            annotate_delta_obs(&svc, &c, &mut annotated, &page_batch, &reg.scope("annotation"));
        assert!(entity_batch.dirty_entities.contains(&benicio));
        let (added, removed) = sync_kg_links(
            &mut inc_kg,
            &c,
            &annotated,
            entity_batch.dirty_entities.iter().copied(),
            cap,
        );
        assert!(removed > 0, "dropped mention retracts its link");
        // Batch world: re-annotate everything from scratch on the final
        // corpus and materialize links into a fresh KG.
        let mut batch_kg = s.kg.clone();
        let (batch_annotated, _) = annotate_corpus(&svc, &c, 2);
        extend_kg_with_links(&mut batch_kg, &c, &batch_annotated, cap);
        // Same link set per entity, including entities with removed links.
        let pred = inc_kg.ontology().predicate_by_name("mentioned_in").unwrap();
        for e in batch_annotated.entity_docs().keys() {
            let mut a = inc_kg.objects(*e, pred);
            let mut b = batch_kg.objects(*e, pred);
            a.sort_by_key(|v| v.canonical());
            b.sort_by_key(|v| v.canonical());
            assert_eq!(a, b, "links diverge for {e:?} (added {added}, removed {removed})");
        }
    }

    /// The per-entity scan `docs_mentioning` was before the inversion became
    /// one routine — the oracle for the restricted pass.
    fn reference_docs_mentioning(annotated: &AnnotatedCorpus, entity: EntityId) -> Vec<DocId> {
        let mut out: Vec<DocId> = annotated
            .docs
            .values()
            .filter(|ad| ad.mentions.iter().any(|m| m.entity == entity))
            .map(|ad| ad.doc)
            .collect();
        out.sort_unstable();
        out
    }

    /// `sync_kg_links` as it was: one corpus scan per dirty entity, owned
    /// URL sets.
    fn reference_sync_kg_links(
        kg: &mut KnowledgeGraph,
        corpus: &Corpus,
        annotated: &AnnotatedCorpus,
        dirty_entities: &[EntityId],
        max_docs_per_entity: usize,
    ) -> (usize, usize) {
        let pred = kg.ontology().predicate_by_name("mentioned_in").unwrap();
        let src = kg.register_source("web-annotation");
        let (mut added, mut removed) = (0, 0);
        for &entity in dirty_entities {
            let desired: BTreeSet<String> = reference_docs_mentioning(annotated, entity)
                .into_iter()
                .take(max_docs_per_entity)
                .map(|d| corpus.page(d).url.clone())
                .collect();
            let existing: BTreeSet<String> = kg
                .objects(entity, pred)
                .into_iter()
                .filter_map(|v| match v {
                    Value::Identifier(url) => Some(url),
                    _ => None,
                })
                .collect();
            for url in existing.difference(&desired) {
                kg.remove(&Triple::new(entity, pred, Value::Identifier(url.clone())));
                removed += 1;
            }
            for url in desired.difference(&existing) {
                kg.insert_with(Triple::new(entity, pred, Value::Identifier(url.clone())), src, 1.0);
                added += 1;
            }
        }
        kg.commit();
        (added, removed)
    }

    #[test]
    fn one_pass_link_sync_matches_the_per_entity_scan() {
        let (s, c, svc) = setup();
        let cap = 2;
        let (mut annotated, _) = annotate_corpus(&svc, &c, 2);
        let by_entity = annotated.entity_docs();
        for (&e, docs) in &by_entity {
            assert_eq!(docs, &reference_docs_mentioning(&annotated, e));
            assert_eq!(docs, &annotated.docs_mentioning(e));
        }
        let mut kg = s.kg.clone();
        extend_kg_with_links(&mut kg, &c, &annotated, cap);

        // Repeated: mentioned more than once inside a single document.
        let repeated = annotated
            .docs
            .values()
            .find_map(|ad| {
                ad.mentions
                    .iter()
                    .map(|m| m.entity)
                    .find(|&e| ad.mentions.iter().filter(|m| m.entity == e).count() > 1)
            })
            .expect("some document mentions an entity twice");
        // Capped: mentioned in more documents than the cap keeps. It loses
        // its lowest document below, so the kept window shifts: one link
        // removed, one added.
        let (&capped, capped_docs) = by_entity
            .iter()
            .find(|(&e, docs)| e != repeated && docs.len() > cap + 1)
            .expect("an entity over the cap");
        // Vanished: linked now, about to lose its last mention.
        let (&vanished, _) = by_entity
            .iter()
            .find(|(&e, docs)| e != repeated && e != capped && docs.len() <= cap)
            .expect("an entity under the cap");
        // Absent: never mentioned and never linked.
        let absent =
            s.kg.entities()
                .map(|e| e.id)
                .find(|e| !by_entity.contains_key(e))
                .expect("an unmentioned entity");
        for ad in annotated.docs.values_mut() {
            let lowest_capped = ad.doc == capped_docs[0];
            ad.mentions.retain(|m| m.entity != vanished && !(lowest_capped && m.entity == capped));
        }
        // A fresh document for `repeated`, so that it has a link to add.
        let fresh =
            c.pages.iter().map(|p| p.id).find(|d| !by_entity[&repeated].contains(d)).unwrap();
        let again =
            annotated.docs.values().flat_map(|ad| &ad.mentions).find(|m| m.entity == repeated);
        let again = again.unwrap().clone();
        annotated.docs.get_mut(&fresh).unwrap().mentions.extend([again.clone(), again]);

        let dirty = [repeated, capped, vanished, absent];
        let mut reference_kg = kg.clone();
        let want = reference_sync_kg_links(&mut reference_kg, &c, &annotated, &dirty, cap);
        let got = sync_kg_links(&mut kg, &c, &annotated, dirty, cap);
        assert_eq!(got, want);
        assert!(got.0 >= 1 && got.1 >= 2, "every branch ran: {got:?}");
        assert_eq!(kg.canonicalized_bytes(), reference_kg.canonicalized_bytes());
        let pred = kg.ontology().predicate_by_name("mentioned_in").unwrap();
        assert!(kg.objects(vanished, pred).is_empty(), "stale links removed");
        assert!(kg.objects(absent, pred).is_empty());
        assert_eq!(kg.objects(capped, pred).len(), cap);
    }

    #[test]
    fn kg_extension_writes_link_facts() {
        let (s, c, svc) = setup();
        let mut kg = s.kg.clone();
        let (annotated, _) = annotate_corpus(&svc, &c, 2);
        let before = kg.num_triples();
        let written = extend_kg_with_links(&mut kg, &c, &annotated, 3);
        assert!(written > 0);
        assert_eq!(kg.num_triples(), before + written);
        let pred = kg.ontology().predicate_by_name("mentioned_in").unwrap();
        let links = kg.objects(s.scenario.benicio, pred);
        assert!(!links.is_empty());
        assert!(matches!(&links[0], Value::Identifier(url) if url.starts_with("synth://")));
    }
}
