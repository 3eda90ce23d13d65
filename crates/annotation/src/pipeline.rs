//! The web-scale annotation pipeline (paper Fig. 4): sharded parallel
//! annotation of a corpus, incremental re-annotation of only the changed
//! pages, and materialization of entity→document link edges into the KG.
//!
//! Every annotation entry point here runs the one annotation pass,
//! [`ResilientAnnotator::annotate`], without a fault injector: a full pass
//! over every page of the corpus, an incremental one over the changed pages
//! on the caller's thread.

use crate::linker::LinkedMention;
use crate::resilient::ResilientAnnotator;
use crate::service::AnnotationService;
use saga_core::obs::{Registry, Scope};
use saga_core::{
    DeltaBatch, DocId, EntityId, KnowledgeGraph, ObjKey, PredicateId, Triple, TripleKey, Value,
    ValueKind,
};
use saga_webcorpus::Corpus;
use std::cmp::Ordering;
use std::collections::HashMap;

/// Annotations of one document.
#[derive(Debug, Clone)]
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
#[derive(Debug, Clone, Default)]
pub struct AnnotatedCorpus {
    /// Per-document annotations.
    pub docs: HashMap<DocId, AnnotatedDoc>,
}

/// A slot table's mark for an entity not asked for.
const UNASKED: usize = usize::MAX;

/// The mention inversion restricted to some entities, flat: a
/// `(slot, document)` pair per document that mentions an entity asked for,
/// sorted and deduplicated, where the `i`-th distinct entity asked for has
/// slot `i`.
struct MentionDocs {
    /// Entity id → its slot, or [`UNASKED`].
    slot: Vec<usize>,
    pairs: Vec<(usize, DocId)>,
}

impl MentionDocs {
    /// The documents mentioning `entity`, which was asked for, sorted.
    fn of(&self, entity: EntityId) -> impl ExactSizeIterator<Item = DocId> + '_ {
        let i = self.slot[entity.index()];
        let lo = self.pairs.partition_point(|&(s, _)| s < i);
        let hi = self.pairs.partition_point(|&(s, _)| s <= i);
        self.pairs[lo..hi].iter().map(|&(_, doc)| doc)
    }

    /// The most documents one entity has.
    fn widest(&self) -> usize {
        self.pairs.chunk_by(|a, b| a.0 == b.0).map(<[_]>::len).max().unwrap_or(0)
    }
}

impl AnnotatedCorpus {
    /// Inverted map: entity → documents that mention it, sorted and
    /// deduplicated, in one pass over the per-document mention lists.
    pub fn entity_docs(&self) -> HashMap<EntityId, Vec<DocId>> {
        let mut out: HashMap<EntityId, Vec<DocId>> = HashMap::new();
        for ad in self.docs.values() {
            for m in &ad.mentions {
                out.entry(m.entity).or_default().push(ad.doc);
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

    /// The inversion restricted to the entities of `only` (an entity no
    /// document mentions has no documents), flat: a mention finds its
    /// entity's slot through a dense table indexed by entity id, and the
    /// pairs asked for are counted, collected into one list of that size,
    /// then sorted and deduplicated. Reserving for every mention instead
    /// would read the mentions once but ask for a buffer the size of the
    /// corpus's mentions each call.
    fn mention_docs(&self, only: &[EntityId]) -> MentionDocs {
        let mut slot = vec![UNASKED; only.iter().map(|e| e.index() + 1).max().unwrap_or(0)];
        let mut distinct = 0;
        for &e in only {
            if slot[e.index()] == UNASKED {
                slot[e.index()] = distinct;
                distinct += 1;
            }
        }
        let asked = || {
            self.docs.values().flat_map(|ad| {
                ad.mentions.iter().filter_map(|m| match slot.get(m.entity.index()) {
                    Some(&i) if i != UNASKED => Some((i, ad.doc)),
                    _ => None,
                })
            })
        };
        let mut pairs = Vec::with_capacity(asked().count());
        pairs.extend(asked());
        pairs.sort_unstable();
        pairs.dedup();
        MentionDocs { slot, pairs }
    }
}

/// Pipeline statistics for one run (full or incremental), as the pass that
/// ran it counted them.
#[derive(Debug, Clone, Copy, Default)]
pub struct PipelineStats {
    /// Documents processed in this pass.
    pub docs_processed: usize,
    /// Mentions linked in this pass.
    pub mentions_found: usize,
    /// Wall-clock time of the pass.
    pub elapsed: std::time::Duration,
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

/// [`annotate_corpus`] recording through an obs scope: the annotation pass
/// over every page, which records counters `docs_processed` /
/// `mentions_found`, `mentions_per_doc` and `retries_per_doc` histograms
/// (values, not clock deltas — deterministic under any worker count), a
/// whole-pass `pass_ticks` span and the
/// [`ResilienceReport`](crate::resilient::ResilienceReport) counters
/// `retries` / `quarantined` (0 here).
pub fn annotate_corpus_obs(
    service: &AnnotationService,
    corpus: &Corpus,
    workers: usize,
    scope: &Scope,
) -> (AnnotatedCorpus, PipelineStats) {
    let docs: Vec<DocId> = corpus.pages.iter().map(|p| p.id).collect();
    let mut out = AnnotatedCorpus::default();
    let (stats, _) = ResilientAnnotator::new(service)
        .with_obs(scope.clone())
        .annotate(corpus, &docs, workers, &mut out);
    (out, stats)
}

/// Re-annotates only `changed` documents in place — the paper's incremental
/// processing of "only the changed webpages at a given frequency".
pub fn annotate_incremental(
    service: &AnnotationService,
    corpus: &Corpus,
    annotated: &mut AnnotatedCorpus,
    changed: &[DocId],
) -> PipelineStats {
    ResilientAnnotator::new(service).annotate(corpus, changed, 1, annotated).0
}

/// Consumes a page-keyed [`DeltaBatch`] from the webcorpus change feed:
/// re-annotates exactly the dirty pages in place and returns the
/// entity-keyed dirty set — every entity mentioned in a dirty page before
/// or after re-annotation. The set is deliberately a superset of "mention
/// set changed": the page *content* backing those mentions changed, so
/// every entity evidenced by it must be re-examined downstream. The pass
/// runs on the caller's thread and records what [`annotate_corpus_obs`]
/// records.
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
    let (stats, _) = ResilientAnnotator::new(service)
        .with_obs(scope.clone())
        .annotate(corpus, &changed, 1, annotated);
    for &doc in &changed {
        if let Some(new) = annotated.docs.get(&doc) {
            for m in &new.mentions {
                out.mark_entity(m.entity);
            }
        }
    }
    (out, stats)
}

/// The `mentioned_in` predicate, registered on first use. It is looked up
/// before `ontology_mut`, so a graph sharing its ontology with another (an
/// interval's working copy of the store's graph) copies it only when the
/// predicate is new.
fn mentioned_in(kg: &mut KnowledgeGraph) -> PredicateId {
    if let Some(pred) = kg.ontology().predicate_by_name("mentioned_in") {
        return pred;
    }
    kg.ontology_mut().add_predicate(
        "mentioned_in",
        "mentioned in",
        saga_core::ValueKind::Identifier,
        None,
        saga_core::Cardinality::Multi,
        saga_core::Volatility::Slow,
        true, // bookkeeping for embeddings purposes
    )
}

/// Materializes entity→document links into the KG as `mentioned_in` facts
/// with the document URL as an identifier literal (paper Sec. 3.1:
/// "extending our KG with edges linking KG entities to unstructured Web
/// documents"). Returns the number of link facts written.
///
/// Entities are written in id order, so the order new URL literals are
/// interned in — and with it the graph's encoded bytes — depends only on
/// the annotations, not on hash-map iteration order.
pub fn extend_kg_with_links(
    kg: &mut KnowledgeGraph,
    corpus: &Corpus,
    annotated: &AnnotatedCorpus,
    max_docs_per_entity: usize,
) -> usize {
    let pred = mentioned_in(kg);
    let src = kg.register_source("web-annotation");
    let mut written = 0;
    let mut by_entity: Vec<(EntityId, Vec<DocId>)> = annotated.entity_docs().into_iter().collect();
    by_entity.sort_unstable_by_key(|(entity, _)| *entity);
    for (entity, docs) in by_entity {
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
/// Cost: one restricted inversion of the annotated corpus covers every
/// dirty entity at once, whatever their number. Per entity the diff is on
/// keys: the existing links are the literal ids of its `mentioned_in` SPO
/// range, read without decoding; the desired ones are its URLs' literal
/// ids, looked up borrowed; and a merge walk over sorted buffers, reused
/// from entity to entity, finds the changes. A URL is copied only when
/// its link is added and the graph has not interned it yet: once, into
/// the literal table. New URLs are interned per entity in URL order, so
/// literal ids do not depend on how the diff is computed.
pub fn sync_kg_links(
    kg: &mut KnowledgeGraph,
    corpus: &Corpus,
    annotated: &AnnotatedCorpus,
    dirty_entities: impl IntoIterator<Item = EntityId>,
    max_docs_per_entity: usize,
) -> (usize, usize) {
    let pred = mentioned_in(kg);
    let src = kg.register_source("web-annotation");
    let (mut added, mut removed) = (0, 0);
    let dirty: Vec<EntityId> = dirty_entities.into_iter().collect();
    let mention_docs = annotated.mention_docs(&dirty);
    let wanted = mention_docs.widest().min(max_docs_per_entity);
    let (mut existing, mut desired) = (Vec::with_capacity(wanted), Vec::with_capacity(wanted));
    let mut fresh: Vec<&str> = Vec::with_capacity(wanted);
    let link = |entity, id| TripleKey { s: entity, p: pred, o: ObjKey::literal(id) };
    for entity in dirty {
        existing.clear();
        existing.extend(kg.object_keys(entity, pred).filter_map(|k| {
            let id = k.o.as_literal()?;
            (kg.literal(id).kind() == ValueKind::Identifier).then_some(id)
        }));
        desired.clear();
        fresh.clear();
        for doc in mention_docs.of(entity).take(max_docs_per_entity) {
            let url = corpus.page(doc).url.as_str();
            match kg.literal_id(ValueKind::Identifier, url) {
                Some(id) => desired.push(id),
                None => fresh.push(url),
            }
        }
        desired.sort_unstable();
        desired.dedup();
        fresh.sort_unstable();
        fresh.dedup();
        // Both sorted by literal id: a link in one and not the other changes.
        let (mut i, mut j) = (0, 0);
        loop {
            let order = match (existing.get(i), desired.get(j)) {
                (None, None) => break,
                (Some(have), Some(want)) => have.cmp(want),
                (Some(_), None) => Ordering::Less,
                (None, Some(_)) => Ordering::Greater,
            };
            match order {
                Ordering::Less => {
                    kg.remove_key(link(entity, existing[i]));
                    removed += 1;
                    i += 1;
                }
                Ordering::Greater => {
                    kg.insert_key_with(link(entity, desired[j]), src, 1.0);
                    added += 1;
                    j += 1;
                }
                Ordering::Equal => (i, j) = (i + 1, j + 1),
            }
        }
        for url in &fresh {
            let url = Value::Identifier((*url).to_owned());
            kg.insert_with(Triple::new(entity, pred, url), src, 1.0);
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
    use saga_core::obs::{MetricsSnapshot, SpanTimer};
    use saga_core::persist::codec::to_bytes;
    use saga_core::synth::{generate, SynthConfig};
    use saga_core::DeltaCursor;
    use saga_webcorpus::changefeed::pull_page_delta;
    use saga_webcorpus::{apply_churn, generate_corpus, ChurnConfig, CorpusConfig};
    use std::collections::{BTreeMap, BTreeSet};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn setup() -> (saga_core::synth::SynthKg, Corpus, AnnotationService) {
        let s = generate(&SynthConfig::tiny(171));
        let (c, _) = generate_corpus(&s, &[], &CorpusConfig::tiny(11));
        let svc = AnnotationService::build(&s.kg, LinkerConfig::tier(Tier::T2Contextual));
        (s, c, svc)
    }

    /// The stats the reference passes read back from a whole-registry
    /// snapshot delta.
    fn reference_stats(delta: &MetricsSnapshot, scope_path: &str) -> PipelineStats {
        let ticks = delta.histogram(&format!("{scope_path}/pass_ticks")).map_or(0, |h| h.sum);
        PipelineStats {
            docs_processed: delta.counter(&format!("{scope_path}/docs_processed")) as usize,
            mentions_found: delta.counter(&format!("{scope_path}/mentions_found")) as usize,
            elapsed: std::time::Duration::from_micros(ticks),
        }
    }

    /// `annotate_corpus_obs` as it was before the fault-free passes became
    /// the annotation pass without an injector: its own sharded loop.
    fn reference_annotate_corpus_obs(
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
        let worker = || {
            let mut local = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= corpus.pages.len() {
                    break;
                }
                let page = &corpus.pages[i];
                let mentions = service.annotate(&page.full_text());
                mentions_per_doc.record(mentions.len() as u64);
                local.push(AnnotatedDoc { doc: page.id, version: page.last_modified, mentions });
            }
            local
        };
        let shards: Vec<Vec<AnnotatedDoc>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers.max(1)).map(|_| s.spawn(worker)).collect();
            handles.into_iter().map(|h| h.join().expect("annotation worker panicked")).collect()
        });

        let mut out = AnnotatedCorpus::default();
        for ad in shards.into_iter().flatten() {
            out.docs.insert(ad.doc, ad);
        }
        docs_counter.add(corpus.pages.len() as u64);
        mentions_counter.add(out.docs.values().map(|d| d.mentions.len() as u64).sum());
        span.stop();
        let mut delta = scope.registry().snapshot();
        delta.diff(&before);
        (out, reference_stats(&delta, scope.path()))
    }

    /// `annotate_incremental_obs` as it was: its own sequential loop.
    fn reference_annotate_incremental_obs(
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
        reference_stats(&delta, scope.path())
    }

    /// `annotate_delta_obs` over the reference incremental pass.
    fn reference_annotate_delta_obs(
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
        let stats = reference_annotate_incremental_obs(service, corpus, annotated, &changed, scope);
        for &doc in &changed {
            if let Some(new) = annotated.docs.get(&doc) {
                for m in &new.mentions {
                    out.mark_entity(m.entity);
                }
            }
        }
        (out, stats)
    }

    type MentionBits = (usize, usize, String, EntityId, u32);

    /// Every field of every annotation, scores as bits, by document.
    fn annotation_bits(a: &AnnotatedCorpus) -> BTreeMap<DocId, (u64, Vec<MentionBits>)> {
        a.docs
            .iter()
            .map(|(&doc, ad)| {
                assert_eq!(ad.doc, doc);
                let mentions = ad
                    .mentions
                    .iter()
                    .map(|m| (m.start, m.end, m.form.to_string(), m.entity, m.score.to_bits()))
                    .collect();
                (doc, (ad.version, mentions))
            })
            .collect()
    }

    #[test]
    fn passes_match_the_reference_passes() {
        let (_, mut c, svc) = setup();
        let reg = Registry::new();
        let counts = |s: PipelineStats| (s.docs_processed, s.mentions_found);
        for workers in [1, 2, 8] {
            let (want, want_stats) =
                reference_annotate_corpus_obs(&svc, &c, workers, &reg.scope("reference"));
            let (got, got_stats) = annotate_corpus_obs(&svc, &c, workers, &reg.scope("annotation"));
            assert_eq!(annotation_bits(&got), annotation_bits(&want), "{workers} workers");
            assert_eq!(counts(got_stats), counts(want_stats), "{workers} workers");
        }

        let (base, _) = annotate_corpus(&svc, &c, 2);
        let mut cursor = DeltaCursor::at(c.version);
        apply_churn(&mut c, &ChurnConfig { edit_fraction: 0.05, new_pages: 5, seed: 3 });
        let page_batch = pull_page_delta(&c, &mut cursor);
        let (mut want, mut got) = (base.clone(), base);
        let (want_batch, want_stats) =
            reference_annotate_delta_obs(&svc, &c, &mut want, &page_batch, &reg.scope("reference"));
        let (got_batch, got_stats) =
            annotate_delta_obs(&svc, &c, &mut got, &page_batch, &reg.scope("annotation"));
        assert!(want_stats.docs_processed > 0 && !want_batch.dirty_entities.is_empty());
        assert_eq!(got_batch, want_batch);
        assert_eq!(annotation_bits(&got), annotation_bits(&want));
        assert_eq!(counts(got_stats), counts(want_stats));
    }

    #[test]
    fn full_pipeline_links_profile_topics() {
        let (s, c, svc) = setup();
        let (annotated, stats) = annotate_corpus(&svc, &c, 4);
        assert_eq!(stats.docs_processed, c.len());
        assert!(stats.mentions_found > c.len() / 2, "mentions: {}", stats.mentions_found);
        // The Benicio profile page should link Benicio.
        let benicio_docs = reference_docs_mentioning(&annotated, s.scenario.benicio);
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
        let total = |a: &AnnotatedCorpus| a.docs.values().map(|d| d.mentions.len()).sum::<usize>();
        assert_eq!(total(&a1), total(&a4));
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
        let mut cursor = DeltaCursor::at(c.version);
        let report =
            apply_churn(&mut c, &ChurnConfig { edit_fraction: 0.05, new_pages: 5, seed: 3 });
        let page_batch = pull_page_delta(&c, &mut cursor);
        assert_eq!(page_batch.dirty_pages, report.changed.iter().copied().collect());
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
        let mut cursor = DeltaCursor::at(c.version);
        let report =
            apply_churn(&mut c, &ChurnConfig { edit_fraction: 0.1, new_pages: 8, seed: 7 });
        // Rewrite the first page linking Benicio so it stops mentioning
        // him — generic churn only appends mention-free paragraphs, so
        // this is what exercises the stale-link removal path.
        let benicio = s.scenario.benicio;
        let benicio_name = s.kg.entity(benicio).name.clone();
        let target = reference_docs_mentioning(&annotated, benicio)[0];
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
        let page_batch = pull_page_delta(&c, &mut cursor);
        assert!(page_batch.dirty_pages.contains(&target));
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

    /// Documents mentioning `entity`, sorted, by a scan of every document —
    /// the oracle for the inversion and the restricted pass.
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
        // removed, one kept, one added.
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
        // A fresh document for `repeated`, inside its kept window and with
        // a URL the graph has interned, so that it has a link to add by id.
        let repeated_docs = &by_entity[&repeated];
        let fresh = c.pages.iter().map(|p| p.id).find(|d| {
            !repeated_docs.contains(d)
                && repeated_docs.get(cap - 1).is_none_or(|last| d < last)
                && kg.literal_id(ValueKind::Identifier, &c.page(*d).url).is_some()
        });
        let fresh = fresh.expect("a linked page before the window of `repeated` ends");
        let again =
            annotated.docs.values().flat_map(|ad| &ad.mentions).find(|m| m.entity == repeated);
        let again = again.unwrap().clone();
        annotated.docs.get_mut(&fresh).unwrap().mentions.extend([again.clone(), again]);

        // `mentioned_in` objects that are not identifiers are no links: a
        // text literal with a linked URL's string, and an entity.
        let pred = kg.ontology().predicate_by_name("mentioned_in").unwrap();
        let linked = kg.objects(capped, pred).into_iter().find_map(|v| match v {
            Value::Identifier(url) => Some(url),
            _ => None,
        });
        let src = kg.register_source("web-annotation");
        kg.insert_with(Triple::new(capped, pred, Value::Text(linked.unwrap())), src, 1.0);
        kg.insert_with(Triple::new(absent, pred, Value::Entity(repeated)), src, 1.0);
        kg.commit();

        // Out of id order, with a repeat: each entity is reconciled in turn.
        let dirty = [vanished, repeated, absent, capped, repeated];
        let links = |kg: &KnowledgeGraph, e: EntityId| -> BTreeSet<String> {
            let urls = kg.objects(e, pred).into_iter().filter_map(|v| match v {
                Value::Identifier(url) => Some(url),
                _ => None,
            });
            urls.collect()
        };
        // Each run reconciles its own copy of `kg` and the reference its own.
        let run = |corpus: &Corpus| {
            let (mut got_kg, mut want_kg) = (kg.clone(), kg.clone());
            let want = reference_sync_kg_links(&mut want_kg, corpus, &annotated, &dirty, cap);
            let got = sync_kg_links(&mut got_kg, corpus, &annotated, dirty, cap);
            assert_eq!(got, want);
            assert!(to_bytes(&got_kg) == to_bytes(&want_kg), "same literal ids");
            assert!(got_kg.objects(vanished, pred).is_empty(), "stale links removed");
            assert_eq!(got_kg.objects(absent, pred), [Value::Entity(repeated)]);
            assert_eq!(got_kg.objects(capped, pred).len(), cap + 1);
            (got, got_kg)
        };

        // The corpus as linked: the diff keeps and removes links, and adds
        // one by the literal id the graph holds for its URL.
        let (got, after) = run(&c);
        assert!(got.0 >= 2 && got.1 >= 2, "links added and removed: {got:?}");
        let kept = links(&kg, capped).intersection(&links(&after, capped)).count();
        assert!(kept >= 1, "`capped` keeps a link across the shift");
        assert!(links(&after, repeated).contains(&c.page(fresh).url), "an interned URL linked");

        // Every page moves to a URL no graph has, named against the page
        // order: an entity's new URLs are interned in URL order.
        let mut moved = c.clone();
        for (i, page) in moved.pages.iter_mut().enumerate() {
            page.url = format!("synth://moved/{:05}", 99_999 - i);
        }
        let (got, _) = run(&moved);
        assert!(got.0 >= 1 && got.1 >= 2, "links to new URLs added: {got:?}");
    }

    #[test]
    fn restricted_inversion_handles_duplicates_and_unmentioned_ids() {
        let (_, c, svc) = setup();
        let (annotated, _) = annotate_corpus(&svc, &c, 2);
        let mut mentioned: Vec<EntityId> = annotated.entity_docs().into_keys().collect();
        mentioned.sort_unstable();
        let beyond = EntityId(mentioned.last().unwrap().raw() + 1_000);
        let only = [mentioned[0], beyond, mentioned[1], mentioned[0], beyond];
        let got = annotated.mention_docs(&only);
        for e in [mentioned[0], mentioned[1], beyond] {
            assert_eq!(got.of(e).collect::<Vec<_>>(), reference_docs_mentioning(&annotated, e));
        }
        assert_eq!(got.of(beyond).len(), 0);
        let widest = [mentioned[0], mentioned[1]].map(|e| got.of(e).len()).into_iter().max();
        assert_eq!(Some(got.widest()), widest);
        assert_eq!(got.pairs.len(), got.of(mentioned[0]).len() + got.of(mentioned[1]).len());
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
