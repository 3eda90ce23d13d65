//! The end-to-end growth driver: batch bootstrap and change-feed-driven
//! incremental growth.
//!
//! [`grow_batch`] builds the whole stack from a corpus snapshot — annotate
//! everything, materialize `mentioned_in` links, extract every target,
//! persist the graph into a [`KgStore`], train embeddings from scratch and
//! build the ANN index. [`grow_incremental`] advances the same stack by
//! one crawl interval, chaining every stage off delta cursors:
//!
//! 1. pull the page-keyed [`DeltaBatch`] from the corpus change feed and
//!    reindex exactly the dirty pages in the search engine;
//! 2. re-annotate the dirty pages, widening the batch to the entity-keyed
//!    dirty set;
//! 3. reconcile those entities' `mentioned_in` links and re-extract only
//!    the dirtied fact targets, against a working copy of the graph;
//! 4. mirror the resulting fact diff into the [`KgStore`] as one commit;
//! 5. pull the committed diff back out through the *store's* delta cursor
//!    ([`KgStore::pull_delta`], i.e. `changes_since`) — this entity batch,
//!    not the upstream one, drives the model layers, so anything that
//!    reaches the store (from any producer) reaches the embeddings;
//! 6. warm-start the embedding model and retrain only the dirty
//!    partitions; upsert/delete exactly the changed rows in the ANN index.
//!    The retrain is made durable once, by the single checkpoint frame a
//!    delta run writes when it returns the model (`saga_embeddings`
//!    `checkpoint`, "Checkpoint granularity"); the workdir keeps that
//!    newest `delta-train-N.wal` and drops the ones it supersedes;
//! 7. publish: assemble the canonical snapshot of the store's graph
//!    ([`crate::publish_snapshot`]) and return its bytes.
//!
//! If the store's retained deltas no longer cover the cursor
//! ([`DeltaPull::Lapsed`]) the driver falls back to a full retrain +
//! index rebuild and resyncs — lapsing costs work, never correctness.
//!
//! The contract proved by `tests/equivalence.rs`: the published snapshot
//! ([`crate::publish_snapshot`]) of the incremental path is bit-identical
//! to a batch rebuild on the final corpus, the maintained ANN index
//! matches a scratch-built one, and the amount of work scales with the
//! churn fraction, not the corpus size.

use saga_ann::FlatIndex;
use saga_annotation::{
    annotate_corpus_obs, annotate_delta_obs, extend_kg_with_links, sync_kg_links, AnnotatedCorpus,
    AnnotationService, LinkerConfig, Tier,
};
use saga_core::delta::{record_lapse, DeltaBatch, DeltaCursor, DeltaPull, DELTA_SCOPE};
use saga_core::obs::Registry;
use saga_core::{
    fact_content_key, EngineOptions, EntityId, FactContentKey, FactMeta, KgStore, KnowledgeGraph,
    Result, Triple,
};
use saga_embeddings::{
    dirty_partitions, train_partitioned, training_partitioning, CheckpointedTrainer,
    TrainCheckpointLog, TrainConfig, TrainedModel, TrainingSet,
};
use saga_graph::{GraphView, ViewDef};
use saga_odke::{run_odke_delta_obs, run_odke_obs, FactTarget, OdkeConfig};
use saga_webcorpus::{changefeed::pull_page_delta, Corpus, SearchEngine};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Fraction of view edges held out for validation / test when building
/// the training set (fixed so batch and incremental agree).
const HOLDOUT_FRAC: f64 = 0.05;

/// Static configuration of a growth pipeline. The target universe is part
/// of the configuration — both paths process the same (fixed) targets, so
/// a delta pass re-extracts a strict subset of what the batch pass would.
#[derive(Debug, Clone)]
pub struct GrowthConfig {
    /// Cap on `mentioned_in` links per entity.
    pub max_docs_per_entity: usize,
    /// Extraction configuration.
    pub odke: OdkeConfig,
    /// Embedding training configuration.
    pub train: TrainConfig,
    /// Embedding partition count.
    pub num_parts: usize,
    /// Minimum predicate frequency for the embedding-training view.
    pub min_predicate_frequency: usize,
    /// The fixed fact-target universe.
    pub targets: Vec<FactTarget>,
}

impl Default for GrowthConfig {
    fn default() -> Self {
        Self {
            max_docs_per_entity: 3,
            odke: OdkeConfig::default(),
            train: TrainConfig::default(),
            num_parts: 4,
            min_predicate_frequency: 2,
            targets: Vec::new(),
        }
    }
}

/// All mutable state of a growing stack. Built by [`grow_batch`], advanced
/// in place by [`grow_incremental`].
pub struct GrowthState {
    /// The persistent graph — the pipeline's source of truth.
    pub store: KgStore,
    /// Per-document annotations, patched in place by delta passes.
    pub annotated: AnnotatedCorpus,
    /// The web search index, reindexed incrementally per dirty page.
    pub search: SearchEngine,
    /// The annotation service (aliases from the base KG; static).
    pub service: AnnotationService,
    /// Current embedding model.
    pub model: TrainedModel,
    /// The maintained ANN index over `model`'s entity rows.
    pub index: FlatIndex,
    /// Ids currently live in `index`.
    pub indexed: BTreeSet<u64>,
    /// Cursor into the corpus change feed.
    pub page_cursor: DeltaCursor,
    /// Cursor into the store's commit-delta feed.
    pub store_cursor: DeltaCursor,
    /// Scratch directory (store + delta-training logs).
    pub workdir: PathBuf,
    /// Incremental passes completed (names the per-pass training log).
    pub passes: u64,
}

/// What one growth pass did. All counts are also recorded under the
/// `delta/` obs scope of the registry the pass ran with.
#[derive(Debug, Clone, Default)]
pub struct GrowthReport {
    /// Pages re-annotated and re-indexed.
    pub pages_reprocessed: usize,
    /// Entities in the pass's dirty set.
    pub entities_dirtied: usize,
    /// Fact targets re-extracted.
    pub targets_reextracted: usize,
    /// `mentioned_in` links written (batch) or added (incremental).
    pub links_added: usize,
    /// Stale `mentioned_in` links removed.
    pub links_removed: usize,
    /// Facts the store commit added or refreshed.
    pub facts_changed: usize,
    /// Embedding partitions retrained.
    pub partitions_retrained: usize,
    /// Training buckets processed.
    pub buckets_trained: usize,
    /// ANN rows inserted or replaced.
    pub ann_upserts: usize,
    /// ANN rows tombstoned.
    pub ann_deletes: usize,
    /// True when the store cursor lapsed and the pass fell back to a full
    /// retrain + index rebuild.
    pub lapsed: bool,
    /// Canonical bytes of the published snapshot after the pass.
    pub published: Vec<u8>,
}

fn training_set(kg: &KnowledgeGraph, cfg: &GrowthConfig) -> TrainingSet {
    let view = GraphView::materialize(kg, ViewDef::embedding_training(cfg.min_predicate_frequency));
    TrainingSet::from_edges(&view.edges(), HOLDOUT_FRAC, HOLDOUT_FRAC, cfg.train.seed)
}

fn rebuild_index(model: &TrainedModel) -> (FlatIndex, BTreeSet<u64>) {
    let index = saga_embeddings::build_flat_index(model);
    let indexed = model.entity_ids.iter().map(|e| e.raw()).collect();
    (index, indexed)
}

/// Builds the full stack from scratch on a corpus snapshot.
pub fn grow_batch(
    base: &KnowledgeGraph,
    corpus: &Corpus,
    cfg: &GrowthConfig,
    workers: usize,
    workdir: &Path,
    registry: &Registry,
) -> Result<(GrowthState, GrowthReport)> {
    std::fs::create_dir_all(workdir)?;
    let service = AnnotationService::build(base, LinkerConfig::tier(Tier::T2Contextual));
    let search = SearchEngine::build(corpus);
    let (annotated, _) =
        annotate_corpus_obs(&service, corpus, workers, &registry.scope("annotation"));

    let mut kg = base.clone();
    let links_added = extend_kg_with_links(&mut kg, corpus, &annotated, cfg.max_docs_per_entity);
    let odke_report = run_odke_obs(
        &mut kg,
        &service,
        &search,
        corpus,
        &cfg.targets,
        &cfg.odke,
        &registry.scope("odke"),
    );

    let store = KgStore::create(&workdir.join("kg.store"), kg, &EngineOptions::default())?;
    let store_cursor = DeltaCursor::at(store.last_commit());
    let page_cursor = DeltaCursor::at(corpus.version);

    let ds = training_set(store.graph(), cfg);
    let (model, stats) = train_partitioned(&ds, &cfg.train, cfg.num_parts, workers);
    let (index, indexed) = rebuild_index(&model);

    let report = GrowthReport {
        pages_reprocessed: corpus.pages.len(),
        entities_dirtied: store.graph().num_entities(),
        targets_reextracted: cfg.targets.len(),
        links_added,
        links_removed: 0,
        facts_changed: odke_report.facts_written,
        partitions_retrained: cfg.num_parts,
        buckets_trained: stats.buckets_trained,
        ann_upserts: indexed.len(),
        ann_deletes: 0,
        lapsed: false,
        published: crate::published_bytes(store.graph()),
    };
    let state = GrowthState {
        store,
        annotated,
        search,
        service,
        model,
        index,
        indexed,
        page_cursor,
        store_cursor,
        workdir: workdir.to_path_buf(),
        passes: 0,
    };
    Ok((state, report))
}

/// The facts of `kg` about `entities`, keyed by content, with their meta.
fn facts_of(
    kg: &KnowledgeGraph,
    entities: &BTreeSet<EntityId>,
) -> BTreeMap<FactContentKey, (Triple, FactMeta)> {
    let mut out = BTreeMap::new();
    for &e in entities {
        for t in kg.triples_of(e) {
            let meta = kg.fact_meta(&t).expect("committed triple has meta");
            out.insert(fact_content_key(&t), (t, meta));
        }
    }
    out
}

/// Advances the stack by one crawl interval. See the module docs for the
/// stage chain; returns what the pass did, including the published bytes.
pub fn grow_incremental(
    state: &mut GrowthState,
    corpus: &Corpus,
    cfg: &GrowthConfig,
    workers: usize,
    registry: &Registry,
) -> Result<GrowthReport> {
    let delta_scope = registry.scope(DELTA_SCOPE);
    state.passes += 1;
    let mut report = GrowthReport::default();

    // 1. Page feed: pull the dirty pages, keep the search index in sync.
    let page_batch = pull_page_delta(corpus, &mut state.page_cursor);
    for &doc in &page_batch.dirty_pages {
        state.search.index_page(corpus.page(doc));
    }
    report.pages_reprocessed = page_batch.dirty_pages.len();

    // 2. Re-annotate dirty pages; widen to the entity-keyed dirty set.
    let (entity_batch, _) = annotate_delta_obs(
        &state.service,
        corpus,
        &mut state.annotated,
        &page_batch,
        &registry.scope("annotation"),
    );
    entity_batch.record_to(&delta_scope);
    report.entities_dirtied = entity_batch.dirty_entities.len();

    // 3. Link reconciliation + delta extraction on a working copy.
    let mut kg = state.store.graph().clone();
    let (links_added, links_removed) = sync_kg_links(
        &mut kg,
        corpus,
        &state.annotated,
        entity_batch.dirty_entities.iter().copied(),
        cfg.max_docs_per_entity,
    );
    report.links_added = links_added;
    report.links_removed = links_removed;
    let odke_report = run_odke_delta_obs(
        &mut kg,
        &state.service,
        &state.search,
        corpus,
        &cfg.targets,
        &entity_batch,
        &cfg.odke,
        &registry.scope("odke"),
        &delta_scope,
    );
    report.targets_reextracted = odke_report.outcomes.len();

    // 4. Mirror the fact diff into the store as one commit. All stages
    // above only touch facts about dirty entities, so the diff over their
    // triples is the whole diff.
    let old = facts_of(state.store.graph(), &entity_batch.dirty_entities);
    let new = facts_of(&kg, &entity_batch.dirty_entities);
    let mut changed = 0usize;
    if old != new {
        state.store.commit(|txn| {
            for (key, (t, _)) in &old {
                if !new.contains_key(key) {
                    txn.remove(t);
                    changed += 1;
                }
            }
            for (key, (t, meta)) in &new {
                let refresh = match old.get(key) {
                    None => true,
                    Some((_, old_meta)) => {
                        old_meta.source != meta.source
                            || old_meta.confidence.to_bits() != meta.confidence.to_bits()
                    }
                };
                if refresh {
                    txn.insert_with(t.clone(), meta.source, meta.confidence);
                    changed += 1;
                }
            }
        })?;
    }
    report.facts_changed = changed;

    // 5. Pull the committed diff back through the store's cursor — the
    // entity batch that drives the model layers.
    match state.store.pull_delta(&mut state.store_cursor) {
        DeltaPull::Batch(store_batch) => {
            store_batch.record_to(&delta_scope);
            retrain_delta(state, cfg, workers, &store_batch, registry, &mut report)?;
        }
        DeltaPull::Lapsed { .. } => {
            record_lapse(&delta_scope);
            report.lapsed = true;
            let ds = training_set(state.store.graph(), cfg);
            let (model, stats) = train_partitioned(&ds, &cfg.train, cfg.num_parts, workers);
            let (index, indexed) = rebuild_index(&model);
            report.partitions_retrained = cfg.num_parts;
            report.buckets_trained = stats.buckets_trained;
            report.ann_upserts = indexed.len();
            report.ann_deletes = state.indexed.difference(&indexed).count();
            state.model = model;
            state.index = index;
            state.indexed = indexed;
            state.store_cursor.resync(state.store.last_commit());
        }
    }

    report.published = crate::published_bytes(state.store.graph());
    Ok(report)
}

/// Step 6 of the incremental pass: dirty-partition retraining off a warm
/// start, then ANN maintenance of exactly the changed rows.
fn retrain_delta(
    state: &mut GrowthState,
    cfg: &GrowthConfig,
    workers: usize,
    store_batch: &DeltaBatch,
    registry: &Registry,
    report: &mut GrowthReport,
) -> Result<()> {
    let delta_scope = registry.scope(DELTA_SCOPE);
    if store_batch.dirty_entities.is_empty() {
        return Ok(());
    }
    let ds = training_set(state.store.graph(), cfg);
    let parts = training_partitioning(&ds, &cfg.train, cfg.num_parts);
    let dirty = dirty_partitions(&ds, &parts, store_batch.dirty_entities.iter().copied());
    if dirty.is_empty() {
        // Facts changed but none survive the training view (e.g. literal
        // objects only) — the model is untouched.
        return Ok(());
    }
    delta_scope.counter("partitions_retrained").add(dirty.len() as u64);
    report.partitions_retrained = dirty.len();

    let log_path = state.workdir.join(format!("delta-train-{}.wal", state.passes));
    let mut log = TrainCheckpointLog::open(&log_path)?;
    let run = CheckpointedTrainer::new(cfg.train.clone(), cfg.num_parts, workers)
        .with_warm_start(&state.model)
        .with_delta_partitions(dirty)
        .with_obs(delta_scope.child("train"))
        .train(&ds, &mut log)?;
    report.buckets_trained = run.report.buckets_trained;
    state.model = run.model.expect("no kill hooks installed; delta run completes");
    // ANN maintenance: upsert rows that moved (or are new), tombstone rows
    // whose entity left the model vocabulary.
    let mut live = BTreeSet::new();
    for (i, &e) in state.model.entity_ids.iter().enumerate() {
        let id = e.raw();
        live.insert(id);
        let row = state.model.entities.row(i);
        if state.index.get(id) != Some(row) {
            state.index.upsert(id, row);
            report.ann_upserts += 1;
        }
    }
    for &id in state.indexed.difference(&live) {
        state.index.remove(id);
        report.ann_deletes += 1;
    }
    state.indexed = live;
    delta_scope.counter("ann_upserts").add(report.ann_upserts as u64);
    delta_scope.counter("ann_deletes").add(report.ann_deletes as u64);

    // The frame behind `log_path` now makes the current model durable; the
    // logs of earlier passes describe models that no longer exist.
    remove_superseded_train_logs(&state.workdir, &log_path);
    Ok(())
}

/// Removes every `delta-train-*.wal` in `workdir` except `newest`. Nothing
/// reads the files it removes, so a failure to list or unlink one is left
/// for the next interval's sweep instead of failing this one.
fn remove_superseded_train_logs(workdir: &Path, newest: &Path) {
    let Ok(entries) = std::fs::read_dir(workdir) else { return };
    for path in entries.flatten().map(|entry| entry.path()) {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or_default();
        if name.starts_with("delta-train-") && name.ends_with(".wal") && path != newest {
            let _ = std::fs::remove_file(&path);
        }
    }
}
