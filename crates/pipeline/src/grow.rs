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
//! 4. mirror the resulting fact diff into the [`KgStore`] as one commit —
//!    the working copy is a clone of the store's graph, so the diff walks
//!    both graphs' SPO ranges of the dirty entities on keys and decodes only
//!    the facts that differ;
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
//! 7. publish: write the canonical snapshot image of the store's graph
//!    ([`crate::published_bytes`]) and return it.
//!
//! If the store's retained deltas no longer cover the cursor
//! ([`DeltaPull::Lapsed`]) the driver falls back to a full retrain +
//! index rebuild and resyncs — lapsing costs work, never correctness.
//!
//! The contract proved by `tests/equivalence.rs`: the published snapshot
//! ([`crate::published_bytes`]) of the incremental path is bit-identical
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
    Result, Triple, TripleKey,
};
use saga_embeddings::{
    dirty_partitions, train_partitioned, training_partitioning, CheckpointedTrainer,
    TrainCheckpointLog, TrainConfig, TrainedModel, TrainingSet,
};
use saga_graph::{GraphView, ViewDef};
use saga_odke::{run_odke_delta_obs, run_odke_obs, FactTarget, OdkeConfig};
use saga_webcorpus::{changefeed::pull_page_delta, Corpus, SearchEngine};
use std::cmp::Ordering;
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
    /// Facts the store commit removed, added or refreshed (batch: the
    /// facts ODKE wrote).
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

/// Facts keyed by content, with their meta.
type FactsByContent = BTreeMap<FactContentKey, (Triple, FactMeta)>;

/// The facts about `entities` that differ between the store's graph and the
/// working copy `kg`: `old` holds each such fact as `store` has it, `new` as
/// `kg` has it, and a fact both have with equal meta is in neither.
///
/// `kg` must be a clone of `store` advanced only by writes and commits. Its
/// literal table then extends the store's, so a [`TripleKey`] present in
/// both graphs is the same fact in both, and a fact with a literal only `kg`
/// has cannot be in `store`. That lets the diff walk each entity's SPO range
/// of both graphs in lockstep on keys, and decode and content-key only the
/// facts that differ. On equal keys it keeps the fact when the meta differs
/// at all (`!=` also sees `observed_at`: a re-insert with the same source and
/// confidence still makes the maps unequal, so a commit follows, as it did
/// when the diff compared every fact) or when the confidence bits differ
/// (what the commit refreshes on). Object literals are assumed to equal
/// themselves (no NaN float literal).
fn fact_diff(
    store: &KnowledgeGraph,
    kg: &KnowledgeGraph,
    entities: &BTreeSet<EntityId>,
) -> (FactsByContent, FactsByContent) {
    debug_assert!(kg.extends_literals_of(store), "the working graph is not a clone of the store's");
    fn put(facts: &mut FactsByContent, graph: &KnowledgeGraph, key: TripleKey, meta: FactMeta) {
        let t = graph.decode(key);
        facts.insert(fact_content_key(&t), (t, meta));
    }
    let (mut old, mut new) = (BTreeMap::new(), BTreeMap::new());
    for &e in entities {
        let (mut was, mut now) =
            (store.subject_facts(e).peekable(), kg.subject_facts(e).peekable());
        loop {
            let side = match (was.peek(), now.peek()) {
                (None, None) => break,
                (Some(_), None) => Ordering::Less,
                (None, Some(_)) => Ordering::Greater,
                (Some((a, _)), Some((b, _))) => a.cmp(b),
            };
            match side {
                Ordering::Less => {
                    let (k, meta) = was.next().expect("peeked");
                    put(&mut old, store, k, meta);
                }
                Ordering::Greater => {
                    let (k, meta) = now.next().expect("peeked");
                    put(&mut new, kg, k, meta);
                }
                Ordering::Equal => {
                    let (k, a) = was.next().expect("peeked");
                    let (_, b) = now.next().expect("peeked");
                    if a != b || a.confidence.to_bits() != b.confidence.to_bits() {
                        put(&mut old, store, k, a);
                        put(&mut new, kg, k, b);
                    }
                }
            }
        }
    }
    (old, new)
}

/// Step 4: mirrors the fact diff over `dirty` between the store's graph and
/// the working copy `kg` (see [`fact_diff`]) into the store as one commit —
/// none when nothing differs. Returns the facts removed, added or refreshed.
fn commit_fact_diff(
    store: &mut KgStore,
    kg: &KnowledgeGraph,
    dirty: &BTreeSet<EntityId>,
) -> Result<usize> {
    let (old, new) = fact_diff(store.graph(), kg, dirty);
    let mut changed = 0usize;
    if old != new {
        store.commit(|txn| {
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
    Ok(changed)
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
    report.facts_changed = commit_fact_diff(&mut state.store, &kg, &entity_batch.dirty_entities)?;

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
    // whose entity left the model vocabulary (in ascending id order), and
    // add the new ids to the live set, which is patched, not rebuilt.
    let GrowthState { model, index, indexed, .. } = state;
    for (i, &e) in model.entity_ids.iter().enumerate() {
        let id = e.raw();
        let row = model.entities.row(i);
        if index.get(id) != Some(row) {
            index.upsert(id, row);
            report.ann_upserts += 1;
        }
    }
    indexed.retain(|&id| {
        let live = model.entity_index(EntityId(id)).is_some();
        if !live {
            index.remove(id);
            report.ann_deletes += 1;
        }
        live
    });
    for &e in &model.entity_ids {
        indexed.insert(e.raw());
    }
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

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use saga_core::persist::codec::to_bytes;
    use saga_core::{
        Cardinality, EntityBuilder, Ontology, PredicateId, Value, ValueKind, Volatility,
    };
    use saga_testkit::{check, SplitMix64};

    /// The facts of `kg` about `entities`, keyed by content, with their meta
    /// — the diff's input before the key walk.
    fn facts_of(kg: &KnowledgeGraph, entities: &BTreeSet<EntityId>) -> FactsByContent {
        let mut out = BTreeMap::new();
        for &e in entities {
            for t in kg.triples_of(e) {
                let meta = kg.fact_meta(&t).expect("committed triple has meta");
                out.insert(fact_content_key(&t), (t, meta));
            }
        }
        out
    }

    /// Step 4 before the key walk: every fact of every dirty entity decoded
    /// and content-keyed on both sides, then the same commit.
    fn reference_commit_fact_diff(
        store: &mut KgStore,
        kg: &KnowledgeGraph,
        dirty: &BTreeSet<EntityId>,
    ) -> Result<usize> {
        let old = facts_of(store.graph(), dirty);
        let new = facts_of(kg, dirty);
        let mut changed = 0usize;
        if old != new {
            store.commit(|txn| {
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
        Ok(changed)
    }

    /// Subjects 0..6 carry facts; entities 6 and 7 never do.
    const ENTITIES: u64 = 8;
    const SUBJECTS: u8 = 6;
    const SOURCES: [&str; 3] = ["wiki", "crawl", "odke"];
    /// Objects `0..BASE_OBJECTS` may be in the base graph; the rest are
    /// literals only the working copy can intern.
    const BASE_OBJECTS: u8 = 8;
    const OBJECTS: u8 = 12;

    fn object(i: u8) -> Value {
        match i {
            0 => Value::Entity(EntityId(1)),
            1 => Value::Entity(EntityId(6)),
            2 => Value::Integer(10),
            3 => Value::Text("10".into()),
            4 => Value::Text("alpha".into()),
            5 => Value::Float(1.5),
            6 => Value::Identifier("synth://a".into()),
            7 => Value::Bool(true),
            8 => Value::Text("fresh".into()),
            9 => Value::Integer(-3),
            10 => Value::Identifier("synth://b".into()),
            _ => Value::Float(-0.25),
        }
    }

    /// `(subject, predicate, object, source, confidence)`.
    type Fact = (u8, u8, u8, u8, u8);

    fn triple(&(s, p, o, _, _): &Fact) -> Triple {
        Triple::new(EntityId(u64::from(s)), PredicateId(u32::from(p)), object(o))
    }

    fn confidence(c: u8) -> f32 {
        f32::from(c) / 4.0
    }

    #[derive(Debug, Clone)]
    enum Op {
        /// Insert with the fact's source and confidence: new, or a meta
        /// change when the base holds it otherwise.
        Insert(Fact),
        /// Re-insert base fact `i` (mod the base's length) with its meta
        /// exactly as the base has it.
        Reinsert(usize),
        Remove(Fact),
        Commit,
    }

    fn fact_below(rng: &mut SplitMix64, objects: u8) -> Fact {
        let (s, p, o) =
            (rng.gen_range(0..SUBJECTS), rng.gen_range(0u8..3), rng.gen_range(0..objects));
        (s, p, o, rng.gen_range(0u8..3), rng.gen_range(0u8..5))
    }

    fn base_fact(rng: &mut SplitMix64) -> Fact {
        fact_below(rng, BASE_OBJECTS)
    }

    fn any_fact(rng: &mut SplitMix64) -> Fact {
        fact_below(rng, OBJECTS)
    }

    fn op(rng: &mut SplitMix64) -> Op {
        saga_testkit::one_of(
            rng,
            &[
                &|rng| Op::Insert(any_fact(rng)),
                &|rng| Op::Reinsert(rng.gen_range(0usize..64)),
                &|rng| Op::Remove(any_fact(rng)),
                &|_| Op::Commit,
            ],
        )
    }

    fn base_graph(facts: &[Fact]) -> KnowledgeGraph {
        let mut o = Ontology::new();
        let thing = o.add_type("thing", None);
        for name in ["p0", "p1", "p2"] {
            o.add_predicate(
                name,
                name,
                ValueKind::Text,
                Some(thing),
                Cardinality::Multi,
                Volatility::Slow,
                false,
            );
        }
        let mut kg = KnowledgeGraph::new(o);
        for i in 0..ENTITIES {
            kg.add_entity(EntityBuilder::new(format!("e{i}"), thing));
        }
        for name in SOURCES {
            kg.register_source(name);
        }
        for f in facts {
            let src = kg.register_source(SOURCES[f.3 as usize]);
            kg.insert_with(triple(f), src, confidence(f.4));
        }
        kg.commit();
        kg
    }

    /// A fresh directory per property case.
    fn scratch_dir() -> PathBuf {
        static CASE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let case = CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir()
            .join("saga-pipeline-fact-diff")
            .join(std::process::id().to_string())
            .join(case.to_string());
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    /// A base graph in a store, a working copy cloned from it and
    /// advanced by a random write/commit history (new facts, removals,
    /// literals only the copy has, meta changes, re-inserts with the
    /// same meta): the key walk commits exactly what the two-map diff
    /// commits — same count, same delta, same store file bytes — for a
    /// dirty set that includes untouched entities and entities with no
    /// facts.
    #[test]
    fn key_walk_commits_what_the_content_diff_commits() {
        check(96, 1, |rng| {
            let base = saga_testkit::vec(rng, 0..24, base_fact);
            let history = saga_testkit::vec(rng, 0..24, op);
            let dirty =
                saga_testkit::vec(rng, 0..ENTITIES as usize, |rng| rng.gen_range(0u64..ENTITIES));
            let base = base_graph(&base);
            let dir = scratch_dir();
            let opts = EngineOptions::default();
            let mut store = KgStore::create(&dir.join("walk.store"), base.clone(), &opts).unwrap();
            let mut reference =
                KgStore::create(&dir.join("reference.store"), base.clone(), &opts).unwrap();

            let mut kg = store.graph().clone();
            let base_facts: Vec<(Triple, FactMeta)> = base
                .keys()
                .map(|k| base.decode(k))
                .map(|t| {
                    let meta = base.fact_meta(&t).unwrap();
                    (t, meta)
                })
                .collect();
            for op in &history {
                match op {
                    Op::Insert(f) => {
                        let src = kg.register_source(SOURCES[f.3 as usize]);
                        kg.insert_with(triple(f), src, confidence(f.4));
                    }
                    Op::Reinsert(i) if !base_facts.is_empty() => {
                        let (t, meta) = &base_facts[i % base_facts.len()];
                        kg.insert_with(t.clone(), meta.source, meta.confidence);
                    }
                    Op::Reinsert(_) => {}
                    Op::Remove(f) => kg.remove(&triple(f)),
                    Op::Commit => {
                        kg.commit();
                    }
                }
            }
            kg.commit();

            let dirty: BTreeSet<EntityId> = dirty.into_iter().map(EntityId).collect();
            let got = commit_fact_diff(&mut store, &kg, &dirty).unwrap();
            let want = reference_commit_fact_diff(&mut reference, &kg, &dirty).unwrap();
            assert_eq!(got, want);
            assert_eq!(store.last_commit(), reference.last_commit());
            let deltas = |s: &KgStore| format!("{:?}", s.changes_since(0));
            assert_eq!(deltas(&store), deltas(&reference));
            assert!(to_bytes(store.graph()) == to_bytes(reference.graph()));
            drop((store, reference));
            let read = |name: &str| std::fs::read(dir.join(name)).unwrap();
            assert!(read("walk.store") == read("reference.store"), "store files differ");
            let _ = std::fs::remove_dir_all(&dir);
        });
    }
}
