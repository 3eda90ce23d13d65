//! The grow path: page delta → published bytes, through `grow_incremental`.
//!
//! A run is a sequence of **epochs**. Each clones the pristine corpus,
//! bootstraps with `grow_batch` (a `setup_s` sample) and then times a fixed
//! chain of `grow_incremental` intervals — one window per epoch, so every
//! run samples the same chain depths however many epochs fit. Churn is
//! applied between the timed ops.

use crate::consts::*;
use crate::spans::Spans;
use crate::stats::{Phase, Window};
use crate::sys::{now_ns, Meter, Usage};
use saga_annotation::{
    annotate_corpus_obs, annotate_delta_obs, extend_kg_with_links, sync_kg_links,
    AnnotationService, LinkerConfig, Tier,
};
use saga_core::delta::{DeltaCursor, DeltaPull, DELTA_SCOPE};
use saga_core::obs::Registry;
use saga_core::synth::{generate, SynthConfig, SynthKg};
use saga_core::trace::splitmix64;
use saga_core::{EngineOptions, EntityId, FactMeta, KgStore, KnowledgeGraph, Triple};
use saga_embeddings::{
    build_flat_index, dirty_partitions, train_partitioned, training_partitioning,
    CheckpointedTrainer, ModelKind, TrainCheckpointLog, TrainConfig, TrainingSet,
};
use saga_graph::{GraphView, ViewDef};
use saga_odke::{run_odke_delta_obs, run_odke_obs, FactTarget, OdkeConfig, TargetReason};
use saga_pipeline::{
    grow_batch, grow_incremental, published_bytes, GrowthConfig, GrowthReport, GrowthState,
};
use saga_webcorpus::changefeed::pull_page_delta;
use saga_webcorpus::{
    apply_churn, apply_fact_churn, generate_corpus, ChurnConfig, Corpus, CorpusConfig, CorpusTruth,
    SearchEngine,
};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::time::{Duration, Instant};

/// Everything that sizes a grow run. [`GrowPlan::ledger`] is the only plan
/// the command runs; tests build smaller ones.
#[derive(Debug, Clone)]
pub struct GrowPlan {
    pub synth: SynthConfig,
    pub corpus: CorpusConfig,
    pub partitions: usize,
    /// Chained `grow_incremental` intervals per epoch.
    pub intervals: usize,
    /// Fraction of pages edited per interval.
    pub churn: f64,
}

impl GrowPlan {
    /// `saga grow-bench`'s Bench scale, re-declared from public APIs.
    pub fn ledger(intervals: usize, churn: f64) -> Self {
        GrowPlan {
            synth: SynthConfig {
                num_people: FIXTURE_PEOPLE,
                num_movies: FIXTURE_MOVIES,
                num_songs: FIXTURE_SONGS,
                num_orgs: FIXTURE_ORGS,
                num_places: FIXTURE_PLACES,
                num_teams: FIXTURE_TEAMS,
                ..SynthConfig::tiny(FIXTURE_SEED)
            },
            corpus: CorpusConfig {
                entity_pages: FIXTURE_ENTITY_PAGES,
                news_pages: FIXTURE_NEWS_PAGES,
                noise_pages: FIXTURE_NOISE_PAGES,
                ..CorpusConfig::tiny(FIXTURE_SEED ^ 0x17)
            },
            partitions: TRAIN_PARTITIONS,
            intervals,
            churn,
        }
    }
}

/// The pristine world every epoch starts from. Built from constant seeds:
/// `--seed` only picks which pages and facts churn.
pub struct Fixture {
    pub synth: SynthKg,
    pub corpus: Corpus,
    pub truth: CorpusTruth,
    pub cfg: GrowthConfig,
}

impl Fixture {
    pub fn build(plan: &GrowPlan) -> Self {
        let synth = generate(&plan.synth);
        let (corpus, truth) = generate_corpus(&synth, &[], &plan.corpus);
        // The fixed target universe: the first N subjects with a rendered
        // `lives_in` page, by entity id — what fact churn rewrites.
        let mut subjects: Vec<u64> = truth
            .rendered_facts
            .iter()
            .filter(|(_, _, p, _)| *p == synth.preds.lives_in)
            .map(|(_, e, _, _)| e.raw())
            .collect();
        subjects.sort_unstable();
        subjects.dedup();
        let targets = subjects
            .into_iter()
            .take(FIXTURE_TARGETS)
            .map(|raw| FactTarget {
                entity: EntityId(raw),
                predicate: synth.preds.lives_in,
                reason: TargetReason::CoverageGap,
                importance: 1.0,
            })
            .collect();
        let cfg = GrowthConfig {
            max_docs_per_entity: MAX_DOCS_PER_ENTITY,
            odke: OdkeConfig { docs_per_query: ODKE_DOCS_PER_QUERY, ..OdkeConfig::default() },
            train: TrainConfig {
                model: ModelKind::TransE,
                dim: TRAIN_DIM,
                epochs: TRAIN_EPOCHS,
                negatives: TRAIN_NEGATIVES,
                seed: plan.synth.seed ^ 11,
                ..TrainConfig::default()
            },
            num_parts: plan.partitions,
            min_predicate_frequency: MIN_PREDICATE_FREQUENCY,
            targets,
        };
        Fixture { synth, corpus, truth, cfg }
    }

    /// One crawl interval of churn: page edits and new pages, plus
    /// real-world fact changes rewriting their evidence pages.
    fn churn(&self, plan: &GrowPlan, corpus: &mut Corpus, seed: u64) {
        apply_churn(
            corpus,
            &ChurnConfig { edit_fraction: plan.churn, new_pages: NEW_PAGES_PER_INTERVAL, seed },
        );
        apply_fact_churn(
            corpus,
            &self.synth,
            &self.truth,
            FACT_CHANGES_PER_INTERVAL,
            seed ^ 0x5eed,
        );
    }
}

fn churn_seed(seed: u64, epoch: u64, interval: usize) -> u64 {
    splitmix64(seed ^ splitmix64(epoch << 16 | interval as u64))
}

fn err(what: &str, e: impl std::fmt::Display) -> String {
    format!("{what}: {e}")
}

// ------------------------------------------------------------- staged mirror

const HOLDOUT_FRAC: f64 = 0.05;

fn training_set(kg: &KnowledgeGraph, cfg: &GrowthConfig) -> TrainingSet {
    let view = GraphView::materialize(kg, ViewDef::embedding_training(cfg.min_predicate_frequency));
    TrainingSet::from_edges(&view.edges(), HOLDOUT_FRAC, HOLDOUT_FRAC, cfg.train.seed)
}

type FactKey = (u64, u64, u8, String);

fn facts_of(
    kg: &KnowledgeGraph,
    entities: &BTreeSet<EntityId>,
) -> BTreeMap<FactKey, (Triple, FactMeta)> {
    let mut out = BTreeMap::new();
    for &e in entities {
        for t in kg.triples_of(e) {
            let meta = kg.fact_meta(&t).expect("committed triple has meta");
            let key = (
                t.subject.raw(),
                t.predicate.raw() as u64,
                t.object.kind() as u8,
                t.object.canonical(),
            );
            out.insert(key, (t, meta));
        }
    }
    out
}

/// `grow_batch`, stage by stage through the same public functions in the
/// same order, with a span around each stage.
fn staged_batch(
    fx: &Fixture,
    corpus: &Corpus,
    workers: usize,
    workdir: &Path,
    spans: &mut Spans,
    request: u64,
) -> Result<(GrowthState, GrowthReport), String> {
    let (base, cfg, registry) = (&fx.synth.kg, &fx.cfg, Registry::new());
    let root = spans.open("bootstrap", 0, request);
    std::fs::create_dir_all(workdir).map_err(|e| err("workdir", e))?;

    let (service, search, annotated, mut kg, links_added) =
        spans.time("pipeline.bootstrap_annotate", root, request, || {
            let service = AnnotationService::build(base, LinkerConfig::tier(Tier::T2Contextual));
            let search = SearchEngine::build(corpus);
            let (annotated, _) =
                annotate_corpus_obs(&service, corpus, workers, &registry.scope("annotation"));
            let mut kg = base.clone();
            let links = extend_kg_with_links(&mut kg, corpus, &annotated, cfg.max_docs_per_entity);
            (service, search, annotated, kg, links)
        });
    let odke_report = spans.time("pipeline.bootstrap_odke", root, request, || {
        run_odke_obs(
            &mut kg,
            &service,
            &search,
            corpus,
            &cfg.targets,
            &cfg.odke,
            &registry.scope("odke"),
        )
    });
    let store = spans
        .time("store.create", root, request, || {
            KgStore::create(&workdir.join("kg.store"), kg, &EngineOptions::default())
        })
        .map_err(|e| err("store create", e))?;
    let store_cursor = DeltaCursor::at(store.last_commit());
    let page_cursor = DeltaCursor::at(corpus.version);
    let (model, stats) = spans.time("embeddings.train_full", root, request, || {
        let ds = training_set(store.graph(), cfg);
        train_partitioned(&ds, &cfg.train, cfg.num_parts, workers)
    });
    let (index, indexed) = spans.time("ann.build", root, request, || {
        let index = build_flat_index(&model);
        let indexed: BTreeSet<u64> = model.entity_ids.iter().map(|e| e.raw()).collect();
        (index, indexed)
    });
    let published =
        spans.time("pipeline.bootstrap_publish", root, request, || published_bytes(store.graph()));
    spans.close(root);

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
        published,
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

/// The stages of one interval, in `grow_incremental`'s order.
pub const INTERVAL_STAGES: [&str; 13] = [
    "webcorpus.reindex",
    "annotation.delta",
    "pipeline.graph_clone",
    "annotation.link_sync",
    "odke.delta",
    "pipeline.fact_diff",
    "store.commit",
    "store.pull_delta",
    "graph.training_view",
    "embeddings.partitioning",
    "embeddings.retrain",
    "ann.upsert",
    "pipeline.publish",
];

/// `grow_incremental`, stage by stage through the same public functions in
/// the same order, with a span around each stage. The caller requires its
/// report and bytes to equal `grow_incremental`'s on a twin state.
fn staged_incremental(
    state: &mut GrowthState,
    corpus: &Corpus,
    cfg: &GrowthConfig,
    workers: usize,
    registry: &Registry,
    spans: &mut Spans,
    request: u64,
) -> Result<GrowthReport, String> {
    let root = spans.open("interval", 0, request);
    let stage = |spans: &mut Spans, name: &'static str, from: u64| {
        spans.push(name, from, now_ns(), root, request);
    };
    let delta_scope = registry.scope(DELTA_SCOPE);
    state.passes += 1;
    let mut report = GrowthReport::default();

    let t = now_ns();
    let page_batch = pull_page_delta(corpus, &mut state.page_cursor);
    for &doc in &page_batch.dirty_pages {
        state.search.index_page(corpus.page(doc));
    }
    report.pages_reprocessed = page_batch.dirty_pages.len();
    stage(spans, "webcorpus.reindex", t);

    let t = now_ns();
    let (entity_batch, _) = annotate_delta_obs(
        &state.service,
        corpus,
        &mut state.annotated,
        &page_batch,
        &registry.scope("annotation"),
    );
    entity_batch.record_to(&delta_scope);
    report.entities_dirtied = entity_batch.dirty_entities.len();
    stage(spans, "annotation.delta", t);

    let t = now_ns();
    let mut kg = state.store.graph().clone();
    stage(spans, "pipeline.graph_clone", t);

    let t = now_ns();
    let (links_added, links_removed) = sync_kg_links(
        &mut kg,
        corpus,
        &state.annotated,
        entity_batch.dirty_entities.iter().copied(),
        cfg.max_docs_per_entity,
    );
    report.links_added = links_added;
    report.links_removed = links_removed;
    stage(spans, "annotation.link_sync", t);

    let t = now_ns();
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
    stage(spans, "odke.delta", t);

    let t = now_ns();
    let old = facts_of(state.store.graph(), &entity_batch.dirty_entities);
    let new = facts_of(&kg, &entity_batch.dirty_entities);
    let differs = old != new;
    stage(spans, "pipeline.fact_diff", t);

    let t = now_ns();
    let mut changed = 0usize;
    if differs {
        state
            .store
            .commit(|txn| {
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
            })
            .map_err(|e| err("store commit", e))?;
    }
    report.facts_changed = changed;
    stage(spans, "store.commit", t);

    let t = now_ns();
    let pulled = state.store.pull_delta(&mut state.store_cursor);
    stage(spans, "store.pull_delta", t);
    // Every interval commits at most once and the cursor is pulled after
    // each, so the retained deltas always cover it; the mirror has no
    // full-rebuild branch to keep in step with.
    let DeltaPull::Batch(store_batch) = pulled else {
        return Err("store cursor lapsed inside a chained epoch".into());
    };
    store_batch.record_to(&delta_scope);

    if !store_batch.dirty_entities.is_empty() {
        let t = now_ns();
        let ds = training_set(state.store.graph(), cfg);
        stage(spans, "graph.training_view", t);

        let t = now_ns();
        let parts = training_partitioning(&ds, &cfg.train, cfg.num_parts);
        let dirty = dirty_partitions(&ds, &parts, store_batch.dirty_entities.iter().copied());
        stage(spans, "embeddings.partitioning", t);

        if !dirty.is_empty() {
            let t = now_ns();
            delta_scope.counter("partitions_retrained").add(dirty.len() as u64);
            report.partitions_retrained = dirty.len();
            let log_path = state.workdir.join(format!("delta-train-{}.wal", state.passes));
            let mut log = TrainCheckpointLog::open(&log_path).map_err(|e| err("train log", e))?;
            let run = CheckpointedTrainer::new(cfg.train.clone(), cfg.num_parts, workers)
                .with_warm_start(&state.model)
                .with_delta_partitions(dirty)
                .with_obs(delta_scope.child("train"))
                .train(&ds, &mut log)
                .map_err(|e| err("delta train", e))?;
            report.buckets_trained = run.report.buckets_trained;
            state.model = run.model.ok_or("delta training did not complete")?;
            stage(spans, "embeddings.retrain", t);

            let t = now_ns();
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
            stage(spans, "ann.upsert", t);
        }
    }

    let t = now_ns();
    report.published = published_bytes(state.store.graph());
    stage(spans, "pipeline.publish", t);

    spans.close(root);
    Ok(report)
}

fn same_report(a: &GrowthReport, b: &GrowthReport) -> bool {
    a.pages_reprocessed == b.pages_reprocessed
        && a.entities_dirtied == b.entities_dirtied
        && a.targets_reextracted == b.targets_reextracted
        && a.links_added == b.links_added
        && a.links_removed == b.links_removed
        && a.facts_changed == b.facts_changed
        && a.partitions_retrained == b.partitions_retrained
        && a.buckets_trained == b.buckets_trained
        && a.ann_upserts == b.ann_upserts
        && a.ann_deletes == b.ann_deletes
        && a.lapsed == b.lapsed
        && a.published == b.published
}

// ------------------------------------------------------------------- epochs

/// Mean `GrowthReport` counts over the intervals of a run, plus what was
/// seen from outside the pipeline.
#[derive(Debug, Clone, Default)]
pub struct GrowCounts {
    pub intervals: u64,
    pub pages_reprocessed: u64,
    pub entities_dirtied: u64,
    pub targets_reextracted: u64,
    pub facts_changed: u64,
    pub partitions_retrained: u64,
    pub buckets_trained: u64,
    pub ann_upserts: u64,
    /// Store file bytes ÷ facts held, at the end of the last epoch.
    pub file_bytes_per_fact: f64,
}

impl GrowCounts {
    fn add(&mut self, r: &GrowthReport) {
        self.intervals += 1;
        self.pages_reprocessed += r.pages_reprocessed as u64;
        self.entities_dirtied += r.entities_dirtied as u64;
        self.targets_reextracted += r.targets_reextracted as u64;
        self.facts_changed += r.facts_changed as u64;
        self.partitions_retrained += r.partitions_retrained as u64;
        self.buckets_trained += r.buckets_trained as u64;
        self.ann_upserts += r.ann_upserts as u64;
    }

    pub fn mean(&self, total: u64) -> f64 {
        total as f64 / self.intervals.max(1) as f64
    }
}

/// What a grow run measured. `traced` and `spans` stay empty untraced.
#[derive(Default)]
pub struct GrowRun {
    /// `grow_batch` + chained `grow_incremental`: the gated numbers.
    pub phase: Phase,
    /// The staged mirror's intervals (traced runs only).
    pub traced: Phase,
    pub spans: Spans,
    pub counts: GrowCounts,
    /// `VmHWM` when the last epoch ended, before the convergence check.
    pub peak_rss_mb: f64,
}

impl GrowRun {
    /// Sum of the stage spans over the mirror's interval spans.
    pub fn stage_sum_ratio(&self) -> f64 {
        let parts: u64 = INTERVAL_STAGES.iter().map(|n| self.spans.total_ns(n)).sum();
        parts as f64 / self.spans.total_ns("interval").max(1) as f64
    }

    /// Mirror over `grow_incremental` quiet-window median, minus one.
    pub fn overhead_share(&self) -> f64 {
        self.traced.op_p50_us() / self.phase.op_p50_us() - 1.0
    }
}

/// One timed op with its resource use.
fn timed<R>(latencies_ns: &mut Vec<u64>, used: &mut Usage, f: impl FnOnce() -> R) -> R {
    let before = Meter::read();
    let t0 = now_ns();
    let out = f();
    latencies_ns.push(now_ns() - t0);
    *used += Meter::read().since(&before);
    out
}

fn push_window(phase: &mut Phase, latencies_ns: &[u64], used: Usage) {
    phase.windows.push(Window::from_ops(latencies_ns, used));
    latencies_ns.iter().for_each(|&ns| phase.latencies.record_ns(ns));
    phase.op_wall_s += latencies_ns.iter().sum::<u64>() as f64 / 1e9;
}

/// Where an epoch's chain ended: the corpus it reached and what it published.
struct ChainEnd {
    corpus: Corpus,
    published: Vec<u8>,
}

/// Runs one epoch. With `trace`, a twin state bootstrapped and advanced by
/// the staged mirror runs every interval too and must agree with
/// `grow_incremental` in report and bytes.
fn run_epoch(
    fx: &Fixture,
    plan: &GrowPlan,
    scratch: &Path,
    seed: u64,
    epoch: u64,
    trace: bool,
    run: &mut GrowRun,
) -> Result<ChainEnd, String> {
    let dir = scratch.join(format!("epoch-{epoch}"));
    let mut corpus = fx.corpus.clone();
    let registry = Registry::new();

    let t0 = Instant::now();
    let (mut state, boot) =
        grow_batch(&fx.synth.kg, &corpus, &fx.cfg, GROW_WORKERS, &dir.join("a"), &registry)
            .map_err(|e| err("grow_batch", e))?;
    run.phase.setup_s.push(t0.elapsed().as_secs_f64());

    let mirror_registry = Registry::new();
    let mut mirror = match trace {
        false => None,
        true => {
            let (twin, twin_boot) =
                staged_batch(fx, &corpus, GROW_WORKERS, &dir.join("b"), &mut run.spans, epoch)?;
            if !same_report(&boot, &twin_boot) {
                return Err("staged bootstrap disagrees with grow_batch".into());
            }
            Some(twin)
        }
    };

    // A live server holds the pin of the last published version while the
    // next one is built, so the commit pays its copy-on-write.
    let mut _pin = state.store.pin();
    let mut _mirror_pin = mirror.as_ref().map(|m| m.store.pin());
    let (mut lat, mut used) = (Vec::with_capacity(plan.intervals), Usage::default());
    let (mut mirror_lat, mut mirror_used) = (Vec::new(), Usage::default());
    let mut published = boot.published;
    for interval in 0..plan.intervals {
        fx.churn(plan, &mut corpus, churn_seed(seed, epoch, interval));
        run.phase.attempted += 1;
        let report = timed(&mut lat, &mut used, || {
            grow_incremental(&mut state, &corpus, &fx.cfg, GROW_WORKERS, &registry)
        })
        .map_err(|e| err("grow_incremental", e))?;
        _pin = state.store.pin();
        let mut ok = !report.lapsed;
        if let Some(twin) = mirror.as_mut() {
            let request = epoch << 16 | interval as u64;
            let twin_report = timed(&mut mirror_lat, &mut mirror_used, || {
                staged_incremental(
                    twin,
                    &corpus,
                    &fx.cfg,
                    GROW_WORKERS,
                    &mirror_registry,
                    &mut run.spans,
                    request,
                )
            })?;
            _mirror_pin = Some(twin.store.pin());
            ok &= same_report(&report, &twin_report);
        }
        if !ok {
            run.phase.failed += 1;
        }
        run.counts.add(&report);
        published = report.published;
    }
    push_window(&mut run.phase, &lat, used);
    if trace {
        push_window(&mut run.traced, &mirror_lat, mirror_used);
    }

    let store_bytes = std::fs::metadata(dir.join("a").join("kg.store")).map_or(0, |m| m.len());
    run.counts.file_bytes_per_fact =
        store_bytes as f64 / state.store.graph().num_triples().max(1) as f64;
    drop((_pin, _mirror_pin, state, mirror));
    std::fs::remove_dir_all(&dir).map_err(|e| err("epoch scratch", e))?;
    Ok(ChainEnd { corpus, published })
}

/// The chain must have converged to what a fresh batch rebuild on its final
/// corpus publishes.
fn check_converged(fx: &Fixture, end: &ChainEnd, scratch: &Path) -> Result<bool, String> {
    let dir = scratch.join("rebuild");
    let (state, batch) =
        grow_batch(&fx.synth.kg, &end.corpus, &fx.cfg, GROW_WORKERS, &dir, &Registry::new())
            .map_err(|e| err("batch rebuild", e))?;
    drop(state);
    std::fs::remove_dir_all(&dir).map_err(|e| err("rebuild scratch", e))?;
    Ok(batch.published == end.published)
}

/// Epochs until `seconds` have passed; an epoch that has begun completes.
pub fn run(
    plan: &GrowPlan,
    scratch: &Path,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<GrowRun, String> {
    let fx = Fixture::build(plan);
    let mut run = GrowRun::default();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut epoch = 0u64;
    let end = loop {
        let end = run_epoch(&fx, plan, scratch, seed, epoch, trace, &mut run)?;
        epoch += 1;
        if Instant::now() >= deadline {
            break end;
        }
    };
    // The measured phase ends here. The check comes once per run, after the
    // last epoch and after the reading, so its rebuild is in no clock, no
    // counter and not in `peak_rss_mb`.
    run.peak_rss_mb = crate::sys::peak_rss_mb();
    if !check_converged(&fx, &end, scratch)? {
        run.phase.failed += 1;
        eprintln!("perf-ledger: published bytes differ from a fresh grow_batch");
    }
    Ok(run)
}
