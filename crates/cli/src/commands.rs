//! Command implementations and the tiny hand-rolled argument parser.

use saga_annotation::{AnnotationService, LinkerConfig, Tier};
use saga_core::persist::{load_artifact, save_artifact};
use saga_core::synth::{generate, SynthConfig};
use saga_core::{Changes, EngineOptions, EntityBuilder, EntityId, KgStore, KnowledgeGraph, Value};
use saga_embeddings::{
    build_knn_index, related_entities, train, FactVerifier, ModelKind, PathQuery, PathReasoner,
    TrainConfig, TrainedModel, TrainingSet,
};
use saga_graph::{missing_facts, GraphView, ViewDef};
use std::path::Path;

/// Usage text shown on errors.
pub const USAGE: &str = "usage:
  saga generate --seed N [--people N] --out FILE
  saga stats KG
  saga stats pipeline [--seed N] [--targets N]
  saga entity KG --name NAME
  saga gaps KG [--limit N]
  saga train KG [--model transe|distmult|complex] [--dim N] [--epochs N] --out FILE
  saga related KG MODEL --name NAME [-k N]
  saga verify KG MODEL --subject NAME --predicate PRED --object NAME
  saga annotate KG --text TEXT [--tier t0|t1|t2]
  saga path KG MODEL --start NAME --via P1,P2[,..] [-k N]
  saga odke --seed N [--targets N]
  saga grow --seed N [--targets N] [--workers N] [--incremental] [--churn PCT] [--intervals N]
  saga serve --listen ADDR [--seed N] [--vectors N] [--dim N] [--shards N] [-k N]
  saga query --connect ADDR [--entity N | --search SEED [-k N]] [--timeout-ms N]
  saga store create FILE [--page-size N] [--log-cap N]
  saga store grow FILE [--seed N] [--txns N]
  saga store stats FILE
  saga store changes FILE [--since C]
  saga store scrub FILE";

/// Simple flag parser: positional args + `--flag value` pairs (`-k` too).
struct Args<'a> {
    positional: Vec<&'a str>,
    flags: std::collections::HashMap<&'a str, &'a str>,
}

impl<'a> Args<'a> {
    fn parse(args: &'a [String]) -> Result<Self, String> {
        let mut positional = Vec::new();
        let mut flags = std::collections::HashMap::new();
        let mut i = 0;
        while i < args.len() {
            let a = args[i].as_str();
            if let Some(name) = a.strip_prefix("--").or_else(|| a.strip_prefix('-')) {
                // A flag followed by another `--flag` (or nothing) is a bare
                // boolean switch, e.g. `--incremental`.
                match args.get(i + 1).filter(|v| !v.starts_with("--")) {
                    Some(v) => {
                        flags.insert(name, v.as_str());
                        i += 2;
                    }
                    None => {
                        flags.insert(name, "");
                        i += 1;
                    }
                }
            } else {
                positional.push(a);
                i += 1;
            }
        }
        Ok(Self { positional, flags })
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags.get(name).copied()
    }

    fn required(&self, name: &str) -> Result<&str, String> {
        self.flag(name).ok_or_else(|| format!("missing --{name}"))
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flag(name) {
            Some(v) => v.parse().map_err(|_| format!("--{name}: invalid number '{v}'")),
            None => Ok(default),
        }
    }
}

/// A per-process scratch path in the temp dir, removed (file or directory
/// tree) when dropped, so a `?` return leaves nothing behind either.
struct TempPath(std::path::PathBuf);

impl TempPath {
    fn new(stem: &str, ext: &str) -> Self {
        let path = std::env::temp_dir().join(format!("{stem}-{}{ext}", std::process::id()));
        let this = TempPath(path);
        this.remove();
        this
    }

    fn remove(&self) {
        let _ = if self.0.is_dir() {
            std::fs::remove_dir_all(&self.0)
        } else {
            std::fs::remove_file(&self.0)
        };
    }
}

impl Drop for TempPath {
    fn drop(&mut self) {
        self.remove();
    }
}

fn load_kg(path: &str) -> Result<KnowledgeGraph, String> {
    let mut kg: KnowledgeGraph =
        load_artifact(Path::new(path)).map_err(|e| format!("loading {path}: {e}"))?;
    kg.rebuild_after_load();
    Ok(kg)
}

fn load_model(path: &str) -> Result<TrainedModel, String> {
    TrainedModel::load(Path::new(path)).map_err(|e| format!("loading {path}: {e}"))
}

fn find_entities<'k>(kg: &'k KnowledgeGraph, name: &str) -> Vec<&'k saga_core::EntityRecord> {
    let norm = saga_core::text::normalize_phrase(name);
    kg.entities()
        .filter(|e| e.surface_forms().any(|f| saga_core::text::normalize_phrase(f) == norm))
        .collect()
}

fn find_one(kg: &KnowledgeGraph, name: &str) -> Result<EntityId, String> {
    let matches = find_entities(kg, name);
    match matches.len() {
        0 => Err(format!("no entity named '{name}'")),
        _ => Ok(matches[0].id),
    }
}

fn render_value(kg: &KnowledgeGraph, v: &Value) -> String {
    match v {
        Value::Entity(e) => kg.entity(*e).name.clone(),
        other => other.canonical(),
    }
}

/// Dispatches a parsed command line.
pub fn dispatch(args: &[String]) -> Result<(), String> {
    let Some(cmd) = args.first() else {
        return Err("no command given".into());
    };
    let rest = Args::parse(&args[1..])?;
    match cmd.as_str() {
        "generate" => cmd_generate(&rest),
        "stats" => cmd_stats(&rest),
        "entity" => cmd_entity(&rest),
        "gaps" => cmd_gaps(&rest),
        "train" => cmd_train(&rest),
        "related" => cmd_related(&rest),
        "verify" => cmd_verify(&rest),
        "annotate" => cmd_annotate(&rest),
        "path" => cmd_path(&rest),
        "odke" => cmd_odke(&rest),
        "grow" => cmd_grow(&rest),
        "serve" => cmd_serve(&rest),
        "query" => cmd_query(&rest),
        "store" => cmd_store(&rest),
        other => Err(format!("unknown command '{other}'")),
    }
}

fn cmd_generate(args: &Args) -> Result<(), String> {
    let seed: u64 = args.num("seed", 7)?;
    let people: usize = args.num("people", 500)?;
    let out = args.required("out")?;
    let cfg = SynthConfig {
        seed,
        num_people: people,
        num_movies: people / 3,
        num_songs: people / 3,
        num_orgs: people / 10,
        num_places: (people / 12).max(20),
        num_teams: (people / 30).max(5),
        ..SynthConfig::default()
    };
    let s = generate(&cfg);
    save_artifact(Path::new(out), &s.kg).map_err(|e| e.to_string())?;
    println!(
        "generated KG: {} entities, {} facts → {out}",
        s.kg.num_entities(),
        s.kg.num_triples()
    );
    Ok(())
}

fn cmd_stats(args: &Args) -> Result<(), String> {
    if args.positional.first() == Some(&"pipeline") {
        return cmd_stats_pipeline(args);
    }
    let kg = load_kg(args.positional.first().ok_or("missing KG path")?)?;
    println!("entities:   {}", kg.num_entities());
    println!("facts:      {}", kg.num_triples());
    println!("types:      {}", kg.ontology().num_types());
    println!("predicates: {}", kg.ontology().num_predicates());
    let profile = saga_graph::profile(&kg);
    let mut stats: Vec<_> = profile.predicate_stats.iter().collect();
    stats.sort_by(|a, b| b.1.frequency.cmp(&a.1.frequency));
    println!("\ntop predicates:");
    for (p, s) in stats.iter().take(10) {
        println!(
            "  {:24} {:6} facts, {:6} subjects",
            kg.ontology().predicate(**p).name,
            s.frequency,
            s.distinct_subjects
        );
    }
    Ok(())
}

/// `saga stats pipeline`: runs a small synthetic annotate→extract pipeline
/// with every stage recording into one obs registry, then dumps the metric
/// tree — the quickest way to see what the observability substrate captures.
fn cmd_stats_pipeline(args: &Args) -> Result<(), String> {
    let seed: u64 = args.num("seed", 7)?;
    let n_targets: usize = args.num("targets", 6)?;
    let synth = generate(&SynthConfig::tiny(seed));
    let mut kg = synth.kg.clone();
    let extra = vec![(
        synth.scenario.mw_singer,
        synth.preds.date_of_birth,
        Value::Date(saga_core::Date::new(1979, 7, 23).expect("valid date")),
    )];
    let (corpus, _) =
        saga_webcorpus::generate_corpus(&synth, &extra, &saga_webcorpus::CorpusConfig::tiny(seed));
    let search = saga_webcorpus::SearchEngine::build(&corpus);
    let svc = AnnotationService::build(&kg, LinkerConfig::tier(Tier::T2Contextual));

    let registry = saga_core::obs::Registry::new();
    let backend = saga_core::obs::record_kernel_backend(&registry);
    println!(
        "kernel backend: {backend} (cpu: {})",
        saga_core::kernels::detected_cpu_features().join(",")
    );
    let (_, stats) =
        saga_annotation::annotate_corpus_obs(&svc, &corpus, 2, &registry.scope("annotation"));
    println!(
        "annotated {} docs ({} mentions); extracting {n_targets} targets",
        stats.docs_processed, stats.mentions_found
    );
    let log = saga_odke::generate_query_log(&synth, 300, seed);
    let targets = saga_odke::select_targets(&kg, &log, &saga_odke::ProfilerConfig::default());
    let report = saga_odke::run_odke_obs(
        &mut kg,
        &svc,
        &search,
        &corpus,
        &targets[..targets.len().min(n_targets)],
        &saga_odke::OdkeConfig::default(),
        &registry.scope("odke"),
    );
    println!("wrote {} facts", report.facts_written);

    // Drive one churned crawl interval through the incremental growth
    // pipeline so the `delta/` change-feed counters — dirty pages and
    // entities, re-extracted targets, retrained partitions, ANN upserts
    // and deletes, lapses — land in the same metric tree.
    {
        let (gs, mut gcorpus, gtruth, gcfg) = growth_fixture(seed, 8);
        let gdir = TempPath::new("saga-stats-grow", "");
        let (mut gstate, _) =
            saga_pipeline::grow_batch(&gs.kg, &gcorpus, &gcfg, 2, &gdir.0, &registry)
                .map_err(|e| format!("growth bootstrap: {e}"))?;
        churn_interval(&mut gcorpus, &gs, &gtruth, 5, seed.wrapping_add(13));
        let grep = saga_pipeline::grow_incremental(&mut gstate, &gcorpus, &gcfg, 2, &registry)
            .map_err(|e| format!("incremental interval: {e}"))?;
        println!(
            "incremental interval (5% churn): {} pages dirty, {} entities dirty, {} targets re-extracted, {} partitions retrained",
            grep.pages_reprocessed,
            grep.entities_dirtied,
            grep.targets_reextracted,
            grep.partitions_retrained
        );
    }
    print_delta_counters(&registry);

    // Persist the grown graph through the MVCC storage engine and reopen it,
    // so the `persist/engine` counters (pages written, log appends, recovery
    // cost) land in the same metric tree as the pipeline stages.
    let store_file = TempPath::new("saga-pipeline", ".db");
    {
        let mut store = KgStore::create(&store_file.0, kg, &EngineOptions::default())
            .map_err(|e| format!("persisting pipeline graph: {e}"))?;
        store.attach_obs(&registry.scope("persist"));
        store
            .commit(|txn| {
                txn.register_source("pipeline-run");
            })
            .map_err(|e| e.to_string())?;
        store.checkpoint().map_err(|e| e.to_string())?;
    }
    let mut store = KgStore::open(&store_file.0).map_err(|e| format!("reopening store: {e}"))?;
    store.attach_obs(&registry.scope("persist"));
    let es = store.engine().stats();
    println!(
        "persisted graph through engine ({} pages); reopened to commit {} in {} µs",
        es.page_count,
        es.last_commit,
        store.engine().recovery_micros()
    );

    // Exercise the network serving layer in-process (memory transport, no
    // sockets) so the `serve/net` counters — served, shed, expired — land in
    // the same tree.
    let listener = saga_serve::net::MemListener::new();
    let net_server = saga_serve::net::NetServer::start(
        Box::new(listener.clone()),
        saga_serve::net::NetServerConfig::small(seed),
        &registry,
    );
    let net_client = saga_serve::net::SagaClient::new(
        std::sync::Arc::new(saga_serve::net::MemTransport::new(listener)),
        saga_serve::net::ClientConfig::default(),
    );
    for step in 0..4u64 {
        net_client.search(seed ^ step, 8).map_err(|e| format!("net serving step: {e}"))?;
    }
    net_client.lookup(seed % 97).map_err(|e| format!("net serving step: {e}"))?;
    let net_stats = net_server.shutdown();
    println!(
        "served {} networked requests in-process ({} shed, {} expired)",
        net_stats.served, net_stats.shed, net_stats.expired
    );

    println!("\nmetrics:");
    print!("{}", registry.snapshot().render_tree());
    Ok(())
}

fn cmd_entity(args: &Args) -> Result<(), String> {
    let kg = load_kg(args.positional.first().ok_or("missing KG path")?)?;
    let name = args.required("name")?;
    let matches = find_entities(&kg, name);
    if matches.is_empty() {
        return Err(format!("no entity named '{name}'"));
    }
    for e in matches {
        println!(
            "[{}] {} ({}) pop={:.2} — {}",
            e.id.raw(),
            e.name,
            kg.ontology().type_info(e.entity_type).name,
            e.popularity,
            e.description
        );
        for t in kg.triples_of(e.id) {
            println!(
                "    {} = {}",
                kg.ontology().predicate(t.predicate).name,
                render_value(&kg, &t.object)
            );
        }
    }
    Ok(())
}

fn cmd_gaps(args: &Args) -> Result<(), String> {
    let kg = load_kg(args.positional.first().ok_or("missing KG path")?)?;
    let limit: usize = args.num("limit", 15)?;
    println!("most important coverage gaps (entity, missing predicate, importance):");
    for gap in missing_facts(&kg, limit) {
        println!(
            "  {:30} {:20} {:.3}",
            kg.entity(gap.entity).name,
            kg.ontology().predicate(gap.predicate).name,
            gap.importance
        );
    }
    Ok(())
}

fn parse_model_kind(s: &str) -> Result<ModelKind, String> {
    match s.to_lowercase().as_str() {
        "transe" => Ok(ModelKind::TransE),
        "distmult" => Ok(ModelKind::DistMult),
        "complex" => Ok(ModelKind::ComplEx),
        other => Err(format!("unknown model '{other}' (transe|distmult|complex)")),
    }
}

fn cmd_train(args: &Args) -> Result<(), String> {
    let kg = load_kg(args.positional.first().ok_or("missing KG path")?)?;
    let model = parse_model_kind(args.flag("model").unwrap_or("transe"))?;
    let dim: usize = args.num("dim", 32)?;
    let epochs: usize = args.num("epochs", 20)?;
    let out = args.required("out")?;
    let view = GraphView::materialize(&kg, ViewDef::embedding_training(5));
    let ds = TrainingSet::from_edges(&view.edges(), 0.05, 0.05, 17);
    println!(
        "training {} on {} edges ({} entities, {} relations)...",
        model.name(),
        ds.train.len(),
        ds.num_entities(),
        ds.num_relations()
    );
    let cfg = TrainConfig { model, dim, epochs, ..TrainConfig::default() };
    let m = train(&ds, &cfg);
    let metrics = saga_embeddings::evaluate(&m, &ds, &ds.test, 100);
    println!(
        "done: final loss {:.4}, test MRR {:.3}, Hits@10 {:.3}",
        m.epoch_losses.last().unwrap_or(&0.0),
        metrics.mrr,
        metrics.hits_at_10
    );
    m.save(Path::new(out)).map_err(|e| e.to_string())?;
    println!("model saved → {out}");
    Ok(())
}

fn cmd_related(args: &Args) -> Result<(), String> {
    let kg = load_kg(args.positional.first().ok_or("missing KG path")?)?;
    let model = load_model(args.positional.get(1).ok_or("missing MODEL path")?)?;
    let name = args.required("name")?;
    let k: usize = args.num("k", 10)?;
    let e = find_one(&kg, name)?;
    let index = build_knn_index(&model, saga_ann::HnswParams::default());
    for (other, score) in related_entities(&model, &index, &kg, e, k, false) {
        println!("  {:.3}  {}", score, kg.entity(other).name);
    }
    Ok(())
}

fn cmd_verify(args: &Args) -> Result<(), String> {
    let kg = load_kg(args.positional.first().ok_or("missing KG path")?)?;
    let model = load_model(args.positional.get(1).ok_or("missing MODEL path")?)?;
    let subject = find_one(&kg, args.required("subject")?)?;
    let object = find_one(&kg, args.required("object")?)?;
    let pred_name = args.required("predicate")?;
    let pred = kg
        .ontology()
        .predicate_by_name(pred_name)
        .ok_or_else(|| format!("unknown predicate '{pred_name}'"))?;
    // Calibrate on a fresh view split (cheap).
    let view = GraphView::materialize(&kg, ViewDef::embedding_training(5));
    let ds = TrainingSet::from_edges(&view.edges(), 0.05, 0.05, 17);
    let verifier = FactVerifier::calibrate(&model, &ds, 0.9);
    match verifier.verify(&model, subject, pred, object) {
        Some(v) => println!(
            "score {:.3} (threshold {:.3}) → {}",
            v.score,
            verifier.threshold(),
            if v.plausible { "PLAUSIBLE" } else { "IMPLAUSIBLE" }
        ),
        None => println!("entity or predicate outside the trained vocabulary"),
    }
    Ok(())
}

fn cmd_annotate(args: &Args) -> Result<(), String> {
    let kg = load_kg(args.positional.first().ok_or("missing KG path")?)?;
    let text = args.required("text")?;
    let tier = match args.flag("tier").unwrap_or("t2") {
        "t0" => Tier::T0Lexical,
        "t1" => Tier::T1Popularity,
        "t2" => Tier::T2Contextual,
        other => return Err(format!("unknown tier '{other}'")),
    };
    let svc = AnnotationService::build(&kg, LinkerConfig::tier(tier));
    let typed = svc.annotate_typed(text);
    if typed.is_empty() {
        println!("(no entities linked)");
    }
    for t in typed {
        println!(
            "  [{}..{}] '{}' → {} ({}) score {:.3}",
            t.mention.start,
            t.mention.end,
            &text[t.mention.start..t.mention.end],
            kg.entity(t.mention.entity).name,
            t.type_name,
            t.mention.score
        );
    }
    Ok(())
}

fn cmd_path(args: &Args) -> Result<(), String> {
    let kg = load_kg(args.positional.first().ok_or("missing KG path")?)?;
    let model = load_model(args.positional.get(1).ok_or("missing MODEL path")?)?;
    let start = find_one(&kg, args.required("start")?)?;
    let k: usize = args.num("k", 5)?;
    let relations: Result<Vec<_>, String> = args
        .required("via")?
        .split(',')
        .map(|name| {
            kg.ontology()
                .predicate_by_name(name.trim())
                .ok_or_else(|| format!("unknown predicate '{name}'"))
        })
        .collect();
    let q = PathQuery { start, relations: relations? };
    let reasoner = PathReasoner::new(&model);
    println!("embedding-space answers:");
    for (e, score) in reasoner.answer(&q, k) {
        println!("  {:.3}  {}", score, kg.entity(e).name);
    }
    let truth = saga_embeddings::traverse_answers(&kg, &q);
    println!("graph-traversal answers ({}):", truth.len());
    for e in truth.iter().take(k) {
        println!("  {}", kg.entity(*e).name);
    }
    Ok(())
}

/// Self-contained ODKE demo: builds a deterministic world from `--seed`,
/// profiles gaps, and runs targeted extraction, printing the outcomes.
fn cmd_odke(args: &Args) -> Result<(), String> {
    let seed: u64 = args.num("seed", 7)?;
    let n_targets: usize = args.num("targets", 10)?;
    let synth = generate(&SynthConfig::tiny(seed));
    let mut kg = synth.kg.clone();
    let extra = vec![(
        synth.scenario.mw_singer,
        synth.preds.date_of_birth,
        Value::Date(saga_core::Date::new(1979, 7, 23).expect("valid date")),
    )];
    let (corpus, _) =
        saga_webcorpus::generate_corpus(&synth, &extra, &saga_webcorpus::CorpusConfig::tiny(seed));
    let search = saga_webcorpus::SearchEngine::build(&corpus);
    let svc = AnnotationService::build(&kg, LinkerConfig::tier(Tier::T2Contextual));

    let log = saga_odke::generate_query_log(&synth, 300, seed);
    let targets = saga_odke::select_targets(&kg, &log, &saga_odke::ProfilerConfig::default());
    println!("profiler found {} gaps; extracting the top {n_targets}", targets.len());
    let report = saga_odke::run_odke(
        &mut kg,
        &svc,
        &search,
        &corpus,
        &targets[..targets.len().min(n_targets)],
        &saga_odke::OdkeConfig::default(),
    );
    for outcome in &report.outcomes {
        let subject = kg.entity(outcome.entity).name.clone();
        let pred = kg.ontology().predicate(outcome.predicate).name.clone();
        match &outcome.winner {
            Some(w) => println!(
                "  {subject} {pred} = {} (p={:.2}, {} supports, {} docs examined)",
                w.value_text, w.probability, w.support_count, outcome.docs_examined
            ),
            None => println!("  {subject} {pred}: no value cleared the bar"),
        }
    }
    println!(
        "fetched {} of {} pages ({:.1}%), wrote {} facts",
        report.distinct_docs_fetched,
        report.corpus_size,
        100.0 * report.volume_fraction(),
        report.facts_written
    );
    Ok(())
}

/// Deterministic growth fixture shared by `saga grow` and `saga stats
/// pipeline`: a tiny synthetic world, its rendered web corpus, and a fixed
/// fact-target universe (the first `n_targets` subjects with a rendered
/// `lives_in` page, sorted by entity id). The target universe lives in the config so
/// a delta pass re-extracts a strict subset of what a batch pass would.
fn growth_fixture(
    seed: u64,
    n_targets: usize,
) -> (
    saga_core::synth::SynthKg,
    saga_webcorpus::Corpus,
    saga_webcorpus::CorpusTruth,
    saga_pipeline::GrowthConfig,
) {
    let s = generate(&SynthConfig::tiny(seed));
    let (corpus, truth) =
        saga_webcorpus::generate_corpus(&s, &[], &saga_webcorpus::CorpusConfig::tiny(seed ^ 0x17));
    let mut subjects: Vec<u64> = truth
        .rendered_facts
        .iter()
        .filter(|(_, _, p, _)| *p == s.preds.lives_in)
        .map(|(_, e, _, _)| e.raw())
        .collect();
    subjects.sort_unstable();
    subjects.dedup();
    let targets = subjects
        .into_iter()
        .take(n_targets)
        .map(|raw| saga_odke::FactTarget {
            entity: EntityId(raw),
            predicate: s.preds.lives_in,
            reason: saga_odke::TargetReason::CoverageGap,
            importance: 1.0,
        })
        .collect();
    let cfg = saga_pipeline::GrowthConfig {
        max_docs_per_entity: 3,
        // Generous per-query fetch so churn-induced BM25 reorderings never
        // truncate a clean target's candidate set.
        odke: saga_odke::OdkeConfig { docs_per_query: 50, ..saga_odke::OdkeConfig::default() },
        train: TrainConfig {
            model: ModelKind::TransE,
            dim: 8,
            epochs: 2,
            negatives: 2,
            seed: seed ^ 11,
            ..TrainConfig::default()
        },
        num_parts: 4,
        min_predicate_frequency: 2,
        targets,
    };
    (s, corpus, truth, cfg)
}

/// One crawl interval of mixed churn: page edits plus new pages at `pct`%
/// of the corpus, plus two real-world fact changes rewriting their
/// evidence pages.
fn churn_interval(
    corpus: &mut saga_webcorpus::Corpus,
    s: &saga_core::synth::SynthKg,
    truth: &saga_webcorpus::CorpusTruth,
    pct: u32,
    seed: u64,
) {
    saga_webcorpus::apply_churn(
        corpus,
        &saga_webcorpus::ChurnConfig { edit_fraction: pct as f64 / 100.0, new_pages: 2, seed },
    );
    saga_webcorpus::apply_fact_churn(corpus, s, truth, 2, seed ^ 0x5eed);
}

/// The `delta/` counter names every incremental pass records, in the order
/// they occur along the pipeline.
const DELTA_COUNTERS: [&str; 8] = [
    "batches",
    "pages_dirtied",
    "entities_dirtied",
    "targets_reextracted",
    "partitions_retrained",
    "ann_upserts",
    "ann_deletes",
    "lapses",
];

fn print_delta_counters(registry: &saga_core::obs::Registry) {
    let snap = registry.snapshot();
    println!("delta feed counters:");
    for name in DELTA_COUNTERS {
        println!("  delta/{name:<22} {}", snap.counter(&format!("delta/{name}")));
    }
}

/// `saga grow`: the end-to-end growth pipeline on a deterministic world.
/// Always bootstraps with a full batch pass; with `--incremental`, applies
/// `--intervals` crawl intervals of `--churn` percent churn each and
/// advances the whole stack through the change feed, printing what each
/// pass actually did and the `delta/` counters.
fn cmd_grow(args: &Args) -> Result<(), String> {
    let seed: u64 = args.num("seed", 7)?;
    let n_targets: usize = args.num("targets", 25)?;
    let workers: usize = args.num("workers", 2)?;
    let incremental = args.flag("incremental").is_some_and(|v| v != "off");
    let churn_pct: u32 = args.num("churn", 5)?;
    let intervals: usize = args.num("intervals", 2)?;

    let (s, mut corpus, truth, cfg) = growth_fixture(seed, n_targets);
    let workdir = TempPath::new("saga-grow", "");
    let registry = saga_core::obs::Registry::new();

    let t0 = std::time::Instant::now();
    let (mut state, boot) =
        saga_pipeline::grow_batch(&s.kg, &corpus, &cfg, workers, &workdir.0, &registry)
            .map_err(|e| format!("batch bootstrap: {e}"))?;
    println!(
        "bootstrap: {} pages, {} targets, {} links, {} facts written, {} buckets trained, {} rows indexed ({} ms)",
        boot.pages_reprocessed,
        cfg.targets.len(),
        boot.links_added,
        boot.facts_changed,
        boot.buckets_trained,
        boot.ann_upserts,
        t0.elapsed().as_millis()
    );

    if incremental {
        for i in 0..intervals {
            churn_interval(&mut corpus, &s, &truth, churn_pct, seed.wrapping_add(300 + i as u64));
            let t = std::time::Instant::now();
            let rep =
                saga_pipeline::grow_incremental(&mut state, &corpus, &cfg, workers, &registry)
                    .map_err(|e| format!("incremental pass {i}: {e}"))?;
            println!(
                "interval {i} ({churn_pct}% churn): {} pages reprocessed, {} entities dirtied, \
                 {} targets re-extracted, {} links +{}/-{}, {} facts changed, \
                 {} partitions retrained, ann +{}/-{}{} ({} ms)",
                rep.pages_reprocessed,
                rep.entities_dirtied,
                rep.targets_reextracted,
                rep.links_added + rep.links_removed,
                rep.links_added,
                rep.links_removed,
                rep.facts_changed,
                rep.partitions_retrained,
                rep.ann_upserts,
                rep.ann_deletes,
                if rep.lapsed { ", LAPSED → full rebuild" } else { "" },
                t.elapsed().as_millis()
            );
        }
    }
    println!(
        "grown graph: {} entities, {} facts, published snapshot {} bytes",
        state.store.graph().num_entities(),
        state.store.graph().num_triples(),
        saga_pipeline::published_bytes(state.store.graph()).len()
    );
    print_delta_counters(&registry);
    Ok(())
}

/// `saga serve`: the fault-tolerant network front-end on a real TCP socket.
/// Blocks until stdin yields a line (or EOF), then drains gracefully and
/// prints the serving counters.
fn cmd_serve(args: &Args) -> Result<(), String> {
    use saga_serve::net::Acceptor as _;
    let listen = args.required("listen")?;
    let seed: u64 = args.num("seed", 7)?;
    let mut cfg = saga_serve::net::NetServerConfig::small(seed);
    cfg.shards = args.num("shards", cfg.shards)?;
    cfg.dim = args.num("dim", cfg.dim)?;
    cfg.vectors = args.num("vectors", cfg.vectors)?;
    cfg.k = args.num("k", cfg.k)?;
    let acceptor =
        saga_serve::net::TcpAcceptor::bind(listen).map_err(|e| format!("binding {listen}: {e}"))?;
    let addr = acceptor.local();
    let registry = saga_core::obs::Registry::new();
    let server = saga_serve::net::NetServer::start(Box::new(acceptor), cfg.clone(), &registry);
    println!(
        "serving {} vectors across {} shards on {addr} (seed {seed}, dim {}, k {})",
        cfg.vectors, cfg.shards, cfg.dim, cfg.k
    );
    println!("press Enter (or close stdin) to drain and stop");
    let mut line = String::new();
    let _ = std::io::stdin().read_line(&mut line);
    let stats = server.shutdown();
    println!(
        "drained: {} requests, {} served, {} shed, {} expired, {} degraded, {} corrupt over {} conns",
        stats.requests,
        stats.served,
        stats.shed,
        stats.expired,
        stats.degraded,
        stats.corrupt,
        stats.connections
    );
    print!("{}", registry.snapshot().render_tree());
    Ok(())
}

/// `saga query`: one client call against a running `saga serve` endpoint.
/// `--timeout-ms` bounds the attempt window locally *and* rides the frame
/// as the server-side deadline.
fn cmd_query(args: &Args) -> Result<(), String> {
    let addr = args.required("connect")?;
    let timeout_ms: u64 = args.num("timeout-ms", 2_000)?;
    let cfg = saga_serve::net::ClientConfig {
        request_timeout: std::time::Duration::from_millis(timeout_ms),
        deadline_micros: timeout_ms.saturating_mul(1_000),
        ..saga_serve::net::ClientConfig::default()
    };
    let client = saga_serve::net::SagaClient::new(
        std::sync::Arc::new(saga_serve::net::TcpTransport::new(addr)),
        cfg,
    );
    let resp = if let Some(e) = args.flag("entity") {
        let entity: u64 = e.parse().map_err(|_| format!("--entity: invalid number '{e}'"))?;
        client.lookup(entity)
    } else if let Some(s) = args.flag("search") {
        let query_seed: u64 = s.parse().map_err(|_| format!("--search: invalid seed '{s}'"))?;
        client.search(query_seed, args.num("k", 8)?)
    } else {
        client.ping()
    }
    .map_err(|e| format!("query against {addr} failed: {e}"))?;
    use saga_serve::net::ResponseBody;
    match resp {
        ResponseBody::Pong => println!("pong"),
        ResponseBody::LookupOk { entity, fact_count } => {
            println!("entity {entity}: {fact_count} facts")
        }
        ResponseBody::SearchOk { hits } => {
            println!("{} hits:", hits.len());
            for h in hits {
                println!("  {:8} {:.4}", h.id, h.score);
            }
        }
        ResponseBody::Degraded { hits, shards_missing } => {
            println!("degraded ({shards_missing} shards missing), {} hits:", hits.len());
            for h in hits {
                println!("  {:8} {:.4}", h.id, h.score);
            }
        }
        ResponseBody::Expired => println!("expired: deadline elapsed before execution"),
        other => println!("{other:?}"),
    }
    let stats = client.stats();
    if stats.retries > 0 || stats.shed_received > 0 {
        eprintln!(
            "({} attempts, {} retries, {} shed responses absorbed)",
            stats.attempts, stats.retries, stats.shed_received
        );
    }
    Ok(())
}

/// `saga store`: the crash-safe MVCC engine behind a small operational CLI —
/// create a store file, grow it with deterministic transactions, inspect
/// engine stats and the change cursor, and scrub it.
fn cmd_store(args: &Args) -> Result<(), String> {
    match args.positional.first().copied() {
        Some("create") => cmd_store_create(args),
        Some("grow") => cmd_store_grow(args),
        Some("stats") => cmd_store_stats(args),
        Some("changes") => cmd_store_changes(args),
        Some("scrub") => cmd_store_scrub(args),
        _ => Err("usage: saga store create|grow|stats|changes|scrub ...".into()),
    }
}

fn store_path<'a>(args: &'a Args) -> Result<&'a str, String> {
    args.positional.get(1).copied().ok_or_else(|| "missing store path".into())
}

/// Minimal self-describing base graph for CLI-created stores: one type and
/// an entity-valued plus a text-valued predicate, enough for `store grow`
/// to exercise every transaction-op kind.
fn store_base_graph() -> KnowledgeGraph {
    use saga_core::{Cardinality, Ontology, ValueKind, Volatility};
    let mut o = Ontology::new();
    let person = o.add_type("person", None);
    o.add_predicate(
        "knows",
        "knows",
        ValueKind::Entity,
        Some(person),
        Cardinality::Multi,
        Volatility::Slow,
        false,
    );
    o.add_predicate(
        "nickname",
        "nickname",
        ValueKind::Text,
        Some(person),
        Cardinality::Single,
        Volatility::Slow,
        false,
    );
    let mut kg = KnowledgeGraph::new(o);
    kg.add_entity(EntityBuilder::new("Root", person));
    kg
}

/// One deterministic growth transaction keyed off the next commit sequence,
/// so repeated `store grow` invocations keep extending the same history.
fn store_grow_txn(store: &mut KgStore, seed: u64) -> Result<(), String> {
    let knows =
        store.graph().ontology().predicate_by_name("knows").ok_or(
            "store graph lacks the 'knows' predicate (not created by `saga store create`?)",
        )?;
    let nickname = store
        .graph()
        .ontology()
        .predicate_by_name("nickname")
        .ok_or("store graph lacks the 'nickname' predicate")?;
    let person = store.graph().entity(EntityId(0)).entity_type;
    let i = store.last_commit() + 1;
    store
        .commit(|txn| {
            let e =
                txn.add_entity(EntityBuilder::new(format!("e{seed}-{i}"), person).popularity(0.25));
            let src = txn.register_source(&format!("src-{}", i % 3));
            txn.insert_with(saga_core::Triple::new(EntityId(0), knows, e), src, 0.9);
            txn.insert_with(
                saga_core::Triple::new(e, nickname, format!("nick-{seed}-{i}").as_str()),
                src,
                0.9,
            );
        })
        .map(|_| ())
        .map_err(|e| e.to_string())
}

fn cmd_store_create(args: &Args) -> Result<(), String> {
    let path = store_path(args)?;
    let page_size: u32 = args.num("page-size", 4096)?;
    let log_cap: u64 = args.num("log-cap", 1 << 20)?;
    let store =
        KgStore::create(Path::new(path), store_base_graph(), &EngineOptions { page_size, log_cap })
            .map_err(|e| format!("creating {path}: {e}"))?;
    let s = store.engine().stats();
    println!(
        "created store → {path} ({} pages of {} bytes, log capacity {} bytes)",
        s.page_count, s.page_size, s.log_cap
    );
    Ok(())
}

fn cmd_store_grow(args: &Args) -> Result<(), String> {
    let path = store_path(args)?;
    let seed: u64 = args.num("seed", 7)?;
    let txns: u64 = args.num("txns", 5)?;
    let mut store = KgStore::open(Path::new(path)).map_err(|e| format!("opening {path}: {e}"))?;
    for _ in 0..txns {
        store_grow_txn(&mut store, seed)?;
    }
    println!(
        "applied {txns} transactions → commit {} ({} entities, {} facts)",
        store.last_commit(),
        store.graph().num_entities(),
        store.graph().num_triples()
    );
    Ok(())
}

fn cmd_store_stats(args: &Args) -> Result<(), String> {
    let path = store_path(args)?;
    let store = KgStore::open(Path::new(path)).map_err(|e| format!("opening {path}: {e}"))?;
    let s = store.engine().stats();
    println!("entities:          {}", store.graph().num_entities());
    println!("facts:             {}", store.graph().num_triples());
    println!("epoch:             {}", s.epoch);
    println!("checkpoint commit: {}", s.checkpoint_commit);
    println!("last commit:       {}", s.last_commit);
    println!("pages:             {} × {} bytes", s.page_count, s.page_size);
    println!("log:               {} / {} bytes ({} tail txns)", s.log_used, s.log_cap, s.tail_txns);
    println!("recovery:          {} µs", s.recovery_micros);
    Ok(())
}

fn cmd_store_changes(args: &Args) -> Result<(), String> {
    let path = store_path(args)?;
    let since: u64 = args.num("since", 0)?;
    let store = KgStore::open(Path::new(path)).map_err(|e| format!("opening {path}: {e}"))?;
    match store.changes_since(since) {
        Changes::Lapsed { oldest } => {
            println!(
                "cursor {since} lapsed: deltas are retained from commit {oldest}; \
                 resync from a snapshot"
            );
        }
        Changes::Deltas(deltas) => {
            if deltas.is_empty() {
                println!("no commits after {since}");
            }
            for (commit, d) in deltas {
                println!(
                    "commit {commit}: +{} facts, -{} facts, ~{} refreshed",
                    d.added.len(),
                    d.removed.len(),
                    d.refreshed.len()
                );
                for t in &d.added {
                    println!(
                        "    + {} {} {}",
                        store.graph().entity(t.subject).name,
                        store.graph().ontology().predicate(t.predicate).name,
                        render_value(store.graph(), &t.object)
                    );
                }
            }
        }
    }
    Ok(())
}

fn cmd_store_scrub(args: &Args) -> Result<(), String> {
    let path = store_path(args)?;
    let mut store = KgStore::open(Path::new(path)).map_err(|e| format!("opening {path}: {e}"))?;
    let r = store.engine_mut().scrub().map_err(|e| format!("scrub failed: {e}"))?;
    println!(
        "slots valid: [{}, {}]; epoch {}; checkpoint commit {}; last commit {}",
        r.slots_valid[0], r.slots_valid[1], r.epoch, r.checkpoint_commit, r.last_commit
    );
    println!(
        "checked {} pages ({} image bytes) and {} log-tail txns",
        r.pages_checked, r.image_bytes, r.tail_txns
    );
    if r.is_clean() {
        println!("scrub clean");
        Ok(())
    } else {
        Err(format!("scrub found problems: {:?}", r.problems))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpfile(name: &str) -> String {
        let dir = std::env::temp_dir().join("saga-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{}-{name}", std::process::id())).to_string_lossy().into_owned()
    }

    fn run(line: &[&str]) -> Result<(), String> {
        let args: Vec<String> = line.iter().map(|s| s.to_string()).collect();
        dispatch(&args)
    }

    #[test]
    fn generate_stats_entity_gaps_round_trip() {
        let kg_path = tmpfile("kg.saga");
        run(&["generate", "--seed", "3", "--people", "120", "--out", &kg_path]).unwrap();
        run(&["stats", &kg_path]).unwrap();
        run(&["entity", &kg_path, "--name", "Michael Jordan"]).unwrap();
        run(&["gaps", &kg_path, "--limit", "5"]).unwrap();
        std::fs::remove_file(&kg_path).ok();
    }

    #[test]
    fn train_related_verify_annotate_path() {
        let kg_path = tmpfile("kg2.saga");
        let model_path = tmpfile("model.saga");
        run(&["generate", "--seed", "3", "--people", "120", "--out", &kg_path]).unwrap();
        run(&[
            "train",
            &kg_path,
            "--model",
            "transe",
            "--dim",
            "16",
            "--epochs",
            "6",
            "--out",
            &model_path,
        ])
        .unwrap();
        run(&["related", &kg_path, &model_path, "--name", "Benicio del Toro", "-k", "5"]).unwrap();
        run(&[
            "verify",
            &kg_path,
            &model_path,
            "--subject",
            "Michael Jordan",
            "--predicate",
            "occupation",
            "--object",
            "basketball player",
        ])
        .unwrap();
        run(&["annotate", &kg_path, "--text", "Michael Jordan basketball stats", "--tier", "t2"])
            .unwrap();
        run(&[
            "path",
            &kg_path,
            &model_path,
            "--start",
            "Benicio del Toro",
            "--via",
            "occupation",
            "-k",
            "3",
        ])
        .unwrap();
        std::fs::remove_file(&kg_path).ok();
        std::fs::remove_file(&model_path).ok();
    }

    #[test]
    fn temp_path_is_removed_on_an_error_return() {
        fn fails_midway(seen: &mut Vec<std::path::PathBuf>) -> Result<(), String> {
            let dir = TempPath::new("saga-cli-temp-path", "");
            let file = TempPath::new("saga-cli-temp-path", ".db");
            std::fs::create_dir_all(dir.0.join("nested")).map_err(|e| e.to_string())?;
            std::fs::write(dir.0.join("nested/log"), b"x").map_err(|e| e.to_string())?;
            std::fs::write(&file.0, b"x").map_err(|e| e.to_string())?;
            seen.extend([dir.0.clone(), file.0.clone()]);
            Err("stage failed".into())
        }
        let mut seen = Vec::new();
        assert!(fails_midway(&mut seen).is_err());
        assert_eq!(seen.len(), 2);
        for path in seen {
            assert!(!path.exists(), "{} leaked", path.display());
        }
    }

    #[test]
    fn odke_command_runs() {
        run(&["odke", "--seed", "3", "--targets", "4"]).unwrap();
    }

    #[test]
    fn stats_pipeline_command_runs() {
        run(&["stats", "pipeline", "--seed", "3", "--targets", "4"]).unwrap();
    }

    #[test]
    fn store_lifecycle_commands() {
        let store_path = tmpfile("store.db");
        run(&["store", "create", &store_path, "--page-size", "256", "--log-cap", "8192"]).unwrap();
        run(&["store", "grow", &store_path, "--seed", "3", "--txns", "4"]).unwrap();
        run(&["store", "stats", &store_path]).unwrap();
        run(&["store", "changes", &store_path, "--since", "1"]).unwrap();
        run(&["store", "scrub", &store_path]).unwrap();
        std::fs::remove_file(&store_path).ok();
    }

    #[test]
    fn store_rejects_bad_input() {
        assert!(run(&["store"]).is_err());
        assert!(run(&["store", "unknown-sub"]).is_err());
        assert!(run(&["store", "stats", "/nonexistent/x.db"]).is_err());
    }

    #[test]
    fn errors_are_reported() {
        assert!(run(&["nonsense"]).is_err());
        assert!(run(&["stats", "/nonexistent/kg.saga"]).is_err());
        assert!(run(&["generate", "--seed", "x", "--out", "/tmp/x"]).is_err());
        let kg_path = tmpfile("kg3.saga");
        run(&["generate", "--seed", "3", "--people", "120", "--out", &kg_path]).unwrap();
        assert!(run(&["entity", &kg_path, "--name", "Unobtainium Person"]).is_err());
        assert!(run(&["annotate", &kg_path, "--text", "x", "--tier", "t9"]).is_err());
        std::fs::remove_file(&kg_path).ok();
    }
}
