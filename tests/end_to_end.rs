//! End-to-end integration test of the full Figure-1 platform: synthetic KG
//! → graph-engine view → embedding training → ANN serving → web-corpus
//! annotation → KG extension with document links → ODKE gap filling → the
//! enriched KG answers a previously-unanswerable query → on-device asset.

use saga_annotation::{
    annotate_corpus, extend_kg_with_links, AnnotationService, LinkerConfig, Tier,
};
use saga_core::synth::{generate, SynthConfig};
use saga_core::{Date, Value};
use saga_embeddings::{
    build_knn_index, evaluate, related_entities, train, ModelKind, TrainConfig, TrainingSet,
};
use saga_graph::{GraphView, ViewDef};
use saga_odke::{generate_query_log, run_odke, select_targets, OdkeConfig, ProfilerConfig};
use saga_ondevice::StaticAsset;
use saga_webcorpus::{generate_corpus, CorpusConfig, SearchEngine};

#[test]
fn the_full_platform_chain() {
    // ---------------- knowledge graph (Saga substrate) -----------------
    let synth = generate(&SynthConfig::tiny(777));
    let mut kg = synth.kg.clone();
    kg.check_invariants().unwrap();
    let initial_triples = kg.num_triples();

    // ---------------- graph engine: the embedding view ------------------
    let view = GraphView::materialize(&kg, ViewDef::embedding_training(3));
    assert!(!view.is_empty() && view.len() < kg.num_triples());

    // ---------------- embedding pipeline (Fig. 3) ------------------------
    let ds = TrainingSet::from_edges(&view.edges(), 0.05, 0.05, 5);
    let model = train(
        &ds,
        &TrainConfig { model: ModelKind::TransE, dim: 16, epochs: 10, ..Default::default() },
    );
    let metrics = evaluate(&model, &ds, &ds.test, 40);
    assert!(metrics.mrr > 0.03, "MRR {}", metrics.mrr);

    // ---------------- embedding service (Fig. 1) -------------------------
    let index = build_knn_index(&model, saga_ann::HnswParams::default());
    let related = related_entities(&model, &index, &kg, synth.scenario.benicio, 5, false);
    assert_eq!(related.len(), 5);

    // ---------------- the Web + semantic annotation (Fig. 4) --------------
    let extra = vec![(
        synth.scenario.mw_singer,
        synth.preds.date_of_birth,
        Value::Date(Date::new(1979, 7, 23).unwrap()),
    )];
    let (corpus, _truth) = generate_corpus(&synth, &extra, &CorpusConfig::tiny(9));
    let search = SearchEngine::build(&corpus);
    let svc = AnnotationService::build(&kg, LinkerConfig::tier(Tier::T2Contextual))
        .with_graph_embeddings(model.clone());
    let (annotated, stats) = annotate_corpus(&svc, &corpus, 2);
    assert_eq!(stats.docs_processed, corpus.len());

    // KG extension: entities now link to web documents.
    let links_written = extend_kg_with_links(&mut kg, &corpus, &annotated, 3);
    assert!(links_written > 0);
    assert_eq!(kg.num_triples(), initial_triples + links_written);

    // ---------------- ODKE fills the Fig. 6 gap ---------------------------
    let log = generate_query_log(&synth, 300, 13);
    assert!(log.iter().any(|q| !q.answered), "some queries must be unanswerable before ODKE");
    let targets = select_targets(&kg, &log, &ProfilerConfig::default());
    let mw_target = targets
        .iter()
        .find(|t| t.entity == synth.scenario.mw_singer && t.predicate == synth.preds.date_of_birth)
        .copied()
        .expect("gap targeted");
    let report = run_odke(&mut kg, &svc, &search, &corpus, &[mw_target], &OdkeConfig::default());
    assert_eq!(report.facts_written, 1);
    assert!(report.volume_fraction() < 0.25, "targeted: {}", report.volume_fraction());

    // The previously-unanswerable query is now answerable from the KG.
    let answer = kg.object(synth.scenario.mw_singer, synth.preds.date_of_birth);
    assert_eq!(answer, Some(Value::Date(Date::new(1979, 7, 23).unwrap())));

    // ---------------- on-device static asset ships the new fact -----------
    kg.set_popularity(synth.scenario.mw_singer, 0.9);
    let asset = StaticAsset::build(&kg, 0.5);
    let on_asset = asset
        .facts_of(synth.scenario.mw_singer)
        .iter()
        .any(|t| t.predicate == synth.preds.date_of_birth);
    assert!(on_asset, "the ODKE-recovered fact flows into the device asset");

    kg.check_invariants().unwrap();
}

#[test]
fn annotation_service_consumes_trained_embeddings_for_coherence() {
    let synth = generate(&SynthConfig::tiny(778));
    let view = GraphView::materialize(&synth.kg, ViewDef::embedding_training(3));
    let ds = TrainingSet::from_edges(&view.edges(), 0.05, 0.05, 5);
    let model = train(
        &ds,
        &TrainConfig { model: ModelKind::TransE, dim: 16, epochs: 8, ..Default::default() },
    );
    let with_kge = AnnotationService::build(&synth.kg, LinkerConfig::tier(Tier::T2Contextual))
        .with_graph_embeddings(model);
    let without = AnnotationService::build(&synth.kg, LinkerConfig::tier(Tier::T2Contextual));

    // Both resolve the homonym; the coherence-scored one must not regress.
    let text = "Michael Jordan the legendary basketball player won the championship";
    let a = with_kge.annotate(text);
    let b = without.annotate(text);
    let pick = |links: &[saga_annotation::LinkedMention]| {
        links.iter().find(|l| &*l.form == "michael jordan").map(|l| l.entity)
    };
    assert_eq!(pick(&a), Some(synth.scenario.mj_player));
    assert_eq!(pick(&b), Some(synth.scenario.mj_player));
}

#[test]
fn odke_respects_fact_verification_style_rejection() {
    // When the corpus contains only wrong values for a target (planted
    // errors), corroboration confidence should be visibly lower than for
    // well-supported values.
    let synth = generate(&SynthConfig::tiny(779));
    let (corpus, _) = generate_corpus(&synth, &[], &CorpusConfig::tiny(11));
    let search = SearchEngine::build(&corpus);
    let svc = AnnotationService::build(&synth.kg, LinkerConfig::tier(Tier::T2Contextual));
    let mut kg = synth.kg.clone();

    // Target a fact that IS rendered: recover it and check the winner's
    // probability dominates any runner-up.
    let log = generate_query_log(&synth, 200, 17);
    let targets = select_targets(&kg, &log, &ProfilerConfig::default());
    let report = run_odke(
        &mut kg,
        &svc,
        &search,
        &corpus,
        &targets[..targets.len().min(10)],
        &OdkeConfig::default(),
    );
    for outcome in &report.outcomes {
        if let Some(w) = &outcome.winner {
            for other in outcome.scored.iter().skip(1) {
                assert!(
                    w.probability >= other.probability,
                    "winner must be the most corroborated value"
                );
            }
        }
    }
}
