//! Cross-crate property tests: invariants that must hold across the whole
//! platform regardless of seed.

use saga_annotation::{AnnotationService, LinkerConfig, Tier};
use saga_core::synth::{generate, SynthConfig};
use saga_embeddings::{train, ModelKind, TrainConfig, TrainingSet};
use saga_graph::{GraphView, ViewDef};
use saga_testkit::check;
use saga_webcorpus::{apply_churn, generate_corpus, ChurnConfig, CorpusConfig, SearchEngine};

/// The whole stack is deterministic in its seeds: same seed → same KG,
/// corpus, annotations and trained model.
#[test]
fn determinism_across_the_stack() {
    check(8, 1, |rng| {
        let seed = rng.gen_range(0u64..1000);
        let a = generate(&SynthConfig::tiny(seed));
        let b = generate(&SynthConfig::tiny(seed));
        assert!(a.kg.keys().eq(b.kg.keys()));

        let (ca, _) = generate_corpus(&a, &[], &CorpusConfig::tiny(seed));
        let (cb, _) = generate_corpus(&b, &[], &CorpusConfig::tiny(seed));
        assert_eq!(ca.len(), cb.len());
        assert_eq!(ca.pages[0].full_text(), cb.pages[0].full_text());

        let sa = AnnotationService::build(&a.kg, LinkerConfig::tier(Tier::T1Popularity));
        let sb = AnnotationService::build(&b.kg, LinkerConfig::tier(Tier::T1Popularity));
        let la = sa.annotate(&ca.pages[0].full_text());
        let lb = sb.annotate(&cb.pages[0].full_text());
        assert_eq!(la.len(), lb.len());
        for (x, y) in la.iter().zip(&lb) {
            assert_eq!(x.entity, y.entity);
            assert!((x.score - y.score).abs() < 1e-6);
        }
    });
}

/// Every view triple exists in the store, and view entities are a
/// subset of store entities — across arbitrary view definitions.
#[test]
fn views_are_sound_projections() {
    check(8, 2, |rng| {
        let seed = rng.gen_range(0u64..1000);
        let min_freq = rng.gen_range(0usize..10);
        let min_pop = rng.gen_range(0.0f32..0.9);
        let s = generate(&SynthConfig::tiny(seed));
        let mut def = ViewDef::embedding_training(min_freq);
        def.min_popularity = min_pop;
        let view = GraphView::materialize(&s.kg, def);
        for t in view.triples() {
            assert!(s.kg.contains(&t), "view triple missing from store: {t:?}");
            assert!(s.kg.entity(t.subject).popularity >= min_pop);
        }
    });
}

/// Search self-retrieval: for any profile page, querying its exact
/// title plus a distinctive infobox value retrieves that page in the
/// top results.
#[test]
fn search_self_retrieval() {
    check(8, 3, |rng| {
        let seed = rng.gen_range(0u64..500);
        let s = generate(&SynthConfig::tiny(seed));
        let (corpus, truth) = generate_corpus(&s, &[], &CorpusConfig::tiny(seed ^ 1));
        let engine = SearchEngine::build(&corpus);
        // Take three profile pages.
        let mut checked = 0;
        for (doc, _) in truth.page_topics.iter().take(3) {
            let page = corpus.page(*doc);
            let q =
                format!("{} {}", page.title, page.paragraphs.first().cloned().unwrap_or_default());
            let hits = engine.search(&q, 10);
            assert!(!hits.is_empty());
            assert!(
                hits.iter().any(|h| h.doc == *doc),
                "page {doc:?} not in top-10 for its own title query"
            );
            checked += 1;
        }
        assert!(checked > 0);
    });
}

/// Incremental annotation equals re-annotation: after churn, the
/// incrementally-updated annotations for changed docs match a fresh
/// annotation of those docs.
#[test]
fn incremental_annotation_is_exact() {
    check(8, 4, |rng| {
        let seed = rng.gen_range(0u64..300);
        let s = generate(&SynthConfig::tiny(seed));
        let (mut corpus, _) = generate_corpus(&s, &[], &CorpusConfig::tiny(seed ^ 2));
        let svc = AnnotationService::build(&s.kg, LinkerConfig::tier(Tier::T1Popularity));
        let (mut annotated, _) = saga_annotation::annotate_corpus(&svc, &corpus, 2);
        let report =
            apply_churn(&mut corpus, &ChurnConfig { edit_fraction: 0.1, new_pages: 3, seed });
        saga_annotation::annotate_incremental(&svc, &corpus, &mut annotated, &report.changed);
        for doc in &report.changed {
            let fresh = svc.annotate(&corpus.page(*doc).full_text());
            let stored = &annotated.docs[doc].mentions;
            assert_eq!(stored.len(), fresh.len());
            for (a, b) in stored.iter().zip(&fresh) {
                assert_eq!(a.entity, b.entity);
            }
        }
    });
}

/// Training is seed-deterministic end-to-end through the view and
/// dataset layers.
#[test]
fn training_determinism() {
    check(8, 5, |rng| {
        let seed = rng.gen_range(0u64..200);
        let s = generate(&SynthConfig::tiny(seed));
        let view = GraphView::materialize(&s.kg, ViewDef::embedding_training(3));
        let ds = TrainingSet::from_edges(&view.edges(), 0.05, 0.05, seed);
        let cfg =
            TrainConfig { model: ModelKind::DistMult, dim: 8, epochs: 2, ..Default::default() };
        let m1 = train(&ds, &cfg);
        let m2 = train(&ds, &cfg);
        assert_eq!(m1.epoch_losses, m2.epoch_losses);
        assert_eq!(m1.entities.row(0), m2.entities.row(0));
    });
}
