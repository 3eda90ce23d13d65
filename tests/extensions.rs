//! Integration tests for the extension features: table extraction, walk
//! embeddings, path reasoning, on-device personalization, and incremental
//! device construction — all wired through multiple crates.

use saga_annotation::{AnnotationService, LinkerConfig, Tier};
use saga_core::synth::{generate, SynthConfig};
use saga_core::{EntityId, KnowledgeGraph, Triple};
use saga_embeddings::{
    train, train_on_walks, ModelKind, PathQuery, PathReasoner, TrainConfig, TrainingSet, WalkConfig,
};
use saga_graph::{precompute_walk_corpus, related_by_walks, Adjacency, Edge, GraphView, ViewDef};
use saga_odke::{run_odke, FactTarget, OdkeConfig, TargetReason};
use saga_ondevice::{build_preferences, GlobalKnowledge, StaticAsset};
use saga_webcorpus::{generate_corpus, CorpusConfig, SearchEngine};

#[test]
fn table_extraction_recovers_a_held_out_release_date() {
    let synth = generate(&SynthConfig::tiny(881));
    let (corpus, truth) = generate_corpus(&synth, &[], &CorpusConfig::tiny(7));
    let search = SearchEngine::build(&corpus);
    let svc = AnnotationService::build(&synth.kg, LinkerConfig::tier(Tier::T2Contextual));
    let mut kg = synth.kg.clone();

    // Pick a movie whose release date is rendered in some filmography table.
    let table_fact = truth
        .rendered_facts
        .iter()
        .find(|(doc, _, p, _)| {
            *p == synth.preds.release_date && !corpus.page(*doc).tables.is_empty()
        })
        .expect("a table-rendered release date exists");
    let (_, movie, pred, date_text) = table_fact.clone();

    // Remove it from the KG.
    for obj in kg.objects(movie, pred) {
        kg.remove(&Triple { subject: movie, predicate: pred, object: obj });
    }
    kg.commit();
    assert!(kg.object(movie, pred).is_none());

    // ODKE recovers it.
    let target = FactTarget {
        entity: movie,
        predicate: pred,
        reason: TargetReason::CoverageGap,
        importance: 1.0,
    };
    let report = run_odke(&mut kg, &svc, &search, &corpus, &[target], &OdkeConfig::default());
    let outcome = &report.outcomes[0];
    let winner = outcome.winner.as_ref().expect("release date recovered");
    assert_eq!(winner.value_text, date_text);
    assert!(kg.object(movie, pred).is_some());
}

/// Personalized PageRank via power iteration: the stationary distribution
/// of a random walk that restarts at `seed` with probability `1 - damping`.
/// Returns the top `k` entities (seed excluded). Deterministic and exact up
/// to `iterations` — the heavier-weight alternative to sampled walks, and
/// the relatedness oracle the walk embeddings are checked against.
fn personalized_pagerank(
    adj: &Adjacency,
    seed: EntityId,
    damping: f64,
    iterations: usize,
    k: usize,
) -> Vec<(EntityId, f64)> {
    let n = adj.num_entities();
    if seed.index() >= n {
        return Vec::new();
    }
    let mut rank = vec![0.0f64; n];
    rank[seed.index()] = 1.0;
    let mut next = vec![0.0f64; n];
    for _ in 0..iterations {
        next.iter_mut().for_each(|x| *x = 0.0);
        next[seed.index()] = 1.0 - damping;
        for (u, r) in rank.iter().enumerate() {
            if *r == 0.0 {
                continue;
            }
            let nbs = adj.neighbors(EntityId(u as u64));
            if nbs.is_empty() {
                // Dangling mass returns to the seed.
                next[seed.index()] += damping * r;
                continue;
            }
            let share = damping * r / nbs.len() as f64;
            for &(v, _, _) in nbs {
                next[v.index()] += share;
            }
        }
        std::mem::swap(&mut rank, &mut next);
    }
    let mut scored: Vec<(EntityId, f64)> = rank
        .into_iter()
        .enumerate()
        .filter(|&(i, r)| r > 0.0 && i != seed.index())
        .map(|(i, r)| (EntityId(i as u64), r))
        .collect();
    scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    scored.truncate(k);
    scored
}

/// Adjacency over every entity-entity triple in the store.
fn store_adjacency(kg: &KnowledgeGraph) -> Adjacency {
    let edges: Vec<Edge> = kg
        .keys()
        .filter_map(|k| Some(Edge { head: k.s, relation: k.p, tail: k.o.as_entity()? }))
        .collect();
    Adjacency::from_edges(kg.num_entities(), &edges)
}

#[test]
fn ppr_mass_concentrates_near_the_seed() {
    let s = generate(&SynthConfig::tiny(11));
    let adj = store_adjacency(&s.kg);
    let seed = s.scenario.benicio;
    let ppr = personalized_pagerank(&adj, seed, 0.85, 20, 50);
    assert!(!ppr.is_empty());
    assert!(ppr.windows(2).all(|w| w[0].1 >= w[1].1), "sorted by rank");
    // The top PPR entity is a direct neighbour of the seed.
    let direct: std::collections::HashSet<EntityId> =
        adj.neighbors(seed).iter().map(|x| x.0).collect();
    assert!(direct.contains(&ppr[0].0));
    // PPR broadly agrees with sampled walks.
    let walks: std::collections::HashSet<EntityId> =
        related_by_walks(&adj, seed, 400, 3, 20, 9).into_iter().map(|(e, _)| e).collect();
    let overlap = ppr.iter().take(20).filter(|(e, _)| walks.contains(e)).count();
    assert!(overlap >= 8, "ppr/walk overlap {overlap}/20");
}

#[test]
fn ppr_out_of_range_seed_is_empty() {
    let s = generate(&SynthConfig::tiny(11));
    let adj = store_adjacency(&s.kg);
    assert!(personalized_pagerank(&adj, EntityId(u64::MAX >> 2), 0.85, 5, 10).is_empty());
}

#[test]
fn walk_embeddings_agree_with_pagerank_relatedness() {
    let synth = generate(&SynthConfig::tiny(883));
    let view = GraphView::materialize(&synth.kg, ViewDef::embedding_training(0));
    let adj = Adjacency::from_edges(synth.kg.num_entities(), &view.edges());
    let probes: Vec<_> = synth.people.iter().copied().take(40).collect();
    let corpus = precompute_walk_corpus(&adj, &probes, 10, 5, 5);
    let emb = train_on_walks(&corpus, &WalkConfig { epochs: 4, ..Default::default() });

    let mut agree = 0usize;
    let mut total = 0usize;
    for &e in probes.iter().take(15) {
        let ppr: std::collections::HashSet<_> =
            personalized_pagerank(&adj, e, 0.85, 15, 20).into_iter().map(|(x, _)| x).collect();
        if ppr.is_empty() {
            continue;
        }
        let related = emb.related(e, 10);
        agree += related.iter().filter(|(x, _)| ppr.contains(x)).count();
        total += related.len();
    }
    assert!(total > 0);
    let precision = agree as f64 / total as f64;
    assert!(precision > 0.1, "walk-embedding vs PPR precision {precision}");
}

#[test]
fn path_reasoning_answers_compose_across_crates() {
    let synth = generate(&SynthConfig::tiny(885));
    let view = GraphView::materialize(&synth.kg, ViewDef::embedding_training(3));
    let ds = TrainingSet::from_edges(&view.edges(), 0.02, 0.02, 5);
    let model = train(
        &ds,
        &TrainConfig { model: ModelKind::TransE, dim: 24, epochs: 12, ..Default::default() },
    );
    let reasoner = PathReasoner::new(&model);
    // "Where was X born?" as a one-hop embedding query, verified against
    // the graph engine's traversal answer.
    let mut checked = 0;
    let mut hits = 0;
    for &p in synth.people.iter().take(40) {
        let q = PathQuery { start: p, relations: vec![synth.preds.born_in] };
        let truth = saga_embeddings::traverse_answers(&synth.kg, &q);
        if truth.is_empty() {
            continue;
        }
        checked += 1;
        if reasoner.answer(&q, 20).iter().any(|(e, _)| truth.contains(e)) {
            hits += 1;
        }
    }
    assert!(checked >= 20);
    assert!(hits * 100 / checked >= 30, "hits@20 {hits}/{checked}");
}

#[test]
fn device_personalization_runs_off_the_shipped_asset() {
    let synth = generate(&SynthConfig::tiny(887));
    let asset = StaticAsset::build(&synth.kg, 0.2);
    let mut global = GlobalKnowledge::default();
    global.load_static_asset(&asset);
    let history: Vec<_> =
        synth.songs.iter().copied().filter(|&s| !global.facts_of(s).is_empty()).take(6).collect();
    if history.len() < 2 {
        return; // asset too small at this seed
    }
    let profile = build_preferences(&global, &history, synth.preds.genre, synth.preds.release_date);
    assert!(!profile.genres.is_empty());
    let recs = saga_ondevice::recommend(&global, &profile, &history, synth.preds.genre, 5);
    for r in &recs {
        assert!(!history.contains(r));
    }
}
