//! E2 — Fig. 2: the four ML applications powered by graph embeddings —
//! fact ranking, fact verification, related entities and entity linking.

use crate::e1::train_config;
use crate::report::{f3, ExperimentResult, Table};
use crate::world::{Scale, World};
use saga_annotation::Tier;
use saga_core::rng::SplitMix64;
use saga_core::EntityId;
use saga_embeddings::{
    auc, build_knn_index, ndcg, rank_facts, related_entities, train, DenseTriple, ModelKind,
    TrainingSet,
};
use saga_graph::{related_by_walks, Adjacency, GraphView, ViewDef};

/// Runs E2.
pub fn run(scale: Scale) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "E2",
        "Fig. 2 — fact ranking, verification, related entities, linking",
    );
    let world = World::build(scale, 13);
    let kg = &world.synth.kg;
    let view = GraphView::materialize(kg, ViewDef::embedding_training(5));
    let ds = TrainingSet::from_edges(&view.edges(), 0.05, 0.05, 23);
    let model = train(&ds, &train_config(scale, ModelKind::TransE));
    let mut rng = SplitMix64::new(99);

    let mut t = Table::new("application quality", &["application", "metric", "value"]);

    // ---- fact ranking ----------------------------------------------------
    // Candidates: true occupations (relevance 1) + sampled non-occupations
    // (relevance 0); NDCG of the model's plausibility ranking.
    let mut ndcgs = Vec::new();
    for (&person, occs) in world.synth.occupation_rank_truth.iter() {
        let mut candidates: Vec<EntityId> = occs.clone();
        let mut negs = 0;
        while negs < 5 {
            let o = world.synth.occupations[rng.gen_range(0..world.synth.occupations.len())];
            if !occs.contains(&o) {
                candidates.push(o);
                negs += 1;
            }
        }
        let ranked = rank_facts(&model, person, world.synth.preds.occupation, &candidates);
        if ranked.is_empty() {
            continue;
        }
        let rels: Vec<f64> =
            ranked.iter().map(|(e, _)| if occs.contains(e) { 1.0 } else { 0.0 }).collect();
        ndcgs.push(ndcg(&rels));
    }
    let mean_ndcg = ndcgs.iter().sum::<f64>() / ndcgs.len().max(1) as f64;
    t.row(&["fact ranking".into(), "NDCG (true occ. vs sampled)".into(), f3(mean_ndcg)]);

    // Random baseline for contrast.
    let mut rnd = Vec::new();
    for (_, occs) in world.synth.occupation_rank_truth.iter() {
        let mut rels: Vec<f64> =
            occs.iter().map(|_| 1.0).chain(std::iter::repeat_n(0.0, 5)).collect();
        rng.shuffle(&mut rels);
        rnd.push(ndcg(&rels));
    }
    let rnd_ndcg = rnd.iter().sum::<f64>() / rnd.len().max(1) as f64;
    t.row(&["fact ranking".into(), "NDCG (random baseline)".into(), f3(rnd_ndcg)]);

    // ---- fact verification ------------------------------------------------
    let pos: Vec<f32> = ds.test.iter().map(|tr| model.score_dense(tr)).collect();
    let neg: Vec<f32> = ds
        .test
        .iter()
        .map(|tr| {
            let mut c = *tr;
            loop {
                c.t = rng.gen_range(0..ds.num_entities() as u32);
                if !ds.contains(&c) {
                    break;
                }
            }
            model.score_dense(&c)
        })
        .collect();
    t.row(&["fact verification".into(), "AUC (true vs corrupted)".into(), f3(auc(&pos, &neg))]);

    // ---- related entities ---------------------------------------------------
    // Ground truth: top co-visited entities by random walks on the same view.
    let adj = Adjacency::from_edges(kg.num_entities(), &view.edges());
    let index = build_knn_index(&model, saga_ann::HnswParams::default());
    let n_eval = match scale {
        Scale::Quick => 30,
        Scale::Full => 100,
    };
    let mut hits = 0usize;
    let mut total = 0usize;
    for &e in world.synth.people.iter().take(n_eval) {
        let truth: std::collections::HashSet<EntityId> =
            related_by_walks(&adj, e, 300, 3, 20, 7).into_iter().map(|(x, _)| x).collect();
        if truth.is_empty() {
            continue;
        }
        let rel = related_entities(&model, &index, kg, e, 10, false);
        hits += rel.iter().filter(|(x, _)| truth.contains(x)).count();
        total += rel.len();
    }
    let p_at_10 = hits as f64 / total.max(1) as f64;
    t.row(&["related entities".into(), "P@10 vs walk co-visits".into(), f3(p_at_10)]);

    // Random baseline.
    let mut rhits = 0usize;
    let mut rtotal = 0usize;
    for &e in world.synth.people.iter().take(n_eval) {
        let truth: std::collections::HashSet<EntityId> =
            related_by_walks(&adj, e, 300, 3, 20, 7).into_iter().map(|(x, _)| x).collect();
        if truth.is_empty() {
            continue;
        }
        for _ in 0..10 {
            let cand = EntityId(rng.gen_range(0..kg.num_entities() as u64));
            if truth.contains(&cand) {
                rhits += 1;
            }
            rtotal += 1;
        }
    }
    t.row(&[
        "related entities".into(),
        "P@10 random baseline".into(),
        f3(rhits as f64 / rtotal.max(1) as f64),
    ]);

    // Specialized related-entity embeddings from pre-computed traversals
    // (paper Sec. 2: the second embedding path Saga uses). Walk corpus uses
    // a different seed than the ground-truth walks.
    let probe: Vec<EntityId> = world.synth.people.iter().copied().take(n_eval).collect();
    let corpus = saga_graph::precompute_walk_corpus(&adj, &probe, 10, 5, 1234);
    let wcfg = saga_embeddings::WalkConfig {
        epochs: match scale {
            Scale::Quick => 3,
            Scale::Full => 4,
        },
        ..Default::default()
    };
    let walk_emb = saga_embeddings::train_on_walks(&corpus, &wcfg);
    let mut whits = 0usize;
    let mut wtotal = 0usize;
    for &e in &probe {
        let truth: std::collections::HashSet<EntityId> =
            related_by_walks(&adj, e, 300, 3, 20, 7).into_iter().map(|(x, _)| x).collect();
        if truth.is_empty() {
            continue;
        }
        let rel = walk_emb.related(e, 10);
        whits += rel.iter().filter(|(x, _)| truth.contains(x)).count();
        wtotal += rel.len();
    }
    t.row(&[
        "related entities".into(),
        "P@10 specialized walk embeddings".into(),
        f3(whits as f64 / wtotal.max(1) as f64),
    ]);

    // ---- entity linking on ambiguous queries -------------------------------
    let mut linking = Table::new(
        "entity linking on homonym queries (the Fig. 2 'Michael Jordan' task)",
        &["tier", "accuracy", "queries"],
    );
    let mut link_row = |label: String, svc: &saga_annotation::AnnotationService| {
        let mut correct = 0usize;
        let mut total = 0usize;
        for group in &world.synth.homonym_groups {
            for &entity in group {
                let rec = kg.entity(entity);
                let q = format!("{} {}", rec.name, rec.description);
                let links = svc.annotate(&q);
                if let Some(top) = links.first() {
                    total += 1;
                    if top.entity == entity {
                        correct += 1;
                    }
                }
            }
        }
        linking.row(&[label, f3(correct as f64 / total.max(1) as f64), total.to_string()]);
    };
    for tier in [Tier::T0Lexical, Tier::T1Popularity, Tier::T2Contextual] {
        link_row(format!("{tier:?}"), &world.annotation_service(tier));
    }
    // The same T2 linker with the graph embeddings trained above as its
    // coherence feature (Fig. 2: embeddings power entity linking).
    let coherent = world.annotation_service(Tier::T2Contextual).with_graph_embeddings(model);
    link_row("T2Contextual + graph coherence".into(), &coherent);

    result.tables.push(t);
    result.tables.push(linking);
    result.notes.push(
        "expected shape: verification AUC ≫ 0.5; ranking NDCG ≫ random; linking accuracy \
         rises monotonically T0 → T2 (contextual reranking resolves homonyms)"
            .into(),
    );
    let _ = DenseTriple { h: 0, r: 0, t: 0 }; // keep import used on all paths
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e2_quick_shapes_hold() {
        let r = run(Scale::Quick);
        let rows = &r.tables[0].rows;
        let get = |i: usize| -> f64 { rows[i][2].parse().unwrap() };
        assert!(get(0) > get(1), "model NDCG beats random");
        assert!(get(2) > 0.75, "verification AUC {}", get(2));
        assert!(get(3) > get(4), "related P@10 beats random");
        // Linking: T2 >= T0.
        let lt = &r.tables[1].rows;
        let t0: f64 = lt[0][1].parse().unwrap();
        let t2: f64 = lt[2][1].parse().unwrap();
        assert!(t2 >= t0, "T2 {t2} vs T0 {t0}");
        assert!(t2 > 0.8, "T2 accuracy {t2}");
        let coherent: f64 = lt[3][1].parse().unwrap();
        assert!(coherent >= t2, "T2 + graph coherence {coherent} vs T2 {t2}");
    }
}
