//! E1 — Fig. 3: the embedding training & inference pipeline, plus the
//! Sec. 2 fact-filtering and rare-predicate-pruning ablations.

use crate::report::{f3, timed, ExperimentResult, Table};
use crate::world::{Scale, World};
use saga_core::text::fnv1a;
use saga_core::EntityId;
use saga_embeddings::{evaluate, train, ModelKind, TrainConfig, TrainingSet};
use saga_graph::{Edge, GraphView, ViewDef};

/// Training config per scale. Translational models use margin ranking;
/// bilinear models (DistMult/ComplEx) converge far better with the
/// logistic loss (unbounded scores make a fixed margin ill-posed).
pub fn train_config(scale: Scale, model: ModelKind) -> TrainConfig {
    let (loss, learning_rate, negatives) = match model {
        ModelKind::TransE => (saga_embeddings::Loss::MarginRanking, 0.1, 4),
        ModelKind::DistMult | ModelKind::ComplEx => (saga_embeddings::Loss::Logistic, 0.5, 8),
    };
    let base = TrainConfig { model, loss, learning_rate, negatives, ..TrainConfig::default() };
    match scale {
        Scale::Quick => TrainConfig { dim: 16, epochs: 15, ..base },
        Scale::Full => TrainConfig { dim: 32, epochs: 30, ..base },
    }
}

fn eval_cap(scale: Scale) -> usize {
    match scale {
        Scale::Quick => 60,
        Scale::Full => 200,
    }
}

/// Pseudo-node id for a literal (noise facts become edges to literal nodes
/// in the "unfiltered" ablation arm, as KGE pipelines that skip fact
/// filtering do).
fn literal_node(canonical: &str) -> EntityId {
    EntityId((1 << 40) + (fnv1a(canonical.as_bytes()) >> 24))
}

/// Builds the unfiltered edge list: all relational edges (rare included)
/// plus noise facts as edges to literal pseudo-nodes.
fn unfiltered_edges(world: &World) -> Vec<Edge> {
    let kg = &world.synth.kg;
    let mut edges = GraphView::materialize(kg, ViewDef::embedding_training(0)).edges();
    for k in kg.keys() {
        let t = kg.decode(k);
        if kg.ontology().predicate(t.predicate).is_noise_for_embeddings
            && t.object.as_entity().is_none()
        {
            edges.push(Edge {
                head: t.subject,
                relation: t.predicate,
                tail: literal_node(&t.object.canonical()),
            });
        }
    }
    edges
}

/// Runs E1.
pub fn run(scale: Scale) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "E1",
        "Fig. 3 — embedding training & inference; Sec. 2 filtering claims",
    );
    let world = World::build(scale, 11);
    let min_freq = 5;
    let obs = saga_core::obs::Registry::new().scope("bench").child("e1");

    // ---- main table: three models on the filtered view ------------------
    let view = GraphView::materialize(&world.synth.kg, ViewDef::embedding_training(min_freq));
    let ds = TrainingSet::from_edges(&view.edges(), 0.05, 0.05, 23);
    let mut t = Table::new(
        format!(
            "link prediction on the filtered view ({} entities, {} train triples)",
            ds.num_entities(),
            ds.train.len()
        ),
        &["model", "MRR", "Hits@1", "Hits@3", "Hits@10", "train_s", "final_loss"],
    );
    for model in ModelKind::ALL {
        let cfg = train_config(scale, model);
        let (m, train_time) = timed(&obs, "train_ticks", || train(&ds, &cfg));
        let secs = train_time.as_secs_f64();
        let metrics = evaluate(&m, &ds, &ds.test, eval_cap(scale));
        t.row(&[
            model.name().into(),
            f3(metrics.mrr),
            f3(metrics.hits_at_1),
            f3(metrics.hits_at_3),
            f3(metrics.hits_at_10),
            format!("{secs:.1}"),
            f3(*m.epoch_losses.last().unwrap_or(&0.0) as f64),
        ]);
    }
    result.tables.push(t);

    // ---- ablation: fact filtering --------------------------------------
    // Same test triples; the unfiltered arm additionally trains on noise
    // facts (as literal pseudo-nodes) and rare-predicate edges.
    let filtered_train: Vec<Edge> = ds
        .train
        .iter()
        .map(|t| Edge {
            head: ds.entities[t.h as usize],
            relation: ds.relations[t.r as usize],
            tail: ds.entities[t.t as usize],
        })
        .collect();
    let test_edges: Vec<Edge> = ds
        .test
        .iter()
        .map(|t| Edge {
            head: ds.entities[t.h as usize],
            relation: ds.relations[t.r as usize],
            tail: ds.entities[t.t as usize],
        })
        .collect();
    let valid_edges: Vec<Edge> = ds
        .valid
        .iter()
        .map(|t| Edge {
            head: ds.entities[t.h as usize],
            relation: ds.relations[t.r as usize],
            tail: ds.entities[t.t as usize],
        })
        .collect();
    let mut noisy_train = unfiltered_edges(&world);
    // Remove edges that are in valid/test so the unfiltered arm does not
    // see evaluation triples.
    let holdout: std::collections::HashSet<(EntityId, saga_core::PredicateId, EntityId)> =
        test_edges.iter().chain(&valid_edges).map(|e| (e.head, e.relation, e.tail)).collect();
    noisy_train.retain(|e| !holdout.contains(&(e.head, e.relation, e.tail)));

    let ds_unfiltered = TrainingSet::from_split_edges(&noisy_train, &valid_edges, &test_edges);
    let ds_filtered = TrainingSet::from_split_edges(&filtered_train, &valid_edges, &test_edges);

    // Downstream-task ground truth: random-walk co-visitation on the
    // *relational* graph (the related-entities service of Sec. 2 — exactly
    // the task the paper says numeric facts are "not useful" for).
    let adj = saga_graph::Adjacency::from_edges(world.synth.kg.num_entities(), &view.edges());
    let probe_people: Vec<saga_core::EntityId> = world
        .synth
        .people
        .iter()
        .copied()
        .filter(|e| adj.degree(*e) >= 2)
        .take(match scale {
            Scale::Quick => 30,
            Scale::Full => 100,
        })
        .collect();
    let real_entity_bound = world.synth.kg.num_entities() as u64;

    let mut t = Table::new(
        "ablation — fact filtering before training (TransE, same test triples)",
        &["training set", "train_edges", "entities", "MRR", "relatedP@10"],
    );
    for (name, d) in [
        ("filtered (noise dropped, rare pruned)", &ds_filtered),
        ("unfiltered (noise + rare kept)", &ds_unfiltered),
    ] {
        let cfg = train_config(scale, ModelKind::TransE);
        let m = train(d, &cfg);
        let metrics = evaluate(&m, d, &d.test, eval_cap(scale));

        // Related-entities quality: cosine kNN over *real* entities vs the
        // walk-co-visit ground truth.
        let flat = saga_embeddings::build_flat_index(&m);
        let mut hits = 0usize;
        let mut total = 0usize;
        for &e in &probe_people {
            let truth: std::collections::HashSet<saga_core::EntityId> =
                saga_graph::related_by_walks(&adj, e, 300, 3, 20, 7)
                    .into_iter()
                    .map(|(x, _)| x)
                    .collect();
            if truth.is_empty() {
                continue;
            }
            let Some(q) = m.entity_embedding(e) else { continue };
            let found: Vec<u64> = flat
                .search(q, 40)
                .into_iter()
                .map(|h| h.id)
                .filter(|&id| id < real_entity_bound && id != e.raw())
                .take(10)
                .collect();
            hits += found.iter().filter(|&&id| truth.contains(&saga_core::EntityId(id))).count();
            total += found.len();
        }
        t.row(&[
            name.into(),
            d.train.len().to_string(),
            d.num_entities().to_string(),
            f3(metrics.mrr),
            f3(hits as f64 / total.max(1) as f64),
        ]);
    }
    result.tables.push(t);

    // ---- ablation: rare-predicate pruning -------------------------------
    // Same evaluation triples for both arms (the pruned view's test split);
    // the keep-rare arm additionally trains on the rare-predicate edges.
    let view_all = GraphView::materialize(&world.synth.kg, ViewDef::embedding_training(0));
    let pruned_set: std::collections::HashSet<Edge> = view.edges().into_iter().collect();
    let rare_extra: Vec<Edge> =
        view_all.edges().into_iter().filter(|e| !pruned_set.contains(e)).collect();
    let mut keep_rare_train = filtered_train.clone();
    keep_rare_train.extend(rare_extra.iter().copied());
    let ds_keep_rare = TrainingSet::from_split_edges(&keep_rare_train, &valid_edges, &test_edges);
    let mut t = Table::new(
        "ablation — rare-predicate frequency threshold (same test triples)",
        &["min_predicate_freq", "train_edges", "relations", "MRR", "Hits@10"],
    );
    for (label, d) in
        [("0 (keep rare)".to_string(), &ds_keep_rare), (format!("{min_freq}"), &ds_filtered)]
    {
        let cfg = train_config(scale, ModelKind::TransE);
        let m = train(d, &cfg);
        let metrics = evaluate(&m, d, &d.test, eval_cap(scale));
        t.row(&[
            label,
            d.train.len().to_string(),
            d.num_relations().to_string(),
            f3(metrics.mrr),
            f3(metrics.hits_at_10),
        ]);
    }
    result.tables.push(t);

    // ---- hyperparameter sensitivity (TransE) ------------------------------
    // How robust is the pipeline to its two main knobs? (The paper tunes
    // these per downstream task; the sweep shows the sensitivity surface.)
    let mut sweep = Table::new(
        "hyperparameter sensitivity (TransE, filtered view)",
        &["dim", "negatives", "MRR", "Hits@10"],
    );
    let sweep_epochs = match scale {
        Scale::Quick => 8,
        Scale::Full => 15,
    };
    for (dim, negatives) in [(8usize, 4usize), (16, 4), (32, 4), (32, 1), (32, 8)] {
        let cfg = TrainConfig {
            model: ModelKind::TransE,
            dim,
            negatives,
            epochs: sweep_epochs,
            ..TrainConfig::default()
        };
        let m = train(&ds, &cfg);
        let metrics = evaluate(&m, &ds, &ds.test, eval_cap(scale).min(60));
        sweep.row(&[
            dim.to_string(),
            negatives.to_string(),
            f3(metrics.mrr),
            f3(metrics.hits_at_10),
        ]);
    }
    result.tables.push(sweep);

    result.notes.push(
        "filtering claim (Sec. 2): relevance filtering is task-dependent — the filtered model \
         must win on the related-entities task (numeric-literal hubs corrupt similarity), and \
         rare-predicate pruning must shrink the relation vocabulary with no quality loss"
            .into(),
    );
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_quick_runs_and_filtering_helps() {
        let r = run(Scale::Quick);
        assert_eq!(r.tables.len(), 4);
        // Main table has 3 models with finite MRR.
        assert_eq!(r.tables[0].rows.len(), 3);
        for row in &r.tables[0].rows {
            let mrr: f64 = row[1].parse().unwrap();
            assert!(mrr > 0.05, "MRR too low: {row:?}");
        }
        // Filtering ablation: the filtered model wins the related-entities
        // task (column 4 = relatedP@10).
        let filtered_rel: f64 = r.tables[1].rows[0][4].parse().unwrap();
        let unfiltered_rel: f64 = r.tables[1].rows[1][4].parse().unwrap();
        assert!(
            filtered_rel >= unfiltered_rel,
            "filtered relatedP@10 {filtered_rel} vs unfiltered {unfiltered_rel}"
        );
        // Rare-predicate pruning: smaller vocabulary, no meaningful loss.
        let keep_rare_mrr: f64 = r.tables[2].rows[0][3].parse().unwrap();
        let pruned_mrr: f64 = r.tables[2].rows[1][3].parse().unwrap();
        assert!(
            pruned_mrr >= keep_rare_mrr * 0.75,
            "pruned {pruned_mrr} vs keep-rare {keep_rare_mrr}"
        );
        let keep_rels: usize = r.tables[2].rows[0][2].parse().unwrap();
        let pruned_rels: usize = r.tables[2].rows[1][2].parse().unwrap();
        assert!(pruned_rels < keep_rels, "pruning must shrink the vocabulary");
    }
}
