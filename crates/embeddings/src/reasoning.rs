//! Multi-hop path queries in embedding space.
//!
//! Paper Sec. 2 distinguishes shallow models from "reasoning-based embedding
//! models ... used for more complex tasks that involve multi-hop reasoning"
//! (citing Query2Box). This module provides the translational-composition
//! form of that capability on top of a trained TransE model: a path query
//! `start --r1--> ? --r2--> ?` is answered by translating the start
//! embedding through the relation vectors and retrieving the nearest
//! entities — no graph traversal at serving time.

use crate::model::ModelKind;
use crate::train::TrainedModel;
use saga_ann::{FlatIndex, Metric};
use saga_core::{EntityId, KnowledgeGraph, PredicateId, Value};

/// A multi-hop path query: follow `relations` starting from `start`.
#[derive(Debug, Clone)]
pub struct PathQuery {
    /// The anchor entity the path starts from.
    pub start: EntityId,
    /// Relations to follow, in order.
    pub relations: Vec<PredicateId>,
}

/// Answers path queries against a trained translational model.
pub struct PathReasoner<'m> {
    model: &'m TrainedModel,
    index: FlatIndex,
}

impl<'m> PathReasoner<'m> {
    /// Builds the reasoner (indexes all entity embeddings).
    ///
    /// # Panics
    /// Panics if the model is not translational (TransE) — composition by
    /// vector addition is only sound for translation-based scoring.
    pub fn new(model: &'m TrainedModel) -> Self {
        assert_eq!(
            model.kind,
            ModelKind::TransE,
            "path composition requires a translational model"
        );
        let mut index = FlatIndex::new(model.dim(), Metric::Euclidean);
        for (i, &e) in model.entity_ids.iter().enumerate() {
            index.add(e.raw(), model.entities.row(i));
        }
        Self { model, index }
    }

    /// Embeds the query: `start + r1 + r2 + ...`. `None` if any id is out
    /// of vocabulary.
    pub fn embed_query(&self, q: &PathQuery) -> Option<Vec<f32>> {
        let mut v = self.model.entity_embedding(q.start)?.to_vec();
        for r in &q.relations {
            let ri = self.model.relation_index(*r)?;
            for (x, y) in v.iter_mut().zip(self.model.relations.row(ri as usize)) {
                *x += y;
            }
        }
        Some(v)
    }

    /// Top-`k` candidate answers with scores (negative squared distance).
    pub fn answer(&self, q: &PathQuery, k: usize) -> Vec<(EntityId, f32)> {
        let Some(emb) = self.embed_query(q) else { return Vec::new() };
        self.index.search(&emb, k).into_iter().map(|h| (EntityId(h.id), h.score)).collect()
    }
}

/// Ground-truth answers of a path query by actual graph traversal (for
/// evaluation): the set of entities reachable by following the relations.
pub fn traverse_answers(kg: &KnowledgeGraph, q: &PathQuery) -> Vec<EntityId> {
    let mut frontier = vec![q.start];
    for r in &q.relations {
        let mut next = Vec::new();
        for &e in &frontier {
            for v in kg.objects(e, *r) {
                if let Value::Entity(o) = v {
                    next.push(o);
                }
            }
        }
        next.sort_unstable();
        next.dedup();
        frontier = next;
        if frontier.is_empty() {
            break;
        }
    }
    frontier
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::dataset::TrainingSet;
    use crate::train::{train, TrainConfig};
    use saga_core::synth::{generate, SynthConfig};
    use saga_graph::{GraphView, ViewDef};

    /// Hits@k of embedding-based path answering against traversal ground truth
    /// over a set of queries (queries with no true answers are skipped).
    fn evaluate_paths(
        kg: &KnowledgeGraph,
        reasoner: &PathReasoner<'_>,
        queries: &[PathQuery],
        k: usize,
    ) -> (f64, usize) {
        let mut hits = 0usize;
        let mut total = 0usize;
        for q in queries {
            let truth = traverse_answers(kg, q);
            if truth.is_empty() {
                continue;
            }
            total += 1;
            let answers = reasoner.answer(q, k);
            if answers.iter().any(|(e, _)| truth.contains(e)) {
                hits += 1;
            }
        }
        (if total == 0 { 0.0 } else { hits as f64 / total as f64 }, total)
    }

    fn setup() -> (saga_core::synth::SynthKg, TrainedModel) {
        let s = generate(&SynthConfig::tiny(251));
        let view = GraphView::materialize(&s.kg, ViewDef::embedding_training(3));
        let ds = TrainingSet::from_edges(&view.edges(), 0.02, 0.02, 5);
        let m = train(
            &ds,
            &TrainConfig { model: ModelKind::TransE, dim: 24, epochs: 15, ..Default::default() },
        );
        (s, m)
    }

    #[test]
    fn traversal_ground_truth_is_correct() {
        let (s, _) = setup();
        // spouse's birthplace: person --spouse--> ? --born_in--> ?
        let married = s
            .people
            .iter()
            .find(|&&p| {
                let spouses = traverse_answers(
                    &s.kg,
                    &PathQuery { start: p, relations: vec![s.preds.spouse] },
                );
                !spouses.is_empty()
                    && spouses.iter().any(|&sp| !s.kg.objects(sp, s.preds.born_in).is_empty())
            })
            .copied()
            .expect("a married person with a spouse birthplace exists");
        let q = PathQuery { start: married, relations: vec![s.preds.spouse, s.preds.born_in] };
        let ans = traverse_answers(&s.kg, &q);
        assert!(!ans.is_empty());
        for a in &ans {
            assert_eq!(s.kg.entity(*a).entity_type, s.types.place);
        }
    }

    #[test]
    fn one_hop_answers_beat_chance() {
        let (s, m) = setup();
        let reasoner = PathReasoner::new(&m);
        let queries: Vec<PathQuery> = s
            .people
            .iter()
            .take(60)
            .map(|&p| PathQuery { start: p, relations: vec![s.preds.born_in] })
            .collect();
        let (hits_at_20, total) = evaluate_paths(&s.kg, &reasoner, &queries, 20);
        assert!(total >= 30);
        // Chance of hitting the right place in 20 tries over ~280 entities
        // is small; translation should do far better.
        assert!(hits_at_20 > 0.3, "one-hop hits@20 {hits_at_20}");
    }

    #[test]
    fn two_hop_answers_beat_chance() {
        let (s, m) = setup();
        let reasoner = PathReasoner::new(&m);
        let queries: Vec<PathQuery> = s
            .people
            .iter()
            .take(120)
            .map(|&p| PathQuery { start: p, relations: vec![s.preds.spouse, s.preds.born_in] })
            .collect();
        let (hits_at_20, total) = evaluate_paths(&s.kg, &reasoner, &queries, 20);
        if total >= 5 {
            assert!(hits_at_20 > 0.15, "two-hop hits@20 {hits_at_20} over {total}");
        }
    }

    #[test]
    fn oov_query_yields_empty() {
        let (_, m) = setup();
        let reasoner = PathReasoner::new(&m);
        let q = PathQuery { start: EntityId(u64::MAX - 9), relations: vec![PredicateId(0)] };
        assert!(reasoner.answer(&q, 5).is_empty());
    }

    #[test]
    #[should_panic(expected = "translational")]
    fn non_translational_models_rejected() {
        let s = generate(&SynthConfig::tiny(251));
        let view = GraphView::materialize(&s.kg, ViewDef::embedding_training(3));
        let ds = TrainingSet::from_edges(&view.edges(), 0.02, 0.02, 5);
        let m = train(
            &ds,
            &TrainConfig { model: ModelKind::DistMult, dim: 8, epochs: 1, ..Default::default() },
        );
        let _ = PathReasoner::new(&m);
    }
}
