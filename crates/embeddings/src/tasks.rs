//! The four downstream ML applications of Fig. 2, built on a trained model:
//! fact ranking, fact verification, related entities, and entity-linking
//! support (embedding export + kNN serving index).

use crate::dataset::TrainingSet;
use crate::train::TrainedModel;
use saga_ann::{EmbeddingCache, FlatIndex, Hit, HnswIndex, HnswParams, Metric};
use saga_core::{EntityId, KnowledgeGraph, PredicateId, Value};

/// Ranks candidate object entities for `(subject, predicate, ?)` by model
/// score, best first — "what is the occupation of X?" style fact ranking.
pub fn rank_facts(
    model: &TrainedModel,
    subject: EntityId,
    predicate: PredicateId,
    candidates: &[EntityId],
) -> Vec<(EntityId, f32)> {
    let mut scored: Vec<(EntityId, f32)> = candidates
        .iter()
        .filter_map(|&c| model.score_triple(subject, predicate, c).map(|s| (c, s)))
        .collect();
    scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    scored
}

/// Verdict of fact verification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Verification {
    /// Score; higher is better.
    pub score: f32,
    /// Plausibility in `[0,1]` relative to the calibration threshold.
    pub plausible: bool,
}

/// Calibrated fact verifier: the threshold is the score at the requested
/// percentile of true-triple scores on the validation split.
#[derive(Debug, Clone)]
pub struct FactVerifier {
    threshold: f32,
}

impl FactVerifier {
    /// Calibrates on the validation split so that `target_recall` of known
    /// true facts score above the threshold.
    pub fn calibrate(model: &TrainedModel, ds: &TrainingSet, target_recall: f64) -> Self {
        let mut scores: Vec<f32> = ds.valid.iter().map(|t| model.score_dense(t)).collect();
        if scores.is_empty() {
            return Self { threshold: 0.0 };
        }
        scores.sort_by(|a, b| a.total_cmp(b));
        let idx = ((1.0 - target_recall) * (scores.len() - 1) as f64).round() as usize;
        Self { threshold: scores[idx.min(scores.len() - 1)] }
    }

    /// The calibrated score threshold.
    pub fn threshold(&self) -> f32 {
        self.threshold
    }

    /// Verifies a candidate fact.
    pub fn verify(
        &self,
        model: &TrainedModel,
        s: EntityId,
        p: PredicateId,
        o: EntityId,
    ) -> Option<Verification> {
        let score = model.score_triple(s, p, o)?;
        Some(Verification { score, plausible: score >= self.threshold })
    }
}

/// Builds the embedding service's serving index over all trained entity
/// embeddings (paper Fig. 1: "similarity calculations as well as efficient
/// k-nearest-neighbour retrieval").
pub fn build_knn_index(model: &TrainedModel, params: HnswParams) -> HnswIndex {
    let mut idx = HnswIndex::new(model.dim(), Metric::Cosine, params);
    for (i, &e) in model.entity_ids.iter().enumerate() {
        idx.add(e.raw(), model.entities.row(i));
    }
    idx
}

/// Exact counterpart of [`build_knn_index`], for recall measurement.
pub fn build_flat_index(model: &TrainedModel) -> FlatIndex {
    let mut idx = FlatIndex::new(model.dim(), Metric::Cosine);
    for (i, &e) in model.entity_ids.iter().enumerate() {
        idx.add(e.raw(), model.entities.row(i));
    }
    idx
}

/// Populates the low-latency embedding cache from a trained model (the
/// precomputation of paper Sec. 3.2).
pub fn warm_cache(model: &TrainedModel, cache: &EmbeddingCache) -> usize {
    for (i, &e) in model.entity_ids.iter().enumerate() {
        cache.put(e.raw(), model.entities.row(i).to_vec());
    }
    model.entity_ids.len()
}

/// Related-entities service: k nearest entities in embedding space,
/// optionally restricted to the same ontology type (e.g. "similar movie
/// directors").
pub fn related_entities(
    model: &TrainedModel,
    index: &HnswIndex,
    kg: &KnowledgeGraph,
    entity: EntityId,
    k: usize,
    same_type_only: bool,
) -> Vec<(EntityId, f32)> {
    let Some(emb) = model.entity_embedding(entity) else { return Vec::new() };
    let want_type = kg.entity(entity).entity_type;
    // Over-fetch to survive the self-hit and type filtering.
    let hits: Vec<Hit> = index.search_ef(emb, (k + 1) * 4, ((k + 1) * 8).max(48));
    hits.into_iter()
        .map(|h| (EntityId(h.id), h.score))
        .filter(|(e, _)| *e != entity)
        .filter(|(e, _)| !same_type_only || kg.entity(*e).entity_type == want_type)
        .take(k)
        .collect()
}

/// Convenience: ranks the existing objects of `(subject, predicate)` in the
/// KG (the paper's "occupation of X" example ranks facts already present).
pub fn rank_existing_facts(
    model: &TrainedModel,
    kg: &KnowledgeGraph,
    subject: EntityId,
    predicate: PredicateId,
) -> Vec<(EntityId, f32)> {
    let candidates: Vec<EntityId> = kg
        .objects(subject, predicate)
        .into_iter()
        .filter_map(|v| match v {
            Value::Entity(e) => Some(e),
            _ => None,
        })
        .collect();
    rank_facts(model, subject, predicate, &candidates)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::eval::auc;
    use crate::model::ModelKind;
    use crate::train::{train, TrainConfig};
    use saga_core::rng::SplitMix64;
    use saga_core::synth::{generate, SynthConfig, SynthKg};
    use saga_graph::{GraphView, ViewDef};

    fn setup() -> (SynthKg, TrainingSet, TrainedModel) {
        let s = generate(&SynthConfig::tiny(91));
        let v = GraphView::materialize(&s.kg, ViewDef::embedding_training(2));
        let ds = TrainingSet::from_edges(&v.edges(), 0.05, 0.05, 3);
        let cfg =
            TrainConfig { dim: 16, epochs: 12, model: ModelKind::TransE, ..Default::default() };
        let m = train(&ds, &cfg);
        (s, ds, m)
    }

    #[test]
    fn fact_verification_separates_true_from_corrupt() {
        let (_, ds, m) = setup();
        let mut rng = SplitMix64::new(1);
        let pos: Vec<f32> = ds.test.iter().map(|t| m.score_dense(t)).collect();
        let neg: Vec<f32> = ds
            .test
            .iter()
            .map(|t| {
                let mut c = *t;
                loop {
                    c.t = rng.gen_range(0..ds.num_entities() as u32);
                    if !ds.contains(&c) {
                        break;
                    }
                }
                m.score_dense(&c)
            })
            .collect();
        let a = auc(&pos, &neg);
        assert!(a > 0.8, "verification AUC {a}");
    }

    #[test]
    fn verifier_calibration_hits_target_recall() {
        let (_, ds, m) = setup();
        let v = FactVerifier::calibrate(&m, &ds, 0.9);
        let above = ds.valid.iter().filter(|t| m.score_dense(t) >= v.threshold()).count();
        let recall = above as f64 / ds.valid.len() as f64;
        assert!(recall >= 0.85, "calibrated recall {recall}");
        // Verify API surfaces plausibility.
        let t = &ds.valid[0];
        let res = v
            .verify(
                &m,
                m.entity_ids[t.h as usize],
                m.relation_ids[t.r as usize],
                m.entity_ids[t.t as usize],
            )
            .unwrap();
        assert_eq!(res.plausible, res.score >= v.threshold());
    }

    #[test]
    fn rank_facts_orders_by_score() {
        let (s, _, m) = setup();
        let subject = s.scenario.benicio;
        let ranked = rank_existing_facts(&m, &s.kg, subject, s.preds.occupation);
        assert!(ranked.len() >= 2, "benicio has two occupations");
        assert!(ranked.windows(2).all(|w| w[0].1 >= w[1].1));
    }

    #[test]
    fn related_entities_excludes_self_and_respects_type() {
        let (s, _, m) = setup();
        let idx = build_knn_index(&m, HnswParams::default());
        let rel = related_entities(&m, &idx, &s.kg, s.scenario.benicio, 5, false);
        assert!(!rel.is_empty());
        assert!(rel.iter().all(|(e, _)| *e != s.scenario.benicio));
        let rel_typed = related_entities(&m, &idx, &s.kg, s.scenario.benicio, 5, true);
        let want = s.kg.entity(s.scenario.benicio).entity_type;
        assert!(rel_typed.iter().all(|(e, _)| s.kg.entity(*e).entity_type == want));
    }

    #[test]
    fn knn_and_flat_agree_reasonably() {
        let (_, _, m) = setup();
        let hnsw = build_knn_index(&m, HnswParams::default());
        let flat = build_flat_index(&m);
        let q = m.entities.row(10);
        let truth: std::collections::HashSet<u64> =
            flat.search(q, 10).into_iter().map(|h| h.id).collect();
        let got = hnsw.search_ef(q, 10, 80);
        let overlap = got.iter().filter(|h| truth.contains(&h.id)).count();
        assert!(overlap >= 7, "knn overlap {overlap}/10");
    }

    #[test]
    fn cache_warmup_covers_vocabulary() {
        let (_, ds, m) = setup();
        let cache = EmbeddingCache::new();
        let n = warm_cache(&m, &cache);
        assert_eq!(n, ds.num_entities());
        assert_eq!(cache.stats().entries, n);
        let e = m.entity_ids[7];
        assert_eq!(cache.get(e.raw()).unwrap(), m.entity_embedding(e).unwrap());
    }

    #[test]
    fn batch_score_handles_oov() {
        let (s, _, m) = setup();
        let oov = saga_core::EntityId(u64::MAX - 1);
        assert!(m.score_triple(s.scenario.benicio, s.preds.occupation, s.occupations[3]).is_some());
        assert!(m.score_triple(oov, s.preds.occupation, s.occupations[3]).is_none());
    }
}
