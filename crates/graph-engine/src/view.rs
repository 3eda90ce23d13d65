//! Declarative, materialized graph views.
//!
//! Views are the paper's central fact-filtering mechanism (Sec. 2): before
//! embedding training the graph engine "generates a view of the KG by
//! filtering out non-relevant facts and possible noise". The same machinery
//! implements the on-device *static knowledge asset* (Sec. 5, enrichment
//! path 1), which the paper describes as "a Graph Engine view \[that\] is
//! automatically maintained".
//!
//! Semantics: a triple is **retained** if it passes the static filters
//! (predicate allow/deny, noise flag, literal handling, type and popularity
//! constraints) and is **visible** if additionally its predicate's frequency
//! *within the retained set* is at least `min_predicate_frequency` — matching
//! the paper's observation that predicate frequency is evaluated *after*
//! relevance filtering.

use saga_core::{EntityId, KnowledgeGraph, PredicateId, Triple, TypeId};
use std::collections::{HashMap, HashSet};

/// Declarative description of a view.
#[derive(Debug, Clone, Default)]
pub struct ViewDef {
    /// Human-readable view name.
    pub name: String,
    /// If set, only these predicates are retained.
    pub include_predicates: Option<HashSet<PredicateId>>,
    /// Predicates always dropped.
    pub exclude_predicates: HashSet<PredicateId>,
    /// Drop predicates flagged `is_noise_for_embeddings` in the ontology.
    pub exclude_noise_predicates: bool,
    /// Drop triples whose object is a literal (keep only entity-entity edges).
    pub entity_objects_only: bool,
    /// Drop triples of predicates occurring fewer than this many times in
    /// the retained set (0 = keep all).
    pub min_predicate_frequency: usize,
    /// If set, subject (and entity object) must be of one of these types.
    pub allowed_types: Option<HashSet<TypeId>>,
    /// Subject (and entity object) must have popularity ≥ this.
    pub min_popularity: f32,
}

impl ViewDef {
    /// An empty definition with only a name set.
    pub fn named(name: impl Into<String>) -> Self {
        Self { name: name.into(), ..Self::default() }
    }

    /// The standard embedding-training view: entity-entity edges only, noise
    /// predicates removed, rare predicates pruned (paper Sec. 2).
    pub fn embedding_training(min_predicate_frequency: usize) -> Self {
        Self {
            name: "embedding-training".into(),
            exclude_noise_predicates: true,
            entity_objects_only: true,
            min_predicate_frequency,
            ..Self::default()
        }
    }

    /// The on-device static knowledge asset: popular entities and their
    /// facts (paper Sec. 5, global enrichment path 1).
    pub fn static_knowledge_asset(min_popularity: f32) -> Self {
        Self { name: "static-knowledge-asset".into(), min_popularity, ..Self::default() }
    }

    fn passes_static(&self, kg: &KnowledgeGraph, t: &Triple) -> bool {
        if let Some(inc) = &self.include_predicates {
            if !inc.contains(&t.predicate) {
                return false;
            }
        }
        if self.exclude_predicates.contains(&t.predicate) {
            return false;
        }
        if self.exclude_noise_predicates
            && kg.ontology().predicate(t.predicate).is_noise_for_embeddings
        {
            return false;
        }
        let obj_entity = t.object.as_entity();
        if self.entity_objects_only && obj_entity.is_none() {
            return false;
        }
        let subj = kg.entity(t.subject);
        if subj.popularity < self.min_popularity {
            return false;
        }
        if let Some(types) = &self.allowed_types {
            if !types.contains(&subj.entity_type) {
                return false;
            }
        }
        if let Some(o) = obj_entity {
            let or = kg.entity(o);
            if or.popularity < self.min_popularity {
                return false;
            }
            if let Some(types) = &self.allowed_types {
                if !types.contains(&or.entity_type) {
                    return false;
                }
            }
        }
        true
    }
}

/// An entity-entity edge of a view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Edge {
    /// Head (subject) entity.
    pub head: EntityId,
    /// Relation (predicate).
    pub relation: PredicateId,
    /// Tail (object) entity.
    pub tail: EntityId,
}

/// A materialized view.
#[derive(Debug, Clone)]
pub struct GraphView {
    def: ViewDef,
    /// Triples passing all static filters (frequency not yet applied).
    retained: Vec<Triple>,
    /// Predicate frequency within `retained`.
    pred_counts: HashMap<PredicateId, usize>,
    /// Commit the view was last synchronized to.
    as_of: u64,
}

impl GraphView {
    /// Materializes the view from the current store contents. A view of
    /// entity objects only skips literal keys before decoding them: they
    /// would fail `ViewDef::passes_static` anyway.
    pub fn materialize(kg: &KnowledgeGraph, def: ViewDef) -> Self {
        let mut retained = Vec::new();
        let mut pred_counts: HashMap<PredicateId, usize> = HashMap::new();
        for k in kg.keys() {
            if def.entity_objects_only && !k.o.is_entity() {
                continue;
            }
            let t = kg.decode(k);
            if def.passes_static(kg, &t) {
                *pred_counts.entry(t.predicate).or_default() += 1;
                retained.push(t);
            }
        }
        Self { def, retained, pred_counts, as_of: kg.current_commit() }
    }

    /// The view's definition.
    pub fn def(&self) -> &ViewDef {
        &self.def
    }

    /// Commit this view reflects.
    pub fn as_of(&self) -> u64 {
        self.as_of
    }

    fn visible_pred(&self, p: PredicateId) -> bool {
        self.def.min_predicate_frequency == 0
            || self.pred_counts.get(&p).copied().unwrap_or(0) >= self.def.min_predicate_frequency
    }

    /// The view's visible triples (retained ∧ frequency threshold).
    pub fn triples(&self) -> impl Iterator<Item = &Triple> {
        self.retained.iter().filter(|t| self.visible_pred(t.predicate))
    }

    /// Visible entity-entity edges (the embedding training set).
    pub fn edges(&self) -> Vec<Edge> {
        self.triples()
            .filter_map(|t| {
                t.object.as_entity().map(|o| Edge {
                    head: t.subject,
                    relation: t.predicate,
                    tail: o,
                })
            })
            .collect()
    }

    /// Number of visible triples.
    pub fn len(&self) -> usize {
        self.triples().count()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Distinct entities appearing in visible triples (subjects and entity
    /// objects), sorted.
    pub fn entities(&self) -> Vec<EntityId> {
        let mut out: Vec<EntityId> = self
            .triples()
            .flat_map(|t| std::iter::once(t.subject).chain(t.object.as_entity()))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saga_core::synth::{generate, SynthConfig};

    #[test]
    fn embedding_view_drops_noise_and_literals() {
        let s = generate(&SynthConfig::tiny(5));
        let v = GraphView::materialize(&s.kg, ViewDef::embedding_training(0));
        for t in v.triples() {
            assert!(t.object.as_entity().is_some(), "literal leaked: {t:?}");
            assert!(
                !s.kg.ontology().predicate(t.predicate).is_noise_for_embeddings,
                "noise predicate leaked"
            );
        }
        assert!(!v.is_empty());
        assert!(v.len() < s.kg.num_triples());
    }

    #[test]
    fn frequency_threshold_prunes_rare_predicates() {
        let s = generate(&SynthConfig::tiny(5));
        let v_all = GraphView::materialize(&s.kg, ViewDef::embedding_training(0));
        let v_pruned = GraphView::materialize(&s.kg, ViewDef::embedding_training(5));
        assert!(v_pruned.len() < v_all.len());
        for t in v_pruned.triples() {
            assert!(
                !s.preds.rare.contains(&t.predicate),
                "rare predicate survived frequency pruning"
            );
        }
        // Rare predicates ARE present without pruning.
        assert!(v_all.triples().any(|t| s.preds.rare.contains(&t.predicate)));
    }

    #[test]
    fn static_asset_keeps_only_popular_entities() {
        let s = generate(&SynthConfig::tiny(5));
        let v = GraphView::materialize(&s.kg, ViewDef::static_knowledge_asset(0.5));
        assert!(!v.is_empty());
        for t in v.triples() {
            assert!(s.kg.entity(t.subject).popularity >= 0.5);
            if let Some(o) = t.object.as_entity() {
                assert!(s.kg.entity(o).popularity >= 0.5);
            }
        }
    }

    #[test]
    fn entities_are_sorted_and_unique() {
        let s = generate(&SynthConfig::tiny(5));
        let v = GraphView::materialize(&s.kg, ViewDef::embedding_training(0));
        let ents = v.entities();
        assert!(ents.windows(2).all(|w| w[0] < w[1]));
    }

    /// `materialize` before literal keys were skipped: every key decoded,
    /// then filtered — the oracle for the skip.
    fn reference_materialize(kg: &KnowledgeGraph, def: ViewDef) -> GraphView {
        let mut retained = Vec::new();
        let mut pred_counts: HashMap<PredicateId, usize> = HashMap::new();
        for k in kg.keys() {
            let t = kg.decode(k);
            if def.passes_static(kg, &t) {
                *pred_counts.entry(t.predicate).or_default() += 1;
                retained.push(t);
            }
        }
        GraphView { def, retained, pred_counts, as_of: kg.current_commit() }
    }

    #[test]
    fn skipping_literal_keys_keeps_the_view() {
        let s = generate(&SynthConfig::tiny(5));
        let mut noise_filtered = ViewDef::named("noise-filtered");
        noise_filtered.exclude_noise_predicates = true;
        for def in [ViewDef::embedding_training(2), noise_filtered] {
            let got = GraphView::materialize(&s.kg, def.clone());
            let want = reference_materialize(&s.kg, def);
            assert_eq!(got.edges(), want.edges());
            assert_eq!(got.triples().collect::<Vec<_>>(), want.triples().collect::<Vec<_>>());
            assert_eq!(got.pred_counts, want.pred_counts);
        }
    }

    #[test]
    fn include_predicate_allowlist() {
        let s = generate(&SynthConfig::tiny(5));
        let mut def = ViewDef::named("occupations-only");
        def.include_predicates = Some([s.preds.occupation].into_iter().collect());
        let v = GraphView::materialize(&s.kg, def);
        assert!(!v.is_empty());
        assert!(v.triples().all(|t| t.predicate == s.preds.occupation));
    }
}
