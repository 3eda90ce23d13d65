//! Declarative graph views.
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
//!
//! A view is not a copy of its facts. It borrows the graph and holds the
//! retained count of each predicate; every filter judges a [`TripleKey`]
//! and the entity records it names, never a literal's value. Materializing
//! is one walk over the graph's keys that counts; reading the view
//! ([`edges`](GraphView::edges), [`triples`](GraphView::triples), …) walks
//! them again through the same filter.

use saga_core::{EntityId, KnowledgeGraph, PredicateId, Triple, TripleKey, TypeId};
use std::collections::HashSet;

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

    /// True when the fact with key `k` passes the static filters: its
    /// predicate, whether its object is an entity, and the records of its
    /// subject and entity object.
    fn passes_static(&self, kg: &KnowledgeGraph, k: TripleKey) -> bool {
        let obj_entity = k.o.as_entity();
        if self.entity_objects_only && obj_entity.is_none() {
            return false;
        }
        if self.include_predicates.as_ref().is_some_and(|inc| !inc.contains(&k.p))
            || self.exclude_predicates.contains(&k.p)
            || (self.exclude_noise_predicates
                && kg.ontology().predicate(k.p).is_noise_for_embeddings)
        {
            return false;
        }
        std::iter::once(k.s).chain(obj_entity).all(|e| {
            let rec = kg.entity(e);
            rec.popularity >= self.min_popularity
                && self.allowed_types.as_ref().is_none_or(|types| types.contains(&rec.entity_type))
        })
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

/// A view of a graph: its definition and the retained count of each
/// predicate, over the graph it borrows.
#[derive(Clone)]
pub struct GraphView<'g> {
    kg: &'g KnowledgeGraph,
    def: ViewDef,
    /// Retained facts per predicate, indexed by `PredicateId`.
    pred_counts: Vec<usize>,
    /// Commit the view reflects.
    as_of: u64,
}

impl std::fmt::Debug for GraphView<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GraphView")
            .field("def", &self.def)
            .field("pred_counts", &self.pred_counts)
            .field("as_of", &self.as_of)
            .finish_non_exhaustive()
    }
}

impl<'g> GraphView<'g> {
    /// Materializes the view of the graph's current contents: one walk over
    /// its keys that counts the retained facts of each predicate.
    pub fn materialize(kg: &'g KnowledgeGraph, def: ViewDef) -> Self {
        let mut pred_counts = vec![0; kg.ontology().num_predicates()];
        for k in kg.keys().filter(|&k| def.passes_static(kg, k)) {
            let p = k.p.index();
            if p >= pred_counts.len() {
                pred_counts.resize(p + 1, 0);
            }
            pred_counts[p] += 1;
        }
        Self { kg, def, pred_counts, as_of: kg.current_commit() }
    }

    /// The view's definition.
    pub fn def(&self) -> &ViewDef {
        &self.def
    }

    /// Commit this view reflects.
    pub fn as_of(&self) -> u64 {
        self.as_of
    }

    fn retained(&self, p: PredicateId) -> usize {
        self.pred_counts.get(p.index()).copied().unwrap_or(0)
    }

    fn visible_pred(&self, p: PredicateId) -> bool {
        self.retained(p) >= self.def.min_predicate_frequency
    }

    /// The keys of the visible facts (retained ∧ frequency threshold), in
    /// SPO order.
    fn keys(&self) -> impl Iterator<Item = TripleKey> + '_ {
        self.kg.keys().filter(|&k| self.visible_pred(k.p) && self.def.passes_static(self.kg, k))
    }

    /// The view's visible triples, decoded as they are read.
    pub fn triples(&self) -> impl Iterator<Item = Triple> + '_ {
        self.keys().map(|k| self.kg.decode(k))
    }

    /// Visible entity-entity edges (the embedding training set), in SPO
    /// order. The vector is sized once: exactly, for a view of entity
    /// objects only.
    pub fn edges(&self) -> Vec<Edge> {
        let edges = self
            .keys()
            .filter_map(|k| k.o.as_entity().map(|tail| Edge { head: k.s, relation: k.p, tail }));
        let mut out = Vec::with_capacity(self.len());
        out.extend(edges);
        out
    }

    /// Number of visible triples.
    pub fn len(&self) -> usize {
        self.pred_counts.iter().filter(|&&n| n >= self.def.min_predicate_frequency).sum()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Distinct entities appearing in visible triples (subjects and entity
    /// objects), sorted.
    pub fn entities(&self) -> Vec<EntityId> {
        let mut out: Vec<EntityId> =
            self.keys().flat_map(|k| std::iter::once(k.s).chain(k.o.as_entity())).collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saga_core::synth::{generate, SynthConfig};
    use saga_testkit::{check, SplitMix64};
    use std::collections::HashMap;

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

    /// The copying view this module used to build: every key decoded, the
    /// static filters judged on the decoded triple, the retained triples
    /// kept in a vector and counted in a map — the oracle of the key walk.
    struct Reference {
        retained: Vec<Triple>,
        pred_counts: HashMap<PredicateId, usize>,
        min_predicate_frequency: usize,
    }

    impl Reference {
        fn materialize(kg: &KnowledgeGraph, def: &ViewDef) -> Self {
            let mut retained = Vec::new();
            let mut pred_counts: HashMap<PredicateId, usize> = HashMap::new();
            for k in kg.keys() {
                let t = kg.decode(k);
                if Self::passes_static(def, kg, &t) {
                    *pred_counts.entry(t.predicate).or_default() += 1;
                    retained.push(t);
                }
            }
            Self { retained, pred_counts, min_predicate_frequency: def.min_predicate_frequency }
        }

        fn passes_static(def: &ViewDef, kg: &KnowledgeGraph, t: &Triple) -> bool {
            if let Some(inc) = &def.include_predicates {
                if !inc.contains(&t.predicate) {
                    return false;
                }
            }
            if def.exclude_predicates.contains(&t.predicate) {
                return false;
            }
            if def.exclude_noise_predicates
                && kg.ontology().predicate(t.predicate).is_noise_for_embeddings
            {
                return false;
            }
            let obj_entity = t.object.as_entity();
            if def.entity_objects_only && obj_entity.is_none() {
                return false;
            }
            for e in std::iter::once(t.subject).chain(obj_entity) {
                let rec = kg.entity(e);
                if rec.popularity < def.min_popularity {
                    return false;
                }
                if let Some(types) = &def.allowed_types {
                    if !types.contains(&rec.entity_type) {
                        return false;
                    }
                }
            }
            true
        }

        fn triples(&self) -> impl Iterator<Item = &Triple> {
            self.retained.iter().filter(|t| {
                self.min_predicate_frequency == 0
                    || self.pred_counts.get(&t.predicate).copied().unwrap_or(0)
                        >= self.min_predicate_frequency
            })
        }

        fn edges(&self) -> Vec<Edge> {
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

        fn entities(&self) -> Vec<EntityId> {
            let mut out: Vec<EntityId> = self
                .triples()
                .flat_map(|t| std::iter::once(t.subject).chain(t.object.as_entity()))
                .collect();
            out.sort_unstable();
            out.dedup();
            out
        }

        /// Asserts that `view` reads as this reference does.
        fn assert_same_as(&self, view: &GraphView<'_>) {
            assert_eq!(view.edges(), self.edges());
            assert_eq!(
                view.triples().collect::<Vec<_>>(),
                self.triples().cloned().collect::<Vec<_>>()
            );
            assert_eq!(view.len(), self.triples().count());
            assert_eq!(view.is_empty(), self.triples().next().is_none());
            assert_eq!(view.entities(), self.entities());
            for (&p, &n) in &self.pred_counts {
                assert_eq!(view.retained(p), n, "{p:?}");
            }
            assert_eq!(view.pred_counts.iter().sum::<usize>(), self.retained.len());
        }
    }

    #[test]
    fn skipping_literal_keys_keeps_the_view() {
        let s = generate(&SynthConfig::tiny(5));
        let noise_filtered = ViewDef {
            name: "noise-filtered".into(),
            exclude_noise_predicates: true,
            ..ViewDef::default()
        };
        for def in [ViewDef::embedding_training(2), noise_filtered] {
            let got = GraphView::materialize(&s.kg, def.clone());
            Reference::materialize(&s.kg, &def).assert_same_as(&got);
        }
    }

    /// A random definition over the predicates and types of `kg`: each
    /// filter on or off, the frequency threshold 0, 2 or 5.
    fn random_def(rng: &mut SplitMix64, kg: &KnowledgeGraph) -> ViewDef {
        let num_preds = kg.ontology().num_predicates() as u32;
        let num_types = kg.ontology().num_types() as u32;
        let preds = |rng: &mut SplitMix64, n: usize| -> HashSet<PredicateId> {
            (0..n).map(|_| PredicateId(rng.gen_range(0..num_preds))).collect()
        };
        let mut def = if rng.gen_bool(0.2) {
            ViewDef::static_knowledge_asset(rng.gen_range(0.0f32..0.8))
        } else {
            ViewDef { name: "random".into(), ..ViewDef::default() }
        };
        if rng.gen_bool(0.3) {
            let n = rng.gen_range(1..=num_preds as usize);
            def.include_predicates = Some(preds(rng, n));
        }
        if rng.gen_bool(0.3) {
            let n = rng.gen_range(1..=3);
            def.exclude_predicates = preds(rng, n);
        }
        def.exclude_noise_predicates = rng.gen_bool(0.5);
        def.entity_objects_only = rng.gen_bool(0.5);
        def.min_predicate_frequency = [0, 2, 5][rng.gen_range(0..3)];
        if rng.gen_bool(0.3) {
            let n = rng.gen_range(1..=num_types as usize);
            def.allowed_types = Some((0..n).map(|_| TypeId(rng.gen_range(0..num_types))).collect());
        }
        if rng.gen_bool(0.3) {
            def.min_popularity = rng.gen_range(0.0f32..0.6);
        }
        def
    }

    /// Over random definitions on random graphs, the key walk reads as the
    /// decode-everything reference: the same edges, triples, length and
    /// entities, and the same retained count per predicate.
    #[test]
    fn the_key_walk_matches_the_decoding_reference() {
        check(32, 43, |rng| {
            let s = generate(&SynthConfig::tiny(rng.gen_range(0u64..8)));
            let def = random_def(rng, &s.kg);
            let got = GraphView::materialize(&s.kg, def.clone());
            Reference::materialize(&s.kg, &def).assert_same_as(&got);
        });
    }

    #[test]
    fn include_predicate_allowlist() {
        let s = generate(&SynthConfig::tiny(5));
        let def = ViewDef {
            name: "occupations-only".into(),
            include_predicates: Some([s.preds.occupation].into_iter().collect()),
            ..ViewDef::default()
        };
        let v = GraphView::materialize(&s.kg, def);
        assert!(!v.is_empty());
        assert!(v.triples().all(|t| t.predicate == s.preds.occupation));
    }
}
