//! Training datasets: dense remapping of a graph view's edges plus
//! deterministic train/valid/test splits.
//!
//! Nothing here hashes: the entity and relation vocabularies are sorted, so
//! a KG id's dense index is a binary search, and the filtered-triple check
//! is a binary search in a sorted copy of every split.

use saga_core::rng::SplitMix64;
use saga_core::{EntityId, PredicateId};
use saga_graph::Edge;

/// A triple in dense local id space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DenseTriple {
    /// Dense head-entity index.
    pub h: u32,
    /// Dense relation index.
    pub r: u32,
    /// Dense tail-entity index.
    pub t: u32,
}

/// An embedding training set: dense ids, the id maps back to the KG, and
/// train/valid/test splits.
#[derive(Debug, Clone)]
pub struct TrainingSet {
    /// Local entity index → KG entity id, sorted: dense ids follow KG ids.
    pub entities: Vec<EntityId>,
    /// Local relation index → KG predicate id, sorted.
    pub relations: Vec<PredicateId>,
    /// Training split.
    pub train: Vec<DenseTriple>,
    /// Validation split.
    pub valid: Vec<DenseTriple>,
    /// Test split.
    pub test: Vec<DenseTriple>,
    /// Every triple of the three splits, sorted by `(h, r, t)` and
    /// deduplicated.
    all_triples: Vec<DenseTriple>,
}

/// The order [`TrainingSet::contains`] searches in.
fn triple_order(t: &DenseTriple) -> (u32, u32, u32) {
    (t.h, t.r, t.t)
}

/// The dense index of `x` in the sorted, deduplicated `vocabulary`.
fn dense<T: Ord>(vocabulary: &[T], x: &T) -> u32 {
    vocabulary.binary_search(x).expect("the vocabulary holds every id of its edges") as u32
}

/// The sorted, deduplicated entity and relation vocabularies of `edges`,
/// one allocation each.
///
/// A run of edges with one head adds that head once, so a view's edges, in
/// SPO order, copy each distinct head once instead of once per edge.
fn vocabularies(edges: &[Edge]) -> (Vec<EntityId>, Vec<PredicateId>) {
    let heads = edges.chunk_by(|a, b| a.head == b.head).map(|run| run[0].head);
    let mut entities = Vec::with_capacity(edges.len() + heads.clone().count());
    entities.extend(edges.iter().map(|e| e.tail));
    entities.extend(heads);
    entities.sort_unstable();
    entities.dedup();
    let mut relations: Vec<PredicateId> = edges.iter().map(|e| e.relation).collect();
    relations.sort_unstable();
    relations.dedup();
    (entities, relations)
}

/// `edges` in dense ids, sorted by `(h, r, t)` and deduplicated. Edges in
/// SPO order without repeats — a view's — densify to strictly increasing
/// triples, because dense ids follow KG ids; those are not sorted again.
fn densify(edges: &[Edge], entities: &[EntityId], relations: &[PredicateId]) -> Vec<DenseTriple> {
    let mut v: Vec<DenseTriple> = edges
        .iter()
        .map(|e| DenseTriple {
            h: dense(entities, &e.head),
            r: dense(relations, &e.relation),
            t: dense(entities, &e.tail),
        })
        .collect();
    if !v.windows(2).all(|w| triple_order(&w[0]) < triple_order(&w[1])) {
        v.sort_unstable_by_key(triple_order);
        v.dedup();
    }
    v
}

impl TrainingSet {
    /// Builds a training set from view edges with the given split fractions
    /// (`valid_frac + test_frac < 1`). Deterministic in `seed`.
    pub fn from_edges(edges: &[Edge], valid_frac: f64, test_frac: f64, seed: u64) -> Self {
        assert!(valid_frac + test_frac < 1.0, "splits must leave training data");
        let (entities, relations) = vocabularies(edges);
        let mut triples = densify(edges, &entities, &relations);
        let all_triples = triples.clone();

        let mut rng = SplitMix64::new(seed);
        rng.shuffle(&mut triples);
        let n = triples.len();
        let n_valid = (n as f64 * valid_frac) as usize;
        let n_test = (n as f64 * test_frac) as usize;
        let valid = triples[..n_valid].to_vec();
        let test = triples[n_valid..n_valid + n_test].to_vec();
        // The shuffled buffer's tail is the training split.
        triples.drain(..n_valid + n_test);

        Self { entities, relations, train: triples, valid, test, all_triples }
    }

    /// Builds a training set from explicit splits (for ablations that need
    /// the same evaluation triples across differently-built training sets).
    pub fn from_split_edges(train: &[Edge], valid: &[Edge], test: &[Edge]) -> Self {
        let all: Vec<Edge> = train.iter().chain(valid).chain(test).copied().collect();
        let (entities, relations) = vocabularies(&all);
        let train = densify(train, &entities, &relations);
        let valid = densify(valid, &entities, &relations);
        let test = densify(test, &entities, &relations);
        let mut all_triples: Vec<DenseTriple> =
            train.iter().chain(&valid).chain(&test).copied().collect();
        all_triples.sort_unstable_by_key(triple_order);
        all_triples.dedup();
        Self { entities, relations, train, valid, test, all_triples }
    }

    /// Number of entities.
    pub fn num_entities(&self) -> usize {
        self.entities.len()
    }

    /// Number of relations.
    pub fn num_relations(&self) -> usize {
        self.relations.len()
    }

    /// Local index of a KG entity, if present in the training vocabulary.
    pub fn entity_index(&self, e: EntityId) -> Option<u32> {
        self.entities.binary_search(&e).ok().map(|i| i as u32)
    }

    /// True if the (dense) triple exists anywhere in the dataset — the
    /// "filtered" check used by evaluation and filtered negative sampling.
    pub fn contains(&self, t: &DenseTriple) -> bool {
        self.all_triples.binary_search_by_key(&triple_order(t), triple_order).is_ok()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use saga_core::synth::{generate, SynthConfig};
    use saga_graph::{GraphView, ViewDef};
    use std::collections::{HashMap, HashSet};

    type Index<T> = HashMap<T, u32>;

    /// What the hashing bodies of [`TrainingSet::from_edges`] and
    /// [`TrainingSet::from_split_edges`] built: the oracle of the sorted
    /// lookups.
    struct HashedSet {
        entities: Vec<EntityId>,
        relations: Vec<PredicateId>,
        train: Vec<DenseTriple>,
        valid: Vec<DenseTriple>,
        test: Vec<DenseTriple>,
        entity_index: Index<EntityId>,
        all_triples: HashSet<DenseTriple>,
    }

    impl HashedSet {
        /// The vocabularies as they were first built: every id of every
        /// edge copied, sorted and deduplicated.
        fn vocabularies(edges: &[Edge]) -> (Vec<EntityId>, Vec<PredicateId>) {
            let mut entities: Vec<EntityId> = edges.iter().flat_map(|e| [e.head, e.tail]).collect();
            entities.sort_unstable();
            entities.dedup();
            let mut relations: Vec<PredicateId> = edges.iter().map(|e| e.relation).collect();
            relations.sort_unstable();
            relations.dedup();
            (entities, relations)
        }

        /// The dense id maps of the sorted vocabularies of `edges`.
        fn indexes(edges: &[Edge]) -> (Index<EntityId>, Index<PredicateId>) {
            let (entities, relations) = Self::vocabularies(edges);
            let entity_index = entities.iter().enumerate().map(|(i, &e)| (e, i as u32)).collect();
            let rel_index = relations.iter().enumerate().map(|(i, &r)| (r, i as u32)).collect();
            (entity_index, rel_index)
        }

        fn densify(
            edges: &[Edge],
            entity_index: &Index<EntityId>,
            rel_index: &Index<PredicateId>,
        ) -> Vec<DenseTriple> {
            let mut v: Vec<DenseTriple> = edges
                .iter()
                .map(|e| DenseTriple {
                    h: entity_index[&e.head],
                    r: rel_index[&e.relation],
                    t: entity_index[&e.tail],
                })
                .collect();
            v.sort_unstable_by_key(|t| (t.h, t.r, t.t));
            v.dedup();
            v
        }

        fn from_edges(edges: &[Edge], valid_frac: f64, test_frac: f64, seed: u64) -> Self {
            let (entities, relations) = Self::vocabularies(edges);
            let (entity_index, rel_index) = Self::indexes(edges);
            let mut triples = Self::densify(edges, &entity_index, &rel_index);
            let all_triples: HashSet<DenseTriple> = triples.iter().copied().collect();
            let mut rng = SplitMix64::new(seed);
            rng.shuffle(&mut triples);
            let n = triples.len();
            let n_valid = (n as f64 * valid_frac) as usize;
            let n_test = (n as f64 * test_frac) as usize;
            let valid = triples[..n_valid].to_vec();
            let test = triples[n_valid..n_valid + n_test].to_vec();
            let train = triples[n_valid + n_test..].to_vec();
            Self { entities, relations, train, valid, test, entity_index, all_triples }
        }

        fn from_split_edges(train: &[Edge], valid: &[Edge], test: &[Edge]) -> Self {
            let all: Vec<Edge> = train.iter().chain(valid).chain(test).copied().collect();
            let (entities, relations) = Self::vocabularies(&all);
            let (entity_index, rel_index) = Self::indexes(&all);
            let train = Self::densify(train, &entity_index, &rel_index);
            let valid = Self::densify(valid, &entity_index, &rel_index);
            let test = Self::densify(test, &entity_index, &rel_index);
            let all_triples: HashSet<DenseTriple> =
                train.iter().chain(&valid).chain(&test).copied().collect();
            Self { entities, relations, train, valid, test, entity_index, all_triples }
        }

        /// Asserts that `ds` holds the same splits and answers every lookup
        /// — present and absent entities and triples — as this set.
        fn assert_same_as(&self, ds: &TrainingSet) {
            assert_eq!(ds.entities, self.entities);
            assert_eq!(ds.relations, self.relations);
            assert_eq!(ds.train, self.train);
            assert_eq!(ds.valid, self.valid);
            assert_eq!(ds.test, self.test);
            let last = self.entities.last().map_or(0, |e| e.raw());
            for raw in 0..=last + 2 {
                let e = EntityId(raw);
                assert_eq!(ds.entity_index(e), self.entity_index.get(&e).copied(), "{e:?}");
            }
            // Every triple, and its neighbours in each coordinate — mostly
            // absent, some out of the vocabulary.
            for t in self.train.iter().chain(&self.valid).chain(&self.test) {
                for q in [
                    *t,
                    DenseTriple { h: t.h + 1, ..*t },
                    DenseTriple { r: t.r + 1, ..*t },
                    DenseTriple { t: t.t + 1, ..*t },
                    DenseTriple { t: t.t.wrapping_sub(1), ..*t },
                    DenseTriple { h: t.t, t: t.h, ..*t },
                ] {
                    assert_eq!(ds.contains(&q), self.all_triples.contains(&q), "{q:?}");
                }
            }
        }
    }

    fn make() -> TrainingSet {
        let s = generate(&SynthConfig::tiny(21));
        let v = GraphView::materialize(&s.kg, ViewDef::embedding_training(2));
        TrainingSet::from_edges(&v.edges(), 0.05, 0.05, 3)
    }

    #[test]
    fn splits_are_disjoint_and_cover() {
        let ds = make();
        let total = ds.train.len() + ds.valid.len() + ds.test.len();
        let mut all: HashSet<DenseTriple> = HashSet::new();
        for t in ds.train.iter().chain(&ds.valid).chain(&ds.test) {
            assert!(all.insert(*t), "duplicate across splits");
        }
        assert_eq!(all.len(), total);
        assert!(ds.train.len() > ds.valid.len());
        assert!(!ds.valid.is_empty() && !ds.test.is_empty());
    }

    #[test]
    fn dense_ids_are_in_range() {
        let ds = make();
        for t in ds.train.iter().chain(&ds.valid).chain(&ds.test) {
            assert!((t.h as usize) < ds.num_entities());
            assert!((t.t as usize) < ds.num_entities());
            assert!((t.r as usize) < ds.num_relations());
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let s = generate(&SynthConfig::tiny(21));
        let v = GraphView::materialize(&s.kg, ViewDef::embedding_training(2));
        let a = TrainingSet::from_edges(&v.edges(), 0.1, 0.1, 5);
        let b = TrainingSet::from_edges(&v.edges(), 0.1, 0.1, 5);
        assert_eq!(a.train, b.train);
        assert_eq!(a.test, b.test);
        let c = TrainingSet::from_edges(&v.edges(), 0.1, 0.1, 6);
        assert_ne!(a.train, c.train);
    }

    #[test]
    fn contains_reflects_all_splits() {
        let ds = make();
        assert!(ds.contains(&ds.valid[0]));
        assert!(ds.contains(&ds.train[0]));
        let fake = DenseTriple { h: 0, r: 0, t: u32::MAX };
        assert!(!ds.contains(&fake));
    }

    #[test]
    fn entity_index_round_trips() {
        let ds = make();
        for (i, &e) in ds.entities.iter().enumerate().take(20) {
            assert_eq!(ds.entity_index(e), Some(i as u32));
        }
    }

    /// The sorted lookups against the hashing bodies they replaced, on the
    /// edges of two synthetic graphs, through both constructors.
    #[test]
    fn sorted_lookups_match_the_hashing_reference() {
        for seed in [21, 22] {
            let s = generate(&SynthConfig::tiny(seed));
            let edges = GraphView::materialize(&s.kg, ViewDef::embedding_training(2)).edges();
            for (valid, test, split_seed) in [(0.05, 0.05, 3), (0.2, 0.1, 9), (0.0, 0.0, 1)] {
                let ds = TrainingSet::from_edges(&edges, valid, test, split_seed);
                HashedSet::from_edges(&edges, valid, test, split_seed).assert_same_as(&ds);
            }
            let (a, rest) = edges.split_at(edges.len() / 2);
            let (b, c) = rest.split_at(rest.len() / 3);
            // Overlapping splits, so a triple can be in two of them.
            let train: Vec<Edge> = a.iter().chain(&b[..b.len() / 2]).copied().collect();
            let ds = TrainingSet::from_split_edges(&train, b, c);
            HashedSet::from_split_edges(&train, b, c).assert_same_as(&ds);
        }
        let empty = TrainingSet::from_edges(&[], 0.1, 0.1, 1);
        HashedSet::from_edges(&[], 0.1, 0.1, 1).assert_same_as(&empty);
    }

    /// The vocabularies equal the copying reference's on random edge lists:
    /// heads sorted or not, with repeated edges, ids shared between heads
    /// and tails, and the empty list.
    #[test]
    fn vocabularies_match_the_copying_reference() {
        saga_testkit::check(256, 0x70cab, |rng| {
            let n = rng.gen_range(0..40usize);
            let ids = rng.gen_range(1..30u64);
            let mut edges: Vec<Edge> = (0..n)
                .map(|_| Edge {
                    head: EntityId(rng.gen_range(0..ids)),
                    relation: PredicateId(rng.gen_range(0..5u32)),
                    tail: EntityId(rng.gen_range(0..ids)),
                })
                .collect();
            if rng.gen_bool(0.5) {
                edges.sort_unstable_by_key(|e| (e.head, e.relation, e.tail));
            }
            assert_eq!(vocabularies(&edges), HashedSet::vocabularies(&edges), "{edges:?}");
        });
    }

    /// A view's edges, in SPO order, skip the sort: they build the set the
    /// same edges build shuffled, or with every edge repeated.
    #[test]
    fn sorted_edges_build_the_set_shuffled_edges_build() {
        let s = generate(&SynthConfig::tiny(21));
        let edges = GraphView::materialize(&s.kg, ViewDef::embedding_training(2)).edges();
        let spo = |e: &Edge| (e.head, e.relation, e.tail);
        assert!(edges.windows(2).all(|w| spo(&w[0]) < spo(&w[1])), "a view's edges are sorted");
        let mut shuffled = edges.clone();
        SplitMix64::new(7).shuffle(&mut shuffled);
        let repeated: Vec<Edge> = edges.iter().flat_map(|&e| [e, e]).collect();
        for (valid, test, seed) in [(0.05, 0.05, 3), (0.2, 0.1, 9)] {
            let want = TrainingSet::from_edges(&edges, valid, test, seed);
            for other in [&shuffled, &repeated] {
                let got = TrainingSet::from_edges(other, valid, test, seed);
                assert_eq!(got.entities, want.entities);
                assert_eq!(got.relations, want.relations);
                assert_eq!(
                    (&got.train, &got.valid, &got.test),
                    (&want.train, &want.valid, &want.test)
                );
                assert_eq!(got.all_triples, want.all_triples);
            }
        }
    }

    /// A partitioned model trained on the sorted-lookup set is bit for bit
    /// the same at one worker and at four.
    #[test]
    fn partitioned_model_is_bit_identical_across_workers() {
        use crate::{train_partitioned, ModelKind, TrainConfig};
        let ds = make();
        let cfg = TrainConfig { dim: 8, epochs: 2, model: ModelKind::TransE, ..Default::default() };
        let (one, _) = train_partitioned(&ds, &cfg, 4, 1);
        let (four, _) = train_partitioned(&ds, &cfg, 4, 4);
        assert_eq!(one.entities.to_bytes(), four.entities.to_bytes());
        assert_eq!(one.relations.to_bytes(), four.relations.to_bytes());
    }
}
