//! Graph traversals: CSR adjacency, seeded random walks and co-visit
//! statistics.
//!
//! The paper (Sec. 2) notes that for specialized related-entity embeddings
//! Saga "pre-computes graph traversals" with the graph engine's scalable
//! processing; [`precompute_walk_corpus`] is that pre-computation, and
//! [`co_visit_counts`] provides the relatedness ground truth used by the
//! experiment harness.

use saga_core::rng::SplitMix64;
use saga_core::{EntityId, PredicateId};
use std::collections::HashMap;

/// Compressed sparse row adjacency over entity-entity edges, undirected with
/// direction flags. Built once, traversed many times.
#[derive(Debug, Clone)]
pub struct Adjacency {
    offsets: Vec<usize>,
    /// `(neighbor, predicate, outgoing?)`
    edges: Vec<(EntityId, PredicateId, bool)>,
    num_entities: usize,
}

impl Adjacency {
    /// Builds adjacency from an explicit edge list (e.g. a view's edges).
    pub fn from_edges(num_entities: usize, edges: &[crate::view::Edge]) -> Self {
        let mut pairs = Vec::with_capacity(edges.len() * 2);
        for e in edges {
            pairs.push((e.head.index(), (e.tail, e.relation, true)));
            pairs.push((e.tail.index(), (e.head, e.relation, false)));
        }
        Self::from_pairs(num_entities, pairs)
    }

    fn from_pairs(n: usize, mut pairs: Vec<(usize, (EntityId, PredicateId, bool))>) -> Self {
        pairs.sort_unstable_by_key(|(s, (t, p, d))| (*s, t.raw(), p.raw(), *d));
        let mut offsets = vec![0usize; n + 1];
        for (s, _) in &pairs {
            offsets[s + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let edges = pairs.into_iter().map(|(_, e)| e).collect();
        Self { offsets, edges, num_entities: n }
    }

    /// Neighbours of `e` as `(neighbor, predicate, outgoing)`.
    pub fn neighbors(&self, e: EntityId) -> &[(EntityId, PredicateId, bool)] {
        let i = e.index();
        if i >= self.num_entities {
            return &[];
        }
        &self.edges[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Degree of `e`.
    pub fn degree(&self, e: EntityId) -> usize {
        self.neighbors(e).len()
    }

    /// Number of entities.
    pub fn num_entities(&self) -> usize {
        self.num_entities
    }
}

/// Runs `walks` random walks of length `len` from `seed` and counts visits
/// per entity (seed excluded). Deterministic in `rng_seed`.
pub fn co_visit_counts(
    adj: &Adjacency,
    seed: EntityId,
    walks: usize,
    len: usize,
    rng_seed: u64,
) -> HashMap<EntityId, u32> {
    let mut rng = SplitMix64::new(rng_seed ^ seed.raw());
    let mut counts: HashMap<EntityId, u32> = HashMap::new();
    for _ in 0..walks {
        let mut cur = seed;
        for _ in 0..len {
            let nbs = adj.neighbors(cur);
            if nbs.is_empty() {
                break;
            }
            cur = nbs[rng.gen_range(0..nbs.len())].0;
            if cur != seed {
                *counts.entry(cur).or_default() += 1;
            }
        }
    }
    counts
}

/// Top-`k` most co-visited entities from `seed` — random-walk relatedness.
pub fn related_by_walks(
    adj: &Adjacency,
    seed: EntityId,
    walks: usize,
    len: usize,
    k: usize,
    rng_seed: u64,
) -> Vec<(EntityId, u32)> {
    let counts = co_visit_counts(adj, seed, walks, len, rng_seed);
    let mut v: Vec<(EntityId, u32)> = counts.into_iter().collect();
    v.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    v.truncate(k);
    v
}

/// Pre-computes a walk corpus: for each listed entity, `walks` walks of
/// length `len`, flattened into entity sequences. This is the graph-engine
/// pre-computation the paper describes for specialized related-entity
/// embedding training.
pub fn precompute_walk_corpus(
    adj: &Adjacency,
    entities: &[EntityId],
    walks: usize,
    len: usize,
    rng_seed: u64,
) -> Vec<Vec<EntityId>> {
    let mut out = Vec::with_capacity(entities.len() * walks);
    for &e in entities {
        let mut rng = SplitMix64::new(rng_seed ^ (e.raw().wrapping_mul(0x9e37_79b9)));
        for _ in 0..walks {
            let mut walk = Vec::with_capacity(len + 1);
            walk.push(e);
            let mut cur = e;
            for _ in 0..len {
                let nbs = adj.neighbors(cur);
                if nbs.is_empty() {
                    break;
                }
                cur = nbs[rng.gen_range(0..nbs.len())].0;
                walk.push(cur);
            }
            out.push(walk);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use saga_core::synth::{generate, SynthConfig};
    use saga_core::KnowledgeGraph;

    /// Adjacency over every entity-entity triple in the store.
    fn store_adjacency(kg: &KnowledgeGraph) -> Adjacency {
        let edges: Vec<crate::view::Edge> = kg
            .keys()
            .filter_map(|k| {
                let tail = k.o.as_entity()?;
                Some(crate::view::Edge { head: k.s, relation: k.p, tail })
            })
            .collect();
        Adjacency::from_edges(kg.num_entities(), &edges)
    }

    #[test]
    fn adjacency_matches_store_neighbors() {
        let s = generate(&SynthConfig::tiny(11));
        let adj = store_adjacency(&s.kg);
        for &e in s.people.iter().take(20) {
            let mut from_adj: Vec<EntityId> = adj.neighbors(e).iter().map(|x| x.0).collect();
            from_adj.sort_unstable();
            from_adj.dedup();
            let from_store = s.kg.neighbors(e);
            assert_eq!(from_adj, from_store, "entity {e}");
        }
    }

    #[test]
    fn walks_are_deterministic_and_local() {
        let s = generate(&SynthConfig::tiny(11));
        let adj = store_adjacency(&s.kg);
        let seed = s.scenario.benicio;
        let a = co_visit_counts(&adj, seed, 50, 4, 99);
        let b = co_visit_counts(&adj, seed, 50, 4, 99);
        assert_eq!(a, b);
        // Direct neighbours should dominate co-visits.
        let related = related_by_walks(&adj, seed, 200, 3, 5, 99);
        assert!(!related.is_empty());
        let direct: std::collections::HashSet<EntityId> =
            adj.neighbors(seed).iter().map(|x| x.0).collect();
        assert!(direct.contains(&related[0].0));
    }

    #[test]
    fn walk_corpus_shape() {
        let s = generate(&SynthConfig::tiny(11));
        let adj = store_adjacency(&s.kg);
        let ents = &s.people[..10];
        let corpus = precompute_walk_corpus(&adj, ents, 3, 5, 1);
        assert_eq!(corpus.len(), 30);
        for w in &corpus {
            assert!(!w.is_empty() && w.len() <= 6);
            // Consecutive steps are actual edges.
            for pair in w.windows(2) {
                assert!(adj.neighbors(pair[0]).iter().any(|x| x.0 == pair[1]));
            }
        }
    }

    #[test]
    fn isolated_entity_has_no_neighbors() {
        let s = generate(&SynthConfig::tiny(11));
        let adj = store_adjacency(&s.kg);
        // An id beyond the range is safely empty.
        assert!(adj.neighbors(EntityId(u64::MAX >> 1)).is_empty());
    }
}
