//! Graph traversals: CSR adjacency, k-hop neighbourhoods, seeded random
//! walks and co-visit statistics.
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

/// Entities reachable from `seed` within `k` hops (excluding the seed),
/// with their hop distance. Stops after `limit` entities.
pub fn k_hop(adj: &Adjacency, seed: EntityId, k: usize, limit: usize) -> Vec<(EntityId, usize)> {
    let mut dist: HashMap<EntityId, usize> = HashMap::new();
    let mut queue = std::collections::VecDeque::new();
    dist.insert(seed, 0);
    queue.push_back(seed);
    let mut out = Vec::new();
    while let Some(cur) = queue.pop_front() {
        let d = dist[&cur];
        if d == k {
            continue;
        }
        for &(nb, _, _) in adj.neighbors(cur) {
            if let std::collections::hash_map::Entry::Vacant(e) = dist.entry(nb) {
                e.insert(d + 1);
                out.push((nb, d + 1));
                if out.len() >= limit {
                    return out;
                }
                queue.push_back(nb);
            }
        }
    }
    out
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

/// Personalized PageRank via power iteration: the stationary distribution
/// of a random walk that restarts at `seed` with probability `1 - damping`.
/// Returns the top `k` entities (seed excluded). Deterministic and exact up
/// to `iterations` — the heavier-weight alternative to sampled walks for
/// relatedness ground truth.
pub fn personalized_pagerank(
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
    fn k_hop_respects_distance_and_limit() {
        let s = generate(&SynthConfig::tiny(11));
        let adj = store_adjacency(&s.kg);
        let seed = s.scenario.mj_player;
        let one = k_hop(&adj, seed, 1, usize::MAX);
        let direct: std::collections::HashSet<EntityId> =
            adj.neighbors(seed).iter().map(|x| x.0).collect();
        assert_eq!(one.len(), direct.len());
        assert!(one.iter().all(|(e, d)| *d == 1 && direct.contains(e)));

        let two = k_hop(&adj, seed, 2, usize::MAX);
        assert!(two.len() >= one.len());
        let limited = k_hop(&adj, seed, 3, 5);
        assert_eq!(limited.len(), 5);
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
    fn isolated_entity_has_no_neighbors() {
        let s = generate(&SynthConfig::tiny(11));
        let adj = store_adjacency(&s.kg);
        // An id beyond the range is safely empty.
        assert!(adj.neighbors(EntityId(u64::MAX >> 1)).is_empty());
    }
}
