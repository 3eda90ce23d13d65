//! O(1) zero-allocation point lookups for the serving front-end.
//!
//! The store's `triples_of` answers "all facts of entity e" with two binary
//! searches over the SPO index and decodes each key into an owned [`Triple`](saga_core::Triple)
//! (allocating for literal objects). That is fine for construction-time
//! passes but not for a serving hot path fielding hundreds of thousands of
//! lookups per second. [`PointLookupIndex`] freezes the committed SPO order
//! into a CSR (compressed sparse row) slab keyed directly by the dense
//! entity id: a lookup is two array reads and a slice borrow — no search, no
//! decode, no allocation. The serving layer ships the borrowed
//! [`TripleKey`]s (or a count) and decodes lazily only for the few facts
//! that reach a response body.
//!
//! The index is an immutable snapshot tagged with the store's commit
//! counter; comparing [`PointLookupIndex::commit`] with the store's lets a
//! server detect staleness and rebuild after ingestion commits, which matches the paper's serving
//! design of immutable index generations swapped behind the front-end.

use saga_core::{EntityId, KnowledgeGraph, TripleKey};

/// Immutable CSR over the committed triples, subject-major.
#[derive(Debug, Clone)]
pub struct PointLookupIndex {
    /// `offsets[s.index()] .. offsets[s.index() + 1]` spans `keys` for
    /// subject `s`; length `num_entities + 1`.
    offsets: Vec<u32>,
    /// All committed triple keys in SPO order (copied from the store).
    keys: Vec<TripleKey>,
    /// Store commit counter at build time.
    commit: u64,
}

impl PointLookupIndex {
    /// Freeze the current committed state of `kg` into a lookup index.
    pub fn build(kg: &KnowledgeGraph) -> Self {
        let mut keys = Vec::with_capacity(kg.num_triples());
        keys.extend(kg.keys());
        assert!(keys.len() <= u32::MAX as usize, "CSR offsets are u32");
        let n = kg.num_entities();
        let mut offsets = vec![0u32; n + 2];
        // Counting pass: offsets[s+1] = #facts of s, then prefix-sum. The
        // slab is already SPO-sorted so no scatter pass is needed.
        for k in &keys {
            let s = k.s.index();
            debug_assert!(s < n, "subject id outside dense entity range");
            offsets[s + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        offsets.pop(); // built with one spare slot; drop it
        PointLookupIndex { offsets, keys, commit: kg.current_commit() }
    }

    /// All facts of `e` in SPO order. Two array reads and a borrow; entities
    /// out of range (added after the snapshot) return the empty slice.
    #[inline]
    pub fn facts(&self, e: EntityId) -> &[TripleKey] {
        let i = e.index();
        if i >= self.offsets.len().saturating_sub(1) {
            return &[];
        }
        &self.keys[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Number of facts of `e` without touching the slab.
    #[inline]
    pub fn fact_count(&self, e: EntityId) -> usize {
        let i = e.index();
        if i >= self.offsets.len().saturating_sub(1) {
            return 0;
        }
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// Total triples in the snapshot.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when the snapshot holds no triples.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Store commit counter captured at build time.
    pub fn commit(&self) -> u64 {
        self.commit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saga_core::synth::SynthConfig;

    #[test]
    fn csr_matches_store_iteration_for_every_entity() {
        let kg = saga_core::synth::generate(&SynthConfig::tiny(11)).kg;
        let idx = PointLookupIndex::build(&kg);
        assert_eq!(idx.len(), kg.num_triples());
        assert_eq!(idx.commit(), kg.current_commit());
        for e in 0..kg.num_entities() as u64 {
            let e = EntityId(e);
            let via_store: Vec<_> =
                kg.triples_of(e).map(|t| kg.encode(&t).expect("committed")).collect();
            assert_eq!(idx.facts(e), via_store.as_slice(), "entity {e}");
            assert_eq!(idx.fact_count(e), via_store.len());
        }
    }

    #[test]
    fn out_of_range_entities_are_empty_and_staleness_is_detected() {
        let mut kg = saga_core::synth::generate(&SynthConfig::tiny(3)).kg;
        let idx = PointLookupIndex::build(&kg);
        assert!(idx.facts(EntityId(u64::MAX - 1)).is_empty());
        assert_eq!(idx.fact_count(EntityId(1 << 40)), 0);
        // A new commit makes the snapshot stale.
        let subj = EntityId(0);
        let pred = kg.ontology().predicates().next().expect("ontology has predicates").id;
        kg.insert(saga_core::Triple::new(subj, pred, saga_core::Value::from("stale-probe")));
        kg.commit();
        assert_ne!(idx.commit(), kg.current_commit());
    }
}
