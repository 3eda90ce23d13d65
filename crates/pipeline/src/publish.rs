//! Published snapshots: a canonical, history-free rendering of a grown KG.
//!
//! The growth pipeline's headline guarantee is that the incremental path
//! *converges* to the batch rebuild. The two paths necessarily differ in
//! bookkeeping — commit counters, `observed_at` stamps, and the insertion
//! order of interned literals and sources all record *how* the graph was
//! built, not *what* it says. [`publish_snapshot`] strips that history: the
//! result holds exactly the same entities, ontology and facts (with their
//! sources and confidences) in a canonical order, so two graphs with the
//! same content publish to bit-identical
//! [`KnowledgeGraph::canonical_bytes`]. This mirrors the paper's serving
//! story (Sec. 3.2): what ships to the serving fleet is a versioned,
//! reproducible artifact, not the builder's working state.
//!
//! The snapshot is *assembled*, not re-derived: every interval publishes,
//! so [`KnowledgeGraph::canonicalized_bytes`] renumbers literals and sources
//! and re-sorts the three indexes beside the store's private fields, and
//! writes the image straight from those tables, instead of decoding every
//! fact and inserting it into a fresh graph. That re-insertion is the
//! definition of the bytes, and is kept — for tests only — as the reference
//! the assembled image is compared against.

use saga_core::persist::codec::{BinCodec, Reader};
use saga_core::KnowledgeGraph;

/// Renders `kg` as a canonical published snapshot: the graph
/// [`published_bytes`] is the image of.
///
/// The result holds the same ontology, the same entity records (in dense
/// id order), and the same committed facts with the same source names and
/// confidences — but with sources interned in sorted-name order, literals
/// numbered in content order, and all `observed_at` stamps collapsed into
/// one publish commit. Any two graphs with equal content yield snapshots
/// with equal [`canonical_bytes`](KnowledgeGraph::canonical_bytes).
pub fn publish_snapshot(kg: &KnowledgeGraph) -> KnowledgeGraph {
    KnowledgeGraph::dec(&mut Reader::new(&published_bytes(kg)))
        .expect("an image written a moment ago decodes")
}

/// The canonical bytes of `kg`'s published snapshot — the value the
/// equivalence proofs compare, and what every growth pass returns.
pub fn published_bytes(kg: &KnowledgeGraph) -> Vec<u8> {
    kg.canonicalized_bytes()
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use saga_core::synth::{generate, SynthConfig};
    use saga_core::{
        fact_content_key, Cardinality, Date, EntityBuilder, EntityId, Ontology, PredicateId,
        SourceId, Triple, Value, ValueKind, Volatility,
    };

    /// What a published snapshot *is*: every committed fact, decoded and
    /// inserted in content order into a fresh graph that interned the used
    /// source names sorted, then committed once.
    fn publish_by_reinsertion(kg: &KnowledgeGraph) -> KnowledgeGraph {
        let mut out = KnowledgeGraph::new(kg.ontology().clone());
        for rec in kg.entities() {
            out.add_entity_record(rec.clone()).expect("entity records iterate in dense id order");
        }

        let mut rows: Vec<(Triple, String, f32)> = kg
            .keys()
            .iter()
            .map(|&k| {
                let t = kg.decode(k);
                let meta = kg.fact_meta(&t).expect("committed triple has meta");
                (t, kg.source_name(meta.source).to_string(), meta.confidence)
            })
            .collect();
        rows.sort_by_cached_key(|(t, _, _)| fact_content_key(t));

        let mut names: Vec<&str> = rows.iter().map(|(_, n, _)| n.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        for name in names {
            out.register_source(name);
        }

        for (t, name, confidence) in rows {
            let src = out.register_source(&name);
            out.insert_with(t, src, confidence);
        }
        out.commit();
        out
    }

    #[test]
    fn publish_is_idempotent_and_history_free() {
        let s = generate(&SynthConfig::tiny(41));
        let a = publish_snapshot(&s.kg);
        // Publishing a published snapshot changes nothing.
        assert_eq!(a.canonical_bytes(), publish_snapshot(&a).canonical_bytes());
        assert_eq!(a.num_triples(), s.kg.num_triples());
        assert_eq!(a.num_entities(), s.kg.num_entities());
    }

    #[test]
    fn publish_erases_insertion_order_and_commit_history() {
        let s = generate(&SynthConfig::tiny(43));
        let mut reordered = publish_snapshot(&s.kg);
        // Re-apply one fact over several extra commits: same content,
        // different observed_at stamps and commit counter.
        let t = reordered.decode(reordered.keys()[0]);
        let meta = reordered.fact_meta(&t).unwrap();
        for _ in 0..3 {
            reordered.insert_with(t.clone(), meta.source, meta.confidence);
            reordered.commit();
        }
        assert_ne!(reordered.canonical_bytes(), s.kg.canonical_bytes());
        assert_eq!(published_bytes(&reordered), published_bytes(&s.kg));
    }

    #[test]
    fn assembled_snapshot_equals_reinsertion_on_the_synthetic_graph() {
        let s = generate(&SynthConfig::tiny(47));
        let reference = publish_by_reinsertion(&s.kg).canonical_bytes();
        assert_eq!(published_bytes(&s.kg), reference);
        assert_eq!(publish_snapshot(&s.kg).canonical_bytes(), reference);
    }

    // ---- differential: assembled ≡ re-inserted, on graphs with a history

    const ENTITIES: u64 = 101;
    const SOURCES: [&str; 4] = ["unknown", "wiki", "crawl", "feed"];

    /// Objects chosen so that content order and id order disagree: entity
    /// ids 9 / 10 / 100 (`"@10" < "@100" < "@9"`), integers 9 / 10 / 100,
    /// and one text and one integer with the same canonical string.
    fn object(i: u8) -> Value {
        match i % 14 {
            0 => Value::Entity(EntityId(9)),
            1 => Value::Entity(EntityId(10)),
            2 => Value::Entity(EntityId(100)),
            3 => Value::Integer(9),
            4 => Value::Integer(10),
            5 => Value::Integer(100),
            6 => Value::Text("10".into()),
            7 => Value::Text("zeta".into()),
            8 => Value::Text("Alpha".into()),
            9 => Value::Float(1.5),
            10 => Value::Float(-0.25),
            11 => Value::Date(Date::new(1999, 12, 31).unwrap()),
            12 => Value::Bool(true),
            _ => Value::Identifier("Q42".into()),
        }
    }

    #[derive(Debug, Clone)]
    struct Fact {
        s: u8,
        p: u8,
        o: u8,
        source: u8,
        confidence: u8,
    }

    /// A fact as the graph stores it: few subjects and predicates, so
    /// several objects share one `(s, p)`.
    fn fact() -> impl Strategy<Value = Fact> {
        (0u8..6, 0u8..3, 0u8..14, 0u8..4, 0u8..5).prop_map(|(s, p, o, source, confidence)| Fact {
            s,
            p,
            o,
            source,
            confidence,
        })
    }

    /// An empty graph over three multi-valued predicates, with every name in
    /// [`SOURCES`] registered in `source_order` — used or not.
    fn empty_graph(source_order: &[u8]) -> KnowledgeGraph {
        let mut o = Ontology::new();
        let thing = o.add_type("thing", None);
        for name in ["p0", "p1", "p2"] {
            o.add_predicate(
                name,
                name,
                ValueKind::Text,
                Some(thing),
                Cardinality::Multi,
                Volatility::Slow,
                false,
            );
        }
        let mut kg = KnowledgeGraph::new(o);
        for i in 0..ENTITIES {
            kg.add_entity(EntityBuilder::new(format!("e{i}"), thing));
        }
        for &s in source_order {
            kg.register_source(SOURCES[s as usize % SOURCES.len()]);
        }
        kg
    }

    fn triple(f: &Fact) -> Triple {
        Triple::new(EntityId(u64::from(f.s) * 20), PredicateId(u32::from(f.p)), object(f.o))
    }

    /// Applies `facts` in the order given, committing wherever `commit_at`
    /// says; `removed` facts go in first and are taken out again at the end
    /// (their literals and sources stay interned, unused).
    fn build(
        facts: &[Fact],
        removed: &[Fact],
        commit_at: &[usize],
        source_order: &[u8],
    ) -> KnowledgeGraph {
        let mut kg = empty_graph(source_order);
        let source = |kg: &mut KnowledgeGraph, f: &Fact| -> SourceId {
            kg.register_source(SOURCES[f.source as usize])
        };
        for f in removed {
            let src = source(&mut kg, f);
            kg.insert_with(triple(f), src, 0.5);
        }
        kg.commit();
        for (i, f) in facts.iter().enumerate() {
            let src = source(&mut kg, f);
            kg.insert_with(triple(f), src, f32::from(f.confidence) / 4.0);
            if commit_at.contains(&i) {
                kg.commit();
            }
        }
        kg.commit();
        let kept: Vec<_> = facts.iter().map(|f| fact_content_key(&triple(f))).collect();
        for f in removed {
            if !kept.contains(&fact_content_key(&triple(f))) {
                kg.remove(&triple(f));
            }
        }
        kg.commit();
        kg
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn assembled_snapshot_equals_reinsertion(
            facts in proptest::collection::vec(fact(), 0..60),
            removed in proptest::collection::vec(fact(), 0..12),
            commit_at in proptest::collection::vec(0usize..60, 0..4),
            source_order in proptest::collection::vec(0u8..4, 0..5),
            shuffle_seed in 0u64..1_000,
        ) {
            let kg = build(&facts, &removed, &commit_at, &source_order);
            let bytes = published_bytes(&kg);
            prop_assert!(bytes == publish_by_reinsertion(&kg).canonical_bytes());
            // The decoder rebuilds a graph that these bytes are the image of.
            let published = publish_snapshot(&kg);
            prop_assert!(bytes == published.canonical_bytes());
            prop_assert_eq!(published.check_invariants(), Ok(()));
            prop_assert_eq!(published.num_triples(), kg.num_triples());
            for &k in kg.keys() {
                let t = kg.decode(k);
                let (was, now) = (kg.fact_meta(&t).unwrap(), published.fact_meta(&t).unwrap());
                prop_assert_eq!(kg.source_name(was.source), published.source_name(now.source));
                prop_assert_eq!(was.confidence.to_bits(), now.confidence.to_bits());
            }

            // Idempotent.
            prop_assert!(bytes == published_bytes(&published));

            // The same content reached by another route — last write per
            // fact kept, order shuffled, no removals, no extra commits, the
            // sources registered in use order — publishes the same bytes.
            let mut last: Vec<Fact> = Vec::new();
            for f in facts.iter().rev() {
                let key = fact_content_key(&triple(f));
                if last.iter().all(|g| fact_content_key(&triple(g)) != key) {
                    last.push(f.clone());
                }
            }
            let mut rng = shuffle_seed;
            for i in (1..last.len()).rev() {
                rng = saga_core::trace::splitmix64(rng);
                last.swap(i, (rng % (i as u64 + 1)) as usize);
            }
            prop_assert!(bytes == published_bytes(&build(&last, &[], &[], &[])));
        }
    }
}
