//! Published snapshots: a canonical, history-free rendering of a grown KG.
//!
//! The growth pipeline's headline guarantee is that the incremental path
//! *converges* to the batch rebuild. The two paths necessarily differ in
//! bookkeeping — commit counters, `observed_at` stamps, and the insertion
//! order of interned literals and sources all record *how* the graph was
//! built, not *what* it says. [`published_bytes`] strips that history: the
//! image holds exactly the same entities, ontology and facts (with their
//! sources and confidences) in a canonical order, so two graphs with the
//! same content publish to bit-identical bytes. This mirrors the paper's serving
//! story (Sec. 3.2): what ships to the serving fleet is a versioned,
//! reproducible artifact, not the builder's working state.
//!
//! The snapshot is *assembled*, not re-derived: every interval publishes,
//! so [`KnowledgeGraph::canonicalized_bytes`] renumbers literals and sources
//! beside the store's private fields and writes the image straight from its
//! tables, instead of decoding every fact and inserting it into a fresh
//! graph. Renumbering only permutes literal ids, so no index is sorted
//! again, and none is built: the SPO groups, the OSP literal runs and the
//! POS literal parts are written by linear passes over the sorted indexes
//! — O(facts + literals + predicates) — into an output buffer sized once,
//! exactly, the POS literal parts dealt into their slots there. A group of
//! several literals under one `(subject, predicate)` — 816 to 818 groups
//! holding 2,372 to 2,376 literals per publish in the grow benchmark's
//! graph — is sorted by a comparator on kind and canonical string that
//! allocates nothing: text compares its own string, the other kinds write
//! theirs into one scratch buffer for the whole publish. So a publish
//! allocates the same few times at any size. Re-inserting every fact into
//! a fresh graph is the definition of the bytes, and is kept — for tests
//! only — as the reference the assembled image is compared against, on
//! random histories, on the shapes the linear passes special-case, and on
//! literals whose content order is not their value order.

use saga_core::KnowledgeGraph;

/// The canonical bytes of `kg`'s published snapshot — the value the
/// equivalence proofs compare, and what every growth pass returns.
///
/// The image holds the same ontology, the same entity records (in dense
/// id order), and the same committed facts with the same source names and
/// confidences — but with sources interned in sorted-name order, literals
/// numbered in content order, and all `observed_at` stamps collapsed into
/// one publish commit. Any two graphs with equal content publish equal
/// bytes.
pub fn published_bytes(kg: &KnowledgeGraph) -> Vec<u8> {
    kg.canonicalized_bytes()
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use saga_core::persist::codec::{to_bytes, BinCodec, Reader};
    use saga_core::synth::{generate, SynthConfig};
    use saga_core::{
        fact_content_key, Cardinality, Date, EntityBuilder, EntityId, Ontology, PredicateId,
        SourceId, Triple, Value, ValueKind, Volatility,
    };
    use saga_testkit::{check, SplitMix64};

    /// The published snapshot of `kg`: the graph [`published_bytes`] is the
    /// image of.
    fn publish_snapshot(kg: &KnowledgeGraph) -> KnowledgeGraph {
        KnowledgeGraph::dec(&mut Reader::new(&published_bytes(kg)))
            .expect("an image written a moment ago decodes")
    }

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
            .map(|k| {
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
        assert_eq!(to_bytes(&a), to_bytes(&publish_snapshot(&a)));
        assert_eq!(a.num_triples(), s.kg.num_triples());
        assert_eq!(a.num_entities(), s.kg.num_entities());
    }

    #[test]
    fn publish_erases_insertion_order_and_commit_history() {
        let s = generate(&SynthConfig::tiny(43));
        let mut reordered = publish_snapshot(&s.kg);
        // Re-apply one fact over several extra commits: same content,
        // different observed_at stamps and commit counter.
        let t = reordered.decode(reordered.keys().next().unwrap());
        let meta = reordered.fact_meta(&t).unwrap();
        for _ in 0..3 {
            reordered.insert_with(t.clone(), meta.source, meta.confidence);
            reordered.commit();
        }
        assert_ne!(to_bytes(&reordered), to_bytes(&s.kg));
        assert_eq!(published_bytes(&reordered), published_bytes(&s.kg));
    }

    #[test]
    fn assembled_snapshot_equals_reinsertion_on_the_synthetic_graph() {
        let s = generate(&SynthConfig::tiny(47));
        let reference = to_bytes(&publish_by_reinsertion(&s.kg));
        assert_eq!(published_bytes(&s.kg), reference);
        assert_eq!(to_bytes(&publish_snapshot(&s.kg)), reference);
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
    fn fact(rng: &mut SplitMix64) -> Fact {
        let (s, p, o) = (rng.gen_range(0u8..6), rng.gen_range(0u8..3), rng.gen_range(0u8..14));
        Fact { s, p, o, source: rng.gen_range(0u8..4), confidence: rng.gen_range(0u8..5) }
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

    /// Publishes `kg` both ways and checks the assembled image against the
    /// re-inserted one, and the graph it decodes to.
    fn assert_assembles_as_reinserted(kg: &KnowledgeGraph) {
        let bytes = published_bytes(kg);
        assert!(bytes == to_bytes(&publish_by_reinsertion(kg)), "assembled ≠ re-inserted");
        let published = publish_snapshot(kg);
        published.check_invariants().unwrap();
        assert!(bytes == to_bytes(&published));
        assert!(bytes == published_bytes(&published), "not idempotent");
    }

    /// Commits `facts` as `(subject, predicate, object)` rows, in the order
    /// given.
    fn graph_of(facts: &[(u64, u32, Value)]) -> KnowledgeGraph {
        let mut kg = empty_graph(&[]);
        for (s, p, o) in facts {
            kg.insert(Triple::new(EntityId(*s), PredicateId(*p), o.clone()));
        }
        kg.commit();
        kg
    }

    fn text(s: &str) -> Value {
        Value::Text(s.into())
    }

    /// One literal under several subjects and two predicates, interned
    /// against content order, so every literal's OSP run moves and each
    /// predicate's POS block takes its part of every run.
    #[test]
    fn literal_shared_by_subjects_under_two_predicates() {
        assert_assembles_as_reinserted(&graph_of(&[
            (60, 1, text("zeta")),
            (40, 0, text("mid")),
            (20, 1, text("Alpha")),
            (60, 0, text("zeta")),
            (20, 0, text("zeta")),
            (40, 1, text("zeta")),
            (40, 0, text("Alpha")),
            (20, 0, Value::Entity(EntityId(9))),
            (60, 1, Value::Entity(EntityId(100))),
        ]));
    }

    /// The predicate with the highest id holds literals only: its POS block
    /// is the last one and has no entity part.
    #[test]
    fn literal_only_predicate_sorting_last() {
        assert_assembles_as_reinserted(&graph_of(&[
            (20, 2, Value::Integer(100)),
            (40, 2, Value::Integer(9)),
            (20, 0, Value::Entity(EntityId(10))),
            (40, 2, text("b")),
            (20, 1, Value::Entity(EntityId(9))),
            (60, 2, Value::Integer(9)),
        ]));
    }

    /// A predicate with entity objects only keeps its POS block as it is,
    /// between blocks whose literal parts move.
    #[test]
    fn entity_only_predicate() {
        assert_assembles_as_reinserted(&graph_of(&[
            (40, 0, text("y")),
            (20, 1, Value::Entity(EntityId(100))),
            (40, 1, Value::Entity(EntityId(9))),
            (20, 2, text("x")),
            (20, 0, text("x")),
            (60, 1, Value::Entity(EntityId(10))),
        ]));
    }

    fn date(year: i32, month: u8, day: u8) -> Value {
        Value::Date(Date::new(year, month, day).unwrap())
    }

    /// Integers whose canonical strings sort against their values
    /// (`"-3" < "10" < "9"`), with `10` numbered in an earlier group: the
    /// keys of the second group sort by new id in neither value nor content
    /// order.
    #[test]
    fn negative_integer_sorts_by_its_string() {
        assert_assembles_as_reinserted(&graph_of(&[
            (40, 0, Value::Integer(9)),
            (40, 0, Value::Integer(10)),
            (40, 0, Value::Integer(-3)),
            (20, 0, Value::Integer(10)),
            (40, 1, Value::Integer(100)),
            (40, 1, Value::Integer(-3)),
            (40, 1, Value::Integer(i64::MIN)),
        ]));
    }

    /// Floats equal at four decimals (`1.00001`, `1.00004`, `0.99999`) are
    /// one literal, so a later insert refreshes the first one's fact, in
    /// the assembled image as in the re-inserted graph: no two literals of
    /// a group tie in content order.
    #[test]
    fn floats_tied_at_four_decimals_are_one_literal() {
        let kg = graph_of(&[
            (20, 0, Value::Float(1.00004)),
            (20, 0, Value::Float(1.00001)),
            (20, 0, Value::Float(-1.00001)),
            (20, 0, Value::Float(0.99999)),
            (40, 0, Value::Float(1.00001)),
            (40, 0, Value::Float(-0.0)),
            (40, 0, Value::Float(0.0)),
        ]);
        // Subject 20 holds 1.0000 and -1.0000; subject 40 holds 1.0000,
        // -0.0000 and 0.0000.
        assert_eq!(kg.num_triples(), 5);
        assert_assembles_as_reinserted(&kg);
    }

    /// Floats whose canonical strings run past 300 characters, beside short
    /// ones in one group: the group outgrows the scratch buffer sized for
    /// short canonical strings.
    #[test]
    fn floats_with_long_canonical_strings() {
        assert_assembles_as_reinserted(&graph_of(&[
            (20, 0, Value::Float(f64::MAX)),
            (20, 0, Value::Float(1.5)),
            (20, 0, Value::Float(f64::MIN)),
            (20, 0, Value::Float(1e300)),
            (20, 0, Value::Integer(7)),
            (40, 0, Value::Float(1e300)),
            (40, 0, Value::Float(f64::MAX)),
            (40, 0, Value::Float(-2.5)),
        ]));
    }

    /// A `Text` and an `Identifier` with the same string are two literals,
    /// ordered by kind; text compares its own string, without a copy.
    #[test]
    fn text_and_identifier_with_one_string() {
        assert_assembles_as_reinserted(&graph_of(&[
            (20, 0, Value::Identifier("Q42".into())),
            (20, 0, text("Q42")),
            (20, 0, Value::Identifier("A".into())),
            (20, 0, text("Q41")),
            (20, 0, text("")),
            (40, 0, Value::Identifier("Q42".into())),
            (40, 0, Value::Integer(42)),
        ]));
    }

    /// Dates order by their `YYYY-MM-DD` strings: year 10000 sorts before
    /// 1999, and a negative year before both.
    #[test]
    fn dates_order_by_their_strings() {
        assert_assembles_as_reinserted(&graph_of(&[
            (20, 0, date(2001, 2, 3)),
            (20, 0, date(1999, 12, 31)),
            (20, 0, date(10_000, 1, 1)),
            (20, 0, date(-5, 1, 1)),
            (40, 0, date(1999, 12, 31)),
            (40, 0, Value::Bool(false)),
            (40, 0, Value::Bool(true)),
        ]));
    }

    /// A graph without facts publishes, whether it never had any or had
    /// them all removed (their literals stay interned, unused).
    #[test]
    fn empty_graph_publishes() {
        let never = empty_graph(&[1, 2]);
        assert_assembles_as_reinserted(&never);
        let mut emptied = graph_of(&[(20, 0, text("gone")), (40, 1, Value::Entity(EntityId(9)))]);
        for k in emptied.keys().collect::<Vec<_>>() {
            let t = emptied.decode(k);
            emptied.remove(&t);
        }
        emptied.commit();
        assert_eq!(emptied.num_triples(), 0);
        assert_assembles_as_reinserted(&emptied);
        assert_eq!(published_bytes(&emptied), published_bytes(&empty_graph(&[])));
    }

    #[test]
    fn assembled_snapshot_equals_reinsertion() {
        check(64, 1, |rng| {
            let facts = saga_testkit::vec(rng, 0..60, fact);
            let removed = saga_testkit::vec(rng, 0..12, fact);
            let commit_at = saga_testkit::vec(rng, 0..4, |rng| rng.gen_range(0usize..60));
            let source_order = saga_testkit::vec(rng, 0..5, |rng| rng.gen_range(0u8..4));
            let shuffle_seed = rng.gen_range(0u64..1_000);
            let kg = build(&facts, &removed, &commit_at, &source_order);
            let bytes = published_bytes(&kg);
            assert!(bytes == to_bytes(&publish_by_reinsertion(&kg)));
            // The decoder rebuilds a graph that these bytes are the image of.
            let published = publish_snapshot(&kg);
            assert!(bytes == to_bytes(&published));
            assert_eq!(published.check_invariants(), Ok(()));
            assert_eq!(published.num_triples(), kg.num_triples());
            for k in kg.keys() {
                let t = kg.decode(k);
                let (was, now) = (kg.fact_meta(&t).unwrap(), published.fact_meta(&t).unwrap());
                assert_eq!(kg.source_name(was.source), published.source_name(now.source));
                assert_eq!(was.confidence.to_bits(), now.confidence.to_bits());
            }

            // Idempotent.
            assert!(bytes == published_bytes(&published));

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
            assert!(bytes == published_bytes(&build(&last, &[], &[], &[])));
        });
    }
}
