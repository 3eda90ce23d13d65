//! Property-based tests for the triple store's core invariants.

use saga_core::entity::EntityBuilder;
use saga_core::ontology::{Cardinality, Ontology, Volatility};
use saga_core::value::ValueKind;
use saga_core::{EntityId, KnowledgeGraph, Triple, Value};
use saga_testkit::{check, SplitMix64};

/// A scripted store operation.
#[derive(Debug, Clone)]
enum Op {
    Insert { s: u8, p: u8, o: u8, literal: bool },
    Remove { s: u8, p: u8, o: u8, literal: bool },
    Commit,
}

fn op_strategy(rng: &mut SplitMix64) -> Op {
    let spol = |rng: &mut SplitMix64| {
        (rng.gen_range(0u8..16), rng.gen_range(0u8..4), rng.gen_range(0u8..16), rng.gen::<bool>())
    };
    saga_testkit::one_of(
        rng,
        &[
            &|rng| {
                let (s, p, o, literal) = spol(rng);
                Op::Insert { s, p, o, literal }
            },
            &|rng| {
                let (s, p, o, literal) = spol(rng);
                Op::Remove { s, p, o, literal }
            },
            &|_| Op::Commit,
        ],
    )
}

fn build_graph() -> (KnowledgeGraph, Vec<EntityId>, Vec<saga_core::PredicateId>) {
    let mut o = Ontology::new();
    let t = o.add_type("thing", None);
    let preds: Vec<_> = (0..4)
        .map(|i| {
            o.add_predicate(
                &format!("p{i}"),
                &format!("p {i}"),
                ValueKind::Entity,
                None,
                Cardinality::Multi,
                Volatility::Stable,
                false,
            )
        })
        .collect();
    let mut kg = KnowledgeGraph::new(o);
    let ents: Vec<_> =
        (0..16).map(|i| kg.add_entity(EntityBuilder::new(format!("e{i}"), t))).collect();
    (kg, ents, preds)
}

fn make_triple(
    ents: &[EntityId],
    preds: &[saga_core::PredicateId],
    s: u8,
    p: u8,
    o: u8,
    literal: bool,
) -> Triple {
    let object =
        if literal { Value::Text(format!("lit{o}")) } else { Value::Entity(ents[o as usize]) };
    Triple { subject: ents[s as usize], predicate: preds[p as usize], object }
}

/// After any op sequence, all three indexes agree and match a naive
/// model (a HashSet of committed triples).
#[test]
fn indexes_agree_with_model() {
    check(64, 1, |rng| {
        let ops = saga_testkit::vec(rng, 1..120, op_strategy);
        let (mut kg, ents, preds) = build_graph();
        let mut model: std::collections::HashSet<String> = Default::default();
        let mut pending_add: Vec<String> = vec![];
        let mut pending_rm: Vec<String> = vec![];
        let keyof =
            |t: &Triple| format!("{:?}|{:?}|{}", t.subject, t.predicate, t.object.canonical());

        for op in &ops {
            match *op {
                Op::Insert { s, p, o, literal } => {
                    let t = make_triple(&ents, &preds, s, p, o, literal);
                    pending_add.push(keyof(&t));
                    kg.insert(t);
                }
                Op::Remove { s, p, o, literal } => {
                    let t = make_triple(&ents, &preds, s, p, o, literal);
                    pending_rm.push(keyof(&t));
                    kg.remove(&t);
                }
                Op::Commit => {
                    let adds: std::collections::HashSet<String> = pending_add.drain(..).collect();
                    for k in pending_rm.drain(..) {
                        if !adds.contains(&k) {
                            model.remove(&k);
                        }
                    }
                    model.extend(adds);
                    kg.commit();
                }
            }
        }
        kg.commit();
        let adds: std::collections::HashSet<String> = pending_add.drain(..).collect();
        for k in pending_rm.drain(..) {
            if !adds.contains(&k) {
                model.remove(&k);
            }
        }
        model.extend(adds);

        kg.check_invariants().unwrap();
        assert_eq!(kg.num_triples(), model.len());
        for k in kg.keys() {
            let t = kg.decode(k);
            assert!(model.contains(&keyof(&t)));
            assert!(kg.contains(&t));
        }
    });
}

/// The binary codec round-trips the full store state.
#[test]
fn codec_round_trip() {
    check(64, 2, |rng| {
        let ops = saga_testkit::vec(rng, 1..60, op_strategy);
        let (mut kg, ents, preds) = build_graph();
        for op in &ops {
            match *op {
                Op::Insert { s, p, o, literal } => {
                    kg.insert(make_triple(&ents, &preds, s, p, o, literal))
                }
                Op::Remove { s, p, o, literal } => {
                    kg.remove(&make_triple(&ents, &preds, s, p, o, literal))
                }
                Op::Commit => {
                    kg.commit();
                }
            }
        }
        kg.commit();
        let bytes = saga_core::persist::codec::to_bytes(&kg);
        let back: KnowledgeGraph = saga_core::persist::codec::from_bytes(&bytes).unwrap();
        back.check_invariants().unwrap();
        assert_eq!(back.num_triples(), kg.num_triples());
        assert!(back.keys().eq(kg.keys()));
        for k in kg.keys() {
            let t = kg.decode(k);
            assert!(back.contains(&t));
            assert_eq!(back.fact_meta(&t).unwrap(), kg.fact_meta(&t).unwrap());
        }
    });
}

/// Tokenizer: spans always slice to text whose normalization equals the
/// token, and tokens are non-empty alphanumeric.
#[test]
fn tokenizer_spans_are_consistent() {
    check(64, 3, |rng| {
        let text = saga_testkit::text(rng, 200);
        let toks = saga_core::text::tokenize(&text);
        for t in &toks {
            assert!(!t.text.is_empty());
            assert!(t.start < t.end && t.end <= text.len());
            let slice = &text[t.start..t.end];
            assert_eq!(saga_core::text::normalize_phrase(slice), t.text.clone());
        }
        // Spans are ordered and non-overlapping.
        for w in toks.windows(2) {
            assert!(w[0].end <= w[1].start);
        }
    });
}

/// Frame files round-trip arbitrary payload sequences.
#[test]
fn frames_round_trip() {
    check(64, 4, |rng| {
        let payloads = saga_testkit::vec(rng, 0..12, |rng| {
            saga_testkit::vec(rng, 0..256, |rng| rng.gen::<u8>())
        });
        let dir = std::env::temp_dir().join("saga-core-prop");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("frames-{}-{}.bin", std::process::id(), rand_suffix()));
        {
            let mut w = saga_core::persist::FrameWriter::create(&path).unwrap();
            for p in &payloads {
                w.write(p).unwrap();
            }
            w.flush().unwrap();
        }
        let mut r = saga_core::persist::FrameReader::open(&path).unwrap();
        let mut back = Vec::new();
        while let Some(frame) = r.next_frame().unwrap() {
            back.push(frame);
        }
        assert_eq!(back, payloads);
        std::fs::remove_file(&path).ok();
    });
}

/// Unique-per-call filename suffix: a fixed (env-overridable via
/// `SAGA_TEST_SEED`) base plus a process-local counter, so runs are
/// reproducible instead of seeded from the wall clock.
fn rand_suffix() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let base: u64 =
        std::env::var("SAGA_TEST_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0x5a6a_5eed);
    base.wrapping_add(NEXT.fetch_add(1, Ordering::Relaxed))
}
