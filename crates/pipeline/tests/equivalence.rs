//! The tentpole proof of the incremental growth pipeline: for seeded
//! corpora with 1–30% churn, [`grow_incremental`] converges to a result
//! equivalent to a [`grow_batch`] rebuild on the final corpus —
//! bit-identical published KG canonical bytes, exact ANN parity and, over
//! chained intervals, a reindexed search engine that answers as a fresh
//! one, score bits included — and the amount of work scales with the churn
//! fraction, not the corpus size. The result is also bit-identical at every
//! worker count, and a lapsed store cursor degrades to a full rebuild
//! without losing convergence.

use saga_core::obs::Registry;
use saga_core::persist::codec::to_bytes;
use saga_core::synth::{generate, SynthConfig, SynthKg};
use saga_core::{DocId, EntityBuilder};
use saga_embeddings::{build_flat_index, ModelKind, TrainConfig};
use saga_odke::{FactTarget, OdkeConfig, TargetReason};
use saga_pipeline::{grow_batch, grow_incremental, GrowthConfig, GrowthReport, GrowthState};
use saga_webcorpus::{
    apply_churn, apply_fact_churn, generate_corpus, ChurnConfig, Corpus, CorpusConfig, CorpusTruth,
    SearchEngine, SearchHit,
};
use std::path::PathBuf;

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("saga-pipeline-equiv")
        .join(std::process::id().to_string())
        .join(name);
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir
}

fn fixture() -> (SynthKg, Corpus, CorpusTruth) {
    let s = generate(&SynthConfig::tiny(231));
    let (c, t) = generate_corpus(&s, &[], &CorpusConfig::tiny(17));
    (s, c, t)
}

/// A world about four times the tiny one (seed 7: 500 people, 900 entity +
/// 160 news + 80 noise pages), where a 5% interval dirties about 5% of the
/// graph instead of a third of it. Grown over 32 partitions.
fn large_fixture() -> (SynthKg, Corpus, CorpusTruth) {
    let s = generate(&SynthConfig {
        num_people: 500,
        num_movies: 160,
        num_songs: 160,
        num_orgs: 80,
        num_places: 60,
        num_teams: 25,
        ..SynthConfig::tiny(7)
    });
    let pages = CorpusConfig {
        entity_pages: 900,
        news_pages: 160,
        noise_pages: 80,
        ..CorpusConfig::tiny(7 ^ 0x17)
    };
    let (c, t) = generate_corpus(&s, &[], &pages);
    (s, c, t)
}

/// A fixed target universe: the first 25 subjects with a rendered
/// `lives_in` fact (sorted by entity id). Fact churn rewrites `lives_in`
/// pages for the earliest rendered subjects, so refreshed facts are
/// covered; everything else exercises the clean-target path.
fn targets(s: &SynthKg, truth: &CorpusTruth) -> Vec<FactTarget> {
    let mut subjects: Vec<u64> = truth
        .rendered_facts
        .iter()
        .filter(|(_, _, p, _)| *p == s.preds.lives_in)
        .map(|(_, e, _, _)| e.raw())
        .collect();
    subjects.sort_unstable();
    subjects.dedup();
    subjects
        .into_iter()
        .take(25)
        .map(|raw| FactTarget {
            entity: saga_core::EntityId(raw),
            predicate: s.preds.lives_in,
            reason: TargetReason::CoverageGap,
            importance: 1.0,
        })
        .collect()
}

fn config(s: &SynthKg, truth: &CorpusTruth) -> GrowthConfig {
    GrowthConfig {
        max_docs_per_entity: 3,
        // A generous per-query fetch so churn-induced BM25 reorderings
        // never truncate a clean target's candidate set.
        odke: OdkeConfig { docs_per_query: 50, ..OdkeConfig::default() },
        train: TrainConfig {
            model: ModelKind::TransE,
            dim: 8,
            epochs: 2,
            negatives: 2,
            seed: 11,
            ..TrainConfig::default()
        },
        num_parts: 4,
        min_predicate_frequency: 2,
        targets: targets(s, truth),
    }
}

/// One interval of mixed churn: page edits + new pages at `pct`% plus two
/// real-world fact changes rewriting their evidence pages.
fn churn(corpus: &mut Corpus, s: &SynthKg, truth: &CorpusTruth, pct: u32, seed: u64) {
    apply_churn(corpus, &ChurnConfig { edit_fraction: pct as f64 / 100.0, new_pages: 2, seed });
    apply_fact_churn(corpus, s, truth, 2, seed ^ 0x5eed);
}

/// Asserts the maintained ANN index equals one built from scratch over the
/// state's current model: same live id set, same rows, same top-k answers.
fn assert_ann_parity(state: &GrowthState) {
    let scratch = build_flat_index(&state.model);
    assert_eq!(state.indexed.len(), state.model.entity_ids.len(), "live set size");
    for (i, &e) in state.model.entity_ids.iter().enumerate() {
        let id = e.raw();
        assert!(state.indexed.contains(&id), "model row {id} missing from live set");
        assert_eq!(state.index.get(id), scratch.get(id), "row {id} differs from scratch");
        if i % 7 == 0 {
            let q = state.model.entities.row(i);
            assert_eq!(
                state.index.search(q, 10),
                scratch.search(q, 10),
                "top-10 for row {id} differs from scratch"
            );
        }
    }
}

/// Asserts the search engine the intervals kept up answers as one built
/// from scratch over the final corpus: same documents, same order, same
/// score bits, for entity names (profile pages, infoboxes, mentions) and
/// for the churn's own text, "updated in revision N" on edited pages and
/// "newly published content" on new ones.
fn assert_search_parity(state: &GrowthState, s: &SynthKg, corpus: &Corpus) {
    let scratch = SearchEngine::build(corpus);
    assert_eq!(state.search.num_docs(), scratch.num_docs(), "indexed page count");
    let names = s.kg.entities().step_by(7).take(40).map(|e| e.name.clone());
    let churn = (1..=corpus.version).flat_map(|v| {
        [format!("updated in revision {v}"), format!("revision {v}"), format!("{v}")]
    });
    let queries: Vec<String> =
        names.chain(churn).chain(["newly published content".to_owned()]).collect();
    let bits = |hits: Vec<SearchHit>| -> Vec<(DocId, u32)> {
        hits.into_iter().map(|h| (h.doc, h.score.to_bits())).collect()
    };
    let mut answered = 0;
    for query in &queries {
        for k in [10, usize::MAX] {
            let hits = bits(state.search.search(query, k));
            assert_eq!(hits, bits(scratch.search(query, k)), "query {query:?}, k {k}");
            answered += usize::from(!hits.is_empty());
        }
    }
    assert!(answered > queries.len(), "most queries find a page: {answered}");
}

/// Bootstraps on `base_corpus`, churns it by `pct`%, advances with one
/// incremental pass and rebuilds the churned corpus in batch. Asserts the
/// two converge (published bytes, ANN parity) and that the delta pass's
/// work accounting holds; returns the (incremental, batch) reports.
fn interval_vs_rebuild(
    (s, base_corpus, truth): &(SynthKg, Corpus, CorpusTruth),
    cfg: &GrowthConfig,
    pct: u32,
    churn_seed: u64,
    tag: &str,
) -> (GrowthReport, GrowthReport) {
    let mut corpus = base_corpus.clone();
    let reg = Registry::new();
    let (mut state, _) =
        grow_batch(&s.kg, &corpus, cfg, 2, &workdir(&format!("{tag}-inc-{pct}")), &reg)
            .expect("bootstrap");

    churn(&mut corpus, s, truth, pct, churn_seed);
    let inc = grow_incremental(&mut state, &corpus, cfg, 2, &reg).expect("incremental pass");
    assert!(!inc.lapsed, "retained deltas must cover one interval");

    let (batch_state, batch) = grow_batch(
        &s.kg,
        &corpus,
        cfg,
        2,
        &workdir(&format!("{tag}-batch-{pct}")),
        &Registry::new(),
    )
    .expect("batch rebuild");

    assert_eq!(inc.published, batch.published, "{tag}: snapshots diverge at {pct}% churn");
    assert_ann_parity(&state);
    assert_ann_parity(&batch_state);

    // Work accounting: a delta pass touches a strict subset of the
    // target universe, and the registry agrees with the report.
    let snap = reg.snapshot();
    assert_eq!(snap.counter("delta/targets_reextracted"), inc.targets_reextracted as u64);
    assert!(
        inc.targets_reextracted < cfg.targets.len(),
        "{tag}: {pct}% churn re-extracted every target"
    );
    assert_eq!(snap.counter("delta/lapses"), 0);
    (inc, batch)
}

#[test]
fn incremental_converges_to_batch_rebuild_across_churn_levels() {
    let world = fixture();
    let cfg = config(&world.0, &world.2);
    let reextracted: Vec<usize> = [1u32, 15, 30]
        .into_iter()
        .map(|pct| {
            interval_vs_rebuild(&world, &cfg, pct, 400 + pct as u64, "tiny").0.targets_reextracted
        })
        .collect();

    // Cost scales with churn: more churn, no less re-extraction.
    assert!(
        reextracted.windows(2).all(|w| w[0] <= w[1]),
        "re-extraction not monotone in churn: {reextracted:?}"
    );

    // Cost is a fraction of a rebuild: on the large world a 5% interval does
    // under a quarter of the batch pass's work — the mean of its shares of
    // pages reprocessed, targets re-extracted and training buckets. Counts
    // only, so the bound holds on any host. The partition layout follows the
    // training seed, and the bucket share with it: this seed is the one the
    // bound was set on.
    let world = large_fixture();
    let base = config(&world.0, &world.2);
    let cfg = GrowthConfig {
        num_parts: 32,
        train: TrainConfig { seed: 7 ^ 11, ..base.train.clone() },
        ..base
    };
    let (inc, batch) = interval_vs_rebuild(&world, &cfg, 5, 7 + 405, "large");
    let share = |inc: usize, batch: usize| inc as f64 / batch.max(1) as f64;
    let work_ratio = (share(inc.pages_reprocessed, batch.pages_reprocessed)
        + share(inc.targets_reextracted, batch.targets_reextracted)
        + share(inc.buckets_trained, batch.buckets_trained))
        / 3.0;
    assert!(
        work_ratio < 0.25,
        "5% churn cost {work_ratio:.3} of a rebuild: pages {}/{}, targets {}/{}, buckets {}/{}",
        inc.pages_reprocessed,
        batch.pages_reprocessed,
        inc.targets_reextracted,
        batch.targets_reextracted,
        inc.buckets_trained,
        batch.buckets_trained
    );
}

#[test]
fn chained_intervals_converge_and_work_stays_incremental() {
    let (s, mut corpus, truth) = fixture();
    let cfg = config(&s, &truth);
    let reg = Registry::new();
    let (mut state, _) =
        grow_batch(&s.kg, &corpus, &cfg, 2, &workdir("chain-inc"), &reg).expect("bootstrap");

    for (i, pct) in [5u32, 5].into_iter().enumerate() {
        churn(&mut corpus, &s, &truth, pct, 700 + i as u64);
        let rep = grow_incremental(&mut state, &corpus, &cfg, 2, &reg).expect("chained pass");
        assert!(!rep.lapsed);
        assert!(
            rep.pages_reprocessed < corpus.pages.len(),
            "interval {i} reprocessed the whole corpus"
        );
    }

    let (_, batch) = grow_batch(&s.kg, &corpus, &cfg, 2, &workdir("chain-batch"), &Registry::new())
        .expect("batch rebuild");
    let final_published = saga_pipeline::published_bytes(state.store.graph());
    assert_eq!(final_published, batch.published, "chained passes diverged from batch");
    assert_ann_parity(&state);
    assert_search_parity(&state, &s, &corpus);
    assert!(reg.snapshot().counter("delta/batches") >= 2);
}

#[test]
fn incremental_is_deterministic_across_worker_counts() {
    let (s, base_corpus, truth) = fixture();
    let cfg = config(&s, &truth);
    let mut published = Vec::new();
    let mut model_bytes = Vec::new();

    for workers in [1usize, 2, 8] {
        let mut corpus = base_corpus.clone();
        let reg = Registry::new();
        let (mut state, _) =
            grow_batch(&s.kg, &corpus, &cfg, workers, &workdir(&format!("det-w{workers}")), &reg)
                .expect("bootstrap");
        churn(&mut corpus, &s, &truth, 5, 4242);
        let rep = grow_incremental(&mut state, &corpus, &cfg, workers, &reg).expect("pass");
        published.push(rep.published);
        model_bytes.push((state.model.entities.to_bytes(), state.model.relations.to_bytes()));
    }

    assert_eq!(published[0], published[1], "published bytes differ: workers 1 vs 2");
    assert_eq!(published[0], published[2], "published bytes differ: workers 1 vs 8");
    assert_eq!(model_bytes[0], model_bytes[1], "model differs: workers 1 vs 2");
    assert_eq!(model_bytes[0], model_bytes[2], "model differs: workers 1 vs 8");
}

#[test]
fn lapsed_store_cursor_falls_back_to_full_rebuild_and_recovers() {
    let (s, mut corpus, truth) = fixture();
    let cfg = config(&s, &truth);
    let reg = Registry::new();
    let (mut state, _) =
        grow_batch(&s.kg, &corpus, &cfg, 2, &workdir("lapse"), &reg).expect("bootstrap");

    // A first interval leaves a real commit in the store's delta log.
    churn(&mut corpus, &s, &truth, 5, 909);
    let rep = grow_incremental(&mut state, &corpus, &cfg, 2, &reg).expect("first pass");
    assert!(!rep.lapsed);

    // Checkpoint truncates the retained deltas, then the cursor is forced
    // back before the checkpoint — the feed can no longer serve it.
    state.store.checkpoint().expect("checkpoint");
    state.store_cursor.resync(0);

    churn(&mut corpus, &s, &truth, 5, 910);
    let rep = grow_incremental(&mut state, &corpus, &cfg, 2, &reg).expect("lapsed pass");
    assert!(rep.lapsed, "forced-stale cursor must lapse");
    assert_eq!(reg.snapshot().counter("delta/lapses"), 1);

    // The fallback (full retrain + index rebuild + resync) still converges.
    let (_, batch) = grow_batch(&s.kg, &corpus, &cfg, 2, &workdir("lapse-batch"), &Registry::new())
        .expect("batch rebuild");
    assert_eq!(rep.published, batch.published, "lapse recovery diverged from batch");
    assert_ann_parity(&state);

    // And the resynced cursor serves the next interval incrementally.
    churn(&mut corpus, &s, &truth, 5, 911);
    let rep = grow_incremental(&mut state, &corpus, &cfg, 2, &reg).expect("post-lapse pass");
    assert!(!rep.lapsed, "resynced cursor lapsed again");
}

/// Two runs over the same inputs write byte-identical store files — not
/// only equal published bytes, which are canonicalized: the order in which
/// the bootstrap interns literals (the `mentioned_in` URLs in particular)
/// depends on the inputs, never on hash-map iteration order. Checked after
/// the bootstrap and again after one interval.
#[test]
fn runs_over_the_same_inputs_write_identical_store_images() {
    let (s, base_corpus, truth) = fixture();
    let cfg = config(&s, &truth);
    let run = |tag: &str| {
        let dir = workdir(tag);
        let mut corpus = base_corpus.clone();
        let reg = Registry::new();
        let (mut state, _) = grow_batch(&s.kg, &corpus, &cfg, 2, &dir, &reg).expect("bootstrap");
        let boot = std::fs::read(dir.join("kg.store")).expect("store file");
        churn(&mut corpus, &s, &truth, 5, 515);
        grow_incremental(&mut state, &corpus, &cfg, 2, &reg).expect("interval");
        drop(state);
        (boot, std::fs::read(dir.join("kg.store")).expect("store file"))
    };
    let (a, b) = (run("image-a"), run("image-b"));
    assert!(a.0 == b.0, "bootstrap store images differ");
    assert!(a.1 == b.1, "store images differ after an interval");
}

/// A reader during a publish: a server holds the store pin of every
/// version it published while the chain grows on. Over four chained
/// intervals, after every later interval each held pin still encodes and
/// publishes exactly the bytes it did when it was taken — no commit's
/// copy-on-write wrote a chunk a pin sees — and the chain ends where a
/// batch rebuild does. The chain stops at four: longer chains diverge from
/// the rebuild at some seeds (see ROADMAP.md).
#[test]
fn pins_held_across_chained_intervals_keep_their_bytes() {
    let (s, mut corpus, truth) = fixture();
    let cfg = config(&s, &truth);
    let reg = Registry::new();
    let (mut state, boot) =
        grow_batch(&s.kg, &corpus, &cfg, 2, &workdir("pinned-chain"), &reg).expect("bootstrap");
    let pin = state.store.pin();
    let mut pins = vec![(to_bytes(&*pin), boot.published, pin)];
    for (i, pct) in [5u32, 30, 1, 15].into_iter().enumerate() {
        churn(&mut corpus, &s, &truth, pct, 800 + i as u64);
        let rep = grow_incremental(&mut state, &corpus, &cfg, 2, &reg).expect("chained pass");
        assert!(!rep.lapsed && rep.facts_changed > 0, "interval {i} committed nothing");
        for (version, (image, published, pin)) in pins.iter().enumerate() {
            assert!(to_bytes(&**pin) == *image, "interval {i} wrote version {version}");
            let republished = saga_pipeline::published_bytes(pin);
            assert!(
                republished == *published,
                "interval {i} changed what version {version} publishes"
            );
        }
        let pin = state.store.pin();
        assert!(saga_pipeline::published_bytes(&pin) == rep.published);
        pins.push((to_bytes(&*pin), rep.published, pin));
    }

    let (_, batch) =
        grow_batch(&s.kg, &corpus, &cfg, 2, &workdir("pinned-chain-batch"), &Registry::new())
            .expect("batch rebuild");
    assert!(pins.last().expect("a pin").1 == batch.published, "the chain diverged from batch");
}

/// An entity leaves the training vocabulary. A place that no fact names
/// joins the graph; the first interval's fact churn moves a target subject
/// there, the second moves it away again, and with it the place's only
/// edge. The second interval deletes the place's ANN row, and the
/// maintained live set and index equal those of a scratch rebuild over the
/// same model and of a batch rebuild over the final corpus.
#[test]
fn an_entity_leaving_the_vocabulary_leaves_the_index() {
    let (mut s, mut corpus, truth) = fixture();
    let place = s.kg.add_entity(
        EntityBuilder::new("Zorblattville", s.types.place).description("a town").popularity(0.3),
    );
    let lives_in = s.preds.lives_in;
    // The subject a one-fact churn moves: the first rendered `lives_in`.
    let subject = truth.rendered_facts.iter().find(|f| f.2 == lives_in).expect("a fact").1;
    let mut cfg = config(&s, &truth);
    if !cfg.targets.iter().any(|t| t.entity == subject) {
        cfg.targets.push(FactTarget {
            entity: subject,
            predicate: lives_in,
            reason: TargetReason::CoverageGap,
            importance: 1.0,
        });
    }
    let reg = Registry::new();
    let (mut state, _) =
        grow_batch(&s.kg, &corpus, &cfg, 2, &workdir("vocab-inc"), &reg).expect("bootstrap");
    assert!(!state.indexed.contains(&place.raw()), "no fact names the new place yet");

    // Interval 1: the new place is the only one the churn can pick.
    let places = std::mem::replace(&mut s.places, vec![place]);
    apply_fact_churn(&mut corpus, &s, &truth, 1, 31);
    s.places = places;
    let rep = grow_incremental(&mut state, &corpus, &cfg, 2, &reg).expect("first pass");
    assert!(!rep.lapsed);
    assert!(state.indexed.contains(&place.raw()), "the subject moved to the new place");
    assert_ann_parity(&state);

    // Interval 2: the evidence names the new place; the churn moves the
    // subject on to one of the world's places.
    let mut moved = truth.clone();
    for fact in moved.rendered_facts.iter_mut().filter(|f| f.1 == subject && f.2 == lives_in) {
        fact.3 = s.kg.entity(place).name.clone();
    }
    apply_fact_churn(&mut corpus, &s, &moved, 1, 32);
    let rep = grow_incremental(&mut state, &corpus, &cfg, 2, &reg).expect("second pass");
    assert!(!rep.lapsed);
    assert!(rep.ann_deletes > 0, "the place's row stays live: {rep:?}");
    assert!(!state.indexed.contains(&place.raw()), "the place is still in the live set");
    assert_eq!(state.index.get(place.raw()), None, "the place's row is still searchable");
    assert_ann_parity(&state);
    assert_eq!(state.index.live_len(), build_flat_index(&state.model).live_len());

    let (batch_state, batch) =
        grow_batch(&s.kg, &corpus, &cfg, 2, &workdir("vocab-batch"), &Registry::new())
            .expect("batch rebuild");
    assert_eq!(rep.published, batch.published, "the intervals diverged from batch");
    assert_eq!(state.indexed, batch_state.indexed, "live sets differ from batch");
    assert_eq!(state.index.live_len(), batch_state.index.live_len());
}
