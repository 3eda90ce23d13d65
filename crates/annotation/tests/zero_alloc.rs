//! The annotation pass allocates per page only what it outputs.
//!
//! A pass worker keeps one `AnnotateScratch` for its whole share of a pass.
//! Once the scratch has seen every page, annotating a page again allocates
//! at most once: the output vector. A linked mention owns no heap memory
//! (its form shares the automaton's pattern form), and tokens, matches,
//! mentions, hash slots, context vectors and anchors all live in the
//! scratch, so nothing grows with the page's tokens, candidates or links.
//! It holds at every tier, with a delta automaton merging into the main
//! one, and with graph coherence scoring.
//!
//! Link sync allocates per call, not per dirty entity or link held:
//! reconciling a dirty set whose links do not change allocates the same few
//! times for ten entities as for a hundred, and each link it adds or
//! removes costs a fixed few more, plus the URL's own `String` when the
//! graph has not interned it yet.
//!
//! The allocator counts only on the thread that armed it, so tests running
//! side by side do not count each other's allocations; every measured call
//! runs on the test's own thread.

use saga_annotation::{
    annotate_corpus, extend_kg_with_links, sync_kg_links, AnnotateScratch, AnnotatedCorpus,
    AnnotationService, LinkerConfig, Tier,
};
use saga_core::synth::{generate, SynthConfig};
use saga_core::{EntityBuilder, EntityId, KnowledgeGraph, ValueKind};
use saga_embeddings::{train, ModelKind, TrainConfig, TrainingSet};
use saga_graph::{GraphView, ViewDef};
use saga_webcorpus::{generate_corpus, Corpus, CorpusConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeSet;

struct CountingAlloc;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a thread-local statistic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocations `f` makes on this thread, and its result.
fn count_allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    ALLOCS.with(|n| n.set(0));
    ARMED.with(|a| a.set(true));
    let out = f();
    ARMED.with(|a| a.set(false));
    (ALLOCS.with(Cell::get), out)
}

#[test]
fn a_warm_scratch_allocates_only_the_links_it_returns() {
    let mut s = generate(&SynthConfig::tiny(181));
    let (corpus, _) = generate_corpus(&s, &[], &CorpusConfig::tiny(19));
    let mut services: Vec<AnnotationService> = [
        LinkerConfig::tier(Tier::T0Lexical),
        LinkerConfig::tier(Tier::T1Popularity),
        LinkerConfig::tier(Tier::T2Contextual),
        LinkerConfig::distilled(),
    ]
    .into_iter()
    .map(|cfg| AnnotationService::build(&s.kg, cfg))
    .collect();
    let view = GraphView::materialize(&s.kg, ViewDef::embedding_training(3));
    let ds = TrainingSet::from_edges(&view.edges(), 0.05, 0.05, 5);
    let model = train(
        &ds,
        &TrainConfig { model: ModelKind::TransE, dim: 8, epochs: 2, ..Default::default() },
    );
    services.push(
        AnnotationService::build(&s.kg, LinkerConfig::default()).with_graph_embeddings(model),
    );
    // A delta automaton: the player's homonym under a new alias, merged
    // with the main automaton's mentions on every page naming the player.
    let mut with_delta = AnnotationService::build(&s.kg, LinkerConfig::default());
    let player = s.kg.entity(s.scenario.mj_player).name.clone();
    let homonym = s.kg.add_entity(
        EntityBuilder::new(player, s.types.person).alias("Zorblatt Quuxington").popularity(0.9),
    );
    with_delta.add_entity(&s.kg, homonym);
    services.push(with_delta);

    let mut links = 0;
    for svc in &services {
        let tier = svc.config().tier;
        let mut scratch = AnnotateScratch::new();
        for page in &corpus.pages {
            svc.annotate_page_into(page, tier, &mut scratch);
        }
        for page in &corpus.pages {
            let (allocs, out) = count_allocs(|| svc.annotate_page_into(page, tier, &mut scratch));
            assert!(
                allocs <= 1,
                "{tier:?}: {allocs} allocations for {} links on {:?} (bound 1)",
                out.len(),
                page.id
            );
            links += out.len();
        }
    }
    assert!(links > corpus.pages.len(), "the pages link mentions: {links}");
}

/// Links per entity, as the grow pipeline keeps them.
const CAP: usize = 3;

/// The URLs `entity` should link to under `annotated`: its first `CAP`
/// mentioning documents'.
fn desired_urls<'c>(
    corpus: &'c Corpus,
    annotated: &AnnotatedCorpus,
    entity: EntityId,
) -> impl Iterator<Item = &'c str> {
    let docs = annotated.entity_docs().remove(&entity).unwrap_or_default();
    docs.into_iter().take(CAP).map(|d| corpus.page(d).url.as_str())
}

/// Of the URLs `dirty` should link to, how many `kg` has not interned.
fn fresh_urls(
    kg: &KnowledgeGraph,
    corpus: &Corpus,
    annotated: &AnnotatedCorpus,
    dirty: &[EntityId],
) -> usize {
    let urls: BTreeSet<&str> =
        dirty.iter().flat_map(|&e| desired_urls(corpus, annotated, e)).collect();
    urls.into_iter().filter(|url| kg.literal_id(ValueKind::Identifier, url).is_none()).count()
}

#[test]
fn link_sync_allocates_per_call_and_per_link_changed() {
    let s = generate(&SynthConfig::tiny(181));
    let (corpus, _) = generate_corpus(&s, &[], &CorpusConfig::tiny(19));
    let svc = AnnotationService::build(&s.kg, LinkerConfig::tier(Tier::T2Contextual));
    let (annotated, _) = annotate_corpus(&svc, &corpus, 1);
    let mut kg = s.kg.clone();
    extend_kg_with_links(&mut kg, &corpus, &annotated, CAP);
    let mut mentioned: Vec<EntityId> = annotated.entity_docs().into_keys().collect();
    mentioned.sort_unstable();
    assert!(mentioned.len() >= 100, "{} entities mentioned", mentioned.len());

    // No link changes: the same few allocations for 10 and 100 entities.
    let unchanged = |kg: &mut KnowledgeGraph, n: usize| {
        let (allocs, changed) = count_allocs(|| {
            sync_kg_links(kg, &corpus, &annotated, mentioned[..n].iter().copied(), CAP)
        });
        assert_eq!(changed, (0, 0));
        allocs
    };
    // The dirty set, the restricted inversion's two buffers and the
    // diff's three.
    const PER_CALL: u64 = 6;
    let (at_10, at_100) = (unchanged(&mut kg, 10), unchanged(&mut kg, 100));
    assert_eq!(at_10, at_100, "link sync allocates per dirty entity");
    assert!(at_10 <= PER_CALL, "{at_10} allocations to reconcile unchanged links");

    // Links change: every third mentioned entity loses its mentions, every
    // third gains one, and every fifth page moves to a URL no graph has.
    let mut moved = corpus.clone();
    for page in moved.pages.iter_mut().step_by(5) {
        page.url.push_str("#moved");
    }
    let mut changed = annotated.clone();
    let losing: BTreeSet<EntityId> = mentioned.iter().copied().step_by(3).collect();
    let gaining: Vec<EntityId> = mentioned.iter().copied().skip(1).step_by(3).collect();
    for ad in changed.docs.values_mut() {
        ad.mentions.retain(|m| !losing.contains(&m.entity));
    }
    let template = annotated.docs.values().flat_map(|ad| ad.mentions.first()).next().cloned();
    let mut docs: Vec<_> = corpus.pages.iter().map(|p| p.id).collect();
    docs.sort_unstable();
    for (i, &e) in gaining.iter().enumerate() {
        let doc = docs[docs.len() - 1 - (i * 7) % docs.len()];
        let mention = saga_annotation::LinkedMention { entity: e, ..template.clone().unwrap() };
        changed.docs.get_mut(&doc).unwrap().mentions.push(mention);
    }
    let dirty: Vec<EntityId> = mentioned.clone();
    let fresh = fresh_urls(&kg, &moved, &changed, &dirty) as u64;
    let (allocs, (added, removed)) =
        count_allocs(|| sync_kg_links(&mut kg, &moved, &changed, dirty.iter().copied(), CAP));
    let links = (added + removed) as u64;
    assert!(fresh > 10 && added as u64 > fresh && removed > 0, "+{added} -{removed}, {fresh} new");
    // Per link: its share of the growth of the write queue and of the
    // commit's buffers, and of the index chunks the changed links land in.
    // The commit returns keys, so no link's URL is decoded: 107 allocations
    // for 521 links and 44 new URLs when this bound was set, about one per
    // eight links.
    const LINKS_PER_ALLOC: u64 = 4;
    let bound = PER_CALL + links / LINKS_PER_ALLOC + fresh;
    assert!(allocs <= bound, "{allocs} allocations for +{added} -{removed} (bound {bound})");
    assert_eq!(sync_kg_links(&mut kg, &moved, &changed, dirty, CAP), (0, 0), "converged");
}
