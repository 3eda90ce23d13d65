//! Reindexing a page allocates for what the page changed, not for the page,
//! and a query allocates only the hits it returns.
//!
//! `SearchEngine` keeps its indexing buffers (page text, tokens, term ids)
//! and merges a replaced page's old terms with its new ones, so on a warm
//! engine:
//!
//! - reindexing a page whose text did not change allocates nothing: every
//!   term is kept, found by binary search and its `tf` rewritten in place;
//! - a page that gains only terms the engine already knows allocates at
//!   most once per posting list it joins (a list that is full when the page
//!   is inserted into it). Its own term list keeps the capacity of its
//!   token count, which its distinct terms stay under here, and every
//!   buffer has grown past the longest page beforehand.
//!
//! `search` scores in buffers its thread keeps and resets only the slots a
//! query touched, so on a warm thread a query allocates once — the `Vec` it
//! returns — whether it matches a handful of pages or nearly all of them,
//! and at 10× the pages as at 1×.
//!
//! The allocator counts only on the thread that armed it, so tests running
//! side by side do not count each other's allocations; every measured call
//! runs on the test's own thread.

use saga_core::synth::{generate, SynthConfig};
use saga_core::text::tokenize;
use saga_core::DocId;
use saga_webcorpus::{generate_corpus, CorpusConfig, SearchEngine};
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

/// The distinct token texts of `text`.
fn terms(text: &str) -> BTreeSet<String> {
    tokenize(text).into_iter().map(|t| t.text).collect()
}

#[test]
fn a_warm_engine_allocates_only_for_the_posting_lists_a_page_joins() {
    let s = generate(&SynthConfig::tiny(181));
    let (corpus, _) = generate_corpus(&s, &[], &CorpusConfig::tiny(19));
    let mut engine = SearchEngine::build(&corpus);

    // Unchanged pages: building warmed the buffers to the longest page.
    for page in &corpus.pages {
        let (allocs, ()) = count_allocs(|| engine.index_page(page));
        assert_eq!(allocs, 0, "reindexing unchanged {:?} allocated", page.id);
    }

    // Each page gains the title of the next one: terms the engine knows,
    // some of them new to the page.
    let n = corpus.pages.len();
    let grown: Vec<_> = (0..n)
        .map(|i| {
            let mut page = corpus.pages[i].clone();
            page.paragraphs.push(corpus.pages[(i + 1) % n].title.clone());
            page
        })
        .collect();
    // Warm the buffers past the longest grown page with a page of one
    // fresh term, which joins no list the grown pages are on. It stays
    // indexed, as one more document.
    let longest = grown.iter().map(|p| p.full_text().len()).max().unwrap_or(0);
    let mut warm = corpus.pages[0].clone();
    warm.id = DocId(n as u64);
    (warm.title, warm.infobox, warm.tables) = (String::new(), Vec::new(), Vec::new());
    warm.paragraphs = vec!["zzwarmup ".repeat(longest)];
    engine.index_page(&warm);

    let mut joined_total = 0;
    for (page, grown) in corpus.pages.iter().zip(&grown) {
        let joined = terms(&grown.full_text()).difference(&terms(&page.full_text())).count();
        let (allocs, ()) = count_allocs(|| engine.index_page(grown));
        assert!(
            allocs <= joined as u64,
            "{:?} joined {joined} posting lists and allocated {allocs} times",
            page.id
        );
        joined_total += joined;
    }
    assert!(joined_total > n, "the pages gain terms: {joined_total}");
    assert_eq!(engine.num_docs(), n + 1);
}

/// The benchmark's world (500 people, 900 entity + 160 news + 80 noise
/// pages) with every entity and page count multiplied by `scale`.
fn bench_engine(scale: usize) -> (saga_core::synth::SynthKg, SearchEngine) {
    let s = generate(&SynthConfig {
        num_people: 500 * scale,
        num_movies: 160 * scale,
        num_songs: 160 * scale,
        num_orgs: 80 * scale,
        num_places: 60 * scale,
        num_teams: 25 * scale,
        ..SynthConfig::tiny(7)
    });
    let pages = CorpusConfig {
        entity_pages: 900 * scale,
        news_pages: 160 * scale,
        noise_pages: 80 * scale,
        ..CorpusConfig::tiny(7 ^ 0x17)
    };
    let (corpus, _) = generate_corpus(&s, &[], &pages);
    let engine = SearchEngine::build(&corpus);
    assert!(engine.num_docs() >= 1_000 * scale, "{} pages", engine.num_docs());
    (s, engine)
}

#[test]
fn a_warm_query_allocates_only_the_hits_it_returns() {
    for scale in [1, 10] {
        let (s, engine) = bench_engine(scale);
        let name = &s.kg.entity(s.scenario.benicio).name;
        let queries =
            [name.clone(), format!("{name} date of birth"), "date of birth person".into()];
        // Warm this thread's query buffers to this engine and these queries.
        for q in &queries {
            engine.search(q, 50);
        }
        let mut matched = Vec::new();
        for q in &queries {
            for k in [0, 50, usize::MAX] {
                let (allocs, hits) = count_allocs(|| engine.search(q, k));
                assert!(allocs <= 1, "{scale}x: {q:?} at k {k} allocated {allocs} times");
                assert_eq!(hits, engine.search(q, k), "{scale}x: {q:?} at k {k}");
                if k == usize::MAX {
                    matched.push(hits.len());
                }
            }
        }
        // A rare name matches a few pages; the common words most of them.
        let n = engine.num_docs();
        assert!(matched[0] < n / 20, "{scale}x: the name matched {} of {n}", matched[0]);
        assert!(matched[2] > n / 2, "{scale}x: the common words matched {} of {n}", matched[2]);
    }
}
