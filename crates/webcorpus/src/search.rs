//! A BM25 web-search engine over the corpus — the "Web Search" box of the
//! ODKE pipeline (Fig. 5). Supports incremental reindexing of changed pages
//! so the annotation pipeline's change feed and the search index stay in
//! sync.
//!
//! Layout: terms are interned to dense `u32` ids on first sight, and
//! documents are addressed by [`DocId::index`] (ids are dense positions —
//! [`Corpus::page`] relies on the same), so the postings, the per-document
//! term lists and the document lengths are all `Vec`s. Every posting list
//! is kept sorted by `DocId`, and every term list by term id.
//!
//! Indexing renders a page and tokenizes it into buffers the engine keeps
//! (the text, a packed [`TokenBuf`], the term ids) and looks each token up
//! by `&str`. A replaced page's old term list and its new sorted term ids
//! are merged: a kept term finds the page by binary search and rewrites its
//! `tf` in place, and only a dropped or added term removes or inserts a
//! posting (an insert
//! lands at the list's `partition_point`, the end when pages arrive in id
//! order as [`SearchEngine::build`] feeds them). Once the buffers have grown
//! to the largest page, indexing allocates only for a term the engine has
//! never seen (its `String` and posting list), for a page's first term
//! list, and for a list that outgrows its capacity: an unchanged page
//! allocates nothing.
//!
//! A query works in buffers its thread keeps (one set per thread, shared by
//! every engine it searches), so its cost follows the query's postings, not
//! the corpus: it tokenizes into a kept `TokenBuf`, adds each posting's
//! contribution into a dense per-document score slot, and lists a slot the
//! first time an explicit mark shows it untouched. Reading the listed slots
//! puts each back to `+0.0` and unmarked, and keeps the best `k` by bounded
//! insertion into the returned `Vec`, the one allocation of a warm query.
//! No slot is zeroed or scanned per corpus document. A document occurs once
//! per list and the final order is total, so neither the list order nor the
//! selection reaches the score bits or the ranking.

use crate::gen::Corpus;
use crate::page::WebPage;
use saga_core::text::{tokenize_into, TokenBuf};
use saga_core::DocId;
use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::HashMap;

const K1: f32 = 1.2;
const B: f32 = 0.75;

/// A search hit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchHit {
    /// Document id.
    pub doc: DocId,
    /// Score; higher is better.
    pub score: f32,
}

/// The ranking order: score descending, ties broken by ascending `DocId`.
/// Documents are unique within a hit list, so this is a strict total order
/// and any sort over it — stable or not, partial or full — yields one result.
fn rank(a: &SearchHit, b: &SearchHit) -> Ordering {
    b.score.partial_cmp(&a.score).expect("BM25 scores are finite").then(a.doc.cmp(&b.doc))
}

/// Inverted index with BM25 ranking.
#[derive(Debug, Clone, Default)]
pub struct SearchEngine {
    /// term → dense term id. Ids are never reclaimed: a term that its last
    /// document dropped keeps an empty posting list.
    term_ids: HashMap<String, u32>,
    /// term id → postings (doc, term frequency), strictly sorted by doc.
    postings: Vec<Vec<(DocId, u32)>>,
    /// doc index → its distinct term ids, sorted (what a replacement merges
    /// with, and removal walks); `None` = not indexed. Presence lives here
    /// and not in `doc_len`: an indexed page without a single token has
    /// length 0 and still counts.
    doc_terms: Vec<Option<Vec<u32>>>,
    /// doc index → length in tokens.
    doc_len: Vec<u32>,
    /// Number of `Some` entries in `doc_terms`.
    num_docs: usize,
    total_len: u64,
    scratch: IndexScratch,
}

/// [`SearchEngine::index_page`]'s working buffers, cleared and refilled per
/// page: the rendered text, its tokens and their term ids.
#[derive(Debug, Clone, Default)]
struct IndexScratch {
    text: String,
    toks: TokenBuf,
    ids: Vec<u32>,
}

/// Removes `doc`'s posting from a list sorted by `DocId` (no-op if absent).
fn unlist(list: &mut Vec<(DocId, u32)>, doc: DocId) {
    if let Ok(at) = list.binary_search_by_key(&doc, |&(d, _)| d) {
        list.remove(at);
    }
}

impl SearchEngine {
    /// Builds the index over a whole corpus.
    pub fn build(corpus: &Corpus) -> Self {
        let mut s = Self::default();
        for p in &corpus.pages {
            s.index_page(p);
        }
        s
    }

    /// Number of indexed documents.
    pub fn num_docs(&self) -> usize {
        self.num_docs
    }

    /// Adds or replaces a page in the index. A replaced page's old terms
    /// are merged with its new ones: a kept term has its `tf` rewritten in
    /// place, and only a dropped or added term removes or inserts a posting.
    pub fn index_page(&mut self, page: &WebPage) {
        let Self { term_ids, postings, doc_terms, doc_len, num_docs, total_len, scratch } = self;
        let IndexScratch { text, toks, ids } = scratch;
        page.full_text_into(text);
        tokenize_into(text, toks);
        ids.clear();
        for tok in toks.texts() {
            let id = match term_ids.get(tok) {
                Some(&id) => id,
                None => {
                    let id = u32::try_from(postings.len()).expect("more than 2^32 terms");
                    term_ids.insert(tok.to_owned(), id);
                    postings.push(Vec::new());
                    id
                }
            };
            ids.push(id);
        }
        // Sorted, each run of equal ids is one term and its frequency, in
        // term-id order — the order of the page's old term list.
        ids.sort_unstable();
        let doc = page.id;
        let slot = doc.index();
        if slot >= doc_terms.len() {
            doc_terms.resize(slot + 1, None);
            doc_len.resize(slot + 1, 0);
        }
        let mut old = doc_terms[slot].as_deref().unwrap_or_default().iter().copied().peekable();
        for run in ids.chunk_by(|a, b| a == b) {
            let (term, tf) = (run[0], run.len() as u32);
            while let Some(dropped) = old.next_if(|&t| t < term) {
                unlist(&mut postings[dropped as usize], doc);
            }
            let list = &mut postings[term as usize];
            if old.next_if_eq(&term).is_some() {
                let at = list
                    .binary_search_by_key(&doc, |&(d, _)| d)
                    .expect("a kept term lists its page");
                list[at].1 = tf;
            } else {
                list.insert(list.partition_point(|&(d, _)| d < doc), (doc, tf));
            }
        }
        for dropped in old {
            unlist(&mut postings[dropped as usize], doc);
        }
        ids.dedup();
        let len = toks.len();
        if let Some(terms) = &mut doc_terms[slot] {
            terms.clear();
            terms.extend_from_slice(ids);
        } else {
            // Sized to the token count: a replacement outgrows it only with
            // more distinct terms than the page first had tokens.
            let mut terms = Vec::with_capacity(len);
            terms.extend_from_slice(ids);
            doc_terms[slot] = Some(terms);
            *num_docs += 1;
        }
        *total_len = *total_len - u64::from(doc_len[slot]) + len as u64;
        doc_len[slot] = len as u32;
    }

    fn avg_len(&self) -> f32 {
        if self.num_docs == 0 {
            0.0
        } else {
            self.total_len as f32 / self.num_docs as f32
        }
    }

    /// BM25 search; returns the top `k` documents. Once this thread's query
    /// buffers have grown to the largest engine and query it has served,
    /// the returned `Vec` is the only allocation.
    pub fn search(&self, query: &str, k: usize) -> Vec<SearchHit> {
        let n = self.num_docs as f32;
        if n == 0.0 {
            return Vec::new();
        }
        let avg = self.avg_len();
        QUERY_SCRATCH.with(|scratch| {
            let QueryScratch { toks, scores, seen, touched } = &mut *scratch.borrow_mut();
            if scores.len() < self.doc_len.len() {
                scores.resize(self.doc_len.len(), 0.0);
                seen.resize(self.doc_len.len(), false);
            }
            tokenize_into(query, toks);
            // A document's score is the sum of its per-token contributions
            // in query-token order, starting from +0.0 — the order fixes the
            // bits.
            for tok in toks.texts() {
                let list = self.term_ids.get(tok).map(|&id| &self.postings[id as usize]);
                let Some(list) = list.filter(|list| !list.is_empty()) else { continue };
                let df = list.len() as f32;
                let idf = ((n - df + 0.5) / (df + 0.5) + 1.0).ln();
                for &(doc, tf) in list {
                    let slot = doc.index();
                    let len = self.doc_len[slot] as f32;
                    let tf = tf as f32;
                    scores[slot] += idf * (tf * (K1 + 1.0)) / (tf + K1 * (1.0 - B + B * len / avg));
                    if !seen[slot] {
                        seen[slot] = true;
                        touched.push(doc);
                    }
                }
            }
            // Read each touched score and put its slot back to +0.0 and
            // unseen, so the next query starts from clean buffers.
            let drain = touched.drain(..).map(|doc| {
                let slot = doc.index();
                seen[slot] = false;
                SearchHit { doc, score: std::mem::take(&mut scores[slot]) }
            });
            if k >= drain.len() {
                let mut hits: Vec<SearchHit> = drain.collect();
                hits.sort_unstable_by(rank);
                return hits;
            }
            // Bounded insertion: `hits` stays sorted and at most `k` long.
            let mut hits = Vec::with_capacity(k);
            for hit in drain {
                if hits.len() == k {
                    // Full: `hit` enters only by ranking before the last.
                    if hits.last().is_none_or(|last| rank(&hit, last).is_ge()) {
                        continue;
                    }
                    hits.pop();
                }
                let at = hits.partition_point(|h| rank(h, &hit).is_lt());
                hits.insert(at, hit);
            }
            hits
        })
    }
}

/// [`SearchEngine::search`]'s working buffers, one set per thread and
/// shared by every engine the thread searches: the query's tokens, a score
/// and a visit mark per document slot, and the slots this query touched.
/// Between queries every score is `+0.0` and every mark is clear — a query
/// resets exactly the slots it touched, so no query zeroes or scans a
/// corpus-sized array.
#[derive(Default)]
struct QueryScratch {
    toks: TokenBuf,
    scores: Vec<f32>,
    /// An explicit mark, not `score != 0.0`: a contribution can round to
    /// `0.0` (at n ≳ 8 M, a term in every document has `idf == 0.0`).
    seen: Vec<bool>,
    touched: Vec<DocId>,
}

thread_local! {
    static QUERY_SCRATCH: RefCell<QueryScratch> = RefCell::new(QueryScratch::default());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate_corpus, CorpusConfig};
    use crate::page::PageKind;
    use saga_core::synth::{generate, SynthConfig};
    use saga_core::text::tokenize;
    use saga_testkit::{check, SplitMix64};
    use std::collections::BTreeMap;

    /// The engine this one replaced, kept as the oracle: string-keyed
    /// postings, hashed document tables, a hash-map score accumulator and a
    /// full sort of every hit.
    #[derive(Default)]
    struct ReferenceEngine {
        postings: HashMap<String, Vec<(DocId, u32)>>,
        doc_len: HashMap<DocId, u32>,
        doc_terms: HashMap<DocId, Vec<String>>,
        total_len: u64,
    }

    impl ReferenceEngine {
        fn num_docs(&self) -> usize {
            self.doc_len.len()
        }

        fn index_page(&mut self, page: &WebPage) {
            self.remove_doc(page.id);
            let toks = tokenize(&page.full_text());
            let mut tf: HashMap<String, u32> = HashMap::new();
            for t in &toks {
                *tf.entry(t.text.clone()).or_default() += 1;
            }
            let mut terms = Vec::with_capacity(tf.len());
            for (term, f) in tf {
                self.postings.entry(term.clone()).or_default().push((page.id, f));
                terms.push(term);
            }
            self.doc_len.insert(page.id, toks.len() as u32);
            self.doc_terms.insert(page.id, terms);
            self.total_len += toks.len() as u64;
        }

        fn remove_doc(&mut self, doc: DocId) {
            let Some(terms) = self.doc_terms.remove(&doc) else { return };
            for term in terms {
                if let Some(list) = self.postings.get_mut(&term) {
                    list.retain(|(d, _)| *d != doc);
                    if list.is_empty() {
                        self.postings.remove(&term);
                    }
                }
            }
            if let Some(len) = self.doc_len.remove(&doc) {
                self.total_len -= len as u64;
            }
        }

        fn search(&self, query: &str, k: usize) -> Vec<SearchHit> {
            let n = self.doc_len.len() as f32;
            if n == 0.0 {
                return Vec::new();
            }
            let avg = self.total_len as f32 / n;
            let mut scores: HashMap<DocId, f32> = HashMap::new();
            for tok in tokenize(query) {
                let Some(list) = self.postings.get(&tok.text) else { continue };
                let df = list.len() as f32;
                let idf = ((n - df + 0.5) / (df + 0.5) + 1.0).ln();
                for (doc, tf) in list {
                    let len = self.doc_len[doc] as f32;
                    let tf = *tf as f32;
                    let s = idf * (tf * (K1 + 1.0)) / (tf + K1 * (1.0 - B + B * len / avg));
                    *scores.entry(*doc).or_default() += s;
                }
            }
            let mut hits: Vec<SearchHit> =
                scores.into_iter().map(|(doc, score)| SearchHit { doc, score }).collect();
            hits.sort_by(|a, b| b.score.partial_cmp(&a.score).unwrap().then(a.doc.cmp(&b.doc)));
            hits.truncate(k);
            hits
        }
    }

    fn page(id: u64, text: &str) -> WebPage {
        WebPage {
            id: DocId(id),
            url: format!("synth://t/{id}"),
            title: String::new(),
            kind: PageKind::Noise,
            lang: "en".into(),
            quality: 0.5,
            last_modified: 0,
            infobox: Vec::new(),
            tables: Vec::new(),
            paragraphs: vec![text.to_owned()],
        }
    }

    /// An engine's contents with term ids read as their texts: every
    /// non-empty posting list, each indexed document's length and sorted
    /// term texts, `total_len` and `num_docs`. Engines that indexed the same
    /// pages agree on it however their term ids were handed out.
    #[allow(clippy::type_complexity)]
    fn structure(
        e: &SearchEngine,
    ) -> (BTreeMap<&str, &[(DocId, u32)]>, BTreeMap<DocId, (u32, Vec<&str>)>, u64, usize) {
        let mut text = vec![""; e.postings.len()];
        for (term, &id) in &e.term_ids {
            text[id as usize] = term;
        }
        let postings = (e.postings.iter().enumerate())
            .filter(|(_, list)| !list.is_empty())
            .map(|(id, list)| (text[id], list.as_slice()))
            .collect();
        let docs = (e.doc_terms.iter().enumerate())
            .filter_map(|(slot, terms)| {
                let mut terms: Vec<&str> =
                    terms.as_ref()?.iter().map(|&t| text[t as usize]).collect();
                terms.sort_unstable();
                Some((DocId(slot as u64), (e.doc_len[slot], terms)))
            })
            .collect();
        (postings, docs, e.total_len, e.num_docs)
    }

    /// A fresh engine over `pages` (id → text), indexed in id order.
    fn fresh(pages: &BTreeMap<u64, &str>) -> SearchEngine {
        let mut e = SearchEngine::default();
        for (&id, text) in pages {
            e.index_page(&page(id, text));
        }
        e
    }

    /// The invariants `index_page`'s merge relies on: every posting list
    /// strictly sorted by `DocId`, every term list strictly sorted and each
    /// of its terms listing the document, and an absent document of length
    /// 0.
    fn assert_invariants(e: &SearchEngine) {
        for list in &e.postings {
            assert!(list.windows(2).all(|w| w[0].0 < w[1].0), "{list:?}");
        }
        for (slot, (terms, &len)) in e.doc_terms.iter().zip(&e.doc_len).enumerate() {
            let doc = DocId(slot as u64);
            match terms {
                Some(terms) => {
                    assert!(terms.windows(2).all(|w| w[0] < w[1]), "{terms:?}");
                    for &t in terms {
                        let listed = e.postings[t as usize].binary_search_by_key(&doc, |&(d, _)| d);
                        assert!(listed.is_ok(), "{doc:?} term {t}");
                    }
                }
                None => assert_eq!(len, 0),
            }
        }
    }

    fn bits(hits: &[SearchHit]) -> Vec<(DocId, u32)> {
        hits.iter().map(|h| (h.doc, h.score.to_bits())).collect()
    }

    /// A few words drawn from a six-word vocabulary: identical pages (tied
    /// scores) and repeated tokens are the common case, not the corner.
    /// "zz" is never indexed; "." tokenizes to nothing.
    fn words(rng: &mut SplitMix64, vocab: &[&str], max: usize) -> String {
        saga_testkit::vec(rng, 0..max, |rng| vocab[rng.gen_range(0..vocab.len())]).join(" ")
    }
    const PAGE_VOCAB: &[&str] = &["a", "b", "c", "d", "e", "the"];
    const QUERY_VOCAB: &[&str] = &["a", "b", "c", "the", "zz", "."];

    /// Slots in this thread's query scratch.
    fn scratch_len() -> u64 {
        QUERY_SCRATCH.with(|s| s.borrow().scores.len() as u64)
    }

    /// Queries every case runs besides its random ones: a repeated token,
    /// an unknown term, and two that tokenize to nothing.
    const FIXED_QUERIES: [&str; 4] = ["a a the", "zz", "", "."];

    /// Any history of `index_page` (new page, replacement, empty page),
    /// over ids in random order, keeps every posting list strictly sorted
    /// by `DocId`, leaves the engine holding exactly what a fresh engine
    /// over the latest version of every page holds (postings by term text,
    /// document lengths, `total_len`, `num_docs`), and answering every
    /// query after every step exactly as the engine it replaced: same
    /// documents, same order, same score bits, same `num_docs`, for every
    /// `k` from 0 past the number of matches. On a six-word vocabulary most
    /// replacements drop a term, keep one at a new `tf` and add one;
    /// `a_replacement_drops_keeps_and_adds_terms` pins each case.
    ///
    /// The cases run in sequence on a thread of their own, so the query
    /// scratch starts empty and carries what every query left into the
    /// next, across index changes and cases. One page in sixteen takes an
    /// id at or just past the scratch's current length, so the next
    /// queries run right after the scratch had to grow.
    #[test]
    fn search_matches_the_reference_engine() {
        let cases = std::thread::spawn(|| {
            check(64, 1, |rng| {
                let history = saga_testkit::vec(rng, 1..40, |rng| {
                    let id = match rng.gen_range(0u32..16) {
                        0 => scratch_len() + rng.gen_range(0..3),
                        _ => rng.gen_range(0..12),
                    };
                    (id, words(rng, PAGE_VOCAB, 7))
                });
                let mut queries = saga_testkit::vec(rng, 1..4, |rng| words(rng, QUERY_VOCAB, 5));
                queries.extend(FIXED_QUERIES.map(str::to_owned));
                let (mut engine, mut reference) =
                    (SearchEngine::default(), ReferenceEngine::default());
                let mut latest = BTreeMap::new();
                for (step, (id, text)) in history.iter().enumerate() {
                    engine.index_page(&page(*id, text));
                    reference.index_page(&page(*id, text));
                    latest.insert(*id, text.as_str());
                    assert_eq!(engine.num_docs(), reference.num_docs(), "step {}", step);
                    assert_invariants(&engine);
                    let rebuilt = fresh(&latest);
                    assert_eq!(structure(&engine), structure(&rebuilt), "step {}", step);
                    for query in &queries {
                        for k in (0..=engine.num_docs() + 1).chain([usize::MAX]) {
                            assert_eq!(
                                bits(&engine.search(query, k)),
                                bits(&reference.search(query, k)),
                                "step {} query {:?} k {}",
                                step,
                                query,
                                k
                            );
                        }
                    }
                }
            });
            scratch_len()
        });
        let grown = cases.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        assert!(grown > 12, "no page took an id past the other steps' twelve: {grown}");
    }

    #[test]
    fn an_empty_page_is_an_indexed_document() {
        let (mut engine, mut reference) = (SearchEngine::default(), ReferenceEngine::default());
        let pages = [page(0, "alpha beta beta"), page(1, ""), page(2, "beta gamma")];
        for p in &pages {
            engine.index_page(p);
            reference.index_page(p);
        }
        // The empty page counts towards BM25's `n` and average length.
        assert_eq!((engine.num_docs(), engine.total_len), (3, 5));
        let hits = engine.search("beta gamma", 10);
        assert_eq!(hits.len(), 2);
        assert_eq!(bits(&hits), bits(&reference.search("beta gamma", 10)));
        // Re-indexing it neither double-counts nor loses it.
        engine.index_page(&pages[1]);
        assert_eq!((engine.num_docs(), engine.total_len), (3, 5));
    }

    #[test]
    fn a_replacement_drops_keeps_and_adds_terms() {
        let mut engine = SearchEngine::default();
        for (id, text) in [(0, "a b b c"), (1, "b c"), (2, "c d")] {
            engine.index_page(&page(id, text));
        }
        // Drops "a" (its list empties), keeps "b" at tf 2 → 1 and "c" at
        // 1 → 2, and adds "d" ahead of page 2 in its list.
        engine.index_page(&page(0, "b c c d"));
        assert_invariants(&engine);
        let got = structure(&engine);
        let pages = BTreeMap::from([(0, "b c c d"), (1, "b c"), (2, "c d")]);
        assert_eq!(got, structure(&fresh(&pages)));
        let (d0, d1, d2) = (DocId(0), DocId(1), DocId(2));
        assert!(!got.0.contains_key("a"));
        assert_eq!(got.0["b"], [(d0, 1), (d1, 1)]);
        assert_eq!(got.0["c"], [(d0, 2), (d1, 1), (d2, 1)]);
        assert_eq!(got.0["d"], [(d0, 1), (d2, 1)]);
        assert_eq!((got.2, got.3), (8, 3));
    }

    fn setup() -> (saga_core::synth::SynthKg, Corpus, SearchEngine) {
        let s = generate(&SynthConfig::tiny(111));
        let (c, _) = generate_corpus(&s, &[], &CorpusConfig::tiny(7));
        let e = SearchEngine::build(&c);
        (s, c, e)
    }

    #[test]
    fn search_finds_entity_profile_for_name_query() {
        let (s, c, e) = setup();
        let name = &s.kg.entity(s.scenario.benicio).name;
        let hits = e.search(&format!("{name} occupation"), 10);
        assert!(!hits.is_empty());
        let top_titles: Vec<&str> =
            hits.iter().take(3).map(|h| c.page(h.doc).title.as_str()).collect();
        assert!(
            top_titles.iter().any(|t| t.contains("Benicio")),
            "top hits {top_titles:?} must include the profile"
        );
    }

    #[test]
    fn scores_are_sorted_and_bounded() {
        let (_, _, e) = setup();
        let hits = e.search("the famous person", 50);
        assert!(hits.windows(2).all(|w| w[0].score >= w[1].score));
    }

    #[test]
    fn unknown_terms_yield_empty() {
        let (_, _, e) = setup();
        assert!(e.search("zzzqqqxxx", 10).is_empty());
        assert!(e.search("", 10).is_empty());
    }

    #[test]
    fn incremental_reindex_replaces_content() {
        let (_, mut c, mut e) = setup();
        let doc = c.pages[0].id;
        let before = e.search("xylophonearama", 5);
        assert!(before.is_empty());
        c.pages[0].paragraphs.push("A unique xylophonearama festival.".into());
        e.index_page(&c.pages[0]);
        let after = e.search("xylophonearama", 5);
        assert_eq!(after.len(), 1);
        assert_eq!(after[0].doc, doc);
        // Old content still searchable (page replaced, not duplicated).
        assert_eq!(e.num_docs(), c.len());
    }
}
