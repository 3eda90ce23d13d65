//! A BM25 web-search engine over the corpus — the "Web Search" box of the
//! ODKE pipeline (Fig. 5). Supports incremental reindexing of changed pages
//! so the annotation pipeline's change feed and the search index stay in
//! sync.
//!
//! Layout: terms are interned to dense `u32` ids on first sight, and
//! documents are addressed by [`DocId::index`] (ids are dense positions —
//! [`Corpus::page`] relies on the same), so the postings, the per-document
//! term lists and the document lengths are all `Vec`s. Indexing hashes each
//! token once to intern it and clones nothing; a query scores into a dense
//! array and sorts only the `k` hits it returns.

use crate::gen::Corpus;
use crate::page::WebPage;
use saga_core::text::tokenize;
use saga_core::DocId;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::HashMap;

const K1: f32 = 1.2;
const B: f32 = 0.75;

/// A search hit.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SearchEngine {
    /// term → dense term id. Ids are never reclaimed: a term whose last
    /// document was removed keeps an empty posting list.
    term_ids: HashMap<String, u32>,
    /// term id → postings (doc, term frequency), in indexing order.
    postings: Vec<Vec<(DocId, u32)>>,
    /// doc index → its distinct term ids (for incremental removal); `None` =
    /// not indexed. Presence lives here and not in `doc_len`: an indexed
    /// page without a single token has length 0 and still counts.
    doc_terms: Vec<Option<Vec<u32>>>,
    /// doc index → length in tokens.
    doc_len: Vec<u32>,
    /// Number of `Some` entries in `doc_terms`.
    num_docs: usize,
    total_len: u64,
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

    /// Adds or replaces a page in the index.
    pub fn index_page(&mut self, page: &WebPage) {
        self.remove_doc(page.id);
        let toks = tokenize(&page.full_text());
        let len = toks.len();
        let mut terms: Vec<u32> = Vec::with_capacity(len);
        for tok in toks {
            let id = match self.term_ids.get(&tok.text) {
                Some(&id) => id,
                None => {
                    let id = u32::try_from(self.postings.len()).expect("more than 2^32 terms");
                    self.term_ids.insert(tok.text, id);
                    self.postings.push(Vec::new());
                    id
                }
            };
            terms.push(id);
        }
        // Sorted, each run of equal ids is one term and its frequency.
        terms.sort_unstable();
        for run in terms.chunk_by(|a, b| a == b) {
            self.postings[run[0] as usize].push((page.id, run.len() as u32));
        }
        terms.dedup();
        let slot = page.id.index();
        if slot >= self.doc_terms.len() {
            self.doc_terms.resize(slot + 1, None);
            self.doc_len.resize(slot + 1, 0);
        }
        self.doc_terms[slot] = Some(terms);
        self.doc_len[slot] = len as u32;
        self.num_docs += 1;
        self.total_len += len as u64;
    }

    /// Removes a document from the index (no-op if absent).
    pub fn remove_doc(&mut self, doc: DocId) {
        let Some(terms) = self.doc_terms.get_mut(doc.index()).and_then(Option::take) else {
            return;
        };
        for term in terms {
            self.postings[term as usize].retain(|(d, _)| *d != doc);
        }
        self.total_len -= u64::from(std::mem::take(&mut self.doc_len[doc.index()]));
        self.num_docs -= 1;
    }

    fn avg_len(&self) -> f32 {
        if self.num_docs == 0 {
            0.0
        } else {
            self.total_len as f32 / self.num_docs as f32
        }
    }

    /// BM25 search; returns the top `k` documents.
    pub fn search(&self, query: &str, k: usize) -> Vec<SearchHit> {
        let n = self.num_docs as f32;
        if n == 0.0 {
            return Vec::new();
        }
        let avg = self.avg_len();
        // A document's score is the sum of its per-token contributions in
        // query-token order, starting from +0.0 — the order fixes the bits.
        let mut scores = vec![0.0f32; self.doc_len.len()];
        let mut seen = vec![false; self.doc_len.len()];
        let mut hits: Vec<SearchHit> = Vec::new();
        for tok in tokenize(query) {
            let list = self.term_ids.get(&tok.text).map(|&id| &self.postings[id as usize]);
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
                    hits.push(SearchHit { doc, score: 0.0 });
                }
            }
        }
        for hit in &mut hits {
            hit.score = scores[hit.doc.index()];
        }
        if k < hits.len() {
            hits.select_nth_unstable_by(k, rank);
            hits.truncate(k);
        }
        hits.sort_unstable_by(rank);
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate_corpus, CorpusConfig};
    use crate::page::PageKind;
    use proptest::prelude::*;
    use saga_core::synth::{generate, SynthConfig};

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

    fn bits(hits: &[SearchHit]) -> Vec<(DocId, u32)> {
        hits.iter().map(|h| (h.doc, h.score.to_bits())).collect()
    }

    /// A few words drawn from a six-word vocabulary: identical pages (tied
    /// scores) and repeated tokens are the common case, not the corner.
    /// "zz" is never indexed; "." tokenizes to nothing.
    fn words(vocab: &'static [&'static str], max: usize) -> impl Strategy<Value = String> {
        proptest::collection::vec(0..vocab.len(), 0..max)
            .prop_map(move |ws| ws.into_iter().map(|w| vocab[w]).collect::<Vec<_>>().join(" "))
    }
    const PAGE_VOCAB: &[&str] = &["a", "b", "c", "d", "e", "the"];
    const QUERY_VOCAB: &[&str] = &["a", "b", "c", "the", "zz", "."];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any history of `index_page` (new page, replacement, empty page)
        /// and `remove_doc` (present or absent) leaves the engine answering
        /// every query exactly as the engine it replaced: same documents,
        /// same order, same score bits, same `num_docs`, for every `k`.
        #[test]
        fn search_matches_the_reference_engine(
            history in proptest::collection::vec((0u64..12, any::<bool>(), words(PAGE_VOCAB, 7)), 1..40),
            queries in proptest::collection::vec(words(QUERY_VOCAB, 5), 1..6),
        ) {
            let (mut engine, mut reference) = (SearchEngine::default(), ReferenceEngine::default());
            for (step, (id, remove, text)) in history.iter().enumerate() {
                if *remove {
                    engine.remove_doc(DocId(*id));
                    reference.remove_doc(DocId(*id));
                } else {
                    engine.index_page(&page(*id, text));
                    reference.index_page(&page(*id, text));
                }
                prop_assert_eq!(engine.num_docs(), reference.num_docs(), "step {}", step);
                if step % 4 != 3 && step + 1 != history.len() {
                    continue;
                }
                for query in &queries {
                    for k in [0, 1, 5, 50, usize::MAX] {
                        prop_assert_eq!(
                            bits(&engine.search(query, k)),
                            bits(&reference.search(query, k)),
                            "step {} query {:?} k {}", step, query, k
                        );
                    }
                }
            }
        }
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
        // Re-indexing it neither double-counts nor loses it...
        engine.index_page(&pages[1]);
        assert_eq!((engine.num_docs(), engine.total_len), (3, 5));
        // ...and removing it removes exactly one document and no tokens.
        engine.remove_doc(DocId(1));
        reference.remove_doc(DocId(1));
        assert_eq!((engine.num_docs(), engine.total_len), (2, 5));
        assert_eq!(
            bits(&engine.search("beta gamma", 10)),
            bits(&reference.search("beta gamma", 10))
        );
        engine.remove_doc(DocId(1));
        assert_eq!(engine.num_docs(), 2);
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

    #[test]
    fn remove_doc_purges_postings() {
        let (_, c, mut e) = setup();
        let doc = c.pages[0].id;
        e.remove_doc(doc);
        assert_eq!(e.num_docs(), c.len() - 1);
        let hits = e.search(&c.pages[0].title, 50);
        assert!(hits.iter().all(|h| h.doc != doc));
        // Removing again is a no-op.
        e.remove_doc(doc);
        assert_eq!(e.num_docs(), c.len() - 1);
    }
}
