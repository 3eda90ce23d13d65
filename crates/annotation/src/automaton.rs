//! Token-level Aho-Corasick automaton for multi-phrase matching.
//!
//! Mention detection must scan billions of pages (paper Sec. 3.1), so the
//! alias dictionary is compiled once into an automaton and each document is
//! matched in a single pass over its tokens. We match on *token sequences*
//! (not characters): aliases are normalized token lists, which makes
//! matching robust to case, punctuation and diacritics for free.

use std::collections::HashMap;

/// Identifier of a pattern (an alias phrase) in the automaton.
pub type PatternId = u32;

/// A match: tokens `[start_tok, end_tok)` matched pattern `pattern`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhraseMatch {
    /// Matched pattern id.
    pub pattern: PatternId,
    /// First token index of the match.
    pub start_tok: usize,
    /// Exclusive end token index.
    pub end_tok: usize,
}

#[derive(Debug, Clone, Default)]
struct Node {
    /// Transitions on token symbols.
    next: HashMap<u32, u32>,
    /// Failure link.
    fail: u32,
    /// Patterns ending at this node.
    output: Vec<PatternId>,
    /// Depth = number of tokens consumed to reach this node.
    depth: u32,
}

/// The compiled automaton. Token strings are interned to symbols; unknown
/// tokens can never match and short-circuit to the root.
#[derive(Debug, Clone)]
pub struct PhraseAutomaton {
    nodes: Vec<Node>,
    vocab: HashMap<String, u32>,
    /// Length (in tokens) of each pattern.
    pattern_len: Vec<u32>,
    built: bool,
}

impl Default for PhraseAutomaton {
    fn default() -> Self {
        Self::new()
    }
}

impl PhraseAutomaton {
    /// Creates an empty automaton.
    pub fn new() -> Self {
        Self {
            nodes: vec![Node::default()],
            vocab: HashMap::new(),
            pattern_len: Vec::new(),
            built: false,
        }
    }

    /// Adds a pattern (a normalized token sequence), returning its id.
    /// Must be called before [`build`](Self::build).
    ///
    /// # Panics
    /// Panics if called after `build`, or with an empty pattern.
    pub fn add_pattern(&mut self, tokens: &[&str]) -> PatternId {
        assert!(!self.built, "cannot add patterns after build()");
        assert!(!tokens.is_empty(), "empty pattern");
        let id = self.pattern_len.len() as PatternId;
        self.pattern_len.push(tokens.len() as u32);
        let mut cur = 0u32;
        for tok in tokens {
            let next_vocab = self.vocab.len() as u32;
            let sym = *self.vocab.entry((*tok).to_owned()).or_insert(next_vocab);
            let depth = self.nodes[cur as usize].depth + 1;
            cur = match self.nodes[cur as usize].next.get(&sym) {
                Some(&n) => n,
                None => {
                    let n = self.nodes.len() as u32;
                    self.nodes.push(Node { depth, ..Node::default() });
                    self.nodes[cur as usize].next.insert(sym, n);
                    n
                }
            };
        }
        self.nodes[cur as usize].output.push(id);
        id
    }

    /// Compiles failure links (BFS). Idempotent.
    pub fn build(&mut self) {
        if self.built {
            return;
        }
        let mut queue = std::collections::VecDeque::new();
        let root_children: Vec<(u32, u32)> =
            self.nodes[0].next.iter().map(|(&s, &n)| (s, n)).collect();
        for (_, n) in &root_children {
            self.nodes[*n as usize].fail = 0;
            queue.push_back(*n);
        }
        while let Some(u) = queue.pop_front() {
            let transitions: Vec<(u32, u32)> =
                self.nodes[u as usize].next.iter().map(|(&s, &n)| (s, n)).collect();
            for (sym, v) in transitions {
                // Find the failure target for v.
                let mut f = self.nodes[u as usize].fail;
                let fail_v = loop {
                    if let Some(&w) = self.nodes[f as usize].next.get(&sym) {
                        if w != v {
                            break w;
                        }
                    }
                    if f == 0 {
                        break 0;
                    }
                    f = self.nodes[f as usize].fail;
                };
                self.nodes[v as usize].fail = fail_v;
                let inherited = self.nodes[fail_v as usize].output.clone();
                self.nodes[v as usize].output.extend(inherited);
                queue.push_back(v);
            }
        }
        self.built = true;
    }

    /// Scans a token sequence, writing every pattern occurrence into `out`
    /// (replacing its contents): a pass reuses one match buffer for every
    /// document.
    ///
    /// # Panics
    /// Panics (debug) if called before `build`.
    pub fn scan<I>(&self, tokens: I, out: &mut Vec<PhraseMatch>)
    where
        I: IntoIterator,
        I::Item: AsRef<str>,
    {
        debug_assert!(self.built, "scan before build()");
        out.clear();
        let mut state = 0u32;
        for (i, tok) in tokens.into_iter().enumerate() {
            let sym = match self.vocab.get(tok.as_ref()) {
                Some(&s) => s,
                None => {
                    state = 0;
                    continue;
                }
            };
            loop {
                if let Some(&n) = self.nodes[state as usize].next.get(&sym) {
                    state = n;
                    break;
                }
                if state == 0 {
                    break;
                }
                state = self.nodes[state as usize].fail;
            }
            for &pat in &self.nodes[state as usize].output {
                let len = self.pattern_len[pat as usize] as usize;
                out.push(PhraseMatch { pattern: pat, start_tok: i + 1 - len, end_tok: i + 1 });
            }
        }
    }
}

/// Keeps only the leftmost-longest non-overlapping matches, in place
/// (standard mention-detection policy; prefers "Michael Jordan" over
/// "Michael" + "Jordan").
///
/// The order is `(start, longest first, pattern)`: a span occurs once per
/// pattern, so the order is total and an unstable sort gives the order a
/// stable sort of [`PhraseAutomaton::scan`]'s output by span would (it
/// lists one span's patterns in id order).
pub fn leftmost_longest(matches: &mut Vec<PhraseMatch>) {
    matches.sort_unstable_by_key(|m| (m.start_tok, std::cmp::Reverse(m.end_tok), m.pattern));
    let mut kept = 0;
    for i in 0..matches.len() {
        // A match overlapping the last kept one is dropped: it starts
        // inside it, or at its start but shorter.
        if kept > 0 && matches[i].start_tok < matches[kept - 1].end_tok {
            continue;
        }
        matches[kept] = matches[i];
        kept += 1;
    }
    matches.truncate(kept);
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn scan(a: &PhraseAutomaton, tokens: &[&str]) -> Vec<PhraseMatch> {
        let mut out = vec![PhraseMatch { pattern: 9, start_tok: 9, end_tok: 9 }];
        a.scan(tokens, &mut out);
        out
    }

    fn build(patterns: &[&[&str]]) -> PhraseAutomaton {
        let mut a = PhraseAutomaton::new();
        for p in patterns {
            a.add_pattern(p);
        }
        a.build();
        a
    }

    #[test]
    fn single_token_patterns() {
        let a = build(&[&["jordan"], &["chicago"]]);
        let ms = scan(&a, &["michael", "jordan", "of", "chicago"]);
        assert_eq!(ms.len(), 2);
        assert_eq!(ms[0], PhraseMatch { pattern: 0, start_tok: 1, end_tok: 2 });
        assert_eq!(ms[1], PhraseMatch { pattern: 1, start_tok: 3, end_tok: 4 });
    }

    #[test]
    fn multi_token_and_nested_patterns() {
        let a = build(&[&["michael", "jordan"], &["jordan"], &["michael", "jordan", "stats"]]);
        let ms = scan(&a, &["michael", "jordan", "stats"]);
        // "michael jordan" at [0,2), "jordan" at [1,2), "michael jordan stats" at [0,3)
        assert!(ms.contains(&PhraseMatch { pattern: 0, start_tok: 0, end_tok: 2 }));
        assert!(ms.contains(&PhraseMatch { pattern: 1, start_tok: 1, end_tok: 2 }));
        assert!(ms.contains(&PhraseMatch { pattern: 2, start_tok: 0, end_tok: 3 }));
    }

    #[test]
    fn failure_links_cross_pattern_boundaries() {
        // After reading "a b", seeing "b c" should still match pattern "b c".
        let a = build(&[&["a", "b"], &["b", "c"]]);
        let ms = scan(&a, &["a", "b", "c"]);
        assert!(ms.contains(&PhraseMatch { pattern: 0, start_tok: 0, end_tok: 2 }));
        assert!(ms.contains(&PhraseMatch { pattern: 1, start_tok: 1, end_tok: 3 }));
    }

    #[test]
    fn unknown_tokens_reset_state() {
        let a = build(&[&["new", "york", "city"]]);
        let ms = scan(&a, &["new", "york", "zebra", "city"]);
        assert!(ms.is_empty());
        let ms = scan(&a, &["visit", "new", "york", "city", "today"]);
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].start_tok, 1);
    }

    #[test]
    fn leftmost_longest_policy() {
        let a = build(&[&["michael"], &["michael", "jordan"], &["jordan"]]);
        let mut ms = scan(&a, &["michael", "jordan", "rules"]);
        leftmost_longest(&mut ms);
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].end_tok - ms[0].start_tok, 2, "longest match wins");
        assert_eq!(ms[0].pattern, 1);
    }

    /// `leftmost_longest` as it was: a stable sort by span of a consumed
    /// vector, and a fresh output vector.
    fn reference_leftmost_longest(mut matches: Vec<PhraseMatch>) -> Vec<PhraseMatch> {
        matches.sort_by_key(|m| (m.start_tok, std::cmp::Reverse(m.end_tok)));
        let mut out: Vec<PhraseMatch> = Vec::new();
        for m in matches {
            match out.last() {
                Some(prev) if m.start_tok < prev.end_tok => {}
                _ => out.push(m),
            }
        }
        out
    }

    #[test]
    fn in_place_leftmost_longest_matches_the_reference() {
        // Patterns 1 and 3 are the same phrase: one span, two patterns.
        let a = build(&[&["a"], &["a", "b"], &["b", "c", "a"], &["a", "b"], &["c"], &["b"]]);
        for text in
            [&["a", "b", "c", "a", "b", "a"][..], &["c", "c", "a"], &["b", "c", "a", "b"], &[]]
        {
            let mut got = scan(&a, text);
            let want = reference_leftmost_longest(got.clone());
            leftmost_longest(&mut got);
            assert_eq!(got, want, "{text:?}");
        }
    }

    #[test]
    fn repeated_occurrences_all_found() {
        let a = build(&[&["tim"]]);
        let ms = scan(&a, &["tim", "called", "tim", "about", "tim"]);
        assert_eq!(ms.len(), 3);
    }

    #[test]
    fn scan_against_naive_reference() {
        // Property-style check on a fixed corpus: automaton ≡ naive search.
        let patterns: Vec<Vec<&str>> =
            vec![vec!["a"], vec!["a", "b"], vec!["b", "a"], vec!["a", "b", "a"], vec!["c"]];
        let mut a = PhraseAutomaton::new();
        for p in &patterns {
            a.add_pattern(p);
        }
        a.build();
        let text: Vec<&str> = "a b a b a c a b c b a".split(' ').collect();
        let mut expected = Vec::new();
        for (pid, p) in patterns.iter().enumerate() {
            for start in 0..text.len() {
                if start + p.len() <= text.len() && &text[start..start + p.len()] == p.as_slice() {
                    expected.push(PhraseMatch {
                        pattern: pid as u32,
                        start_tok: start,
                        end_tok: start + p.len(),
                    });
                }
            }
        }
        let mut got = scan(&a, &text);
        let key = |m: &PhraseMatch| (m.start_tok, m.end_tok, m.pattern);
        got.sort_by_key(key);
        expected.sort_by_key(key);
        assert_eq!(got, expected);
    }
}
