//! Mention detection: locating alias-table phrases in tokenized text.
//!
//! Cost model: detection allocates nothing once its buffers are warm. The
//! automaton writes its matches into a reused buffer, leftmost-longest
//! selection compacts them in place, and a [`Mention`] borrows its form
//! from the automaton's pattern list and its candidates from the alias
//! table, so a mention costs no copy of either. A linked mention shares
//! its form: the linker clones the pattern's `Arc`, which counts a
//! reference and copies no text.

use crate::alias::{AliasTable, Candidate};
use crate::automaton::{leftmost_longest, PhraseAutomaton, PhraseMatch};
use saga_core::text::TokenBuf;
use std::sync::Arc;

/// A detected mention with its candidate entities (unresolved), borrowing
/// its form and candidates from the tables it was detected with.
#[derive(Debug, Clone, Copy)]
pub struct Mention<'a> {
    /// Byte offset of the mention start in the source text.
    pub start: usize,
    /// Byte offset one past the end.
    pub end: usize,
    /// Token index range (for context windows).
    pub start_tok: usize,
    /// Exclusive end token index.
    pub end_tok: usize,
    /// Normalized surface form, the automaton's pattern form.
    pub form: &'a Arc<str>,
    /// Candidate entities from the alias table.
    pub candidates: &'a [Candidate],
}

/// Detects mentions in a tokenized text (see
/// [`saga_core::text::tokenize_into`]) using a compiled automaton, writing
/// the leftmost-longest non-overlapping mentions into `out` (replacing its
/// contents); `matches` is the automaton's scratch buffer. The same tokens
/// then feed the linker's context features.
pub fn detect_mentions<'a>(
    tokens: &TokenBuf,
    automaton: &PhraseAutomaton,
    pattern_forms: &'a [Arc<str>],
    aliases: &'a AliasTable,
    matches: &mut Vec<PhraseMatch>,
    out: &mut Vec<Mention<'a>>,
) {
    automaton.scan(tokens.texts(), matches);
    leftmost_longest(matches);
    out.clear();
    out.extend(matches.iter().map(|m| {
        let form = &pattern_forms[m.pattern as usize];
        Mention {
            start: tokens.start(m.start_tok),
            end: tokens.end(m.end_tok - 1),
            start_tok: m.start_tok,
            end_tok: m.end_tok,
            form,
            candidates: aliases.candidates(form),
        }
    }));
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use saga_core::synth::{generate, SynthConfig};

    fn detect<'a>(
        tokens: &TokenBuf,
        a: &PhraseAutomaton,
        forms: &'a [Arc<str>],
        table: &'a AliasTable,
    ) -> Vec<Mention<'a>> {
        let mut out = Vec::new();
        detect_mentions(tokens, a, forms, table, &mut Vec::new(), &mut out);
        out
    }

    #[test]
    fn detects_names_with_byte_spans() {
        let s = generate(&SynthConfig::tiny(141));
        let table = AliasTable::build(&s.kg);
        let (a, forms) = table.compile();
        let text = "Fans say Michael Jordan dominates; see MJ highlights.";
        let mentions = detect(&TokenBuf::of(text), &a, &forms, &table);
        assert!(mentions.len() >= 2);
        let mj = &mentions[0];
        assert_eq!(&text[mj.start..mj.end], "Michael Jordan");
        assert_eq!(&**mj.form, "michael jordan");
        assert_eq!(mj.candidates.len(), 2);
        let alias = mentions.iter().find(|m| &**m.form == "mj").expect("alias detected");
        assert_eq!(&text[alias.start..alias.end], "MJ");
    }

    #[test]
    fn no_candidates_for_plain_text() {
        let s = generate(&SynthConfig::tiny(141));
        let table = AliasTable::build(&s.kg);
        let (a, forms) = table.compile();
        let toks = TokenBuf::of("nothing relevant here whatsoever");
        let mentions = detect(&toks, &a, &forms, &table);
        assert!(mentions.is_empty());
        assert_eq!(toks.len(), 4);
    }

    #[test]
    fn diacritics_fold_into_matches() {
        let s = generate(&SynthConfig::tiny(141));
        let table = AliasTable::build(&s.kg);
        let (a, forms) = table.compile();
        // "Benicio del Toro" with stylized accents still matches.
        let text = "Benício del Toro stars tonight";
        let mentions = detect(&TokenBuf::of(text), &a, &forms, &table);
        assert!(mentions.iter().any(|m| &**m.form == "benicio del toro"));
    }
}
