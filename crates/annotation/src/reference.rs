//! The annotation path as it was before the pass reused buffers: owned
//! tokens, a fresh match list, a copied form and candidate list per
//! mention and per link, and a context vector, a sorted score list and a
//! hash per window token per mention. Kept as the oracle the
//! buffer-reusing path is tested against.

use crate::alias::{AliasTable, Candidate};
use crate::automaton::{PhraseAutomaton, PhraseMatch};
use crate::linker::{coherence, LinkedMention, LinkerConfig, Tier};
use crate::mention::Mention;
use saga_ann::EmbeddingCache;
use saga_core::kernels;
use saga_core::text::{hash_embed, tokenize, Token};
use saga_core::EntityId;
use saga_embeddings::TrainedModel;
use std::sync::Arc;

/// A mention that owns its form and candidates.
#[derive(Debug, Clone)]
pub(crate) struct OwnedMention {
    pub start: usize,
    pub end: usize,
    pub start_tok: usize,
    pub end_tok: usize,
    pub form: Arc<str>,
    pub candidates: Vec<Candidate>,
}

impl OwnedMention {
    /// The same mention, borrowing from `self`.
    pub fn borrowed(&self) -> Mention<'_> {
        Mention {
            start: self.start,
            end: self.end,
            start_tok: self.start_tok,
            end_tok: self.end_tok,
            form: &self.form,
            candidates: &self.candidates,
        }
    }
}

/// Every pattern occurrence, collected into a new vector.
fn scan(automaton: &PhraseAutomaton, tokens: &[&str]) -> Vec<PhraseMatch> {
    let mut out = Vec::new();
    automaton.scan(tokens, &mut out);
    out
}

/// Leftmost-longest selection by a stable sort into a new vector.
fn leftmost_longest(mut matches: Vec<PhraseMatch>) -> Vec<PhraseMatch> {
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

/// Tokenizes `text` into owned tokens and detects its mentions.
pub(crate) fn detect_mentions(
    text: &str,
    automaton: &PhraseAutomaton,
    pattern_forms: &[Arc<str>],
    aliases: &AliasTable,
) -> (Vec<OwnedMention>, Vec<Token>) {
    let tokens = tokenize(text);
    let token_strs: Vec<&str> = tokens.iter().map(|t| t.text.as_str()).collect();
    let mentions = leftmost_longest(scan(automaton, &token_strs))
        .into_iter()
        .map(|m| {
            let form = &pattern_forms[m.pattern as usize];
            OwnedMention {
                start: tokens[m.start_tok].start,
                end: tokens[m.end_tok - 1].end,
                start_tok: m.start_tok,
                end_tok: m.end_tok,
                form: Arc::from(&**form),
                candidates: aliases.candidates(form).to_vec(),
            }
        })
        .collect();
    (mentions, tokens)
}

/// Merges delta-automaton mentions into the main list, preferring longer
/// spans on overlap, keeping start order.
pub(crate) fn merge_mentions(main: &mut Vec<OwnedMention>, extra: Vec<OwnedMention>) {
    for m in extra {
        let overlaps: Vec<usize> = main
            .iter()
            .enumerate()
            .filter(|(_, x)| m.start < x.end && x.start < m.end)
            .map(|(i, _)| i)
            .collect();
        if overlaps.is_empty() {
            main.push(m);
        } else if overlaps.iter().all(|&i| (main[i].end - main[i].start) < (m.end - m.start)) {
            for &i in overlaps.iter().rev() {
                main.remove(i);
            }
            main.push(m);
        }
    }
    main.sort_by_key(|m| m.start);
}

/// The context embedding with every window token hashed again.
pub(crate) fn context_embedding(
    tokens: &[Token],
    mention: &OwnedMention,
    window: usize,
    dim: usize,
) -> Vec<f32> {
    let lo = mention.start_tok.saturating_sub(window);
    let hi = (mention.end_tok + window).min(tokens.len());
    let ctx: Vec<&str> = tokens[lo..mention.start_tok]
        .iter()
        .chain(&tokens[mention.end_tok..hi])
        .map(|t| t.text.as_str())
        .collect();
    hash_embed(&ctx, dim)
}

/// The linker over owned tokens and mentions.
pub(crate) fn link_mentions(
    mentions: &[OwnedMention],
    tokens: &[Token],
    cfg: &LinkerConfig,
    features: &EmbeddingCache,
    kge: Option<&TrainedModel>,
) -> Vec<LinkedMention> {
    let anchors: Vec<EntityId> = mentions
        .iter()
        .filter(|m| m.candidates.len() == 1)
        .map(|m| m.candidates[0].entity)
        .collect();
    let mut out = Vec::new();
    for m in mentions {
        if m.candidates.is_empty() {
            continue;
        }
        let ctx = if cfg.tier >= Tier::T2Contextual {
            let emb = context_embedding(tokens, m, cfg.context_window, cfg.feature_dim);
            let norm = kernels::l2_norm(&emb);
            Some((emb, norm))
        } else {
            None
        };
        let mut scored: Vec<(EntityId, f32)> = m
            .candidates
            .iter()
            .map(|c| {
                let mut score = cfg.w_name * c.name_prior;
                if cfg.tier >= Tier::T1Popularity {
                    score += cfg.w_popularity * c.popularity;
                }
                if let Some((ctx, ctx_norm)) = &ctx {
                    if let Some(sim) = features
                        .with(c.entity.raw(), |feat| kernels::cosine_qnorm(ctx, *ctx_norm, feat))
                    {
                        score += cfg.w_context * sim.max(0.0);
                    }
                    if let Some(model) = kge {
                        score += cfg.w_coherence * coherence(model, c.entity, &anchors);
                    }
                }
                (c.entity, score)
            })
            .collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        let (entity, score) = scored[0];
        if score < cfg.min_score {
            continue;
        }
        out.push(LinkedMention {
            start: m.start,
            end: m.end,
            form: Arc::from(&*m.form),
            entity,
            score,
        });
    }
    out
}

/// Every field of a linked mention, the score as bits.
pub(crate) type LinkBits = (usize, usize, String, EntityId, u32);

/// [`LinkBits`] of every link, in order.
pub(crate) fn link_bits(links: &[LinkedMention]) -> Vec<LinkBits> {
    links
        .iter()
        .map(|l| (l.start, l.end, l.form.to_string(), l.entity, l.score.to_bits()))
        .collect()
}
