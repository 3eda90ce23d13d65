//! Entity linking: scoring mention candidates with lexical, popularity and
//! contextual signals.
//!
//! The tiers implement the paper's price/performance knob (Sec. 3.2): T0 is
//! the cheapest lexical-only deployment, T1 adds the popularity prior, T2
//! adds contextual reranking against precomputed entity embeddings (the
//! "Michael Jordan stats" vs "Michael Jordan students" disambiguation of
//! Fig. 2), and graph-embedding coherence with co-mentioned entities.
//!
//! Cost model: linking allocates only what it outputs — the
//! [`LinkedMention`] vector. A linked mention owns no heap memory: its form
//! is the automaton's shared pattern form, and only the best candidate is
//! kept. Everything else lives in a [`LinkScratch`] that a pass reuses from
//! document to document.
//!
//! A T2 context vector is the hashed bag of the tokens in a window around
//! the mention. Windows of neighbouring mentions overlap — on a page of a
//! few dozen tokens with a dozen mentions most tokens sit in a dozen
//! windows — so [`link_mentions`] keeps one `(dimension, sign)` slot per
//! token of the document, computed on first need, and each mention sums its
//! window's slots in the order [`saga_core::text::hash_embed`] would: the
//! same bits for one hash per token.

use crate::mention::Mention;
use saga_ann::EmbeddingCache;
use saga_core::kernels;
use saga_core::text::{embed_slots_into, hash_slot, TokenBuf};
use saga_core::EntityId;
use saga_embeddings::TrainedModel;
use std::sync::Arc;

/// Deployment tier of the linker (cheap → expensive).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// Lexical match only.
    T0Lexical,
    /// + popularity prior.
    T1Popularity,
    /// + contextual reranking (cached text-feature embeddings) and optional
    ///   graph-embedding coherence.
    T2Contextual,
}

/// Linker configuration.
#[derive(Debug, Clone)]
pub struct LinkerConfig {
    /// Deployment tier.
    pub tier: Tier,
    /// Tokens of context on each side of a mention.
    pub context_window: usize,
    /// Feature-embedding dimension (must match the cache contents).
    pub feature_dim: usize,
    /// Minimum score for a link to be emitted.
    pub min_score: f32,
    /// Weight of the lexical name-match feature.
    pub w_name: f32,
    /// Weight of the popularity prior.
    pub w_popularity: f32,
    /// Weight of the context-embedding similarity.
    pub w_context: f32,
    /// Weight of the graph-coherence feature.
    pub w_coherence: f32,
}

impl Default for LinkerConfig {
    fn default() -> Self {
        Self {
            tier: Tier::T2Contextual,
            context_window: 12,
            feature_dim: 96,
            min_score: 0.2,
            w_name: 1.0,
            w_popularity: 0.4,
            w_context: 1.2,
            w_coherence: 0.6,
        }
    }
}

impl LinkerConfig {
    /// Config for a given tier with default weights.
    pub fn tier(tier: Tier) -> Self {
        Self { tier, ..Self::default() }
    }

    /// A distilled T2 deployment: contextual reranking with a compressed
    /// feature space (paper Sec. 3.2: "model distillation and compression
    /// techniques that can target different hardware ... to meet different
    /// price/performance SLAs"). Smaller cache, cheaper query embedding,
    /// slightly lower quality.
    pub fn distilled() -> Self {
        Self { tier: Tier::T2Contextual, feature_dim: 32, ..Self::default() }
    }
}

/// A resolved mention: the best-scoring candidate of a detected mention.
/// It owns no heap memory, so cloning one copies no text.
#[derive(Debug, Clone)]
pub struct LinkedMention {
    /// Byte offset of the span start.
    pub start: usize,
    /// Byte offset one past the span end.
    pub end: usize,
    /// Normalized surface form, shared with the automaton that detected
    /// the mention.
    pub form: Arc<str>,
    /// The entity concerned.
    pub entity: EntityId,
    /// Score; higher is better.
    pub score: f32,
}

/// The linker's reusable buffers: every token's hash slot, the context
/// vector and the coherence anchors. Contents never carry from one
/// [`link_mentions`] call to the next.
#[derive(Debug, Default)]
pub struct LinkScratch {
    /// Each token's `(dimension, sign)` for this document, filled on first
    /// need.
    slots: Vec<Option<(usize, f32)>>,
    ctx: Vec<f32>,
    anchors: Vec<EntityId>,
}

impl LinkScratch {
    /// Empty buffers; they grow to the largest document linked with them.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes the hashed bag of window tokens around (but not inside)
    /// `mention` into the context vector and returns it.
    fn context(
        &mut self,
        tokens: &TokenBuf,
        mention: &Mention<'_>,
        window: usize,
        dim: usize,
    ) -> &[f32] {
        let lo = mention.start_tok.saturating_sub(window);
        let hi = (mention.end_tok + window).min(tokens.len());
        let slots = &mut self.slots;
        let window = (lo..mention.start_tok).chain(mention.end_tok..hi);
        embed_slots_into(
            window.map(|i| *slots[i].get_or_insert_with(|| hash_slot(tokens.text(i), dim))),
            dim,
            &mut self.ctx,
        );
        &self.ctx
    }
}

/// Links the mentions of one document, reusing `scratch`'s buffers.
///
/// `features` must hold each candidate entity's precomputed text-feature
/// embedding (see [`crate::service::AnnotationService::build`]). `kge` adds
/// graph-coherence scoring at T2 when provided.
pub fn link_mentions(
    mentions: &[Mention<'_>],
    tokens: &TokenBuf,
    cfg: &LinkerConfig,
    features: &EmbeddingCache,
    kge: Option<&TrainedModel>,
    scratch: &mut LinkScratch,
) -> Vec<LinkedMention> {
    // First pass: anchor entities = top-popularity candidate of every
    // unambiguous mention (used for coherence scoring).
    scratch.anchors.clear();
    scratch.anchors.extend(
        mentions.iter().filter(|m| m.candidates.len() == 1).map(|m| m.candidates[0].entity),
    );
    let contextual = cfg.tier >= Tier::T2Contextual;
    if contextual {
        scratch.slots.clear();
        scratch.slots.resize(tokens.len(), None);
    }
    // Sized once: at most one link per mention.
    let mut out = Vec::with_capacity(mentions.len());
    for m in mentions {
        if m.candidates.is_empty() {
            continue;
        }
        // The mention's context embedding is scored against every
        // candidate's cached feature embedding, so its norm is computed
        // once and each candidate is scored in place against the cache
        // entry (no per-candidate clone).
        let ctx = contextual.then(|| {
            let emb = scratch.context(tokens, m, cfg.context_window, cfg.feature_dim);
            kernels::l2_norm(emb)
        });
        let LinkScratch { ctx: emb, anchors, .. } = &mut *scratch;
        let scored = m.candidates.iter().map(|c| {
            let mut score = cfg.w_name * c.name_prior;
            if cfg.tier >= Tier::T1Popularity {
                score += cfg.w_popularity * c.popularity;
            }
            if let Some(ctx_norm) = ctx {
                if let Some(sim) =
                    features.with(c.entity.raw(), |feat| kernels::cosine_qnorm(emb, ctx_norm, feat))
                {
                    score += cfg.w_context * sim.max(0.0);
                }
                if let Some(model) = kge {
                    score += cfg.w_coherence * coherence(model, c.entity, anchors);
                }
            }
            (c.entity, score)
        });
        // Highest score first, ties to the lower entity id. A form lists an
        // entity once, so the order is total and the best is unique.
        let (entity, score) = scored
            .min_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)))
            .expect("a mention with no candidate was skipped");
        if score < cfg.min_score {
            continue;
        }
        out.push(LinkedMention {
            start: m.start,
            end: m.end,
            form: Arc::clone(m.form),
            entity,
            score,
        });
    }
    out
}

/// Mean cosine similarity between `entity`'s graph embedding and the
/// anchors' embeddings (0 when unavailable).
pub(crate) fn coherence(model: &TrainedModel, entity: EntityId, anchors: &[EntityId]) -> f32 {
    let Some(e) = model.entity_embedding(entity) else { return 0.0 };
    let e_norm = kernels::l2_norm(e);
    let mut sum = 0.0f32;
    let mut n = 0usize;
    for &a in anchors {
        if a == entity {
            continue;
        }
        if let Some(av) = model.entity_embedding(a) {
            sum += kernels::cosine_qnorm(e, e_norm, av).max(0.0);
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f32
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::alias::AliasTable;
    use crate::automaton::PhraseAutomaton;
    use crate::mention::detect_mentions;
    use crate::reference;
    use crate::service::entity_feature_embedding;
    use saga_core::synth::{generate, SynthConfig};
    use saga_core::text::hash_embed;

    /// Tokenizes, detects and links, as the service does, with fresh
    /// buffers.
    fn link(
        text: &str,
        a: &PhraseAutomaton,
        forms: &[Arc<str>],
        table: &AliasTable,
        cfg: &LinkerConfig,
        features: &EmbeddingCache,
    ) -> Vec<LinkedMention> {
        let toks = TokenBuf::of(text);
        let mut mentions = Vec::new();
        detect_mentions(&toks, a, forms, table, &mut Vec::new(), &mut mentions);
        link_mentions(&mentions, &toks, cfg, features, None, &mut LinkScratch::new())
    }

    fn features_for(kg: &saga_core::KnowledgeGraph, dim: usize) -> EmbeddingCache {
        let cache = EmbeddingCache::new();
        for e in kg.entities() {
            cache.put(e.id.raw(), entity_feature_embedding(kg, e.id, dim));
        }
        cache
    }

    #[test]
    fn t2_contextual_disambiguates_michael_jordan() {
        let s = generate(&SynthConfig::tiny(151));
        let table = AliasTable::build(&s.kg);
        let (a, forms) = table.compile();
        let cfg = LinkerConfig::tier(Tier::T2Contextual);
        let features = features_for(&s.kg, cfg.feature_dim);

        let basketball = "Michael Jordan the basketball player won another championship ring.";
        let l1 = link(basketball, &a, &forms, &table, &cfg, &features);
        let link1 = l1.iter().find(|l| &*l.form == "michael jordan").unwrap();
        assert_eq!(link1.entity, s.scenario.mj_player, "basketball context → player");

        let academia = "Michael Jordan published new machine learning and statistics research with his professor colleagues.";
        let l2 = link(academia, &a, &forms, &table, &cfg, &features);
        let link2 = l2.iter().find(|l| &*l.form == "michael jordan").unwrap();
        assert_eq!(link2.entity, s.scenario.mj_professor, "academic context → professor");
    }

    #[test]
    fn t1_always_picks_popularity() {
        let s = generate(&SynthConfig::tiny(151));
        let table = AliasTable::build(&s.kg);
        let (a, forms) = table.compile();
        let cfg = LinkerConfig::tier(Tier::T1Popularity);
        let features = EmbeddingCache::new();
        // Even in academic context, T1 picks the (more popular) player.
        let academia = "Michael Jordan published machine learning research.";
        let l = link(academia, &a, &forms, &table, &cfg, &features);
        let link = l.iter().find(|l| &*l.form == "michael jordan").unwrap();
        assert_eq!(link.entity, s.scenario.mj_player);
        assert!(table.candidates("michael jordan").len() > 1, "the mention is ambiguous");
    }

    #[test]
    fn min_score_suppresses_weak_links() {
        let s = generate(&SynthConfig::tiny(151));
        let table = AliasTable::build(&s.kg);
        let (a, forms) = table.compile();
        let mut cfg = LinkerConfig::tier(Tier::T0Lexical);
        cfg.min_score = 100.0;
        let features = EmbeddingCache::new();
        assert!(link("Michael Jordan plays.", &a, &forms, &table, &cfg, &features).is_empty());
    }

    #[test]
    fn context_embedding_excludes_mention_tokens() {
        let s = generate(&SynthConfig::tiny(151));
        let table = AliasTable::build(&s.kg);
        let (a, forms) = table.compile();
        let toks = TokenBuf::of("alpha beta Michael Jordan gamma delta");
        let mut m = Vec::new();
        detect_mentions(&toks, &a, &forms, &table, &mut Vec::new(), &mut m);
        let mention = m.iter().find(|x| &**x.form == "michael jordan").unwrap();
        let mut scratch = LinkScratch::new();
        scratch.slots.resize(toks.len(), None);
        let ctx = scratch.context(&toks, mention, 10, 64);
        let expected = hash_embed(&["alpha", "beta", "gamma", "delta"], 64);
        for (x, y) in ctx.iter().zip(&expected) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    /// Every page of the tiny synthetic corpus plus the Fig. 2 texts, at
    /// every tier and the distilled deployment, through one set of buffers
    /// reused for every text and tier: detection, the context vectors and
    /// the links equal the reference path's bit for bit.
    #[test]
    fn token_buffer_linking_matches_the_reference() {
        let s = generate(&SynthConfig::tiny(151));
        let (corpus, _) =
            saga_webcorpus::generate_corpus(&s, &[], &saga_webcorpus::CorpusConfig::tiny(13));
        let mut texts: Vec<String> = corpus.pages.iter().map(|p| p.full_text()).collect();
        texts.extend(
            [
                "Michael Jordan the basketball player won another championship ring.",
                "Michael Jordan published new machine learning and statistics research with his professor colleagues.",
                "Michael Jordan stats",
                "Michael Jordan students",
                "",
            ]
            .map(String::from),
        );
        let table = AliasTable::build(&s.kg);
        let (a, forms) = table.compile();
        let configs = [
            LinkerConfig::tier(Tier::T0Lexical),
            LinkerConfig::tier(Tier::T1Popularity),
            LinkerConfig::tier(Tier::T2Contextual),
            LinkerConfig::distilled(),
        ];
        let (mut toks, mut matches, mut got_m) = (TokenBuf::new(), Vec::new(), Vec::new());
        let mut scratch = LinkScratch::new();
        let mut linked = 0;
        for cfg in &configs {
            let features = features_for(&s.kg, cfg.feature_dim);
            for text in &texts {
                let (want_m, want_t) = reference::detect_mentions(text, &a, &forms, &table);
                saga_core::text::tokenize_into(text, &mut toks);
                detect_mentions(&toks, &a, &forms, &table, &mut matches, &mut got_m);
                let want_b: Vec<Mention<'_>> = want_m.iter().map(|m| m.borrowed()).collect();
                assert_eq!(format!("{got_m:?}"), format!("{want_b:?}"), "mentions of {text:?}");
                scratch.slots.clear();
                scratch.slots.resize(toks.len(), None);
                for (m, want) in got_m.iter().zip(&want_m) {
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    let (window, dim) = (cfg.context_window, cfg.feature_dim);
                    assert_eq!(
                        bits(scratch.context(&toks, m, window, dim)),
                        bits(&reference::context_embedding(&want_t, want, window, dim)),
                    );
                }
                let got = link_mentions(&got_m, &toks, cfg, &features, None, &mut scratch);
                let want = reference::link_mentions(&want_m, &want_t, cfg, &features, None);
                assert_eq!(
                    reference::link_bits(&got),
                    reference::link_bits(&want),
                    "{:?} on {text:?}",
                    cfg.tier
                );
                linked += got.len();
            }
        }
        assert!(linked > texts.len(), "the corpus links mentions: {linked}");
    }
}
