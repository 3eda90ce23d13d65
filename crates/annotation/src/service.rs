//! The semantic annotation service facade (paper Sec. 3.2): modular —
//! choose a tier per deployment; dynamic — new entities become linkable via
//! the delta automaton without a full rebuild.
//!
//! Cost model: a document is tokenized once, into a buffer both automata
//! and the linker read. Every working buffer of a document's annotation —
//! the page text, the tokens, the matches, the main and delta mentions, the
//! linker's slots, context vector, anchors and scores — lives in an
//! [`AnnotateScratch`] that a pass worker keeps for its whole share of the
//! pass, so annotating a page allocates only the vector of links it
//! returns: a link owns no heap memory (its form shares the automaton's
//! pattern form).

use crate::alias::AliasTable;
use crate::automaton::{PhraseAutomaton, PhraseMatch};
use crate::linker::{link_mentions, LinkScratch, LinkedMention, LinkerConfig, Tier};
use crate::mention::{detect_mentions, Mention};
use saga_ann::EmbeddingCache;
use saga_core::text::{embed_slots, hash_slot, tokenize_into, TokenBuf};
use saga_core::{EntityId, KnowledgeGraph, TypeId};
use saga_embeddings::TrainedModel;
use saga_webcorpus::WebPage;
use std::collections::HashMap;
use std::sync::Arc;

/// Computes an entity's text-feature embedding from its name, description
/// and type name — the "textual features of the KG entities (e.g., name,
/// description, popularity)" the paper's contextual reranker embeds.
pub fn entity_feature_embedding(kg: &KnowledgeGraph, entity: EntityId, dim: usize) -> Vec<f32> {
    let e = kg.entity(entity);
    let type_name = &kg.ontology().type_info(e.entity_type).name;
    let text = format!("{} {} {}", e.name, e.description, type_name);
    let toks = TokenBuf::of(&text);
    embed_slots(toks.texts().map(|t| hash_slot(t, dim)), dim)
}

/// The annotation service: alias table + compiled automaton + precomputed
/// feature cache (+ optional graph embeddings for coherence).
pub struct AnnotationService {
    aliases: AliasTable,
    main: (PhraseAutomaton, Vec<Arc<str>>),
    /// Delta automaton for entities added since the last merge, and its
    /// pattern forms.
    delta: Option<(PhraseAutomaton, Vec<Arc<str>>)>,
    features: EmbeddingCache,
    kge: Option<TrainedModel>,
    cfg: LinkerConfig,
    /// Entity → (type id, type name), for typed annotation (NER output).
    entity_types: HashMap<u64, (TypeId, String)>,
    /// Counts of full automaton (re)builds — freshness experiment E10.
    pub rebuilds: usize,
}

/// The reusable buffers of one annotation worker. Mentions borrow from the
/// service they were detected by, hence the lifetime: a scratch serves one
/// service. Contents never carry from one document to the next; only the
/// capacity does, so a warm scratch annotates a page with one allocation:
/// the vector of links it returns.
#[derive(Debug, Default)]
pub struct AnnotateScratch<'a> {
    /// The page text [`AnnotationService::annotate_page_into`] renders.
    text: String,
    bufs: Buffers<'a>,
}

/// Everything of an [`AnnotateScratch`] but the page text.
#[derive(Debug, Default)]
struct Buffers<'a> {
    tokens: TokenBuf,
    matches: Vec<PhraseMatch>,
    mentions: Vec<Mention<'a>>,
    delta_mentions: Vec<Mention<'a>>,
    link: LinkScratch,
}

impl AnnotateScratch<'_> {
    /// Empty buffers; they grow to the largest document annotated with them.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A linked mention with its entity's ontology type — the "named and
/// nominal entity recognition" view of an annotation (paper Sec. 3: pages
/// are annotated "including the corresponding entity types").
#[derive(Debug, Clone)]
pub struct TypedMention {
    /// The underlying link.
    pub mention: LinkedMention,
    /// Ontology type of the linked entity.
    pub entity_type: TypeId,
    /// Type name, e.g. `"athlete"`.
    pub type_name: String,
}

impl AnnotationService {
    /// Builds the service from a KG: alias table, automaton, and the
    /// precomputed per-entity feature cache (the paper's low-latency KV
    /// store of entity embeddings).
    pub fn build(kg: &KnowledgeGraph, cfg: LinkerConfig) -> Self {
        let aliases = AliasTable::build(kg);
        let main = aliases.compile();
        let features = EmbeddingCache::new();
        let mut entity_types = HashMap::new();
        for e in kg.entities() {
            features.put(e.id.raw(), entity_feature_embedding(kg, e.id, cfg.feature_dim));
            let tname = kg.ontology().type_info(e.entity_type).name.clone();
            entity_types.insert(e.id.raw(), (e.entity_type, tname));
        }
        Self { aliases, main, delta: None, features, kge: None, cfg, entity_types, rebuilds: 1 }
    }

    /// Attaches a trained graph-embedding model for coherence scoring.
    pub fn with_graph_embeddings(mut self, model: TrainedModel) -> Self {
        self.kge = Some(model);
        self
    }

    /// The linker configuration in effect.
    pub fn config(&self) -> &LinkerConfig {
        &self.cfg
    }

    /// Read access to the feature cache (for stats).
    pub fn feature_cache(&self) -> &EmbeddingCache {
        &self.features
    }

    /// Registers a *new* KG entity with the live service. Its surface forms
    /// become matchable immediately through the delta automaton — no full
    /// rebuild (paper Sec. 3.2: annotations must "surface new and updated
    /// entities from the KG").
    pub fn add_entity(&mut self, kg: &KnowledgeGraph, entity: EntityId) {
        self.aliases.add_entity(kg, entity);
        self.features.put(entity.raw(), entity_feature_embedding(kg, entity, self.cfg.feature_dim));
        let ty = kg.entity(entity).entity_type;
        self.entity_types.insert(entity.raw(), (ty, kg.ontology().type_info(ty).name.clone()));
        let mut forms = self.delta.take().map(|(_, forms)| forms).unwrap_or_default();
        for form in kg.entity(entity).surface_forms() {
            let norm = saga_core::text::normalize_phrase(form);
            if !norm.is_empty() && !forms.iter().any(|f| **f == *norm) {
                forms.push(Arc::from(norm));
            }
        }
        // Rebuild only the (small) delta automaton.
        let mut a = PhraseAutomaton::new();
        for f in &forms {
            let toks: Vec<&str> = f.split(' ').collect();
            a.add_pattern(&toks);
        }
        a.build();
        self.delta = Some((a, forms));
    }

    /// Merges the delta into the main automaton (periodic maintenance).
    pub fn merge_delta(&mut self) {
        if self.delta.is_none() {
            return;
        }
        self.main = self.aliases.compile();
        self.delta = None;
        self.rebuilds += 1;
    }

    /// Detects and links mentions in `text`: [`annotate_into`] with fresh
    /// buffers, at the configured tier.
    ///
    /// [`annotate_into`]: Self::annotate_into
    pub fn annotate(&self, text: &str) -> Vec<LinkedMention> {
        self.annotate_into(text, self.cfg.tier, &mut AnnotateScratch::new())
    }

    /// Detects and links mentions in `text` at `tier`, reusing `scratch`'s
    /// buffers: allocates only the returned vector of links. A `tier` other
    /// than the configured one is the degradation path, for when a tier's
    /// backing resources (e.g. the embedding cache behind T2) are
    /// unavailable.
    pub fn annotate_into<'a>(
        &'a self,
        text: &str,
        tier: Tier,
        scratch: &mut AnnotateScratch<'a>,
    ) -> Vec<LinkedMention> {
        self.annotate_buffers(text, tier, &mut scratch.bufs)
    }

    /// [`annotate_into`](Self::annotate_into) of `page`'s full text, which
    /// is rendered into `scratch` too.
    pub fn annotate_page_into<'a>(
        &'a self,
        page: &WebPage,
        tier: Tier,
        scratch: &mut AnnotateScratch<'a>,
    ) -> Vec<LinkedMention> {
        page.full_text_into(&mut scratch.text);
        self.annotate_buffers(&scratch.text, tier, &mut scratch.bufs)
    }

    /// Tokenizes once; both automata and the linker read the same tokens.
    fn annotate_buffers<'a>(
        &'a self,
        text: &str,
        tier: Tier,
        b: &mut Buffers<'a>,
    ) -> Vec<LinkedMention> {
        tokenize_into(text, &mut b.tokens);
        let (main, main_forms) = &self.main;
        detect_mentions(
            &b.tokens,
            main,
            main_forms,
            &self.aliases,
            &mut b.matches,
            &mut b.mentions,
        );
        if let Some((delta, delta_forms)) = &self.delta {
            let extra = &mut b.delta_mentions;
            detect_mentions(&b.tokens, delta, delta_forms, &self.aliases, &mut b.matches, extra);
            merge_mentions(&mut b.mentions, extra);
        }
        let cfg = LinkerConfig { tier, ..self.cfg.clone() };
        link_mentions(&b.mentions, &b.tokens, &cfg, &self.features, self.kge.as_ref(), &mut b.link)
    }

    /// Detects, links and *type-tags* mentions — the NER-style output.
    pub fn annotate_typed(&self, text: &str) -> Vec<TypedMention> {
        self.annotate(text)
            .into_iter()
            .filter_map(|m| {
                let (entity_type, type_name) = self.entity_types.get(&m.entity.raw())?.clone();
                Some(TypedMention { mention: m, entity_type, type_name })
            })
            .collect()
    }

    /// Approximate memory footprint of the precomputed feature cache in
    /// bytes (the price axis of the distillation trade-off).
    pub fn feature_cache_bytes(&self) -> usize {
        self.features.stats().entries * (self.cfg.feature_dim * 4 + 16)
    }
}

/// Merges delta-automaton mentions into the main list, preferring longer
/// spans on overlap, keeping start order. Both lists are non-overlapping
/// (leftmost-longest), and a mention joins the main list only once nothing
/// there overlaps it, so the merged starts are distinct and an unstable
/// sort orders them as a stable one would.
fn merge_mentions<'a>(main: &mut Vec<Mention<'a>>, extra: &[Mention<'a>]) {
    for m in extra {
        let overlaps = |x: &Mention<'_>| m.start < x.end && x.start < m.end;
        let mut overlapped = main.iter().filter(|x| overlaps(x)).peekable();
        if overlapped.peek().is_none() {
            main.push(*m);
        } else if overlapped.all(|x| (x.end - x.start) < (m.end - m.start)) {
            // The new mention is strictly longer than everything it
            // overlaps: replace them.
            main.retain(|x| !overlaps(x));
            main.push(*m);
        }
    }
    main.sort_unstable_by_key(|m| m.start);
}

/// The pre-scratch path, for equivalence tests: owned tokens, mentions and
/// per-mention linker buffers.
#[cfg(test)]
impl AnnotationService {
    pub(crate) fn aliases(&self) -> &AliasTable {
        &self.aliases
    }

    pub(crate) fn reference_annotate(&self, text: &str, tier: Tier) -> Vec<LinkedMention> {
        use crate::reference;
        let (main, main_forms) = &self.main;
        let (mut mentions, tokens) =
            reference::detect_mentions(text, main, main_forms, &self.aliases);
        if let Some((delta, delta_forms)) = &self.delta {
            let (extra, _) = reference::detect_mentions(text, delta, delta_forms, &self.aliases);
            reference::merge_mentions(&mut mentions, extra);
        }
        let cfg = LinkerConfig { tier, ..self.cfg.clone() };
        reference::link_mentions(&mentions, &tokens, &cfg, &self.features, self.kge.as_ref())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::linker::Tier;
    use saga_core::synth::{generate, SynthConfig};
    use saga_core::EntityBuilder;

    #[test]
    fn service_annotates_queries() {
        let s = generate(&SynthConfig::tiny(161));
        let svc = AnnotationService::build(&s.kg, LinkerConfig::tier(Tier::T2Contextual));
        let links = svc.annotate("Michael Jordan the legendary basketball champion highlights");
        let mj = links.iter().find(|l| &*l.form == "michael jordan").unwrap();
        assert_eq!(mj.entity, s.scenario.mj_player);
    }

    #[test]
    fn new_entity_is_linkable_without_rebuild() {
        let mut s = generate(&SynthConfig::tiny(161));
        let mut svc = AnnotationService::build(&s.kg, LinkerConfig::tier(Tier::T1Popularity));
        assert!(svc.annotate("Zorblatt Quuxington wrote a memoir").is_empty());

        let id = s.kg.add_entity(
            EntityBuilder::new("Zorblatt Quuxington", s.types.person)
                .description("an author")
                .popularity(0.5),
        );
        let rebuilds_before = svc.rebuilds;
        svc.add_entity(&s.kg, id);
        assert_eq!(svc.rebuilds, rebuilds_before, "no full rebuild");
        let links = svc.annotate("Zorblatt Quuxington wrote a memoir");
        assert_eq!(links.len(), 1);
        assert_eq!(links[0].entity, id);

        // After merge, still linkable.
        svc.merge_delta();
        assert_eq!(svc.rebuilds, rebuilds_before + 1);
        let links = svc.annotate("Zorblatt Quuxington wrote a memoir");
        assert_eq!(links.len(), 1);
        assert_eq!(links[0].entity, id);
    }

    #[test]
    fn delta_mention_overlapping_main_prefers_longer() {
        let mut s = generate(&SynthConfig::tiny(161));
        let mut svc = AnnotationService::build(&s.kg, LinkerConfig::tier(Tier::T1Popularity));
        // Existing: "Michael Jordan". New longer entity: "Michael Jordan Institute".
        let id = s.kg.add_entity(
            EntityBuilder::new("Michael Jordan Institute", s.types.organization)
                .description("a research institute")
                .popularity(0.4),
        );
        svc.add_entity(&s.kg, id);
        let links = svc.annotate("The Michael Jordan Institute opened today");
        let inst = links.iter().find(|l| l.entity == id);
        assert!(inst.is_some(), "longer delta mention wins: {links:?}");
        assert!(
            !links.iter().any(|l| &*l.form == "michael jordan"),
            "shorter overlapped mention suppressed"
        );
    }

    #[test]
    fn typed_annotation_reports_ontology_types() {
        let s = generate(&SynthConfig::tiny(161));
        let svc = AnnotationService::build(&s.kg, LinkerConfig::tier(Tier::T2Contextual));
        let typed = svc.annotate_typed("Michael Jordan the legendary basketball champion");
        let mj = typed.iter().find(|t| &*t.mention.form == "michael jordan").unwrap();
        assert_eq!(mj.entity_type, s.types.athlete);
        assert_eq!(mj.type_name, "athlete");
    }

    #[test]
    fn distilled_config_shrinks_the_cache() {
        let s = generate(&SynthConfig::tiny(161));
        let full = AnnotationService::build(&s.kg, LinkerConfig::tier(Tier::T2Contextual));
        let distilled = AnnotationService::build(&s.kg, LinkerConfig::distilled());
        assert!(distilled.feature_cache_bytes() * 2 < full.feature_cache_bytes());
        // Distilled still disambiguates the flagship homonym.
        let links = distilled.annotate("Michael Jordan the legendary basketball champion");
        let mj = links.iter().find(|l| &*l.form == "michael jordan").unwrap();
        assert_eq!(mj.entity, s.scenario.mj_player);
    }

    #[test]
    fn feature_embedding_reflects_description() {
        let s = generate(&SynthConfig::tiny(161));
        let a = entity_feature_embedding(&s.kg, s.scenario.mj_player, 96);
        let q = {
            let toks = TokenBuf::of("legendary basketball champion");
            let refs: Vec<&str> = toks.texts().collect();
            saga_core::text::hash_embed(&refs, 96)
        };
        let b = entity_feature_embedding(&s.kg, s.scenario.mj_professor, 96);
        let sim_player = saga_core::text::cosine(&q, &a);
        let sim_prof = saga_core::text::cosine(&q, &b);
        assert!(sim_player > sim_prof);
    }
}
