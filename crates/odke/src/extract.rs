//! The extractor zoo (paper Sec. 4, "variety of data and tasks"): a
//! rule-based infobox extractor for semi-structured data, a column-mapped
//! table extractor, a pattern extractor for templated prose, and a contextual
//! extractor that uses semantic-annotation output as weak supervision for
//! free-form sentences.
//!
//! Cost model: a target fetches tens of pages and finds candidates on a
//! handful, so extraction pays per *candidate*, not per page, and allocates
//! little beyond the candidates it returns. What depends only on
//! `(subject, predicate)` — normalized surface forms, the template
//! prefixes, the phrase tokens, the range that decides whether the
//! contextual pass runs at all — lives in a [`TargetExtractor`] built once
//! per target, with the buffers its pages reuse: an [`AnnotateScratch`] and
//! a lead string for the subject check, and a sentence string for the
//! contextual pass. Per page, the lead annotation behind `subject_confirmed`
//! runs at the first candidate that records it (never for table candidates,
//! which carry their own subject evidence). A title, key cell or template
//! name is compared with the subject's forms by [`normalizes_to`], which
//! builds no normalized copy. An entity value resolves through the graph's
//! surface-form index ([`KnowledgeGraph::entities_by_form`]): one hash
//! lookup, not a normalization of every surface form of every entity. The
//! contextual pass is the only extractor that normalizes every sentence,
//! into the one reused string, and it emits values for `Date` / `Integer`
//! ranges only (where fuzzy fragment matching is meaningful), so for every
//! other range it is skipped before the first sentence.

use saga_annotation::{AnnotateScratch, AnnotationService};
use saga_core::text::{normalize_phrase, normalize_phrase_into, normalizes_to};
use saga_core::{DocId, EntityId, KnowledgeGraph, PredicateId, Value, ValueKind};
use saga_webcorpus::WebPage;

/// Which extractor produced a candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ExtractorKind {
    /// Rule-based key-value extraction from structured infoboxes
    /// (schema.org-style data).
    Infobox,
    /// Template patterns over prose.
    Pattern,
    /// Annotation-guided contextual extraction ("neural-style").
    Contextual,
    /// Column-mapped extraction from semi-structured data tables (the
    /// Knowledge-Vault-style table source).
    Table,
}

/// A candidate fact extracted from one document.
#[derive(Debug, Clone)]
pub struct ExtractedCandidate {
    /// Document id.
    pub doc: DocId,
    /// The subject position.
    pub subject: EntityId,
    /// The predicate.
    pub predicate: PredicateId,
    /// Raw rendered value as found on the page.
    pub value_text: String,
    /// Parsed into the predicate's range kind (None = unparseable).
    pub value: Option<Value>,
    /// Extractor that produced the candidate.
    pub extractor: ExtractorKind,
    /// Extractor confidence in `[0,1]`.
    pub confidence: f32,
    /// Source page quality prior.
    pub page_quality: f32,
    /// Whether the page's lead mention of the subject's name actually links
    /// to `subject` (vs a homonym) per the annotation service — the signal
    /// that untangles the Fig. 6 confusion.
    pub subject_confirmed: bool,
}

/// Parses `text` into the predicate's expected value kind. Entity values
/// resolve by normalized name or alias against the KG: the entity with the
/// lowest id among [`KnowledgeGraph::entities_by_form`].
pub fn parse_value(kg: &KnowledgeGraph, range: ValueKind, text: &str) -> Option<Value> {
    let t = text.trim().trim_end_matches('.');
    match range {
        ValueKind::Date => saga_core::Date::parse(t).map(Value::Date),
        ValueKind::Integer => t.parse::<i64>().ok().map(Value::Integer),
        ValueKind::Float => t.parse::<f64>().ok().map(Value::Float),
        ValueKind::Bool => t.parse::<bool>().ok().map(Value::Bool),
        ValueKind::Identifier => Some(Value::Identifier(t.to_owned())),
        ValueKind::Text => Some(Value::Text(t.to_owned())),
        ValueKind::Entity => {
            kg.entities_by_form(&normalize_phrase(t)).first().map(|&id| Value::Entity(id))
        }
    }
}

/// Checks whether the page's opening (title, then first paragraph) links
/// the subject's name to `subject` rather than a homonym. The opening is
/// written into `lead` and annotated with `scratch`.
fn lead_links_subject<'a>(
    service: &'a AnnotationService,
    page: &WebPage,
    subject: EntityId,
    lead: &mut String,
    scratch: &mut AnnotateScratch<'a>,
) -> bool {
    lead.clear();
    lead.push_str(&page.title);
    lead.push_str(". ");
    lead.push_str(page.paragraphs.first().map_or("", String::as_str));
    let links = service.annotate_into(lead, service.config().tier, scratch);
    links.iter().any(|m| m.entity == subject)
}

/// Everything extraction needs that depends only on `(subject, predicate)`:
/// built once per target by each extraction loop, then applied to every
/// fetched page.
pub struct TargetExtractor<'a> {
    kg: &'a KnowledgeGraph,
    service: &'a AnnotationService,
    subject: EntityId,
    predicate: PredicateId,
    phrase: &'a str,
    range: ValueKind,
    /// Normalized surface forms of the subject.
    surface_forms: Vec<String>,
    /// `(prefix, infix)` of the two corpus sentence templates.
    templates: [(String, &'static str); 2],
    /// Normalized content tokens of the predicate phrase.
    phrase_tokens: Vec<String>,
    confirmations: u64,
    /// Buffers of the lead annotations.
    scratch: AnnotateScratch<'a>,
    /// The page opening the lead annotation reads.
    lead: String,
    /// The normalized sentence of the contextual pass.
    sentence: String,
}

impl<'a> TargetExtractor<'a> {
    /// Per-target state for `(subject, predicate)`.
    pub fn new(
        kg: &'a KnowledgeGraph,
        service: &'a AnnotationService,
        subject: EntityId,
        predicate: PredicateId,
    ) -> Self {
        let pinfo = kg.ontology().predicate(predicate);
        let phrase = pinfo.phrase.as_str();
        Self {
            kg,
            service,
            subject,
            predicate,
            phrase,
            range: pinfo.range,
            surface_forms: kg.entity(subject).surface_forms().map(normalize_phrase).collect(),
            templates: [
                (format!("The {phrase} of "), " is "),
                (format!("El {phrase} de "), " es "),
            ],
            phrase_tokens: phrase
                .split_whitespace()
                .map(normalize_phrase)
                .filter(|t| !t.is_empty() && t != "of")
                .collect(),
            confirmations: 0,
            scratch: AnnotateScratch::new(),
            lead: String::new(),
            sentence: String::new(),
        }
    }

    /// Lead annotations run so far: one per page that produced a candidate
    /// recording `subject_confirmed`, none for the rest.
    pub fn confirmations(&self) -> u64 {
        self.confirmations
    }

    /// [`lead_links_subject`] for `page`, computed at the first candidate that
    /// needs it and cached in `lead` for the rest of the page.
    fn confirmed(&mut self, page: &WebPage, lead: &mut Option<bool>) -> bool {
        *lead.get_or_insert_with(|| {
            self.confirmations += 1;
            lead_links_subject(self.service, page, self.subject, &mut self.lead, &mut self.scratch)
        })
    }

    fn names_subject(&self, text: &str) -> bool {
        self.surface_forms.iter().any(|f| normalizes_to(text, f))
    }

    fn candidate(
        &self,
        page: &WebPage,
        extractor: ExtractorKind,
        confidence: f32,
        value_text: &str,
        value: Option<Value>,
        subject_confirmed: bool,
    ) -> ExtractedCandidate {
        ExtractedCandidate {
            doc: page.id,
            subject: self.subject,
            predicate: self.predicate,
            value_text: value_text.to_owned(),
            value,
            extractor,
            confidence,
            page_quality: page.quality,
            subject_confirmed,
        }
    }

    /// Runs all applicable extractors on one page.
    pub fn extract(&mut self, page: &WebPage) -> Vec<ExtractedCandidate> {
        use ExtractorKind::{Contextual, Infobox, Pattern, Table};
        let (kg, phrase, range) = (self.kg, self.phrase, self.range);
        let mut lead = None;
        let mut out = Vec::new();

        // --- Infobox extractor (rule-based over structured data) ---------
        let mut rows = page.infobox.iter().filter(|row| row.key == phrase).peekable();
        if rows.peek().is_some() && self.names_subject(&page.title) {
            for row in rows {
                let value = parse_value(kg, range, &row.value);
                let confirmed = self.confirmed(page, &mut lead);
                out.push(self.candidate(page, Infobox, 0.9, &row.value, value, confirmed));
            }
        }

        // --- Table extractor (semi-structured data tables) ----------------
        // A table yields a fact for `subject` when a column header matches
        // the predicate phrase and some row's key cell names the subject.
        for table in &page.tables {
            let Some(col) = table.columns.iter().position(|c| c == phrase) else { continue };
            if col == 0 {
                continue; // the key column cannot also be the value column
            }
            for row in &table.rows {
                if row.len() <= col || !self.names_subject(&row[0]) {
                    continue;
                }
                let value = parse_value(kg, range, &row[col]);
                // Tables attribute rows by the key cell, not the page
                // topic; a name match in a curated table is strong subject
                // evidence on its own.
                out.push(self.candidate(page, Table, 0.85, &row[col], value, true));
            }
        }

        // --- Pattern extractor over prose ---------------------------------
        for sentence in page.paragraphs.iter().flat_map(|p| p.split_inclusive('.')) {
            let Some((name, value_text)) = match_template(sentence, &self.templates) else {
                continue;
            };
            if !self.names_subject(name) {
                continue;
            }
            let value = parse_value(kg, range, value_text);
            let confirmed = self.confirmed(page, &mut lead);
            out.push(self.candidate(page, Pattern, 0.75, value_text, value, confirmed));
        }

        // --- Contextual extractor (annotation-guided, fuzzy) --------------
        // For sentences that mention the subject and share vocabulary with
        // the predicate phrase, try to parse any whitespace-split fragment
        // as a value of the range kind — only for literal ranges (dates,
        // integers), where fuzzy matching is meaningful; for every other
        // range the pass, a normalization of every sentence, is skipped
        // outright. Confidence scales with phrase-token overlap.
        if !matches!(range, ValueKind::Date | ValueKind::Integer) {
            return out;
        }
        for sentence in page.paragraphs.iter().flat_map(|p| p.split_inclusive('.')) {
            normalize_phrase_into(sentence, &mut self.sentence);
            let norm_sentence = self.sentence.as_str();
            if !self.surface_forms.iter().any(|f| norm_sentence.contains(f.as_str())) {
                continue;
            }
            let overlap =
                self.phrase_tokens.iter().filter(|t| norm_sentence.contains(t.as_str())).count();
            if overlap == 0 {
                continue;
            }
            let confidence = 0.35 + 0.25 * (overlap as f32 / self.phrase_tokens.len() as f32);
            for frag in sentence.split_whitespace() {
                let value = parse_value(kg, range, frag);
                if value.is_none() {
                    continue;
                }
                let confirmed = self.confirmed(page, &mut lead);
                let text = frag.trim_end_matches('.');
                out.push(self.candidate(page, Contextual, confidence, text, value, confirmed));
            }
        }
        out
    }
}

/// Runs all applicable extractors for `(subject, predicate)` on one page —
/// the one-page case of [`TargetExtractor`].
pub fn extract_from_page(
    kg: &KnowledgeGraph,
    service: &AnnotationService,
    page: &WebPage,
    subject: EntityId,
    predicate: PredicateId,
) -> Vec<ExtractedCandidate> {
    TargetExtractor::new(kg, service, subject, predicate).extract(page)
}

/// Matches the corpus sentence templates: `The {phrase} of {NAME} is
/// {VALUE}.` and `El {phrase} de {NAME} es {VALUE}.`, returning
/// `(name, value)`.
fn match_template<'s>(
    sentence: &'s str,
    templates: &[(String, &'static str); 2],
) -> Option<(&'s str, &'s str)> {
    let s = sentence.trim();
    for (prefix, mid) in templates {
        if let Some(rest) = s.strip_prefix(prefix.as_str()) {
            if let Some(pos) = rest.find(mid) {
                let name = &rest[..pos];
                let value = rest[pos + mid.len()..].trim_end_matches('.');
                if !name.is_empty() && !value.is_empty() {
                    return Some((name, value));
                }
            }
        }
    }
    None
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use saga_annotation::{LinkerConfig, Tier};
    use saga_core::synth::{generate, SynthConfig};
    use saga_core::Date;
    use saga_webcorpus::{generate_corpus, CorpusConfig};

    fn setup() -> (
        saga_core::synth::SynthKg,
        saga_webcorpus::Corpus,
        saga_webcorpus::CorpusTruth,
        AnnotationService,
    ) {
        let s = generate(&SynthConfig::tiny(221));
        let extra = vec![(
            s.scenario.mw_singer,
            s.preds.date_of_birth,
            Value::Date(Date::new(1979, 7, 23).unwrap()),
        )];
        let (c, t) = generate_corpus(&s, &extra, &CorpusConfig::tiny(15));
        let svc = AnnotationService::build(&s.kg, LinkerConfig::tier(Tier::T2Contextual));
        (s, c, t, svc)
    }

    #[test]
    fn template_matcher_parses_both_languages() {
        let s = generate(&SynthConfig::tiny(221));
        let svc = AnnotationService::build(&s.kg, LinkerConfig::tier(Tier::T2Contextual));
        let dob = TargetExtractor::new(&s.kg, &svc, s.scenario.mw_singer, s.preds.date_of_birth);
        let matched = |sentence| match_template(sentence, &dob.templates);
        assert_eq!(
            matched("The date of birth of Jane Doe is 1970-01-01."),
            Some(("Jane Doe", "1970-01-01"))
        );
        assert_eq!(
            matched("El date of birth de Jane Doe es 1970-01-01."),
            Some(("Jane Doe", "1970-01-01"))
        );
        assert_eq!(matched("Unrelated sentence."), None);
        assert_eq!(matched("The spouse of X is Y."), None);
    }

    #[test]
    fn parse_value_by_kind() {
        let s = generate(&SynthConfig::tiny(221));
        assert_eq!(
            parse_value(&s.kg, ValueKind::Date, "1979-07-23."),
            Some(Value::Date(Date::new(1979, 7, 23).unwrap()))
        );
        assert_eq!(parse_value(&s.kg, ValueKind::Integer, "42"), Some(Value::Integer(42)));
        assert_eq!(parse_value(&s.kg, ValueKind::Date, "not a date"), None);
        // Entity resolution by name.
        let v = parse_value(&s.kg, ValueKind::Entity, "Michael Jordan");
        assert!(matches!(v, Some(Value::Entity(_))));
        assert_eq!(parse_value(&s.kg, ValueKind::Entity, "Nobody Nowhere"), None);
    }

    #[test]
    fn extractors_recover_a_rendered_fact() {
        let (s, c, t, svc) = setup();
        // Find the page rendering the singer's injected DOB.
        let (doc, _, _, val) = t
            .rendered_facts
            .iter()
            .find(|(_, e, p, _)| *e == s.scenario.mw_singer && *p == s.preds.date_of_birth)
            .expect("fact rendered");
        let page = c.page(*doc);
        let cands =
            extract_from_page(&s.kg, &svc, page, s.scenario.mw_singer, s.preds.date_of_birth);
        assert!(!cands.is_empty(), "extractors must fire on the rendering page");
        assert!(
            cands.iter().any(|c| &c.value_text == val),
            "the true value {val} among candidates: {cands:?}"
        );
        // Multiple extractor kinds fire (prose sentence + contextual at
        // least; infobox when the page is structured).
        let kinds: std::collections::HashSet<_> = cands.iter().map(|c| c.extractor).collect();
        assert!(kinds.len() >= 2, "extractor diversity: {kinds:?}");
    }

    #[test]
    fn table_extractor_recovers_release_dates_from_filmographies() {
        let (s, c, t, svc) = setup();
        // Find a filmography row rendered in the corpus.
        let page =
            c.pages.iter().find(|p| !p.tables.is_empty()).expect("a page with a filmography table");
        let table = &page.tables[0];
        let movie = table
            .rows
            .iter()
            .find_map(|row| {
                let named = |&&e: &&EntityId| s.kg.entity(e).name == row[0];
                let forms = s.kg.entities_by_form(&normalize_phrase(&row[0]));
                forms.iter().find(named).map(|&e| (e, row.clone()))
            })
            .expect("a row naming a known movie");
        let cands = extract_from_page(&s.kg, &svc, page, movie.0, s.preds.release_date);
        let from_table: Vec<_> =
            cands.iter().filter(|c| c.extractor == ExtractorKind::Table).collect();
        assert!(!from_table.is_empty(), "table extractor fired");
        assert!(from_table.iter().any(|c| c.value_text == movie.1[1]));
        assert!(from_table.iter().all(|c| c.subject_confirmed));
        // Ground truth agreement.
        assert!(t.rendered_facts.iter().any(|(d, e, p, v)| *d == page.id
            && *e == movie.0
            && *p == s.preds.release_date
            && v == &movie.1[1]));
    }

    /// `extract_from_page` as it was before the per-target hoist: every page
    /// pays the lead annotation up front, rebuilds the surface forms and the
    /// phrase tokens, normalizes every sentence before looking at the range,
    /// and formats both template prefixes per sentence.
    fn reference_extract_from_page(
        kg: &KnowledgeGraph,
        service: &AnnotationService,
        page: &WebPage,
        subject: EntityId,
        predicate: PredicateId,
    ) -> Vec<ExtractedCandidate> {
        fn normalize_matches(text: &str, forms: &[String]) -> bool {
            let n = normalize_phrase(text);
            forms.iter().any(|f| &n == f)
        }
        fn match_template(sentence: &str, phrase: &str) -> Option<(String, String)> {
            let s = sentence.trim();
            for (prefix, mid) in
                [(format!("The {phrase} of "), " is "), (format!("El {phrase} de "), " es ")]
            {
                if let Some(rest) = s.strip_prefix(&prefix) {
                    if let Some(pos) = rest.find(mid) {
                        let name = rest[..pos].to_owned();
                        let value = rest[pos + mid.len()..].trim_end_matches('.').to_owned();
                        if !name.is_empty() && !value.is_empty() {
                            return Some((name, value));
                        }
                    }
                }
            }
            None
        }
        let pinfo = kg.ontology().predicate(predicate);
        let surface_forms: Vec<String> =
            kg.entity(subject).surface_forms().map(normalize_phrase).collect();
        let confirmed = lead_links_subject(
            service,
            page,
            subject,
            &mut String::new(),
            &mut AnnotateScratch::new(),
        );
        let candidate = |value_text: String, value, extractor, confidence, subject_confirmed| {
            ExtractedCandidate {
                doc: page.id,
                subject,
                predicate,
                value_text,
                value,
                extractor,
                confidence,
                page_quality: page.quality,
                subject_confirmed,
            }
        };
        let mut out = Vec::new();
        if normalize_matches(&page.title, &surface_forms) {
            for row in &page.infobox {
                if row.key == pinfo.phrase {
                    let value = parse_value(kg, pinfo.range, &row.value);
                    let kind = ExtractorKind::Infobox;
                    out.push(candidate(row.value.clone(), value, kind, 0.9, confirmed));
                }
            }
        }
        for table in &page.tables {
            let Some(col) = table.columns.iter().position(|c| c == &pinfo.phrase) else { continue };
            if col == 0 {
                continue;
            }
            for row in &table.rows {
                if row.len() <= col || !normalize_matches(&row[0], &surface_forms) {
                    continue;
                }
                let value = parse_value(kg, pinfo.range, &row[col]);
                out.push(candidate(row[col].clone(), value, ExtractorKind::Table, 0.85, true));
            }
        }
        for paragraph in &page.paragraphs {
            for sentence in paragraph.split_inclusive('.') {
                if let Some((name, value_text)) = match_template(sentence, &pinfo.phrase) {
                    if !normalize_matches(&name, &surface_forms) {
                        continue;
                    }
                    let value = parse_value(kg, pinfo.range, &value_text);
                    out.push(candidate(value_text, value, ExtractorKind::Pattern, 0.75, confirmed));
                }
            }
        }
        let phrase_tokens: Vec<String> = pinfo
            .phrase
            .split_whitespace()
            .map(normalize_phrase)
            .filter(|t| !t.is_empty() && t != "of")
            .collect();
        for paragraph in &page.paragraphs {
            for sentence in paragraph.split_inclusive('.') {
                let norm_sentence = normalize_phrase(sentence);
                if !surface_forms.iter().any(|f| norm_sentence.contains(f.as_str())) {
                    continue;
                }
                let overlap =
                    phrase_tokens.iter().filter(|t| norm_sentence.contains(t.as_str())).count();
                if overlap == 0 || phrase_tokens.is_empty() {
                    continue;
                }
                if matches!(pinfo.range, ValueKind::Date | ValueKind::Integer) {
                    for frag in sentence.split_whitespace() {
                        if let Some(value) = parse_value(kg, pinfo.range, frag) {
                            let conf = 0.35 + 0.25 * (overlap as f32 / phrase_tokens.len() as f32);
                            out.push(candidate(
                                frag.trim_end_matches('.').to_owned(),
                                Some(value),
                                ExtractorKind::Contextual,
                                conf,
                                confirmed,
                            ));
                        }
                    }
                }
            }
        }
        out
    }

    /// Every field, floats by bit pattern.
    fn fields(
        c: &ExtractedCandidate,
    ) -> (DocId, EntityId, PredicateId, &str, &Option<Value>, ExtractorKind, u32, u32, bool) {
        (
            c.doc,
            c.subject,
            c.predicate,
            &c.value_text,
            &c.value,
            c.extractor,
            c.confidence.to_bits(),
            c.page_quality.to_bits(),
            c.subject_confirmed,
        )
    }

    /// One extractor per target over every page of the tiny world — a `Date`
    /// predicate (contextual pass live), an `Entity` predicate (contextual
    /// pass gated off) and the table predicate — equals the reference page by
    /// page, field by field and in candidate order, and annotates a lead only
    /// on pages that yielded a candidate recording it.
    #[test]
    fn per_target_extraction_matches_the_per_page_reference() {
        let (s, c, _t, svc) = setup();
        let sc = &s.scenario;
        let people = [sc.mw_singer, sc.mw_actress, sc.mj_player, sc.mj_professor, sc.benicio];
        let people = people.iter().chain(&s.people[..5]).copied();
        let mut targets: Vec<(EntityId, PredicateId)> =
            people.flat_map(|e| [(e, s.preds.date_of_birth), (e, s.preds.lives_in)]).collect();
        targets.extend(s.movies[..8].iter().map(|&m| (m, s.preds.release_date)));
        assert_eq!(s.kg.ontology().predicate(s.preds.lives_in).range, ValueKind::Entity);

        let mut kinds = std::collections::HashSet::new();
        let (mut confirmed, mut unconfirmed) = (0, 0);
        for (subject, predicate) in targets {
            let mut extractor = TargetExtractor::new(&s.kg, &svc, subject, predicate);
            let mut needing_the_lead = 0;
            for page in &c.pages {
                let want = reference_extract_from_page(&s.kg, &svc, page, subject, predicate);
                let got = extractor.extract(page);
                assert_eq!(
                    got.iter().map(fields).collect::<Vec<_>>(),
                    want.iter().map(fields).collect::<Vec<_>>(),
                    "{subject:?} {predicate:?} on {:?}",
                    page.id
                );
                if !want.is_empty() {
                    let one_page = extract_from_page(&s.kg, &svc, page, subject, predicate);
                    assert_eq!(
                        one_page.iter().map(fields).collect::<Vec<_>>(),
                        want.iter().map(fields).collect::<Vec<_>>()
                    );
                }
                needing_the_lead += want.iter().any(|c| c.extractor != ExtractorKind::Table) as u64;
                kinds.extend(want.iter().map(|c| c.extractor));
                confirmed += want.iter().filter(|c| c.subject_confirmed).count();
                unconfirmed += want.iter().filter(|c| !c.subject_confirmed).count();
            }
            assert_eq!(extractor.confirmations(), needing_the_lead);
            assert!(needing_the_lead < c.pages.len() as u64 / 4);
        }
        assert_eq!(kinds.len(), 4, "all four extractors fired: {kinds:?}");
        assert!(confirmed > 0 && unconfirmed > 0, "{confirmed} confirmed, {unconfirmed} not");
    }

    #[test]
    fn wrong_subject_pages_yield_nothing_or_unconfirmed() {
        let (s, c, t, svc) = setup();
        // A page about the actress: extracting the singer's DOB from it
        // should produce only subject-name-matching candidates, which exist
        // because the names are identical, but the lead describes the
        // actress...
        let actress_doc = t.page_topics.iter().find(|(_, e)| **e == s.scenario.mw_actress);
        if let Some((doc, _)) = actress_doc {
            let page = c.page(*doc);
            let cands =
                extract_from_page(&s.kg, &svc, page, s.scenario.mw_singer, s.preds.date_of_birth);
            // Candidates may exist (same surface name) but must be flagged
            // unconfirmed by the annotation check.
            for cand in &cands {
                assert!(
                    !cand.subject_confirmed,
                    "actress page must not confirm the singer subject"
                );
            }
        }
    }
}
