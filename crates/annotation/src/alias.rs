//! The alias table: normalized surface forms → candidate entities, with
//! lexical priors. Compiled into the phrase automaton for mention detection.

use crate::automaton::{PatternId, PhraseAutomaton};
use saga_core::text::normalize_phrase;
use saga_core::{EntityId, KnowledgeGraph};
use std::collections::HashMap;
use std::sync::Arc;

/// One candidate entity for a surface form.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// The entity concerned.
    pub entity: EntityId,
    /// 1.0 when the form is the entity's canonical name, lower for aliases.
    pub name_prior: f32,
    /// Entity popularity at table-build time.
    pub popularity: f32,
}

/// Surface-form dictionary built from the KG's entity names and aliases.
#[derive(Debug, Clone, Default)]
pub struct AliasTable {
    /// normalized form → candidates.
    forms: HashMap<String, Vec<Candidate>>,
}

impl AliasTable {
    /// Builds the table from every entity's surface forms. Single-token
    /// forms that are extremely common (stopwords) should be avoided by the
    /// KG's alias curation; we keep everything and let scoring handle noise.
    pub fn build(kg: &KnowledgeGraph) -> Self {
        let mut forms: HashMap<String, Vec<Candidate>> = HashMap::new();
        for e in kg.entities() {
            let canon = normalize_phrase(&e.name);
            if !canon.is_empty() {
                forms.entry(canon).or_default().push(Candidate {
                    entity: e.id,
                    name_prior: 1.0,
                    popularity: e.popularity,
                });
            }
            for alias in &e.aliases {
                let norm = normalize_phrase(alias);
                if norm.is_empty() {
                    continue;
                }
                let list = forms.entry(norm).or_default();
                if !list.iter().any(|c| c.entity == e.id) {
                    list.push(Candidate {
                        entity: e.id,
                        name_prior: 0.7,
                        popularity: e.popularity,
                    });
                }
            }
        }
        Self { forms }
    }

    /// Adds one entity's forms incrementally (for the dynamic index).
    pub fn add_entity(&mut self, kg: &KnowledgeGraph, entity: EntityId) {
        let e = kg.entity(entity);
        let canon = normalize_phrase(&e.name);
        if !canon.is_empty() {
            let list = self.forms.entry(canon).or_default();
            if !list.iter().any(|c| c.entity == e.id) {
                list.push(Candidate { entity: e.id, name_prior: 1.0, popularity: e.popularity });
            }
        }
        for alias in &e.aliases {
            let norm = normalize_phrase(alias);
            if norm.is_empty() {
                continue;
            }
            let list = self.forms.entry(norm).or_default();
            if !list.iter().any(|c| c.entity == e.id) {
                list.push(Candidate { entity: e.id, name_prior: 0.7, popularity: e.popularity });
            }
        }
    }

    /// Candidates for a normalized form.
    pub fn candidates(&self, form: &str) -> &[Candidate] {
        self.forms.get(form).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of distinct forms.
    pub fn len(&self) -> usize {
        self.forms.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.forms.is_empty()
    }

    /// Compiles the table into an automaton; returns the automaton and the
    /// pattern→form mapping. A form is shared: a mention and its link hold
    /// the same `Arc`.
    pub fn compile(&self) -> (PhraseAutomaton, Vec<Arc<str>>) {
        let mut automaton = PhraseAutomaton::new();
        let mut forms: Vec<&String> = self.forms.keys().collect();
        forms.sort(); // deterministic pattern ids
        let mut pattern_forms = Vec::with_capacity(forms.len());
        for form in forms {
            let tokens: Vec<&str> = form.split(' ').collect();
            let pid: PatternId = automaton.add_pattern(&tokens);
            debug_assert_eq!(pid as usize, pattern_forms.len());
            pattern_forms.push(Arc::from(form.as_str()));
        }
        automaton.build();
        (automaton, pattern_forms)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use saga_core::synth::{generate, SynthConfig};

    #[test]
    fn table_contains_names_and_aliases() {
        let s = generate(&SynthConfig::tiny(131));
        let t = AliasTable::build(&s.kg);
        let mj = t.candidates("michael jordan");
        assert_eq!(mj.len(), 2, "both Michael Jordans are candidates");
        assert!(mj.iter().all(|c| c.name_prior == 1.0));
        let alias = t.candidates("air jordan");
        assert_eq!(alias.len(), 1);
        assert_eq!(alias[0].entity, s.scenario.mj_player);
        assert!(alias[0].name_prior < 1.0);
    }

    #[test]
    fn unknown_form_has_no_candidates() {
        let s = generate(&SynthConfig::tiny(131));
        let t = AliasTable::build(&s.kg);
        assert!(t.candidates("unobtainium mcguffin").is_empty());
    }

    #[test]
    fn compile_round_trips_forms() {
        let s = generate(&SynthConfig::tiny(131));
        let t = AliasTable::build(&s.kg);
        let (_, forms) = t.compile();
        assert_eq!(forms.len(), t.len());
        // Every compiled pattern's form has candidates.
        for f in forms.iter().take(50) {
            assert!(!t.candidates(f).is_empty());
        }
    }

    #[test]
    fn add_entity_is_idempotent() {
        let s = generate(&SynthConfig::tiny(131));
        let mut t = AliasTable::build(&s.kg);
        let before = t.candidates("michael jordan").len();
        t.add_entity(&s.kg, s.scenario.mj_player);
        assert_eq!(t.candidates("michael jordan").len(), before);
    }
}
