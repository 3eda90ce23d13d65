//! Triple-pattern scans: the primitive read operation of the graph engine.

use saga_core::{EntityId, KnowledgeGraph, PredicateId, Triple, Value};

/// A triple pattern with optional constants in each position.
#[derive(Debug, Clone, Default)]
pub struct TriplePattern {
    /// The subject position.
    pub subject: Option<EntityId>,
    /// The predicate.
    pub predicate: Option<PredicateId>,
    /// The object position.
    pub object: Option<Value>,
}

impl TriplePattern {
    /// Pattern matching every triple.
    pub fn any() -> Self {
        Self::default()
    }

    /// Binds the predicate position.
    pub fn with_predicate(mut self, p: PredicateId) -> Self {
        self.predicate = Some(p);
        self
    }

    /// True if `t` matches this pattern.
    pub fn matches(&self, t: &Triple) -> bool {
        self.subject.is_none_or(|s| s == t.subject)
            && self.predicate.is_none_or(|p| p == t.predicate)
            && self.object.as_ref().is_none_or(|o| o == &t.object)
    }
}

/// Scans the store for triples matching `pat`, dispatching to the best index
/// for the bound positions.
pub fn scan(kg: &KnowledgeGraph, pat: &TriplePattern) -> Vec<Triple> {
    match (pat.subject, pat.predicate, &pat.object) {
        (Some(s), _, _) => kg.triples_of(s).filter(|t| pat.matches(t)).collect(),
        (None, Some(p), Some(o)) => kg
            .subjects_with(p, o)
            .into_iter()
            .map(|s| Triple { subject: s, predicate: p, object: o.clone() })
            .collect(),
        (None, Some(p), None) => kg.triples_with_predicate(p).collect(),
        (None, None, Some(Value::Entity(e))) => kg
            .in_edges(*e)
            .into_iter()
            .map(|(s, p)| Triple { subject: s, predicate: p, object: Value::Entity(*e) })
            .collect(),
        (None, None, _) => kg.keys().map(|k| kg.decode(k)).filter(|t| pat.matches(t)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saga_core::synth::{generate, SynthConfig};

    #[test]
    fn scan_matches_naive_filter_for_all_shapes() {
        let s = generate(&SynthConfig::tiny(3));
        let kg = &s.kg;
        let all: Vec<Triple> = kg.keys().map(|k| kg.decode(k)).collect();
        let subj = s.people[5];
        let pred = s.preds.occupation;
        let obj = Value::Entity(s.occupations[0]);

        let patterns = vec![
            TriplePattern { subject: Some(subj), ..TriplePattern::any() },
            TriplePattern::any().with_predicate(pred),
            TriplePattern { subject: Some(subj), ..TriplePattern::any() }.with_predicate(pred),
            TriplePattern { object: Some(obj.clone()), ..TriplePattern::any() }
                .with_predicate(pred),
            TriplePattern { object: Some(obj.clone()), ..TriplePattern::any() },
            TriplePattern::any(),
        ];
        for pat in patterns {
            let mut got = scan(kg, &pat);
            let mut want: Vec<Triple> = all.iter().filter(|t| pat.matches(t)).cloned().collect();
            let key = |t: &Triple| (t.subject, t.predicate, t.object.canonical());
            got.sort_by_key(key);
            want.sort_by_key(key);
            assert_eq!(got, want, "pattern {pat:?}");
        }
    }

    #[test]
    fn literal_object_scan_uses_pos_index() {
        let s = generate(&SynthConfig::tiny(3));
        let kg = &s.kg;
        // Find some DOB literal and scan for it.
        let dob_triple = kg.triples_with_predicate(s.preds.date_of_birth).next().unwrap();
        let pat = TriplePattern { object: Some(dob_triple.object.clone()), ..TriplePattern::any() }
            .with_predicate(s.preds.date_of_birth);
        let got = scan(kg, &pat);
        assert!(got.iter().any(|t| t.subject == dob_triple.subject));
        assert!(got.iter().all(|t| t.object == dob_triple.object));
    }
}
