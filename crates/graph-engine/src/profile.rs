//! Knowledge-graph profiling: predicate statistics, per-type coverage and
//! staleness analysis.
//!
//! This is the "knowledge graph profiling" the paper's ODKE section (Sec. 4)
//! uses to *proactively* identify coverage and freshness issues. The ODKE
//! crate layers importance scoring and query-log (reactive) signals on top.

use saga_core::{EntityId, KnowledgeGraph, PredicateId, TypeId, Volatility};
use std::collections::HashMap;

/// Frequency statistics for one predicate.
#[derive(Debug, Clone, Copy, Default)]
pub struct PredicateStats {
    /// Total triples with this predicate.
    pub frequency: usize,
    /// Distinct subjects using it.
    pub distinct_subjects: usize,
}

/// Coverage of `predicate` among entities of `entity_type`.
#[derive(Debug, Clone, Copy)]
pub struct Coverage {
    /// The ontology type profiled.
    pub entity_type: TypeId,
    /// The predicate.
    pub predicate: PredicateId,
    /// Entities of the type (or a subtype).
    pub population: usize,
    /// Entities of the type having ≥1 fact with the predicate.
    pub covered: usize,
}

impl Coverage {
    /// Fraction covered in `[0, 1]`; 1.0 for an empty population.
    pub fn fraction(&self) -> f64 {
        if self.population == 0 {
            1.0
        } else {
            self.covered as f64 / self.population as f64
        }
    }
}

/// A profile of the whole graph.
#[derive(Debug, Clone)]
pub struct GraphProfile {
    /// Per-predicate frequency statistics.
    pub predicate_stats: HashMap<PredicateId, PredicateStats>,
    /// Per-(type, predicate) coverage rows.
    pub coverage: Vec<Coverage>,
    /// Entities in the graph at profile time.
    pub num_entities: usize,
    /// Triples in the graph at profile time.
    pub num_triples: usize,
}

/// Computes predicate statistics and, for every predicate with a declared
/// domain, its coverage over entities of that domain (including subtypes).
pub fn profile(kg: &KnowledgeGraph) -> GraphProfile {
    let mut stats: HashMap<PredicateId, PredicateStats> = HashMap::new();
    let mut subjects: HashMap<PredicateId, std::collections::HashSet<EntityId>> = HashMap::new();
    for k in kg.keys() {
        let e = stats.entry(k.p).or_default();
        e.frequency += 1;
        subjects.entry(k.p).or_default().insert(k.s);
    }
    for (p, subs) in &subjects {
        stats.get_mut(p).expect("stat exists").distinct_subjects = subs.len();
    }

    // Population per declared domain type.
    let ont = kg.ontology();
    let mut coverage = Vec::new();
    for pinfo in ont.predicates() {
        let Some(domain) = pinfo.domain else { continue };
        let mut population = 0usize;
        let mut covered = 0usize;
        for ent in kg.entities() {
            if ont.is_subtype(ent.entity_type, domain) {
                population += 1;
                if subjects.get(&pinfo.id).is_some_and(|s| s.contains(&ent.id)) {
                    covered += 1;
                }
            }
        }
        coverage.push(Coverage { entity_type: domain, predicate: pinfo.id, population, covered });
    }

    GraphProfile {
        predicate_stats: stats,
        coverage,
        num_entities: kg.num_entities(),
        num_triples: kg.num_triples(),
    }
}

/// A gap: an entity of a predicate's domain lacking any fact for it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MissingFact {
    /// The entity concerned.
    pub entity: EntityId,
    /// The predicate.
    pub predicate: PredicateId,
    /// Importance of filling the gap: entity popularity × predicate coverage
    /// (common predicates missing on popular entities matter most).
    pub importance: f64,
}

/// Enumerates missing facts, most important first, capped at `limit`.
///
/// Predicates with a declared domain are profiled over that domain.
/// Domain-less predicates (e.g. `release_date`, shared by movies and songs)
/// get **observed domains**: each exact type whose entities actually use the
/// predicate with ≥5% coverage is treated as an expected domain — so a movie
/// missing its release date is still flagged.
pub fn missing_facts(kg: &KnowledgeGraph, limit: usize) -> Vec<MissingFact> {
    let ont = kg.ontology();
    // subject -> set of predicates present
    let mut present: HashMap<EntityId, std::collections::HashSet<PredicateId>> = HashMap::new();
    for k in kg.keys() {
        present.entry(k.s).or_default().insert(k.p);
    }
    // Entity count per exact type.
    let mut type_population: HashMap<TypeId, usize> = HashMap::new();
    for e in kg.entities() {
        *type_population.entry(e.entity_type).or_default() += 1;
    }
    // (exact type, predicate) usage counts for observed-domain inference.
    let mut usage: HashMap<(TypeId, PredicateId), usize> = HashMap::new();
    for (ent, preds) in &present {
        let ty = kg.entity(*ent).entity_type;
        for p in preds {
            *usage.entry((ty, *p)).or_default() += 1;
        }
    }

    let prof = profile(kg);
    let cov_frac: HashMap<(TypeId, PredicateId), f64> =
        prof.coverage.iter().map(|c| ((c.entity_type, c.predicate), c.fraction())).collect();

    let mut out = Vec::new();
    for pinfo in ont.predicates() {
        if pinfo.is_noise_for_embeddings {
            // Bookkeeping facts (external ids, counters) are not
            // "high-valued facts" worth targeted extraction.
            continue;
        }
        // Expected (domain, coverage) pairs for this predicate.
        let mut expected: Vec<(TypeId, f64, bool)> = Vec::new(); // (type, cov, subtype-match?)
        match pinfo.domain {
            Some(domain) => {
                let cov = cov_frac.get(&(domain, pinfo.id)).copied().unwrap_or(0.0);
                if cov >= 0.05 {
                    expected.push((domain, cov, true));
                }
            }
            None => {
                for (&(ty, p), &used) in &usage {
                    if p != pinfo.id {
                        continue;
                    }
                    let pop = type_population.get(&ty).copied().unwrap_or(0);
                    if pop == 0 {
                        continue;
                    }
                    let cov = used as f64 / pop as f64;
                    if cov >= 0.05 {
                        expected.push((ty, cov, false));
                    }
                }
            }
        }
        for (domain, cov, use_subtypes) in expected {
            for ent in kg.entities() {
                let in_domain = if use_subtypes {
                    ont.is_subtype(ent.entity_type, domain)
                } else {
                    ent.entity_type == domain
                };
                if !in_domain {
                    continue;
                }
                let has = present.get(&ent.id).is_some_and(|s| s.contains(&pinfo.id));
                if !has {
                    out.push(MissingFact {
                        entity: ent.id,
                        predicate: pinfo.id,
                        importance: ent.popularity as f64 * cov,
                    });
                }
            }
        }
    }
    out.sort_by(|a, b| {
        b.importance
            .partial_cmp(&a.importance)
            .unwrap()
            .then(a.entity.cmp(&b.entity))
            .then(a.predicate.cmp(&b.predicate))
    });
    out.truncate(limit);
    out
}

/// A stale fact: volatile predicate not re-observed recently.
#[derive(Debug, Clone)]
pub struct StaleFact {
    /// The fact concerned.
    pub triple: saga_core::Triple,
    /// Commits elapsed since last observation.
    pub age: u64,
}

/// Finds facts of `Fast`-volatility predicates (or `Slow` at double the
/// threshold) older than `max_age` commits.
pub fn stale_facts(kg: &KnowledgeGraph, max_age: u64, limit: usize) -> Vec<StaleFact> {
    let now = kg.current_commit();
    let ont = kg.ontology();
    let mut out = Vec::new();
    for k in kg.keys() {
        let t = kg.decode(k);
        let Some(meta) = kg.fact_meta(&t) else { continue };
        let age = now.saturating_sub(meta.observed_at);
        let threshold = match ont.predicate(t.predicate).volatility {
            Volatility::Fast => max_age,
            Volatility::Slow => max_age * 2,
            Volatility::Stable => continue,
        };
        if age > threshold {
            out.push(StaleFact { triple: t, age });
        }
    }
    out.sort_by_key(|b| std::cmp::Reverse(b.age));
    out.truncate(limit);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use saga_core::synth::{generate, SynthConfig};
    use saga_core::{Triple, Value};

    #[test]
    fn profile_counts_match_store() {
        let s = generate(&SynthConfig::tiny(13));
        let p = profile(&s.kg);
        assert_eq!(p.num_triples, s.kg.num_triples());
        let total: usize = p.predicate_stats.values().map(|s| s.frequency).sum();
        assert_eq!(total, s.kg.num_triples());
        let occ = &p.predicate_stats[&s.preds.occupation];
        assert!(occ.frequency >= occ.distinct_subjects);
        assert!(occ.distinct_subjects > 0);
    }

    #[test]
    fn coverage_reflects_population() {
        let s = generate(&SynthConfig::tiny(13));
        let p = profile(&s.kg);
        let dob_cov = p
            .coverage
            .iter()
            .find(|c| c.predicate == s.preds.date_of_birth)
            .expect("dob coverage computed");
        assert!(dob_cov.population >= s.people.len() - 1);
        // Every generated person gets a DOB except the singer scenario.
        assert!(dob_cov.fraction() > 0.9 && dob_cov.fraction() < 1.0);
    }

    #[test]
    fn missing_facts_finds_the_singer_dob_gap() {
        let s = generate(&SynthConfig::tiny(13));
        let missing = missing_facts(&s.kg, 10_000);
        assert!(
            missing
                .iter()
                .any(|m| m.entity == s.scenario.mw_singer && m.predicate == s.preds.date_of_birth),
            "the Fig. 6 gap must be detected"
        );
        // Sorted by importance descending.
        assert!(missing.windows(2).all(|w| w[0].importance >= w[1].importance));
    }

    #[test]
    fn missing_facts_importance_prefers_popular_entities() {
        let s = generate(&SynthConfig::tiny(13));
        let missing = missing_facts(&s.kg, 50);
        // The head of the list should be notably popular.
        let head_pop = s.kg.entity(missing[0].entity).popularity;
        assert!(head_pop > 0.3, "head importance {head_pop}");
    }

    #[test]
    fn domainless_predicates_get_observed_domains() {
        let s = generate(&SynthConfig::tiny(13));
        let mut kg = s.kg;
        // Remove one movie's release date.
        let victim = *s.movies.first().expect("movies exist");
        let date = kg.object(victim, s.preds.release_date).expect("movie has a date");
        kg.remove(&Triple { subject: victim, predicate: s.preds.release_date, object: date });
        kg.commit();
        let missing = missing_facts(&kg, 100_000);
        assert!(
            missing.iter().any(|m| m.entity == victim && m.predicate == s.preds.release_date),
            "the movie's missing release_date must be flagged despite release_date having no \
             declared domain"
        );
        // But people must NOT be expected to have release dates.
        assert!(!missing
            .iter()
            .any(|m| m.predicate == s.preds.release_date && s.people.contains(&m.entity)));
    }

    #[test]
    fn stale_facts_detects_old_volatile_facts() {
        let s = generate(&SynthConfig::tiny(13));
        let mut kg = s.kg;
        // Age the graph: many empty commits.
        for _ in 0..20 {
            kg.insert(Triple::new(s.people[0], s.preds.lives_in, Value::Entity(s.places[0])));
            kg.commit();
        }
        let stale = stale_facts(&kg, 5, 100);
        assert!(!stale.is_empty());
        for f in &stale {
            let vol = kg.ontology().predicate(f.triple.predicate).volatility;
            assert!(vol != Volatility::Stable);
            assert!(f.age > 5);
        }
        // The fact we keep refreshing must NOT be stale.
        assert!(!stale
            .iter()
            .any(|f| f.triple.subject == s.people[0] && f.triple.predicate == s.preds.lives_in));
    }
}
