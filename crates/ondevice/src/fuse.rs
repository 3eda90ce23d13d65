//! Graph fusion: turning observation clusters into a consolidated personal
//! knowledge graph in a unified ontology (Fig. 7, right side).

use crate::sources::{PersonObservation, SourceKind};
use saga_core::{EntityBuilder, EntityId, KnowledgeGraph, Ontology, Triple, Value, ValueKind};

/// Predicate/type handles of the personal ontology.
#[derive(Debug, Clone, Copy)]
pub struct PersonalOntology {
    /// The person type.
    pub person: saga_core::TypeId,
    /// Phone number(s).
    pub phone: saga_core::PredicateId,
    /// Email address(es).
    pub email: saga_core::PredicateId,
    /// Name as observed in a source.
    pub observed_name: saga_core::PredicateId,
    /// Topical context facts.
    pub talks_about: saga_core::PredicateId,
}

/// Builds the unified personal ontology.
pub fn personal_ontology() -> (Ontology, PersonalOntology) {
    use saga_core::{Cardinality::Multi, Volatility::Slow};
    let mut o = Ontology::new();
    let person = o.add_type("person", None);
    let handles = PersonalOntology {
        person,
        phone: o.add_predicate(
            "phone",
            "phone number",
            ValueKind::Text,
            Some(person),
            Multi,
            Slow,
            true,
        ),
        email: o.add_predicate(
            "email",
            "email address",
            ValueKind::Text,
            Some(person),
            Multi,
            Slow,
            true,
        ),
        observed_name: o.add_predicate(
            "observed_name",
            "observed name",
            ValueKind::Text,
            Some(person),
            Multi,
            Slow,
            true,
        ),
        talks_about: o.add_predicate(
            "talks_about",
            "talks about",
            ValueKind::Text,
            Some(person),
            Multi,
            Slow,
            false,
        ),
    };
    (o, handles)
}

/// A fused person entity with its source provenance.
#[derive(Debug, Clone)]
pub struct FusedPerson {
    /// The entity concerned.
    pub entity: EntityId,
    /// Longest observed name (canonical display).
    pub display_name: String,
    /// Member observations as `(source, record_id)`.
    pub members: Vec<(SourceKind, u64)>,
}

/// Fuses clusters into `kg`, returning the fused person records. Each
/// cluster becomes one Person entity with phone/email/name facts and
/// topical context facts (for contextual relevance ranking).
pub fn fuse_clusters(
    kg: &mut KnowledgeGraph,
    handles: &PersonalOntology,
    observations: &[PersonObservation],
    clusters: &[Vec<usize>],
) -> Vec<FusedPerson> {
    let mut out = Vec::with_capacity(clusters.len());
    for cluster in clusters {
        let members: Vec<&PersonObservation> = cluster.iter().map(|&i| &observations[i]).collect();
        let display_name =
            members.iter().map(|o| o.name.clone()).max_by_key(|n| n.len()).unwrap_or_default();

        let entity = kg.add_entity(
            EntityBuilder::new(&display_name, handles.person)
                .description("personal contact")
                .popularity((cluster.len() as f32 / 10.0).min(1.0)),
        );
        for o in &members {
            let src = kg.register_source(source_name(o.source));
            if let Some(p) = &o.phone {
                kg.insert_with(
                    Triple::new(
                        entity,
                        handles.phone,
                        Value::Text(crate::matching::normalize_phone(p)),
                    ),
                    src,
                    1.0,
                );
            }
            if let Some(e) = &o.email {
                kg.insert_with(
                    Triple::new(
                        entity,
                        handles.email,
                        Value::Text(crate::matching::normalize_email(e)),
                    ),
                    src,
                    1.0,
                );
            }
            kg.insert_with(
                Triple::new(entity, handles.observed_name, Value::Text(o.name.clone())),
                src,
                1.0,
            );
            if !o.context.is_empty() {
                kg.insert_with(
                    Triple::new(entity, handles.talks_about, Value::Text(o.context.clone())),
                    src,
                    0.8,
                );
            }
        }
        out.push(FusedPerson {
            entity,
            display_name,
            members: members.iter().map(|o| (o.source, o.record_id)).collect(),
        });
    }
    kg.commit();
    out
}

fn source_name(kind: SourceKind) -> &'static str {
    match kind {
        SourceKind::Contacts => "contacts",
        SourceKind::Messages => "messages",
        SourceKind::Calendar => "calendar",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::ConstructionPipeline;
    use crate::sources::{generate_device_data, DeviceDataConfig};

    fn resolve(obs: &[PersonObservation]) -> Vec<Vec<usize>> {
        let mut p = ConstructionPipeline::new(obs.to_vec());
        p.run_to_completion();
        p.clusters().to_vec()
    }

    #[test]
    fn fusion_builds_consolidated_entities() {
        let (obs, truth) = generate_device_data(&DeviceDataConfig::tiny(31));
        let clusters = resolve(&obs);
        let (ont, handles) = personal_ontology();
        let mut kg = KnowledgeGraph::new(ont);
        let fused = fuse_clusters(&mut kg, &handles, &obs, &clusters);
        assert_eq!(fused.len(), clusters.len());
        // Cluster count should approximate the true person count.
        let diff = (fused.len() as i64 - truth.persons.len() as i64).abs();
        assert!(
            diff <= (truth.persons.len() / 5) as i64,
            "clusters {} vs persons {}",
            fused.len(),
            truth.persons.len()
        );
        // Each fused person has phone and email facts (contact always present).
        let multi: Vec<&FusedPerson> = fused.iter().filter(|f| f.members.len() > 1).collect();
        assert!(!multi.is_empty());
        for f in multi.iter().take(10) {
            assert!(!kg.objects(f.entity, handles.phone).is_empty());
            assert!(!kg.objects(f.entity, handles.observed_name).is_empty());
        }
        kg.check_invariants().unwrap();
    }

    #[test]
    fn display_name_prefers_full_form() {
        let (obs, _) = generate_device_data(&DeviceDataConfig::tiny(31));
        let clusters = resolve(&obs);
        let (ont, handles) = personal_ontology();
        let mut kg = KnowledgeGraph::new(ont);
        let fused = fuse_clusters(&mut kg, &handles, &obs, &clusters);
        for f in fused.iter().filter(|f| f.members.len() > 2).take(10) {
            assert!(
                f.display_name.contains(' '),
                "multi-source person uses full name, got {:?}",
                f.display_name
            );
        }
    }
}
