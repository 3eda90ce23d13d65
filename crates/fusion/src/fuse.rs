//! Blocking, matching, clustering, and conflict-resolving fusion of source
//! records into a canonical knowledge graph — the server-side continuous
//! construction this paper's platform extends.

use crate::source::{FeedTrust, SourceEntity};
use saga_core::text::{jaccard, normalize_phrase};
use saga_core::{Cardinality, EntityBuilder, EntityId, KnowledgeGraph, Ontology, Triple, Value};
use std::collections::HashMap;

/// Fusion parameters.
#[derive(Debug, Clone)]
pub struct FusionConfig {
    /// Minimum pair score to merge two records.
    pub match_threshold: f32,
    /// Blocks larger than this are skipped.
    pub max_block_size: usize,
}

impl Default for FusionConfig {
    fn default() -> Self {
        Self { match_threshold: 0.7, max_block_size: 64 }
    }
}

/// The canonical store under continuous construction.
pub struct FusionEngine {
    kg: KnowledgeGraph,
    cfg: FusionConfig,
    trust: HashMap<String, f32>,
    /// Blocking key → canonical entities carrying it.
    block_index: HashMap<String, Vec<EntityId>>,
    /// `(source, external_id)` → canonical entity (provenance map).
    resolved: HashMap<(String, String), EntityId>,
    /// Per (entity, predicate-name, canonical value): accumulated evidence.
    evidence: HashMap<(EntityId, String, String), ValueEvidence>,
}

/// Evidence accumulated for one candidate value.
#[derive(Debug, Clone, Default)]
pub struct ValueEvidence {
    /// Sum of trust of supporting feeds.
    pub trust_sum: f32,
    /// Supporting records.
    pub support: usize,
    /// A representative parsed value.
    pub value: Option<Value>,
}

/// Statistics of one ingest batch.
#[derive(Debug, Clone, Copy, Default)]
pub struct IngestStats {
    /// Records processed in the batch.
    pub records: usize,
    /// Records that created a new canonical entity.
    pub new_entities: usize,
    /// Records merged into an existing canonical entity.
    pub merged_into_existing: usize,
    /// Candidate pairs scored during blocking.
    pub pairs_scored: usize,
}

impl IngestStats {
    /// Record this batch through an obs scope (call once per batch —
    /// counters add): one counter per field.
    pub fn record_to(&self, scope: &saga_core::obs::Scope) {
        scope.counter("records").add(self.records as u64);
        scope.counter("new_entities").add(self.new_entities as u64);
        scope.counter("merged_into_existing").add(self.merged_into_existing as u64);
        scope.counter("pairs_scored").add(self.pairs_scored as u64);
    }
}

/// Blocking keys of a record: normalized full name + (last token, type).
fn block_keys(r: &SourceEntity) -> Vec<String> {
    let norm = normalize_phrase(&r.name);
    let mut keys = vec![format!("name:{norm}")];
    if let Some(last) = norm.split(' ').next_back() {
        keys.push(format!("last+type:{last}|{}", r.type_name));
    }
    keys
}

/// Name compatibility tolerant of initials: `"m jordan"` matches
/// `"michael jordan"`.
fn names_compatible(a: &str, b: &str) -> f32 {
    let na = normalize_phrase(a);
    let nb = normalize_phrase(b);
    if na == nb {
        return 1.0;
    }
    let ta: Vec<&str> = na.split(' ').collect();
    let tb: Vec<&str> = nb.split(' ').collect();
    // Same surname + compatible first token (prefix match covers initials).
    if ta.last() == tb.last() {
        if let (Some(fa), Some(fb)) = (ta.first(), tb.first()) {
            if fa.starts_with(fb) || fb.starts_with(fa) {
                return 0.85;
            }
        }
    }
    jaccard(&na, &nb)
}

impl FusionEngine {
    /// Creates an engine over an ontology (the unified schema) with feed
    /// trust priors.
    pub fn new(ontology: Ontology, trust: &[FeedTrust], cfg: FusionConfig) -> Self {
        Self {
            kg: KnowledgeGraph::new(ontology),
            cfg,
            trust: trust.iter().map(|t| (t.source.clone(), t.trust)).collect(),
            block_index: HashMap::new(),
            resolved: HashMap::new(),
            evidence: HashMap::new(),
        }
    }

    /// The canonical graph built so far.
    pub fn kg(&self) -> &KnowledgeGraph {
        &self.kg
    }

    /// Canonical entity a source record resolved to (after ingestion).
    pub fn resolution(&self, source: &str, external_id: &str) -> Option<EntityId> {
        self.resolved.get(&(source.to_owned(), external_id.to_owned())).copied()
    }

    /// Scores a record against an existing canonical entity.
    fn score_against(&self, r: &SourceEntity, canonical: EntityId) -> f32 {
        let ent = self.kg.entity(canonical);
        let name_score = names_compatible(&r.name, &ent.name);
        if name_score < 0.5 {
            return 0.0;
        }
        // Type agreement.
        let type_ok = self.kg.ontology().type_info(ent.entity_type).name == r.type_name;
        // Shared-fact agreement: does any of the record's facts match a
        // stored fact of the canonical entity?
        let mut agree = 0usize;
        let mut conflict = 0usize;
        for (pname, value) in &r.facts {
            let Some(pred) = self.kg.ontology().predicate_by_name(pname) else { continue };
            let existing = self.kg.objects(canonical, pred);
            if existing.is_empty() {
                continue;
            }
            if existing.iter().any(|v| v.same_as(value)) {
                agree += 1;
            } else if self.kg.ontology().predicate(pred).cardinality == Cardinality::Single {
                conflict += 1;
            }
        }
        // Name + type dominate (an exact name of the right type merges even
        // when one low-quality feed disagrees on a value); fact agreement
        // nudges, conflicts dampen but do not veto.
        let mut score = 0.7 * name_score;
        if type_ok {
            score += 0.2;
        }
        score += 0.1 * agree.min(2) as f32;
        score -= 0.15 * conflict.min(2) as f32;
        score
    }

    /// Ingests one batch of source records: blocks each record against the
    /// existing canonical entities (and the batch's own new ones), merges or
    /// creates, accumulates value evidence, and re-resolves conflicts.
    pub fn ingest(&mut self, batch: &[SourceEntity]) -> IngestStats {
        let mut stats = IngestStats { records: batch.len(), ..Default::default() };
        for r in batch {
            // Candidate canonical entities from the block index.
            let mut candidates: Vec<EntityId> = Vec::new();
            for key in block_keys(r) {
                if let Some(list) = self.block_index.get(&key) {
                    if list.len() <= self.cfg.max_block_size {
                        candidates.extend(list.iter().copied());
                    }
                }
            }
            candidates.sort_unstable();
            candidates.dedup();

            let mut best: Option<(EntityId, f32)> = None;
            for c in candidates {
                stats.pairs_scored += 1;
                let s = self.score_against(r, c);
                if s >= self.cfg.match_threshold && best.is_none_or(|(_, bs)| s > bs) {
                    best = Some((c, s));
                }
            }

            let canonical = match best {
                Some((c, _)) => {
                    stats.merged_into_existing += 1;
                    c
                }
                None => {
                    stats.new_entities += 1;
                    let type_id = self
                        .kg
                        .ontology()
                        .type_by_name(&r.type_name)
                        .unwrap_or_else(|| self.kg.ontology_mut().add_type(&r.type_name, None));
                    let id = self.kg.add_entity(
                        EntityBuilder::new(&r.name, type_id)
                            .description(format!("fused from {}", r.source))
                            .popularity(0.5),
                    );
                    id
                }
            };

            // Index this record's keys for future blocking.
            for key in block_keys(r) {
                let list = self.block_index.entry(key).or_default();
                if !list.contains(&canonical) {
                    list.push(canonical);
                }
            }
            self.resolved.insert((r.source.clone(), r.external_id.clone()), canonical);

            // Accumulate evidence and (re)resolve each fact.
            let trust = self.trust.get(&r.source).copied().unwrap_or(0.5);
            for (pname, value) in &r.facts {
                let key = (canonical, pname.clone(), value.canonical());
                let ev = self.evidence.entry(key).or_default();
                ev.trust_sum += trust;
                ev.support += 1;
                ev.value = Some(value.clone());
            }
            self.resolve_facts(canonical, r);
            // Commit per record so matching sees identical state regardless
            // of how the stream is batched (incremental ≡ one-shot).
            self.kg.commit();
        }
        stats
    }

    /// Writes the winning value(s) for each predicate the record touched.
    fn resolve_facts(&mut self, canonical: EntityId, r: &SourceEntity) {
        let pred_names: std::collections::HashSet<&String> =
            r.facts.iter().map(|(p, _)| p).collect();
        for pname in pred_names {
            let Some(pred) = self.kg.ontology().predicate_by_name(pname) else { continue };
            let info = self.kg.ontology().predicate(pred).clone();
            // All evidence rows for (canonical, pname).
            let mut rows: Vec<(&ValueEvidence, &String)> = self
                .evidence
                .iter()
                .filter(|((e, p, _), _)| *e == canonical && p == pname)
                .map(|((_, _, v), ev)| (ev, v))
                .collect();
            if rows.is_empty() {
                continue;
            }
            rows.sort_by(|a, b| {
                b.0.trust_sum
                    .partial_cmp(&a.0.trust_sum)
                    .unwrap()
                    .then(b.0.support.cmp(&a.0.support))
                    .then(a.1.cmp(b.1))
            });
            let src = self.kg.register_source("fusion");
            match info.cardinality {
                Cardinality::Single => {
                    let winner = rows[0].0.value.clone().expect("evidence has value");
                    for old in self.kg.objects(canonical, pred) {
                        if !old.same_as(&winner) {
                            self.kg.remove(&Triple {
                                subject: canonical,
                                predicate: pred,
                                object: old,
                            });
                        }
                    }
                    let conf = (rows[0].0.trust_sum / (rows[0].0.trust_sum + 0.5)).min(0.99);
                    self.kg.insert_with(
                        Triple { subject: canonical, predicate: pred, object: winner },
                        src,
                        conf,
                    );
                }
                Cardinality::Multi => {
                    for (ev, _) in rows {
                        if ev.trust_sum >= 0.3 {
                            let v = ev.value.clone().expect("evidence has value");
                            self.kg.insert_with(
                                Triple { subject: canonical, predicate: pred, object: v },
                                src,
                                (ev.trust_sum / (ev.trust_sum + 0.5)).min(0.99),
                            );
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{generate_feeds, FeedConfig};
    use saga_core::synth::{generate, standard_ontology, SynthConfig};

    fn engine_and_data() -> (FusionEngine, crate::source::FeedData, saga_core::synth::SynthKg) {
        let s = generate(&SynthConfig::tiny(311));
        let data = generate_feeds(&s, &FeedConfig::default());
        let (ontology, _, _) = standard_ontology(0);
        let engine = FusionEngine::new(ontology, &data.trust, FusionConfig::default());
        (engine, data, s)
    }

    /// Pairwise resolution quality vs ground truth.
    fn pairwise_f1(engine: &FusionEngine, data: &crate::source::FeedData) -> (f64, f64, f64) {
        let recs: Vec<&SourceEntity> = data.records.iter().collect();
        let (mut tp, mut fp, mut fn_) = (0u64, 0u64, 0u64);
        for i in 0..recs.len() {
            for j in i + 1..recs.len() {
                let key_i = (recs[i].source.clone(), recs[i].external_id.clone());
                let key_j = (recs[j].source.clone(), recs[j].external_id.clone());
                let same_truth = data.owner[&key_i] == data.owner[&key_j];
                let same_pred = engine.resolution(&recs[i].source, &recs[i].external_id)
                    == engine.resolution(&recs[j].source, &recs[j].external_id);
                match (same_pred, same_truth) {
                    (true, true) => tp += 1,
                    (true, false) => fp += 1,
                    (false, true) => fn_ += 1,
                    _ => {}
                }
            }
        }
        let p = tp as f64 / (tp + fp).max(1) as f64;
        let r = tp as f64 / (tp + fn_).max(1) as f64;
        (p, r, 2.0 * p * r / (p + r).max(1e-9))
    }

    #[test]
    fn fusion_deduplicates_across_feeds() {
        let (mut engine, data, _) = engine_and_data();
        let stats = engine.ingest(&data.records);
        assert_eq!(stats.records, data.records.len());
        assert!(stats.merged_into_existing > 20, "cross-feed merges: {stats:?}");
        let distinct_truth: std::collections::HashSet<_> = data.owner.values().collect();
        let built = engine.kg().num_entities();
        // Canonical entity count ≈ distinct true entities.
        let diff = (built as i64 - distinct_truth.len() as i64).abs();
        assert!(
            diff <= (distinct_truth.len() / 5) as i64,
            "built {built} vs truth {}",
            distinct_truth.len()
        );
        let (p, r, f1) = pairwise_f1(&engine, &data);
        assert!(p > 0.9, "precision {p}");
        assert!(r > 0.75, "recall {r}");
        assert!(f1 > 0.85, "f1 {f1}");
    }

    #[test]
    fn no_foreign_entity_ids_leak_into_the_canonical_graph() {
        // Feeds reference entities by name; every entity-valued object in
        // the fused KG must point at a fused entity, never at a foreign id.
        let (mut engine, data, _) = engine_and_data();
        engine.ingest(&data.records);
        let n = engine.kg().num_entities() as u64;
        for k in engine.kg().keys() {
            let t = engine.kg().decode(k);
            if let saga_core::Value::Entity(e) = t.object {
                assert!(e.raw() < n, "foreign entity id {e:?} leaked into fused KG");
            }
        }
    }

    #[test]
    fn trusted_sources_win_conflicts() {
        let (mut engine, data, s) = engine_and_data();
        engine.ingest(&data.records);
        // For entities described by census (trust 0.95) and corrupted in
        // scraped (trust 0.35), the canonical DOB must equal the truth.
        let mut checked = 0;
        let mut correct = 0;
        for r in data.records.iter().filter(|r| r.source == "census") {
            let truth_entity = data.owner[&(r.source.clone(), r.external_id.clone())];
            let Some(canonical) = engine.resolution(&r.source, &r.external_id) else { continue };
            let true_dob = s.kg.object(truth_entity, s.preds.date_of_birth);
            let pred = engine.kg().ontology().predicate_by_name("date_of_birth").unwrap();
            let fused_dob = engine.kg().object(canonical, pred);
            if let (Some(t), Some(f)) = (true_dob, fused_dob) {
                checked += 1;
                if t.same_as(&f) {
                    correct += 1;
                }
            }
        }
        assert!(checked > 20);
        assert!(correct * 100 >= checked * 95, "trusted DOB wins only {correct}/{checked}");
    }

    #[test]
    fn incremental_batches_match_one_shot() {
        let (mut one_shot, data, _) = engine_and_data();
        one_shot.ingest(&data.records);

        let s2 = generate(&SynthConfig::tiny(311));
        let (ontology, _, _) = standard_ontology(0);
        let mut incremental = FusionEngine::new(ontology, &data.trust, FusionConfig::default());
        let _ = s2;
        let third = data.records.len() / 3;
        incremental.ingest(&data.records[..third]);
        incremental.ingest(&data.records[third..2 * third]);
        incremental.ingest(&data.records[2 * third..]);

        assert_eq!(incremental.kg().num_entities(), one_shot.kg().num_entities());
        // Same resolution for every record.
        for r in &data.records {
            assert_eq!(
                incremental.resolution(&r.source, &r.external_id),
                one_shot.resolution(&r.source, &r.external_id),
                "record {}/{} resolved differently",
                r.source,
                r.external_id
            );
        }
    }

    #[test]
    fn initialed_newswire_records_link_to_full_names() {
        let (mut engine, data, _) = engine_and_data();
        engine.ingest(&data.records);
        // Find an initialed newswire record whose true entity also appears
        // in the census feed; they must resolve to the same canonical.
        let mut linked = 0;
        let mut candidates = 0;
        for r in data.records.iter().filter(|r| r.source == "newswire" && r.name.contains(". ")) {
            let truth = data.owner[&(r.source.clone(), r.external_id.clone())];
            let census_rec = data.records.iter().find(|c| {
                c.source == "census"
                    && data.owner[&(c.source.clone(), c.external_id.clone())] == truth
            });
            if let Some(c) = census_rec {
                candidates += 1;
                if engine.resolution(&r.source, &r.external_id)
                    == engine.resolution(&c.source, &c.external_id)
                {
                    linked += 1;
                }
            }
        }
        if candidates > 0 {
            assert!(linked * 100 >= candidates * 70, "initialed linking {linked}/{candidates}");
        }
    }
}
