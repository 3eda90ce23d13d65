//! The triple store at the heart of the platform.
//!
//! Design (mirrors Saga's continuous-construction model):
//! - writes are queued and applied in **commits**; each commit produces a
//!   [`Delta`] that downstream consumers (views, annotation freshness, sync)
//!   subscribe to;
//! - reads go through three sorted covering indexes (SPO, POS, OSP) so every
//!   triple-pattern shape has a log-time range scan;
//! - object literals are interned ([`crate::literal::LiteralTable`]) so index
//!   entries are fixed-width 20-byte keys.
//!
//! Invariant: after `commit()`, the three indexes contain exactly the same
//! set of [`TripleKey`]s (checked by property tests) and `meta` has an entry
//! for every key.

use crate::entity::{EntityBuilder, EntityRecord};
use crate::ids::{EntityId, Interner, LiteralId, PredicateId, SourceId};
use crate::literal::LiteralTable;
use crate::ontology::Ontology;
use crate::triple::{FactMeta, ObjKey, Triple, TripleKey};
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::HashMap;

/// The set of changes applied by one commit.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Delta {
    /// Commit sequence number this delta belongs to.
    pub commit: u64,
    /// Facts newly added in this commit.
    pub added: Vec<Triple>,
    /// Facts removed in this commit.
    pub removed: Vec<Triple>,
    /// Facts that already existed and whose metadata (freshness, confidence)
    /// was refreshed.
    pub refreshed: Vec<Triple>,
}

impl Delta {
    /// True when the commit changed nothing.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty() && self.refreshed.is_empty()
    }
}

/// A fact's place in *content order*: subject, predicate, object kind, then
/// the object's canonical string. It names a fact independent of interner
/// state, so it compares facts across graphs with different histories, and
/// it is the order [`KnowledgeGraph::canonicalized_bytes`] numbers literals in.
pub type FactContentKey = (u64, u64, u8, String);

/// The [`FactContentKey`] of `t`.
pub fn fact_content_key(t: &Triple) -> FactContentKey {
    let (kind, canonical) = object_content_key(&t.object);
    (t.subject.raw(), u64::from(t.predicate.raw()), kind, canonical)
}

/// The object part of a [`FactContentKey`].
fn object_content_key(v: &Value) -> (u8, String) {
    (v.kind() as u8, v.canonical())
}

/// The one commit a canonicalized graph is at, and every fact in it was
/// observed at.
const CANONICAL_COMMIT: u64 = 1;

/// The fields of a graph's binary image, in the order they are written and
/// `BinCodec::dec` reads them back. The format has this one writer: a
/// graph's `enc` lends it its own fields, and
/// [`KnowledgeGraph::canonicalized_bytes`] tables that were never assembled
/// into a graph.
struct GraphImage<'a> {
    ontology: &'a Ontology,
    entities: &'a [EntityRecord],
    /// The literal table's values, by id.
    literals: Vec<&'a Value>,
    sources: &'a Interner,
    spo: &'a [TripleKey],
    pos: &'a [TripleKey],
    osp: &'a [TripleKey],
    /// The meta of every committed fact, sorted by key so equal graphs
    /// encode to equal bytes (the map iterates in no particular order).
    meta: &'a [(TripleKey, FactMeta)],
    pending_add: &'a [(TripleKey, SourceId, f32)],
    pending_remove: &'a [TripleKey],
    commit_counter: u64,
}

impl GraphImage<'_> {
    fn write(self, out: &mut Vec<u8>) {
        use crate::persist::codec::{enc_seq, BinCodec};
        self.ontology.enc(out);
        enc_seq(self.entities.iter(), out);
        enc_seq(self.literals.into_iter(), out);
        self.sources.enc(out);
        enc_seq(self.spo.iter(), out);
        enc_seq(self.pos.iter(), out);
        enc_seq(self.osp.iter(), out);
        enc_seq(self.meta.iter(), out);
        enc_seq(self.pending_add.iter(), out);
        enc_seq(self.pending_remove.iter(), out);
        self.commit_counter.enc(out);
    }
}

/// `k` with a literal object renumbered through `new_id`.
fn rekeyed(k: &TripleKey, new_id: &[u64]) -> TripleKey {
    match k.o.as_literal() {
        Some(old) => TripleKey { o: ObjKey::literal(LiteralId(new_id[old.index()])), ..*k },
        None => *k,
    }
}

fn pos_cmp(a: &TripleKey, b: &TripleKey) -> Ordering {
    (a.p, a.o, a.s).cmp(&(b.p, b.o, b.s))
}

fn osp_cmp(a: &TripleKey, b: &TripleKey) -> Ordering {
    (a.o, a.s, a.p).cmp(&(b.o, b.s, b.p))
}

/// An in-memory knowledge graph with commit-based mutation and sorted
/// covering indexes. See module docs for invariants.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KnowledgeGraph {
    ontology: Ontology,
    entities: Vec<EntityRecord>,
    literals: LiteralTable,
    sources: Interner,
    spo: Vec<TripleKey>,
    pos: Vec<TripleKey>,
    osp: Vec<TripleKey>,
    #[serde(with = "meta_as_pairs")]
    meta: HashMap<TripleKey, FactMeta>,
    #[serde(skip)]
    pending_add: Vec<(TripleKey, SourceId, f32)>,
    #[serde(skip)]
    pending_remove: Vec<TripleKey>,
    commit_counter: u64,
}

impl KnowledgeGraph {
    /// Creates an empty graph over the given ontology. Source id 0 is
    /// reserved for `"unknown"`.
    pub fn new(ontology: Ontology) -> Self {
        let mut sources = Interner::new();
        sources.intern("unknown");
        Self {
            ontology,
            entities: Vec::new(),
            literals: LiteralTable::new(),
            sources,
            spo: Vec::new(),
            pos: Vec::new(),
            osp: Vec::new(),
            meta: HashMap::new(),
            pending_add: Vec::new(),
            pending_remove: Vec::new(),
            commit_counter: 0,
        }
    }

    // ---------------------------------------------------------------- schema

    /// The graph's ontology.
    pub fn ontology(&self) -> &Ontology {
        &self.ontology
    }

    /// Mutable ontology access (for registering new predicates).
    pub fn ontology_mut(&mut self) -> &mut Ontology {
        &mut self.ontology
    }

    /// Registers a provenance source by name, returning its id.
    pub fn register_source(&mut self, name: &str) -> SourceId {
        SourceId(self.sources.intern(name))
    }

    /// Resolves a source id to its name.
    pub fn source_name(&self, id: SourceId) -> &str {
        self.sources.resolve(id.0)
    }

    // -------------------------------------------------------------- entities

    /// Adds an entity, allocating the next dense id.
    pub fn add_entity(&mut self, builder: EntityBuilder) -> EntityId {
        let id = EntityId(self.entities.len() as u64);
        self.entities.push(builder.build(id));
        id
    }

    /// Re-appends a previously built record during op-log replay (see
    /// `persist::kg`). The record's id must be the next dense id.
    pub fn add_entity_record(&mut self, record: EntityRecord) -> Result<EntityId, String> {
        if record.id.index() != self.entities.len() {
            return Err(format!(
                "entity record id {} is not the next dense id {}",
                record.id,
                self.entities.len()
            ));
        }
        let id = record.id;
        self.entities.push(record);
        Ok(id)
    }

    /// The record of an entity.
    pub fn entity(&self, id: EntityId) -> &EntityRecord {
        &self.entities[id.index()]
    }

    /// The record of an entity, if the id is valid.
    pub fn try_entity(&self, id: EntityId) -> Option<&EntityRecord> {
        self.entities.get(id.index())
    }

    /// Number of entities.
    pub fn num_entities(&self) -> usize {
        self.entities.len()
    }

    /// Iterates over all entity records.
    pub fn entities(&self) -> impl Iterator<Item = &EntityRecord> {
        self.entities.iter()
    }

    /// Linear-scan lookup by canonical name; first match wins. Intended for
    /// tests and examples, not the serving path (which uses alias automata).
    pub fn find_entity_by_name(&self, name: &str) -> Option<&EntityRecord> {
        self.entities.iter().find(|e| e.name == name)
    }

    /// Updates an entity's popularity prior (clamped to `[0, 1]`).
    pub fn set_popularity(&mut self, id: EntityId, popularity: f32) {
        self.entities[id.index()].popularity = popularity.clamp(0.0, 1.0);
    }

    // --------------------------------------------------------------- writing

    /// Encodes a triple into its key form, interning new literals.
    fn encode_mut(&mut self, t: &Triple) -> TripleKey {
        let o = match &t.object {
            Value::Entity(e) => ObjKey::entity(*e),
            other => ObjKey::literal(self.literals.intern(other)),
        };
        TripleKey { s: t.subject, p: t.predicate, o }
    }

    /// Encodes without interning; `None` when the literal is unknown (which
    /// implies the triple is not in the store).
    pub fn encode(&self, t: &Triple) -> Option<TripleKey> {
        let o = match &t.object {
            Value::Entity(e) => ObjKey::entity(*e),
            other => ObjKey::literal(self.literals.get(other)?),
        };
        Some(TripleKey { s: t.subject, p: t.predicate, o })
    }

    /// Decodes an index key back into a full triple.
    pub fn decode(&self, k: TripleKey) -> Triple {
        let object = match k.o.as_entity() {
            Some(e) => Value::Entity(e),
            None => self.literals.resolve(k.o.as_literal().expect("literal key")).clone(),
        };
        Triple { subject: k.s, predicate: k.p, object }
    }

    /// Queues a fact for insertion with default provenance.
    pub fn insert(&mut self, t: Triple) {
        self.insert_with(t, SourceId(0), 1.0);
    }

    /// Queues a fact for insertion with provenance. Takes effect at the next
    /// [`commit`](Self::commit). Re-inserting an existing fact refreshes its
    /// metadata instead of duplicating it.
    pub fn insert_with(&mut self, t: Triple, source: SourceId, confidence: f32) {
        let k = self.encode_mut(&t);
        self.pending_add.push((k, source, confidence));
    }

    /// Queues a fact for removal; a no-op if the fact is absent at commit.
    pub fn remove(&mut self, t: &Triple) {
        if let Some(k) = self.encode(t) {
            self.pending_remove.push(k);
        }
    }

    /// Applies all queued writes, returning the delta. Removals are applied
    /// before insertions within a commit, so remove+insert of the same key in
    /// one commit nets to the fact being present with fresh metadata.
    pub fn commit(&mut self) -> Delta {
        self.commit_counter += 1;
        let now = self.commit_counter;
        let mut delta = Delta { commit: now, ..Delta::default() };

        // Removals first.
        let removals: Vec<TripleKey> = std::mem::take(&mut self.pending_remove);
        let adds: Vec<(TripleKey, SourceId, f32)> = std::mem::take(&mut self.pending_add);
        let add_keys: std::collections::HashSet<TripleKey> =
            adds.iter().map(|(k, _, _)| *k).collect();
        let mut removed_set = std::collections::HashSet::new();
        for k in removals {
            if self.meta.contains_key(&k) && !add_keys.contains(&k) && removed_set.insert(k) {
                self.meta.remove(&k);
                delta.removed.push(self.decode(k));
            }
        }
        if !removed_set.is_empty() {
            self.spo.retain(|k| !removed_set.contains(k));
            self.pos.retain(|k| !removed_set.contains(k));
            self.osp.retain(|k| !removed_set.contains(k));
        }

        // Insertions / refreshes.
        let mut new_keys: Vec<TripleKey> = Vec::new();
        let mut added_this_commit = std::collections::HashSet::new();
        let mut refreshed_this_commit = std::collections::HashSet::new();
        for (k, source, confidence) in adds {
            let fresh = FactMeta { source, confidence, observed_at: now };
            let existed = self.meta.insert(k, fresh).is_some();
            if existed && !added_this_commit.contains(&k) {
                if refreshed_this_commit.insert(k) {
                    delta.refreshed.push(self.decode(k));
                }
            } else if !existed {
                added_this_commit.insert(k);
                new_keys.push(k);
                delta.added.push(self.decode(k));
            }
        }

        if !new_keys.is_empty() {
            let mut by_spo = new_keys.clone();
            by_spo.sort_unstable();
            merge_sorted(&mut self.spo, by_spo, TripleKey::cmp);
            let mut by_pos = new_keys.clone();
            by_pos.sort_unstable_by(pos_cmp);
            merge_sorted(&mut self.pos, by_pos, pos_cmp);
            new_keys.sort_unstable_by(osp_cmp);
            merge_sorted(&mut self.osp, new_keys, osp_cmp);
        }

        delta
    }

    /// Current commit sequence number (logical clock for freshness).
    pub fn current_commit(&self) -> u64 {
        self.commit_counter
    }

    // --------------------------------------------------------------- reading

    /// Number of committed facts.
    pub fn num_triples(&self) -> usize {
        self.spo.len()
    }

    /// True if the committed store contains the fact.
    pub fn contains(&self, t: &Triple) -> bool {
        match self.encode(t) {
            Some(k) => self.meta.contains_key(&k),
            None => false,
        }
    }

    /// Provenance metadata for a committed fact.
    pub fn fact_meta(&self, t: &Triple) -> Option<FactMeta> {
        self.encode(t).and_then(|k| self.meta.get(&k).copied())
    }

    /// All committed triple keys in SPO order.
    pub fn keys(&self) -> &[TripleKey] {
        &self.spo
    }

    /// All triples with the given subject.
    pub fn triples_of(&self, s: EntityId) -> impl Iterator<Item = Triple> + '_ {
        let lo = self.spo.partition_point(|k| k.s < s);
        let hi = self.spo.partition_point(|k| k.s <= s);
        self.spo[lo..hi].iter().map(move |k| self.decode(*k))
    }

    /// Object values for `(s, p, ?)`.
    pub fn objects(&self, s: EntityId, p: PredicateId) -> Vec<Value> {
        let lo = self.spo.partition_point(|k| (k.s, k.p) < (s, p));
        let hi = self.spo.partition_point(|k| (k.s, k.p) <= (s, p));
        self.spo[lo..hi].iter().map(|k| self.decode(*k).object).collect()
    }

    /// First object for `(s, p, ?)`, convenient for single-valued predicates.
    pub fn object(&self, s: EntityId, p: PredicateId) -> Option<Value> {
        self.objects(s, p).into_iter().next()
    }

    /// Subject ids for `(?, p, o)`.
    pub fn subjects_with(&self, p: PredicateId, o: &Value) -> Vec<EntityId> {
        let key = match o {
            Value::Entity(e) => ObjKey::entity(*e),
            other => match self.literals.get(other) {
                Some(l) => ObjKey::literal(l),
                None => return Vec::new(),
            },
        };
        let lo = self.pos.partition_point(|k| (k.p, k.o) < (p, key));
        let hi = self.pos.partition_point(|k| (k.p, k.o) <= (p, key));
        self.pos[lo..hi].iter().map(|k| k.s).collect()
    }

    /// All triples with the given predicate (POS order).
    pub fn triples_with_predicate(&self, p: PredicateId) -> impl Iterator<Item = Triple> + '_ {
        let lo = self.pos.partition_point(|k| k.p < p);
        let hi = self.pos.partition_point(|k| k.p <= p);
        self.pos[lo..hi].iter().map(move |k| self.decode(*k))
    }

    /// Outgoing entity-valued edges of `s`: `(predicate, object entity)`.
    pub fn out_edges(&self, s: EntityId) -> Vec<(PredicateId, EntityId)> {
        let lo = self.spo.partition_point(|k| k.s < s);
        let hi = self.spo.partition_point(|k| k.s <= s);
        self.spo[lo..hi].iter().filter_map(|k| k.o.as_entity().map(|e| (k.p, e))).collect()
    }

    /// Incoming entity-valued edges of `o`: `(subject, predicate)`.
    pub fn in_edges(&self, o: EntityId) -> Vec<(EntityId, PredicateId)> {
        let key = ObjKey::entity(o);
        let lo = self.osp.partition_point(|k| k.o < key);
        let hi = self.osp.partition_point(|k| k.o <= key);
        self.osp[lo..hi].iter().map(|k| (k.s, k.p)).collect()
    }

    /// Undirected entity neighbourhood of `e` (deduplicated).
    pub fn neighbors(&self, e: EntityId) -> Vec<EntityId> {
        let mut out: Vec<EntityId> = self
            .out_edges(e)
            .into_iter()
            .map(|(_, t)| t)
            .chain(self.in_edges(e).into_iter().map(|(s, _)| s))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Checks the cross-index consistency invariant. Intended for tests.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.spo.len() != self.pos.len() || self.spo.len() != self.osp.len() {
            return Err(format!(
                "index length mismatch: spo={} pos={} osp={}",
                self.spo.len(),
                self.pos.len(),
                self.osp.len()
            ));
        }
        if self.meta.len() != self.spo.len() {
            return Err(format!("meta len {} != spo len {}", self.meta.len(), self.spo.len()));
        }
        if !self.spo.windows(2).all(|w| w[0] < w[1]) {
            return Err("spo not strictly sorted".into());
        }
        if !self.pos.windows(2).all(|w| pos_cmp(&w[0], &w[1]) == Ordering::Less) {
            return Err("pos not strictly sorted".into());
        }
        if !self.osp.windows(2).all(|w| osp_cmp(&w[0], &w[1]) == Ordering::Less) {
            return Err("osp not strictly sorted".into());
        }
        let mut a = self.pos.clone();
        a.sort_unstable();
        if a != self.spo {
            return Err("pos contents differ from spo".into());
        }
        let mut b = self.osp.clone();
        b.sort_unstable();
        if b != self.spo {
            return Err("osp contents differ from spo".into());
        }
        for k in &self.spo {
            if !self.meta.contains_key(k) {
                return Err(format!("missing meta for {k:?}"));
            }
        }
        Ok(())
    }

    /// Rebuilds skipped lookup structures after deserialization.
    pub fn rebuild_after_load(&mut self) {
        self.ontology.rebuild_index();
        self.literals.rebuild_index();
        self.sources.rebuild_index();
    }

    /// The image ([`canonical_bytes`](Self::canonical_bytes)) of this graph
    /// with the build history taken out: the ontology, the entity records
    /// and every committed fact with its source name and confidence, but
    /// literals numbered by first use in content order ([`FactContentKey`]),
    /// only the sources the facts use, interned by sorted name after
    /// `"unknown"`, and every `observed_at` collapsed into the one commit
    /// the image is at. Queued writes are left behind. Two graphs holding
    /// the same content canonicalize to equal bytes, and decoding them gives
    /// a graph whose own image they are.
    ///
    /// It is the image of the graph that inserting every fact, in content
    /// order, into a fresh graph and committing once would build — assembled
    /// table by table from this graph's indexes, without the decode, the
    /// sort of owned triples and the commit that would take, and without
    /// building a graph only to encode and drop it.
    pub fn canonicalized_bytes(&self) -> Vec<u8> {
        let mut used = vec![false; self.sources.len()];
        for m in self.meta.values() {
            used[m.source.index()] = true;
        }
        let mut names: Vec<&str> =
            self.sources.iter().filter(|(s, _)| used[*s as usize]).map(|(_, n)| n).collect();
        names.sort_unstable();
        let mut sources = Interner::new();
        sources.intern("unknown");
        for name in names {
            sources.intern(name);
        }
        let new_source: Vec<u32> = (self.sources.iter())
            .map(|(s, name)| if used[s as usize] { sources.intern(name) } else { 0 })
            .collect();

        // `spo` is in content order already, up to the literals under one
        // (subject, predicate): entity keys sort below literal keys as
        // `ValueKind::Entity` sorts below every literal kind, and entity
        // objects intern nothing. So only a group holding several literals
        // needs their canonical strings.
        const UNSET: u64 = u64::MAX;
        let mut new_id = vec![UNSET; self.literals.len()];
        let mut literals: Vec<&Value> = Vec::new();
        let mut number = |old: LiteralId| {
            if new_id[old.index()] == UNSET {
                new_id[old.index()] = literals.len() as u64;
                literals.push(self.literals.resolve(old));
            }
        };
        let old_id = |k: &TripleKey| k.o.as_literal().expect("sorted after the entity keys");
        for group in self.spo.chunk_by(|a, b| (a.s, a.p) == (b.s, b.p)) {
            match &group[group.partition_point(|k| k.o.is_entity())..] {
                [] => {}
                [only] => number(old_id(only)),
                several => {
                    let mut ordered: Vec<LiteralId> = several.iter().map(old_id).collect();
                    ordered.sort_by_cached_key(|&l| object_content_key(self.literals.resolve(l)));
                    ordered.into_iter().for_each(&mut number);
                }
            }
        }

        let mut meta: Vec<(TripleKey, FactMeta)> = (self.spo.iter())
            .map(|k| {
                let was = self.meta[k];
                let now = FactMeta {
                    source: SourceId(new_source[was.source.index()]),
                    confidence: was.confidence,
                    observed_at: CANONICAL_COMMIT,
                };
                (rekeyed(k, &new_id), now)
            })
            .collect();
        // Renumbering moves a key only among the literals of its group.
        for group in meta.chunk_by_mut(|(a, _), (b, _)| (a.s, a.p) == (b.s, b.p)) {
            let first_literal = group.partition_point(|(k, _)| k.o.is_entity());
            group[first_literal..].sort_unstable_by_key(|(k, _)| *k);
        }
        let spo: Vec<TripleKey> = meta.iter().map(|(k, _)| *k).collect();
        let mut pos: Vec<TripleKey> = self.pos.iter().map(|k| rekeyed(k, &new_id)).collect();
        pos.sort_unstable_by(pos_cmp);
        let mut osp: Vec<TripleKey> = self.osp.iter().map(|k| rekeyed(k, &new_id)).collect();
        osp.sort_unstable_by(osp_cmp);

        let mut out = Vec::new();
        GraphImage {
            ontology: &self.ontology,
            entities: &self.entities,
            literals,
            sources: &sources,
            spo: &spo,
            pos: &pos,
            osp: &osp,
            meta: &meta,
            pending_add: &[],
            pending_remove: &[],
            commit_counter: CANONICAL_COMMIT,
        }
        .write(&mut out);
        out
    }

    /// The canonical binary encoding of the graph: the same logical state
    /// always produces the same bytes (metadata entries are sorted by
    /// triple key, floats encode by bit pattern, ids are dense). This is
    /// the checkpoint-image format of [`crate::persist::kg::KgStore`] and
    /// the byte-level equality witness used by the crash-recovery proofs.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        crate::persist::codec::BinCodec::enc(self, &mut out);
        out
    }
}

impl crate::persist::codec::BinCodec for KnowledgeGraph {
    fn enc(&self, out: &mut Vec<u8>) {
        let mut meta: Vec<(TripleKey, FactMeta)> =
            self.meta.iter().map(|(k, m)| (*k, *m)).collect();
        meta.sort_unstable_by_key(|(k, _)| *k);
        GraphImage {
            ontology: &self.ontology,
            entities: &self.entities,
            literals: self.literals.values().iter().collect(),
            sources: &self.sources,
            spo: &self.spo,
            pos: &self.pos,
            osp: &self.osp,
            meta: &meta,
            pending_add: &self.pending_add,
            pending_remove: &self.pending_remove,
            commit_counter: self.commit_counter,
        }
        .write(out);
    }
    fn dec(rd: &mut crate::persist::codec::Reader<'_>) -> crate::error::Result<Self> {
        let mut kg = KnowledgeGraph {
            ontology: Ontology::dec(rd)?,
            entities: Vec::dec(rd)?,
            literals: LiteralTable::dec(rd)?,
            sources: Interner::dec(rd)?,
            spo: Vec::dec(rd)?,
            pos: Vec::dec(rd)?,
            osp: Vec::dec(rd)?,
            meta: Vec::<(TripleKey, FactMeta)>::dec(rd)?.into_iter().collect(),
            pending_add: Vec::dec(rd)?,
            pending_remove: Vec::dec(rd)?,
            commit_counter: u64::dec(rd)?,
        };
        kg.rebuild_after_load();
        Ok(kg)
    }
}

/// JSON cannot key maps by structs; persist `meta` as a pair list.
mod meta_as_pairs {
    use super::*;
    use serde::{Deserializer, Serializer};

    pub fn serialize<S: Serializer>(
        map: &HashMap<TripleKey, FactMeta>,
        ser: S,
    ) -> std::result::Result<S::Ok, S::Error> {
        let mut pairs: Vec<(&TripleKey, &FactMeta)> = map.iter().collect();
        pairs.sort_by_key(|(k, _)| **k);
        serde::Serialize::serialize(&pairs, ser)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(
        de: D,
    ) -> std::result::Result<HashMap<TripleKey, FactMeta>, D::Error> {
        let pairs: Vec<(TripleKey, FactMeta)> = serde::Deserialize::deserialize(de)?;
        Ok(pairs.into_iter().collect())
    }
}

/// Merges `incoming` (sorted by `cmp`, may contain duplicates of existing
/// keys) into `base` (sorted, deduplicated), keeping `base` sorted and
/// deduplicated. O(n + m).
fn merge_sorted<F>(base: &mut Vec<TripleKey>, incoming: Vec<TripleKey>, cmp: F)
where
    F: Fn(&TripleKey, &TripleKey) -> Ordering,
{
    if incoming.is_empty() {
        return;
    }
    let old = std::mem::take(base);
    let mut merged = Vec::with_capacity(old.len() + incoming.len());
    let (mut i, mut j) = (0, 0);
    while i < old.len() && j < incoming.len() {
        match cmp(&old[i], &incoming[j]) {
            Ordering::Less => {
                merged.push(old[i]);
                i += 1;
            }
            Ordering::Greater => {
                merged.push(incoming[j]);
                j += 1;
            }
            Ordering::Equal => {
                merged.push(old[i]);
                i += 1;
                j += 1;
            }
        }
    }
    merged.extend_from_slice(&old[i..]);
    for k in &incoming[j..] {
        if merged.last().map(|l| cmp(l, k) == Ordering::Equal).unwrap_or(false) {
            continue;
        }
        merged.push(*k);
    }
    // Deduplicate incoming-side duplicates that interleaved with old entries.
    merged.dedup_by(|a, b| cmp(a, b) == Ordering::Equal);
    *base = merged;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ontology::{Cardinality, Volatility};
    use crate::value::ValueKind;

    fn setup() -> (KnowledgeGraph, PredicateId, PredicateId, EntityId, EntityId, EntityId) {
        let mut o = Ontology::new();
        let person = o.add_type("person", None);
        let knows = o.add_predicate(
            "knows",
            "knows",
            ValueKind::Entity,
            Some(person),
            Cardinality::Multi,
            Volatility::Slow,
            false,
        );
        let name = o.add_predicate(
            "nickname",
            "nickname",
            ValueKind::Text,
            Some(person),
            Cardinality::Multi,
            Volatility::Stable,
            false,
        );
        let mut kg = KnowledgeGraph::new(o);
        let a = kg.add_entity(EntityBuilder::new("Alice", person));
        let b = kg.add_entity(EntityBuilder::new("Bob", person));
        let c = kg.add_entity(EntityBuilder::new("Carol", person));
        (kg, knows, name, a, b, c)
    }

    #[test]
    fn insert_commit_read_round_trip() {
        let (mut kg, knows, name, a, b, c) = setup();
        kg.insert(Triple::new(a, knows, b));
        kg.insert(Triple::new(a, knows, c));
        kg.insert(Triple::new(a, name, "Ally"));
        let d = kg.commit();
        assert_eq!(d.added.len(), 3);
        assert!(d.removed.is_empty());
        assert_eq!(kg.num_triples(), 3);
        assert!(kg.contains(&Triple::new(a, knows, b)));
        assert!(!kg.contains(&Triple::new(b, knows, a)));
        let objs = kg.objects(a, knows);
        assert_eq!(objs.len(), 2);
        assert_eq!(kg.object(a, name), Some(Value::from("Ally")));
        kg.check_invariants().unwrap();
    }

    #[test]
    fn duplicate_insert_refreshes_metadata() {
        let (mut kg, knows, _, a, b, _) = setup();
        kg.insert(Triple::new(a, knows, b));
        kg.commit();
        let m1 = kg.fact_meta(&Triple::new(a, knows, b)).unwrap();
        kg.insert(Triple::new(a, knows, b));
        let d = kg.commit();
        assert!(d.added.is_empty());
        assert_eq!(d.refreshed.len(), 1);
        let m2 = kg.fact_meta(&Triple::new(a, knows, b)).unwrap();
        assert!(m2.observed_at > m1.observed_at);
        assert_eq!(kg.num_triples(), 1);
        kg.check_invariants().unwrap();
    }

    #[test]
    fn removal_and_reinsert_in_one_commit_keeps_fact() {
        let (mut kg, knows, _, a, b, _) = setup();
        kg.insert(Triple::new(a, knows, b));
        kg.commit();
        kg.remove(&Triple::new(a, knows, b));
        kg.insert(Triple::new(a, knows, b));
        let d = kg.commit();
        assert!(d.removed.is_empty());
        assert!(kg.contains(&Triple::new(a, knows, b)));
        kg.check_invariants().unwrap();
    }

    #[test]
    fn removal_deletes_from_all_indexes() {
        let (mut kg, knows, _, a, b, c) = setup();
        kg.insert(Triple::new(a, knows, b));
        kg.insert(Triple::new(a, knows, c));
        kg.commit();
        kg.remove(&Triple::new(a, knows, b));
        let d = kg.commit();
        assert_eq!(d.removed.len(), 1);
        assert_eq!(kg.num_triples(), 1);
        assert!(!kg.contains(&Triple::new(a, knows, b)));
        assert_eq!(kg.subjects_with(knows, &Value::Entity(c)), vec![a]);
        assert!(kg.subjects_with(knows, &Value::Entity(b)).is_empty());
        kg.check_invariants().unwrap();
    }

    #[test]
    fn edge_queries_both_directions() {
        let (mut kg, knows, _, a, b, c) = setup();
        kg.insert(Triple::new(a, knows, b));
        kg.insert(Triple::new(c, knows, b));
        kg.commit();
        assert_eq!(kg.out_edges(a), vec![(knows, b)]);
        let mut incoming = kg.in_edges(b);
        incoming.sort();
        assert_eq!(incoming, vec![(a, knows), (c, knows)]);
        assert_eq!(kg.neighbors(b), vec![a, c]);
    }

    #[test]
    fn canonicalized_bytes_keep_content_and_drop_history() {
        use crate::persist::codec::{BinCodec, Reader};
        let (mut kg, knows, name, a, b, _) = setup();
        let wiki = kg.register_source("wiki");
        kg.register_source("never-used");
        kg.insert_with(Triple::new(a, name, "Zed"), wiki, 0.75);
        kg.insert(Triple::new(a, name, "gone"));
        kg.commit();
        kg.insert(Triple::new(a, name, "Ally"));
        kg.insert(Triple::new(a, knows, b));
        kg.remove(&Triple::new(a, name, "gone"));
        kg.commit();
        kg.insert(Triple::new(b, name, "queued, not committed"));

        let bytes = kg.canonicalized_bytes();
        let c = KnowledgeGraph::dec(&mut Reader::new(&bytes)).unwrap();
        c.check_invariants().unwrap();
        assert_eq!(c.canonical_bytes(), bytes, "the image of the graph it decodes to");
        assert_eq!(c.canonicalized_bytes(), bytes, "idempotent");
        assert_eq!(c.current_commit(), 1);
        // Content order, not insertion order: "Ally" is literal 0, "Zed" 1,
        // and the removed and the queued literal are not carried over.
        assert_eq!(c.objects(a, name), vec![Value::from("Ally"), Value::from("Zed")]);
        assert_eq!(c.literals.len(), 2);
        assert_eq!(c.sources.iter().map(|(_, n)| n).collect::<Vec<_>>(), ["unknown", "wiki"]);
        let zed = c.fact_meta(&Triple::new(a, name, "Zed")).unwrap();
        assert_eq!((c.source_name(zed.source), zed.confidence, zed.observed_at), ("wiki", 0.75, 1));
        assert!(c.contains(&Triple::new(a, knows, b)));
        assert_eq!(c.num_triples(), 3);
    }

    #[test]
    fn removing_absent_fact_is_noop() {
        let (mut kg, knows, _, a, b, _) = setup();
        kg.remove(&Triple::new(a, knows, b));
        let d = kg.commit();
        assert!(d.is_empty() || d.removed.is_empty());
        assert_eq!(kg.num_triples(), 0);
    }

    #[test]
    fn triples_with_predicate_scans_pos() {
        let (mut kg, knows, name, a, b, c) = setup();
        kg.insert(Triple::new(a, knows, b));
        kg.insert(Triple::new(b, knows, c));
        kg.insert(Triple::new(a, name, "Ally"));
        kg.commit();
        let found: Vec<_> = kg.triples_with_predicate(knows).collect();
        assert_eq!(found.len(), 2);
        assert!(found.iter().all(|t| t.predicate == knows));
    }

    #[test]
    fn provenance_is_recorded() {
        let (mut kg, knows, _, a, b, _) = setup();
        let src = kg.register_source("wiki-import");
        kg.insert_with(Triple::new(a, knows, b), src, 0.75);
        kg.commit();
        let m = kg.fact_meta(&Triple::new(a, knows, b)).unwrap();
        assert_eq!(m.source, src);
        assert!((m.confidence - 0.75).abs() < 1e-6);
        assert_eq!(kg.source_name(src), "wiki-import");
    }

    #[test]
    fn serde_round_trip_preserves_store() {
        let (mut kg, knows, name, a, b, _) = setup();
        kg.insert(Triple::new(a, knows, b));
        kg.insert(Triple::new(a, name, "Ally"));
        kg.commit();
        let json = serde_json::to_string(&kg).unwrap();
        let mut back: KnowledgeGraph = serde_json::from_str(&json).unwrap();
        back.rebuild_after_load();
        assert_eq!(back.num_triples(), 2);
        assert!(back.contains(&Triple::new(a, knows, b)));
        assert!(back.contains(&Triple::new(a, name, "Ally")));
        back.check_invariants().unwrap();
    }
}
