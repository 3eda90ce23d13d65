//! The triple store at the heart of the platform.
//!
//! Design (mirrors Saga's continuous-construction model):
//! - writes are queued and applied in **commits**; each commit produces a
//!   [`Delta`] that downstream consumers (views, annotation freshness, sync)
//!   subscribe to;
//! - reads go through three sorted covering indexes (SPO, POS, OSP) so every
//!   triple-pattern shape has a log-time range scan;
//! - object literals are interned ([`crate::literal::LiteralTable`]) so index
//!   entries are fixed-width 20-byte keys;
//! - a fact's [`FactMeta`] is stored beside its SPO key: `meta[i]` is the
//!   meta of `spo[i]`, found by the same binary search, with no map to hash.
//!
//! Invariant: after `commit()`, the three indexes contain exactly the same
//! set of [`TripleKey`]s (checked by property tests), and every SPO entry
//! carries its fact's [`FactMeta`].
//!
//! **How the indexes are laid out.** Each index is a sorted run of entries
//! cut into chunks of about 128 behind `Arc`s, with a vector of chunk
//! pointers beside each chunk's first key (`store/index.rs`). An SPO entry
//! is a fact's key with its meta beside it, found by the same binary
//! search, with no map to hash. A point or range lookup binary-searches the
//! first keys, then one chunk.
//!
//! **What a commit costs.** A commit that removes or adds `d` keys in a
//! graph of `n` facts sorts its delta once per index order and finds each
//! delta key's chunk by binary search from a moving cursor: O(d · log n)
//! comparisons. It writes only the chunks the delta lands in, each at most
//! once per commit: a refresh of an owned chunk in place, and any other
//! change as one allocation of the chunk's new length (`store/index.rs`
//! says how chunks are split and merged). No key outside those chunks is
//! hashed, compared or moved. It returns the changed keys ([`KeyDelta`]);
//! [`KnowledgeGraph::decode_delta`] decodes them for a reader that wants
//! [`Triple`]s.
//!
//! **What a clone shares.** The ontology, the entity records, the literal
//! table, the source interner and every index chunk are `Arc`-shared
//! between a graph and its clones; every `&mut self` method that writes
//! one copies it first, and only while another graph still holds it. So a
//! clone — a pipeline interval's working copy, or the copy-on-write of a
//! commit under a reader's pin — copies the three chunk-pointer vectors
//! (40 bytes a chunk: about 7 KB for the grow benchmark's 8,143 facts,
//! against 700 KB for the flat key and meta vectors they replaced), and a
//! commit then copies the chunks it writes. The literal table's copy
//! shares its values: it is the table's chunk pointers and hash index, and
//! the first append to it copies the last chunk, fewer than 32 values
//! ([`crate::literal`]).
//!
//! **What link reconciliation reads.** [`KnowledgeGraph::object_keys`]
//! gives a `(subject, predicate)` group's keys undecoded,
//! [`KnowledgeGraph::literal_id`] finds a literal by kind and canonical
//! text without an owned [`Value`], and [`KnowledgeGraph::remove_key`] /
//! [`KnowledgeGraph::insert_key_with`] queue writes by key, so a caller
//! that diffs literal ids copies no string.
//!
//! **What a name lookup costs.** [`KnowledgeGraph::entities_by_form`]
//! answers from a surface-form index: normalized name or alias → entity
//! ids. It is built on the first lookup, in one pass over the entity
//! records, and lives in an `Arc`-shared cell, so a graph and its clones
//! build it once between them; adding an entity gives the graph that adds
//! it an empty cell (a fresh one if a clone shares the old). A graph
//! nobody asks for a name (a serving shard's) never builds it. It is
//! derived state: never encoded, so image bytes do not depend on it.
//!
//! **What a publish costs.** [`KnowledgeGraph::canonicalized_bytes`]
//! renumbers literals, which permutes literal ids and nothing else, so it
//! writes the three renumbered indexes from the sorted ones by linear
//! passes — no index is sorted again, and none is built — into an output
//! buffer sized once, exactly. Its allocations are a fixed few tables (the
//! new ids, a group's sort buffers, the output), however many facts and
//! literals the graph holds.

mod index;

use crate::entity::{EntityBuilder, EntityRecord};
use crate::ids::{EntityId, Interner, LiteralId, PredicateId, SourceId};
use crate::literal::LiteralTable;
use crate::ontology::Ontology;
use crate::persist::codec::{enc_seq, enc_str, str_len, BinCodec, LEN_BYTES};
use crate::triple::{FactMeta, ObjKey, Triple, TripleKey};
use crate::value::{Value, ValueKind};
use index::{Fact, Index, Place};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// The set of changes applied by one commit, decoded
/// ([`KnowledgeGraph::decode_delta`]).
#[derive(Debug, Clone, Default)]
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

/// The keys one commit changed, as [`KnowledgeGraph::commit`] returns them:
/// each list in the order its keys were first queued. Nothing is decoded,
/// so a caller that drops them copied no literal.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KeyDelta {
    /// Commit sequence number.
    pub commit: u64,
    /// Keys of the facts newly added.
    pub added: Vec<TripleKey>,
    /// Keys of the facts removed.
    pub removed: Vec<TripleKey>,
    /// Keys of the facts that already existed and whose metadata was
    /// refreshed.
    pub refreshed: Vec<TripleKey>,
}

/// A fact's place in *content order*: subject, predicate, object kind, then
/// the object's canonical string. It names a fact independent of interner
/// state, so it compares facts across graphs with different histories, and
/// it is the order [`KnowledgeGraph::canonicalized_bytes`] numbers literals in.
pub type FactContentKey = (u64, u64, u8, String);

/// The [`FactContentKey`] of `t`.
pub fn fact_content_key(t: &Triple) -> FactContentKey {
    (t.subject.raw(), u64::from(t.predicate.raw()), t.object.kind() as u8, t.object.canonical())
}

/// The one commit a canonicalized graph is at, and every fact in it was
/// observed at.
const CANONICAL_COMMIT: u64 = 1;

/// The fields of a graph's binary image, in the order they are written and
/// `BinCodec::dec` reads them back. The format has this one writer: a
/// graph's `enc` lends it its own fields, and
/// [`KnowledgeGraph::canonicalized_bytes`] lends it tables that were never
/// assembled into a graph and indexes renumbered as they are written.
struct GraphImage<'a> {
    ontology: &'a Ontology,
    entities: &'a [EntityRecord],
    /// The literal table's values, by id.
    literals: Vec<&'a Value>,
    /// The source interner's names, by id.
    sources: Vec<&'a str>,
    indexes: Indexes<'a>,
    pending_add: &'a [(TripleKey, SourceId, f32)],
    pending_remove: &'a [TripleKey],
    commit_counter: u64,
}

/// Encoded width of a [`TripleKey`].
const KEY_BYTES: usize = TripleKey::ENCODED_LEN;
/// Encoded width of a [`FactMeta`]: source, confidence, `observed_at`.
const META_BYTES: usize = 4 + 4 + 8;

impl GraphImage<'_> {
    /// Bytes of the tables whose entries vary in width: the ontology, the
    /// entity records, the literals and the source names.
    fn variable_width_bytes(&self) -> usize {
        self.ontology.encoded_len()
            + LEN_BYTES
            + self.entities.iter().map(EntityRecord::encoded_len).sum::<usize>()
            + LEN_BYTES
            + self.literals.iter().map(|v| v.encoded_len()).sum::<usize>()
            + LEN_BYTES
            + self.sources.iter().map(|s| str_len(s)).sum::<usize>()
    }

    /// Bytes of the tables whose entries are fixed-width: everything after
    /// the source names.
    fn fixed_width_bytes(&self) -> usize {
        let n = self.indexes.facts();
        3 * (LEN_BYTES + n * KEY_BYTES)
            + (LEN_BYTES + n * (KEY_BYTES + META_BYTES))
            + (LEN_BYTES + self.pending_add.len() * (KEY_BYTES + 4 + 4))
            + (LEN_BYTES + self.pending_remove.len() * KEY_BYTES)
            + 8
    }

    /// Appends the image to `out`, which grows once, by exactly the image.
    fn write(mut self, out: &mut Vec<u8>) {
        let (variable, fixed) = (self.variable_width_bytes(), self.fixed_width_bytes());
        out.reserve_exact(variable + fixed);
        let from = out.len();
        self.ontology.enc(out);
        enc_seq(self.entities.iter(), out);
        enc_seq(self.literals.into_iter(), out);
        (self.sources.len() as u64).enc(out);
        for name in &self.sources {
            enc_str(name, out);
        }
        debug_assert_eq!(out.len() - from, variable);
        let fixed_from = out.len();
        let n = self.indexes.facts() as u64;
        n.enc(out);
        self.indexes.write_spo(out);
        n.enc(out);
        self.indexes.write_pos(out);
        n.enc(out);
        self.indexes.write_osp(out);
        n.enc(out);
        self.indexes.write_pairs(out);
        enc_seq(self.pending_add.iter(), out);
        enc_seq(self.pending_remove.iter(), out);
        self.commit_counter.enc(out);
        debug_assert_eq!(out.len() - fixed_from, fixed);
    }
}

/// Where an image's three indexes and its `(key, meta)` pairs come from.
enum Indexes<'a> {
    /// A graph's own, as they are. The image holds the SPO entries as
    /// `(key, meta)` pairs, in key order, so equal graphs encode to equal
    /// bytes.
    Stored(&'a KnowledgeGraph),
    /// A graph's, with its literals and sources renumbered on the way out.
    Renumbered(Renumbering<'a>),
}

impl Indexes<'_> {
    fn facts(&self) -> usize {
        match self {
            Indexes::Stored(graph) => graph.spo.len(),
            Indexes::Renumbered(r) => r.graph.spo.len(),
        }
    }

    fn write_spo(&mut self, out: &mut Vec<u8>) {
        match self {
            Indexes::Stored(graph) => graph.keys().for_each(|k| k.enc(out)),
            Indexes::Renumbered(r) => r.for_each_fact(|k, _| k.enc(out)),
        }
    }

    fn write_pos(&self, out: &mut Vec<u8>) {
        match self {
            Indexes::Stored(graph) => graph.pos.iter().for_each(|k| k.enc(out)),
            Indexes::Renumbered(r) => r.write_pos(out),
        }
    }

    fn write_osp(&self, out: &mut Vec<u8>) {
        match self {
            Indexes::Stored(graph) => graph.osp.iter().for_each(|k| k.enc(out)),
            Indexes::Renumbered(r) => {
                r.graph.osp.between(Place::default(), r.literal_objects).for_each(|k| k.enc(out));
                r.literal_osp().for_each(|k| k.enc(out));
            }
        }
    }

    fn write_pairs(&mut self, out: &mut Vec<u8>) {
        let mut pair = |k: TripleKey, m: FactMeta| {
            k.enc(out);
            m.enc(out);
        };
        match self {
            Indexes::Stored(graph) => graph.spo.iter().for_each(|&(k, m)| pair(k, m)),
            Indexes::Renumbered(r) => r.for_each_fact(pair),
        }
    }
}

/// A graph's indexes with its literals numbered by first use in content
/// order and its sources by name, written without building the renumbered
/// indexes: renumbering permutes literal ids and nothing else, so each
/// index comes out of the graph's sorted one by a linear pass.
struct Renumbering<'a> {
    graph: &'a KnowledgeGraph,
    /// Each literal's new id, by old id; `UNSET` for a literal no fact uses.
    new_id: Vec<u64>,
    /// Each used source's new id, by old id.
    new_source: Vec<u32>,
    /// Where the OSP keys with a literal object start. The keys with an
    /// entity object come first and keep their place.
    literal_objects: Place,
    /// Each used literal's OSP run, by new id: where it starts and how many
    /// keys it holds. A run is sorted by (subject, predicate) under any id.
    runs: Vec<(Place, usize)>,
    /// The literal facts of one `(subject, predicate)` group with their
    /// new ids, reused from group to group.
    order: Vec<(u64, Fact)>,
}

const UNSET: u64 = u64::MAX;

/// The literal id of a key known to have a literal object.
fn old_id(k: &TripleKey) -> LiteralId {
    k.o.as_literal().expect("sorted after the entity keys")
}

impl Renumbering<'_> {
    fn meta(&self, m: &FactMeta) -> FactMeta {
        FactMeta {
            source: SourceId(self.new_source[m.source.index()]),
            confidence: m.confidence,
            observed_at: CANONICAL_COMMIT,
        }
    }

    /// Calls `f` with every renumbered key and its meta, in the new SPO
    /// order. A `(subject, predicate)` group's entity keys come first, as
    /// they were; renumbering moves a key only among the literal keys of
    /// its group, which wait in `order` until the group ends.
    fn for_each_fact(&mut self, mut f: impl FnMut(TripleKey, FactMeta)) {
        let mut order = std::mem::take(&mut self.order);
        let mut group = None;
        for &(k, m) in self.graph.spo.iter() {
            if group != Some((k.s, k.p)) {
                self.flush_group(&mut order, &mut f);
                group = Some((k.s, k.p));
            }
            match k.o.as_literal() {
                None => f(k, self.meta(&m)),
                Some(id) => order.push((self.new_id[id.index()], (k, m))),
            }
        }
        self.flush_group(&mut order, &mut f);
        self.order = order;
    }

    /// Emits the literal facts of a group, gathered in `order`, renumbered
    /// and in new-id order.
    fn flush_group(&self, order: &mut Vec<(u64, Fact)>, f: &mut impl FnMut(TripleKey, FactMeta)) {
        order.sort_unstable_by_key(|&(id, _)| id);
        for (id, (k, m)) in order.drain(..) {
            f(TripleKey { o: ObjKey::literal(LiteralId(id)), ..k }, self.meta(&m));
        }
    }

    /// The literal part of the new OSP index: the runs, in new-id order.
    fn literal_osp(&self) -> impl Iterator<Item = TripleKey> + '_ {
        self.runs.iter().enumerate().flat_map(|(id, &(from, n))| {
            let o = ObjKey::literal(LiteralId(id as u64));
            self.graph.osp.places_from(from).take(n).map(move |(_, k)| TripleKey { o, ..*k })
        })
    }

    /// Appends the new POS index. A predicate's block keeps its place and
    /// its entity-object part. Its literal part is the predicate's keys of
    /// the new OSP literal part, which come sorted by (object, subject): one
    /// stable counting pass deals them to their slots in `out`.
    fn write_pos(&self, out: &mut Vec<u8>) {
        let pos = &self.graph.pos;
        let mut next = vec![0usize; pos.last().map_or(0, |k| k.p.index() + 1)];
        // Within a block the entity keys come first: a block's literal part
        // starts at its first literal key.
        let mut literal_block = None;
        for k in pos.iter() {
            if k.o.is_entity() {
                k.enc(out);
                continue;
            }
            if literal_block != Some(k.p) {
                literal_block = Some(k.p);
                next[k.p.index()] = out.len();
            }
            out.extend_from_slice(&[0; KEY_BYTES]);
        }
        for k in self.literal_osp() {
            let slot = &mut next[k.p.index()];
            out[*slot..*slot + KEY_BYTES].copy_from_slice(&k.to_bytes());
            *slot += KEY_BYTES;
        }
    }
}

/// Orders the literals of one `(subject, predicate)` group by content —
/// kind, then canonical string — without a `String` per literal. `Text`
/// and `Identifier` compare their own text; the other kinds write their
/// canonical strings into one scratch buffer, reused from group to group.
/// A group's literals are [`push`](Self::push)ed one by one, and
/// [`number_group`](Self::number_group) ends the group.
struct ContentOrder {
    /// The group's first literal, while it is the only one: a group of one
    /// needs no canonical string.
    first: Option<LiteralId>,
    /// The group's literals, in the order being sorted.
    spans: Vec<Span>,
    scratch: String,
}

/// A literal in a [`ContentOrder`]: its kind, and where its canonical
/// string is in the scratch buffer (empty for `Text` and `Identifier`).
struct Span {
    kind: u8,
    start: usize,
    end: usize,
    id: LiteralId,
}

/// Canonical strings of every integer, date and bool, and of floats below
/// 10^18 in magnitude, fit in this many bytes.
const SHORT_CANONICAL: usize = 24;

impl ContentOrder {
    /// Buffers for groups of up to `literals` literals, with short
    /// canonical strings; a group of longer floats grows the scratch.
    fn with_capacity(literals: usize) -> Self {
        Self {
            first: None,
            spans: Vec::with_capacity(literals),
            scratch: String::with_capacity(literals * SHORT_CANONICAL),
        }
    }

    /// Adds literal `id` to the group.
    fn push(&mut self, id: LiteralId, table: &LiteralTable) {
        if self.spans.is_empty() && self.first.is_none() {
            self.first = Some(id);
            return;
        }
        if let Some(first) = self.first.take() {
            self.push_span(first, table);
        }
        self.push_span(id, table);
    }

    fn push_span(&mut self, id: LiteralId, table: &LiteralTable) {
        let v = table.resolve(id);
        let start = self.scratch.len();
        if v.as_text().is_none() {
            v.write_canonical(&mut self.scratch).expect("a String takes every write");
        }
        self.spans.push(Span { kind: v.kind() as u8, start, end: self.scratch.len(), id });
    }

    /// Calls `number` with the group's ids in content order, ties in id
    /// order, and ends the group. A group lists its literals in id order,
    /// so that is the order a stable sort by cached string keys gives,
    /// without the buffer a stable sort of a wide group allocates. (A
    /// table interns literals by kind and canonical string, so two it holds
    /// never tie.)
    fn number_group(&mut self, table: &LiteralTable, mut number: impl FnMut(LiteralId)) {
        if let Some(one) = self.first.take() {
            return number(one);
        }
        let text =
            |s: &Span| table.resolve(s.id).as_text().unwrap_or(&self.scratch[s.start..s.end]);
        self.spans.sort_unstable_by(|a, b| (a.kind, text(a), a.id).cmp(&(b.kind, text(b), b.id)));
        self.spans.drain(..).for_each(|s| number(s.id));
        self.scratch.clear();
    }
}

fn pos_cmp(a: &TripleKey, b: &TripleKey) -> Ordering {
    (a.p, a.o, a.s).cmp(&(b.p, b.o, b.s))
}

fn osp_cmp(a: &TripleKey, b: &TripleKey) -> Ordering {
    (a.o, a.s, a.p).cmp(&(b.o, b.s, b.p))
}

/// Normalized surface form → every entity with a name or alias of that
/// form, in id order; filled on first use.
#[derive(Default)]
struct FormIndex(OnceLock<HashMap<String, Vec<EntityId>>>);

impl FormIndex {
    fn get(&self, entities: &[EntityRecord]) -> &HashMap<String, Vec<EntityId>> {
        self.0.get_or_init(|| {
            let mut index: HashMap<String, Vec<EntityId>> = HashMap::new();
            for e in entities {
                for form in e.surface_forms() {
                    let ids = index.entry(crate::text::normalize_phrase(form)).or_default();
                    // Records come in id order: a repeat is this entity's.
                    if ids.last() != Some(&e.id) {
                        ids.push(e.id);
                    }
                }
            }
            index
        })
    }
}

impl std::fmt::Debug for FormIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.0.get() {
            Some(index) => write!(f, "FormIndex({} forms)", index.len()),
            None => f.write_str("FormIndex(unbuilt)"),
        }
    }
}

/// An in-memory knowledge graph with commit-based mutation and sorted
/// covering indexes. See module docs for invariants.
#[derive(Debug, Clone)]
pub struct KnowledgeGraph {
    ontology: Arc<Ontology>,
    entities: Arc<Vec<EntityRecord>>,
    /// Derived from `entities`; shared with clones until either adds one.
    forms: Arc<FormIndex>,
    literals: Arc<LiteralTable>,
    sources: Arc<Interner>,
    /// Every fact's key and meta, in SPO order.
    spo: Index<Fact>,
    pos: Index<TripleKey>,
    osp: Index<TripleKey>,
    pending_add: Vec<(TripleKey, SourceId, f32)>,
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
            ontology: Arc::new(ontology),
            entities: Arc::default(),
            forms: Arc::default(),
            literals: Arc::default(),
            sources: Arc::new(sources),
            spo: Index::default(),
            pos: Index::default(),
            osp: Index::default(),
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

    /// Mutable ontology access (for registering new predicates). Copies an
    /// ontology another graph shares: look a predicate up through
    /// [`ontology`](Self::ontology) before registering it.
    pub fn ontology_mut(&mut self) -> &mut Ontology {
        Arc::make_mut(&mut self.ontology)
    }

    /// Registers a provenance source by name, returning its id. Copies an
    /// interner another graph shares only for a name it lacks.
    pub fn register_source(&mut self, name: &str) -> SourceId {
        SourceId(match self.sources.get(name) {
            Some(id) => id,
            None => Arc::make_mut(&mut self.sources).intern(name),
        })
    }

    /// Resolves a source id to its name.
    pub fn source_name(&self, id: SourceId) -> &str {
        self.sources.resolve(id.0)
    }

    // -------------------------------------------------------------- entities

    /// Adds an entity, allocating the next dense id.
    pub fn add_entity(&mut self, builder: EntityBuilder) -> EntityId {
        let id = EntityId(self.entities.len() as u64);
        Arc::make_mut(&mut self.entities).push(builder.build(id));
        self.forms_changed();
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
        Arc::make_mut(&mut self.entities).push(record);
        self.forms_changed();
        Ok(id)
    }

    /// Gives this graph an empty surface-form index cell after its entities
    /// changed: the cell is emptied in place when no clone shares it (so
    /// building a graph allocates no cell per entity), and replaced by a
    /// fresh one when a clone does (so the clone keeps its answers).
    fn forms_changed(&mut self) {
        match Arc::get_mut(&mut self.forms) {
            Some(own) => drop(own.0.take()),
            None => self.forms = Arc::default(),
        }
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

    /// Every entity with a name or alias that normalizes
    /// ([`crate::text::normalize_phrase`]) to `norm`, in id order — the
    /// entities a linear scan of [`entities`](Self::entities) comparing
    /// normalized surface forms would find, from the surface-form index
    /// (see the module docs for when it is built).
    pub fn entities_by_form(&self, norm: &str) -> &[EntityId] {
        self.forms.get(&self.entities).get(norm).map_or(&[], Vec::as_slice)
    }

    /// Updates an entity's popularity prior (clamped to `[0, 1]`).
    pub fn set_popularity(&mut self, id: EntityId, popularity: f32) {
        Arc::make_mut(&mut self.entities)[id.index()].popularity = popularity.clamp(0.0, 1.0);
    }

    // --------------------------------------------------------------- writing

    /// Encodes a triple into its key form, interning a new literal: moved
    /// into the table, not copied. A shared literal table is copied only for
    /// a literal it lacks, and then shares every value it held (see
    /// [`crate::literal`]).
    fn encode_mut(&mut self, t: Triple) -> TripleKey {
        let o = match t.object {
            Value::Entity(e) => ObjKey::entity(e),
            other => ObjKey::literal(match self.literals.get(&other) {
                Some(id) => id,
                None => Arc::make_mut(&mut self.literals).intern(other),
            }),
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
        let k = self.encode_mut(t);
        self.insert_key_with(k, source, confidence);
    }

    /// [`insert_with`](Self::insert_with) of a fact by key: its literal, if
    /// any, must be interned already (a key of this graph's indexes, or one
    /// built from [`literal_id`](Self::literal_id)).
    ///
    /// # Panics
    /// Panics if the key's literal id is past this graph's literal table.
    pub fn insert_key_with(&mut self, k: TripleKey, source: SourceId, confidence: f32) {
        assert!(
            k.o.as_literal().is_none_or(|l| l.index() < self.literals.len()),
            "a key's literal is interned"
        );
        self.pending_add.push((k, source, confidence));
    }

    /// Queues a fact for removal; a no-op if the fact is absent at commit.
    pub fn remove(&mut self, t: &Triple) {
        if let Some(k) = self.encode(t) {
            self.remove_key(k);
        }
    }

    /// [`remove`](Self::remove) of a fact by key.
    pub fn remove_key(&mut self, k: TripleKey) {
        self.pending_remove.push(k);
    }

    /// Applies all queued writes, returning the keys it changed. Removals
    /// are applied before insertions within a commit, so remove+insert of
    /// the same key in one commit nets to the fact being present with fresh
    /// metadata.
    pub fn commit(&mut self) -> KeyDelta {
        self.commit_counter += 1;
        let now = self.commit_counter;
        let mut delta = KeyDelta { commit: now, ..KeyDelta::default() };
        let removals: Vec<TripleKey> = std::mem::take(&mut self.pending_remove);
        let adds: Vec<(TripleKey, SourceId, f32)> = std::mem::take(&mut self.pending_add);
        let fresh =
            |i: usize| FactMeta { source: adds[i].1, confidence: adds[i].2, observed_at: now };

        // Every queued insertion by key, then queue position: a key's last
        // write sets its meta, its first places it in the delta.
        let mut writes: Vec<(TripleKey, usize)> =
            adds.iter().enumerate().map(|(i, (k, _, _))| (*k, i)).collect();
        writes.sort_unstable();

        // Removals first. A key queued for insertion too is not removed, and
        // a key queued twice is removed once, in its first place.
        let mut removed: Vec<(TripleKey, usize)> = (removals.into_iter().enumerate())
            .filter(|(_, k)| self.holds(k) && writes.binary_search_by(|(w, _)| w.cmp(k)).is_err())
            .map(|(i, k)| (k, i))
            .collect();
        removed.sort_unstable();
        removed.dedup_by_key(|(k, _)| *k);
        let mut removed_keys: Vec<TripleKey> = removed.iter().map(|(k, _)| *k).collect();
        removed.sort_unstable_by_key(|(_, i)| *i);
        delta.removed = removed.into_iter().map(|(k, _)| k).collect();

        // Insertions / refreshes, in key order. A key the graph holds is
        // refreshed (no key is both removed and written); a new one is
        // added.
        let mut upserts: Vec<Fact> = Vec::with_capacity(writes.len());
        let mut added_keys = Vec::with_capacity(writes.len());
        let mut firsts: Vec<(usize, TripleKey, bool)> = Vec::with_capacity(writes.len());
        for group in writes.chunk_by(|a, b| a.0 == b.0) {
            let (k, first) = group[0];
            let existed = self.holds(&k);
            if !existed {
                added_keys.push(k);
            }
            upserts.push((k, fresh(group[group.len() - 1].1)));
            firsts.push((first, k, existed));
        }
        firsts.sort_unstable_by_key(|(first, _, _)| *first);
        delta.added.reserve_exact(added_keys.len());
        delta.refreshed.reserve_exact(firsts.len() - added_keys.len());
        for (_, k, existed) in firsts {
            let into = if existed { &mut delta.refreshed } else { &mut delta.added };
            into.push(k);
        }

        // Every removed key is held, every added key is not, and no key is
        // both: each index takes the sorted delta in one pass. The SPO pass
        // also writes the refreshed metas.
        self.spo.apply(&removed_keys, &upserts, TripleKey::cmp);
        if !removed_keys.is_empty() || !added_keys.is_empty() {
            removed_keys.sort_unstable_by(pos_cmp);
            added_keys.sort_unstable_by(pos_cmp);
            self.pos.apply(&removed_keys, &added_keys, pos_cmp);
            removed_keys.sort_unstable_by(osp_cmp);
            added_keys.sort_unstable_by(osp_cmp);
            self.osp.apply(&removed_keys, &added_keys, osp_cmp);
        }

        delta
    }

    /// The triples of a commit's keys, decoded through this graph's literal
    /// table: the graph that made the commit, or one whose literals extend
    /// its ([`extends_literals_of`](Self::extends_literals_of)). A commit
    /// keeps every literal it removes interned, so its removed keys decode
    /// too.
    pub fn decode_delta(&self, keys: &KeyDelta) -> Delta {
        let decode = |keys: &[TripleKey]| keys.iter().map(|&k| self.decode(k)).collect();
        Delta {
            commit: keys.commit,
            added: decode(&keys.added),
            removed: decode(&keys.removed),
            refreshed: decode(&keys.refreshed),
        }
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

    /// The committed fact with key `k`, with its meta.
    fn fact(&self, k: &TripleKey) -> Option<&Fact> {
        self.spo.get(k, TripleKey::cmp)
    }

    /// True if the committed store holds the fact with key `k`.
    fn holds(&self, k: &TripleKey) -> bool {
        self.fact(k).is_some()
    }

    /// True if the committed store contains the fact.
    pub fn contains(&self, t: &Triple) -> bool {
        self.encode(t).is_some_and(|k| self.holds(&k))
    }

    /// Provenance metadata for a committed fact.
    pub fn fact_meta(&self, t: &Triple) -> Option<FactMeta> {
        self.fact(&self.encode(t)?).map(|&(_, meta)| meta)
    }

    /// All committed triple keys in SPO order, walking the index's chunks.
    pub fn keys(&self) -> impl Iterator<Item = TripleKey> + '_ {
        self.spo.iter().map(|&(k, _)| k)
    }

    /// All triples with the given subject.
    pub fn triples_of(&self, s: EntityId) -> impl Iterator<Item = Triple> + '_ {
        self.subject_facts(s).map(move |(k, _)| self.decode(k))
    }

    /// The committed facts of subject `s` as keys with their meta, in SPO
    /// order, decoding nothing. Keys of two graphs name the same fact only
    /// where their literal tables agree (see
    /// [`extends_literals_of`](Self::extends_literals_of)).
    pub fn subject_facts(&self, s: EntityId) -> impl Iterator<Item = (TripleKey, FactMeta)> + '_ {
        self.spo.range(move |k| k.s < s, move |k| k.s <= s).copied()
    }

    /// True when this graph's literal table starts with every literal of
    /// `base`'s, under the same ids — as in a clone of `base` that has only
    /// been written since, whether it still shares `base`'s table or copied
    /// it to intern a literal of its own. Then a key present in both graphs
    /// is the same fact in both.
    pub fn extends_literals_of(&self, base: &KnowledgeGraph) -> bool {
        self.literals.extends(&base.literals)
    }

    /// The id of the literal of `kind` whose canonical form is `form` (for
    /// `Text` and `Identifier`, whose text is `form`), if the graph has
    /// interned it; borrowed, so no [`Value`] is built to ask.
    pub fn literal_id(&self, kind: ValueKind, form: &str) -> Option<LiteralId> {
        self.literals.get_form(kind, form)
    }

    /// The value of an interned literal, borrowed.
    pub fn literal(&self, id: LiteralId) -> &Value {
        self.literals.resolve(id)
    }

    /// The committed keys of `(s, p, ?)`, in SPO order — literal objects in
    /// id order, after entity objects — decoding nothing.
    pub fn object_keys(&self, s: EntityId, p: PredicateId) -> impl Iterator<Item = TripleKey> + '_ {
        self.spo.range(move |k| (k.s, k.p) < (s, p), move |k| (k.s, k.p) <= (s, p)).map(|&(k, _)| k)
    }

    /// Object values for `(s, p, ?)`.
    pub fn objects(&self, s: EntityId, p: PredicateId) -> Vec<Value> {
        self.object_keys(s, p).map(|k| self.decode(k).object).collect()
    }

    /// First object for `(s, p, ?)`, convenient for single-valued predicates;
    /// only that one is decoded.
    pub fn object(&self, s: EntityId, p: PredicateId) -> Option<Value> {
        self.object_keys(s, p).next().map(|k| self.decode(k).object)
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
        let below = |k: &TripleKey| (k.p, k.o) < (p, key);
        self.pos.range(below, |k| (k.p, k.o) <= (p, key)).map(|k| k.s).collect()
    }

    /// All triples with the given predicate (POS order).
    pub fn triples_with_predicate(&self, p: PredicateId) -> impl Iterator<Item = Triple> + '_ {
        self.pos.range(move |k| k.p < p, move |k| k.p <= p).map(move |k| self.decode(*k))
    }

    /// Outgoing entity-valued edges of `s`: `(predicate, object entity)`.
    pub fn out_edges(&self, s: EntityId) -> Vec<(PredicateId, EntityId)> {
        self.subject_facts(s).filter_map(|(k, _)| k.o.as_entity().map(|e| (k.p, e))).collect()
    }

    /// Incoming entity-valued edges of `o`: `(subject, predicate)`.
    pub fn in_edges(&self, o: EntityId) -> Vec<(EntityId, PredicateId)> {
        let key = ObjKey::entity(o);
        self.osp.range(|k| k.o < key, |k| k.o <= key).map(|k| (k.s, k.p)).collect()
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

    /// Checks the cross-index consistency invariant and every index's
    /// chunk structure. Intended for tests.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.spo.len() != self.pos.len() || self.spo.len() != self.osp.len() {
            return Err(format!(
                "index length mismatch: spo={} pos={} osp={}",
                self.spo.len(),
                self.pos.len(),
                self.osp.len()
            ));
        }
        self.spo.check(TripleKey::cmp).map_err(|e| format!("spo: {e}"))?;
        self.pos.check(pos_cmp).map_err(|e| format!("pos: {e}"))?;
        self.osp.check(osp_cmp).map_err(|e| format!("osp: {e}"))?;
        let spo: Vec<TripleKey> = self.keys().collect();
        let mut a: Vec<TripleKey> = self.pos.iter().copied().collect();
        a.sort_unstable();
        if a != spo {
            return Err("pos contents differ from spo".into());
        }
        let mut b: Vec<TripleKey> = self.osp.iter().copied().collect();
        b.sort_unstable();
        if b != spo {
            return Err("osp contents differ from spo".into());
        }
        Ok(())
    }

    /// The image (the [`BinCodec`] encoding) of this graph with the build
    /// history taken out: the ontology, the entity records
    /// and every committed fact with its source name and confidence, but
    /// literals numbered by first use in content order ([`FactContentKey`]),
    /// only the sources the facts use, interned by sorted name after
    /// `"unknown"`, and every `observed_at` collapsed into the one commit
    /// the image is at. Queued writes are left behind. Two graphs holding
    /// the same content canonicalize to equal bytes, and decoding them gives
    /// a graph whose own image they are.
    ///
    /// It is the image of the graph that inserting every fact, in content
    /// order, into a fresh graph and committing once would build — written
    /// table by table from this graph's indexes, without the decode, the
    /// sort of owned triples and the commit that would take, and without
    /// building a graph only to encode and drop it.
    ///
    /// A publish allocates the same few times whatever the number of facts
    /// and literals, and asks for about one image's worth of bytes. The
    /// literals of a `(subject, predicate)` group holding several — 816 to
    /// 818 groups with 2,372 to 2,376 literals in the grow benchmark's
    /// graph — are ordered by a comparator on kind and canonical string:
    /// text compares its own `&str`, and every other kind writes its
    /// canonical string into one scratch buffer the whole publish reuses.
    /// The renumbered
    /// indexes are never built: each is written from the graph's own
    /// sorted one straight into the output, which is sized once, exactly.
    pub fn canonicalized_bytes(&self) -> Vec<u8> {
        // Sources: "unknown", then every other name a fact uses, sorted.
        const USED: u32 = u32::MAX;
        let mut new_source = vec![0u32; self.sources.len()];
        for (_, m) in self.spo.iter() {
            new_source[m.source.index()] = USED;
        }
        let mut sources = Vec::with_capacity(self.sources.len() + 1);
        sources.push("unknown");
        sources.extend(
            (self.sources.iter())
                .filter(|&(s, name)| new_source[s as usize] == USED && name != "unknown")
                .map(|(_, name)| name),
        );
        sources[1..].sort_unstable();
        for (s, name) in self.sources.iter() {
            let new = &mut new_source[s as usize];
            if *new == USED {
                // "unknown" is not in the sorted part: it keeps id 0.
                *new = sources[1..].binary_search(&name).map_or(0, |at| at as u32 + 1);
            }
        }

        // `spo` is in content order already, up to the literals under one
        // (subject, predicate): entity keys sort below literal keys as
        // `ValueKind::Entity` sorts below every literal kind, and entity
        // objects intern nothing. So one walk of its groups numbers the
        // literals; only a group holding several orders them by content.
        let (mut widest, mut group, mut in_group) = (0, None, 0);
        for k in self.keys().filter(|k| !k.o.is_entity()) {
            if group != Some((k.s, k.p)) {
                (group, in_group) = (Some((k.s, k.p)), 0);
            }
            in_group += 1;
            widest = widest.max(in_group);
        }
        let mut new_id = vec![UNSET; self.literals.len()];
        let mut literals: Vec<&Value> = Vec::with_capacity(self.literals.len());
        let mut number = |old: LiteralId| {
            if new_id[old.index()] == UNSET {
                new_id[old.index()] = literals.len() as u64;
                literals.push(self.literals.resolve(old));
            }
        };
        let mut order = ContentOrder::with_capacity(widest);
        let mut group = None;
        for k in self.keys().filter(|k| !k.o.is_entity()) {
            if group != Some((k.s, k.p)) {
                order.number_group(&self.literals, &mut number);
                group = Some((k.s, k.p));
            }
            order.push(old_id(&k), &self.literals);
        }
        order.number_group(&self.literals, &mut number);

        let literal_objects = self.osp.place(|k| k.o.is_entity());
        let mut runs: Vec<(Place, usize)> = vec![(Place::default(), 0); literals.len()];
        let mut run = None;
        for (at, k) in self.osp.places_from(literal_objects) {
            if run.is_none_or(|(o, _)| o != k.o) {
                let id = new_id[old_id(k).index()] as usize;
                runs[id].0 = at;
                run = Some((k.o, id));
            }
            runs[run.expect("set above").1].1 += 1;
        }

        let mut out = Vec::new();
        GraphImage {
            ontology: &self.ontology,
            entities: &self.entities,
            literals,
            sources,
            indexes: Indexes::Renumbered(Renumbering {
                graph: self,
                new_id,
                new_source,
                literal_objects,
                runs,
                order: Vec::with_capacity(widest),
            }),
            pending_add: &[],
            pending_remove: &[],
            commit_counter: CANONICAL_COMMIT,
        }
        .write(&mut out);
        out
    }
}

/// The graph's image, also its checkpoint image in
/// [`crate::persist::kg::KgStore`]: the same logical state always produces
/// the same bytes (metadata entries are sorted by triple key, floats encode
/// by bit pattern, ids are dense), so equal
/// [`to_bytes`](crate::persist::codec::to_bytes) are the byte-level
/// equality witness of the crash-recovery proofs.
impl crate::persist::codec::BinCodec for KnowledgeGraph {
    fn enc(&self, out: &mut Vec<u8>) {
        GraphImage {
            ontology: &self.ontology,
            entities: &self.entities,
            literals: self.literals.values().collect(),
            sources: self.sources.iter().map(|(_, name)| name).collect(),
            indexes: Indexes::Stored(self),
            pending_add: &self.pending_add,
            pending_remove: &self.pending_remove,
            commit_counter: self.commit_counter,
        }
        .write(out);
    }
    fn dec(rd: &mut crate::persist::codec::Reader<'_>) -> crate::error::Result<Self> {
        let ontology = Arc::new(Ontology::dec(rd)?);
        let entities = Arc::new(Vec::dec(rd)?);
        let literals = Arc::new(LiteralTable::dec(rd)?);
        let sources = Arc::new(Interner::dec(rd)?);
        let spo: Vec<TripleKey> = Vec::dec(rd)?;
        let pos: Vec<TripleKey> = Vec::dec(rd)?;
        let osp: Vec<TripleKey> = Vec::dec(rd)?;
        let facts = dec_facts(rd, &spo)?;
        Ok(KnowledgeGraph {
            ontology,
            entities,
            forms: Arc::default(),
            literals,
            sources,
            spo: Index::from_sorted(&facts),
            pos: Index::from_sorted(&pos),
            osp: Index::from_sorted(&osp),
            pending_add: Vec::dec(rd)?,
            pending_remove: Vec::dec(rd)?,
            commit_counter: u64::dec(rd)?,
        })
    }
}

/// Reads the image's `(key, meta)` pairs, which must name exactly the keys
/// of `spo`, in its order.
fn dec_facts(
    rd: &mut crate::persist::codec::Reader<'_>,
    spo: &[TripleKey],
) -> crate::error::Result<Vec<Fact>> {
    use crate::error::SagaError;
    use crate::persist::codec::BinCodec;
    let n = rd.len()?;
    if n != spo.len() {
        return Err(SagaError::Corrupt(format!(
            "graph image holds meta for {n} facts, its SPO index {}",
            spo.len()
        )));
    }
    let mut facts = Vec::with_capacity(n);
    for (i, k) in spo.iter().enumerate() {
        if TripleKey::dec(rd)? != *k {
            return Err(SagaError::Corrupt(format!(
                "graph image meta entry {i} is not the meta of SPO key {i}"
            )));
        }
        facts.push((*k, FactMeta::dec(rd)?));
    }
    Ok(facts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ontology::{Cardinality, Volatility};
    use crate::persist::codec::to_bytes;
    use crate::value::ValueKind;
    use saga_testkit::{check, SplitMix64};
    use std::collections::{BTreeMap, HashSet};

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

    /// `object` is the first of `objects`, for an empty group, a group of
    /// one and a group of many, entity- and literal-valued; `object_keys`
    /// lists the same objects undecoded.
    #[test]
    fn object_is_the_first_of_objects() {
        let (mut kg, knows, name, a, b, c) = setup();
        kg.insert(Triple::new(a, knows, c));
        kg.insert(Triple::new(a, knows, b));
        kg.insert(Triple::new(b, knows, a));
        for nick in ["Zed", "Ally", "Bee"] {
            kg.insert(Triple::new(a, name, nick));
        }
        kg.insert(Triple::new(c, name, "Cee"));
        kg.commit();
        let groups = [(a, knows, 2), (a, name, 3), (b, knows, 1), (c, name, 1), (c, knows, 0)];
        for (s, p, n) in groups {
            let objects = kg.objects(s, p);
            assert_eq!(objects.len(), n);
            assert_eq!(kg.object(s, p).as_ref(), objects.first(), "({s}, {p})");
            let mut keys = kg.object_keys(s, p);
            assert!(keys.by_ref().zip(&objects).all(|(k, v)| kg.decode(k).object == *v));
            assert_eq!(keys.next(), None);
        }
        assert_eq!(kg.object(a, name), Some(Value::from("Zed")), "the first interned");
        let ally = kg.literal_id(ValueKind::Text, "Ally").unwrap();
        assert_eq!(kg.literal(ally), &Value::from("Ally"));
        assert_eq!(kg.literal_id(ValueKind::Identifier, "Ally"), None);
    }

    /// A key whose literal id the graph's table does not reach is refused
    /// when it is queued, not when a later commit or publish resolves it.
    #[test]
    #[should_panic(expected = "a key's literal is interned")]
    fn a_key_with_a_literal_past_the_table_is_refused() {
        let (mut kg, _, name, a, _, _) = setup();
        kg.insert(Triple::new(a, name, "Ally"));
        kg.commit();
        let past = TripleKey { s: a, p: name, o: ObjKey::literal(LiteralId(1)) };
        kg.insert_key_with(past, SourceId(0), 1.0);
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

    /// Content order sorts by kind, then canonical string, then id: what a
    /// stable sort by content key gives ids listed in order, whatever order
    /// they come in. A table never interns two literals that tie (it keys
    /// them by kind and canonical string), so the ties here come from a
    /// decoded table, which does not check.
    #[test]
    fn content_order_is_kind_then_string_then_id() {
        use crate::persist::codec::from_bytes;
        let values = vec![
            Value::Float(1.00004),
            Value::Integer(9),
            Value::Text("10".into()),
            Value::Float(1.00001),
            Value::Integer(-3),
            Value::Identifier("10".into()),
            Value::Integer(10),
            Value::Float(f64::MAX),
        ];
        let table: LiteralTable = from_bytes(&to_bytes(&values)).unwrap();
        // A stable sort by content key of the ids listed in order.
        let mut stable: Vec<u64> = (0..values.len() as u64).collect();
        stable.sort_by_cached_key(|&i| {
            let object = values[i as usize].clone();
            fact_content_key(&Triple::new(EntityId(0), PredicateId(0), object))
        });
        // Text, then "-3" < "10" < "9", the tied floats in id order, the
        // long float, the identifier.
        assert_eq!(stable, [2, 4, 6, 1, 0, 3, 7, 5]);
        let mut order = ContentOrder::with_capacity(1);
        for ids in [[0, 1, 2, 3, 4, 5, 6, 7], [3, 7, 6, 5, 4, 2, 1, 0], [5, 3, 0, 2, 7, 1, 4, 6]] {
            ids.iter().for_each(|&i| order.push(LiteralId(i), &table));
            let mut sorted = Vec::new();
            order.number_group(&table, |l| sorted.push(l.0));
            assert_eq!(sorted, stable, "from {ids:?}");
        }
        // A group of one is numbered as it is, and ends like any other.
        order.push(LiteralId(5), &table);
        let mut one = Vec::new();
        order.number_group(&table, |l| one.push(l.0));
        assert_eq!(one, [5]);
    }

    /// The sizes an image is reserved by are the sizes its tables encode to.
    #[test]
    fn encoded_lengths_are_the_encodings_lengths() {
        use crate::persist::codec::to_bytes;
        let s = crate::synth::generate(&crate::synth::SynthConfig::tiny(5));
        assert_eq!(s.kg.ontology.encoded_len(), to_bytes(s.kg.ontology.as_ref()).len());
        for e in s.kg.entities() {
            assert_eq!(e.encoded_len(), to_bytes(e).len(), "{e:?}");
        }
        let date = Value::Date(crate::value::Date::new(-44, 3, 15).unwrap());
        let kinds = [Value::Entity(EntityId(3)), Value::Text("Zoë".into()), Value::Integer(-1)];
        let more =
            [Value::Float(f64::MAX), date, Value::Bool(true), Value::Identifier(String::new())];
        for v in kinds.iter().chain(&more).chain(s.kg.literals.values()) {
            assert_eq!(v.encoded_len(), to_bytes(v).len(), "{v:?}");
        }
        let mut out = vec![7];
        s.kg.enc(&mut out);
        assert_eq!(out.capacity(), out.len(), "an image grows its buffer once, exactly");
        assert_eq!(&out[1..], to_bytes(&s.kg));
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
        assert_eq!(to_bytes(&c), bytes, "the image of the graph it decodes to");
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
        assert!(d.removed.is_empty());
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
    fn codec_round_trip_preserves_store() {
        let (mut kg, knows, name, a, b, _) = setup();
        kg.insert(Triple::new(a, knows, b));
        kg.insert(Triple::new(a, name, "Ally"));
        kg.commit();
        let bytes = crate::persist::codec::to_bytes(&kg);
        let back: KnowledgeGraph = crate::persist::codec::from_bytes(&bytes).unwrap();
        assert_eq!(back.num_triples(), 2);
        assert!(back.contains(&Triple::new(a, knows, b)));
        assert!(back.contains(&Triple::new(a, name, "Ally")));
        back.check_invariants().unwrap();
    }

    /// The commit before the sorted delta and the chunked indexes, as a
    /// model outside [`KnowledgeGraph`] — the oracle for
    /// [`commit`](KnowledgeGraph::commit): the facts and their meta in an
    /// ordered map, and the three index orders as flat sorted vectors that
    /// removals `retain` out of and insertions merge into.
    #[derive(Default, Clone)]
    struct ReferenceStore {
        meta: BTreeMap<TripleKey, FactMeta>,
        spo: Vec<TripleKey>,
        pos: Vec<TripleKey>,
        osp: Vec<TripleKey>,
        commit_counter: u64,
    }

    impl ReferenceStore {
        /// Commits the writes `kg` has queued (without taking them),
        /// decoding keys through `kg`'s literal table.
        fn commit(&mut self, kg: &KnowledgeGraph) -> Delta {
            self.commit_counter += 1;
            let now = self.commit_counter;
            let mut delta = Delta { commit: now, ..Delta::default() };

            let add_keys: HashSet<TripleKey> = kg.pending_add.iter().map(|(k, _, _)| *k).collect();
            let mut removed_set = HashSet::new();
            for &k in &kg.pending_remove {
                if self.meta.contains_key(&k) && !add_keys.contains(&k) && removed_set.insert(k) {
                    self.meta.remove(&k);
                    delta.removed.push(kg.decode(k));
                }
            }
            if !removed_set.is_empty() {
                self.spo.retain(|k| !removed_set.contains(k));
                self.pos.retain(|k| !removed_set.contains(k));
                self.osp.retain(|k| !removed_set.contains(k));
            }

            let mut new_keys: Vec<TripleKey> = Vec::new();
            let mut added_this_commit = HashSet::new();
            let mut refreshed_this_commit = HashSet::new();
            for &(k, source, confidence) in &kg.pending_add {
                let fresh = FactMeta { source, confidence, observed_at: now };
                let existed = self.meta.insert(k, fresh).is_some();
                if existed && !added_this_commit.contains(&k) {
                    if refreshed_this_commit.insert(k) {
                        delta.refreshed.push(kg.decode(k));
                    }
                } else if !existed {
                    added_this_commit.insert(k);
                    new_keys.push(k);
                    delta.added.push(kg.decode(k));
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

    /// One scripted write of the commit differential. Objects below
    /// [`ENTITY_OBJECTS`] are entities, the rest text literals.
    #[derive(Debug, Clone)]
    enum Write {
        Insert {
            s: u8,
            p: u8,
            o: u8,
            source: u8,
            confidence: u8,
        },
        Remove {
            s: u8,
            p: u8,
            o: u8,
        },
        /// Remove, then insert the same fact, in one commit.
        Replace {
            s: u8,
            p: u8,
            o: u8,
        },
        Commit,
    }

    const ENTITY_OBJECTS: u8 = 6;

    fn write(rng: &mut SplitMix64) -> Write {
        let spo = |rng: &mut SplitMix64| {
            (rng.gen_range(0u8..6), rng.gen_range(0u8..2), rng.gen_range(0u8..12))
        };
        saga_testkit::one_of(
            rng,
            &[
                &|rng| {
                    let (s, p, o) = spo(rng);
                    let (source, confidence) = (rng.gen_range(0u8..3), rng.gen_range(0u8..4));
                    Write::Insert { s, p, o, source, confidence }
                },
                &|rng| {
                    let (s, p, o) = spo(rng);
                    Write::Remove { s, p, o }
                },
                &|rng| {
                    let (s, p, o) = spo(rng);
                    Write::Replace { s, p, o }
                },
                &|_| Write::Commit,
            ],
        )
    }

    /// Asserts that the commit that returned `got` made `kg` what the
    /// commit that returned `want` made `reference`: the same changes, the
    /// same keys in all three orders, the same meta for every key (also
    /// read subject by subject), the index invariants and chunk bounds, and
    /// an image `kg` decodes from.
    fn assert_committed_alike(
        kg: &KnowledgeGraph,
        reference: &ReferenceStore,
        got: &KeyDelta,
        want: &Delta,
    ) {
        use crate::persist::codec::{BinCodec, Reader};
        assert_eq!(format!("{:?}", kg.decode_delta(got)), format!("{want:?}"));
        assert!(kg.keys().eq(reference.spo.iter().copied()), "spo");
        assert!(kg.pos.iter().eq(&reference.pos), "pos");
        assert!(kg.osp.iter().eq(&reference.osp), "osp");
        let model: Vec<Fact> = reference.meta.iter().map(|(k, m)| (*k, *m)).collect();
        assert!(kg.spo.iter().eq(&model), "meta");
        let mut rest = &model[..];
        for s in 0..kg.num_entities() as u64 {
            let (of_s, after) = rest.split_at(rest.partition_point(|(k, _)| k.s.raw() <= s));
            assert!(kg.subject_facts(EntityId(s)).eq(of_s.iter().copied()), "subject {s}");
            rest = after;
        }
        assert_eq!(kg.check_invariants(), Ok(()));
        let bytes = to_bytes(kg);
        let back = KnowledgeGraph::dec(&mut Reader::new(&bytes)).unwrap();
        assert!(to_bytes(&back) == bytes);
    }

    /// The sorted-delta commit against the `retain` + merge model it
    /// replaced, driven by one random history: inserts, re-inserts under
    /// other meta, removals of present and absent facts, duplicate
    /// removals, remove and insert of one fact in one commit, and empty
    /// commits. After every commit both hold the same keys in all three
    /// orders and the same meta for every key, the graph returns the
    /// model's delta, keeps the index invariants and decodes from its own
    /// image.
    #[test]
    fn sorted_delta_commit_matches_the_reference() {
        check(256, 1, |rng| {
            let history = saga_testkit::vec(rng, 0..96, write);
            let (mut kg, knows, name, a, _, _) = setup();
            let person = kg.entity(a).entity_type;
            for n in ["Dan", "Eve", "Finn"] {
                kg.add_entity(EntityBuilder::new(n, person));
            }
            let sources = [SourceId(0), kg.register_source("wiki"), kg.register_source("crawl")];
            let triple = |s: u8, p: u8, o: u8| {
                let object = match o {
                    o if o < ENTITY_OBJECTS => Value::Entity(EntityId(u64::from(o))),
                    o => Value::Text(format!("v{o}")),
                };
                Triple::new(EntityId(u64::from(s)), [knows, name][usize::from(p)], object)
            };
            let mut reference = ReferenceStore::default();
            for w in history.iter().chain(std::iter::once(&Write::Commit)) {
                match *w {
                    Write::Insert { s, p, o, source, confidence } => {
                        let c = f32::from(confidence) / 4.0;
                        kg.insert_with(triple(s, p, o), sources[usize::from(source)], c);
                    }
                    Write::Remove { s, p, o } => kg.remove(&triple(s, p, o)),
                    Write::Replace { s, p, o } => {
                        kg.remove(&triple(s, p, o));
                        kg.insert(triple(s, p, o));
                    }
                    Write::Commit => {
                        let want = reference.commit(&kg);
                        let got = kg.commit();
                        assert_committed_alike(&kg, &reference, &got, &want);
                    }
                }
            }
        });
    }

    /// Subjects of the chunk-boundary histories. With two predicates and
    /// [`WIDE_OBJECTS`] objects a subject holds up to 48 facts, so a graph
    /// spans up to fifteen chunks of [`index::CHUNK`].
    const WIDE_SUBJECTS: u64 = 40;
    const WIDE_OBJECTS: u64 = 24;

    /// One round of a chunk-boundary history, over the subjects
    /// `from..to`.
    #[derive(Debug, Clone, Copy)]
    enum Round {
        /// Insert every fact of the run whose object is `phase` modulo
        /// `stride`: a dense run lands in one or two chunks and splits them.
        Insert { stride: u64, phase: u64 },
        /// Remove every fact of the run: a run that empties a chunk, or
        /// crosses a boundary and shrinks the chunks on both sides of it.
        Remove,
        /// Re-insert every fact of the run under a new confidence: a
        /// refresh that keeps each chunk's length.
        Refresh,
        /// Scattered single inserts and removals over the whole graph.
        Scatter,
    }

    /// The commit against the reference over graphs that span many chunks:
    /// a bulk first commit, then rounds that split chunks, empty them,
    /// remove runs across their boundaries and refresh them in place,
    /// mixed with scattered writes. Before some rounds the history forks:
    /// the graph it held is kept, as a clone or a reader's pin would hold
    /// it, and the rest of the history writes a clone. After every commit
    /// the graph matches the reference and keeps its chunk bounds, and at
    /// the end every graph it left behind still has the bytes it had, so no
    /// write to a clone reached a chunk another graph sees. The histories
    /// must, between them, split a chunk, empty one, remove a run across a
    /// boundary and fork.
    #[test]
    fn chunk_boundaries_match_the_reference() {
        let (mut splits, mut empties, mut crossings, mut forks) = (0, 0, 0, 0);
        check(48, 3, |rng| {
            let (mut kg, knows, name, a, _, _) = setup();
            let person = kg.entity(a).entity_type;
            for e in kg.num_entities() as u64..WIDE_SUBJECTS {
                kg.add_entity(EntityBuilder::new(format!("e{e}"), person));
            }
            let wiki = kg.register_source("wiki");
            let triple = |s: u64, o: u64| {
                let (p, o) = ([knows, name][(o % 2) as usize], o / 2);
                let object = match o {
                    o if o < 6 => Value::Entity(EntityId(o)),
                    o => Value::Text(format!("v{o}")),
                };
                Triple::new(EntityId(s), p, object)
            };
            let density = rng.gen_range(1u64..=4);
            for s in 0..WIDE_SUBJECTS {
                for o in (0..WIDE_OBJECTS).filter(|_| rng.gen_range(0..4) < density) {
                    kg.insert(triple(s, o));
                }
            }
            let mut reference = ReferenceStore::default();
            let want = reference.commit(&kg);
            let got = kg.commit();
            assert_committed_alike(&kg, &reference, &got, &want);

            let mut left_behind: Vec<(KnowledgeGraph, Vec<u8>)> = Vec::new();
            for round in 0..rng.gen_range(4..14) {
                if rng.gen_range(0..4) == 0 {
                    let copy = kg.clone();
                    let bytes = to_bytes(&kg);
                    // Keep either graph: the other writes on.
                    let kept =
                        if rng.gen_bool(0.5) { std::mem::replace(&mut kg, copy) } else { copy };
                    left_behind.push((kept, bytes));
                    forks += 1;
                }
                let from = rng.gen_range(0..WIDE_SUBJECTS);
                let to = (from + rng.gen_range(1..12)).min(WIDE_SUBJECTS);
                let run = (from..to).flat_map(|s| (0..WIDE_OBJECTS).map(move |o| (s, o)));
                let step = saga_testkit::one_of(
                    rng,
                    &[
                        &|rng| Round::Insert {
                            stride: rng.gen_range(1..4),
                            phase: rng.gen_range(0..4),
                        },
                        &|_| Round::Remove,
                        &|_| Round::Refresh,
                        &|_| Round::Scatter,
                    ],
                );
                let held: Vec<TripleKey> = kg.keys().collect();
                let before = kg.spo.chunk_lens();
                match step {
                    Round::Insert { stride, phase } => {
                        run.filter(|(_, o)| o % stride == phase % stride)
                            .for_each(|(s, o)| kg.insert_with(triple(s, o), wiki, 0.5));
                    }
                    Round::Remove => {
                        let gone: Vec<usize> = (0..held.len())
                            .filter(|&i| (from..to).contains(&held[i].s.raw()))
                            .collect();
                        if let (Some(&first), Some(&last)) = (gone.first(), gone.last()) {
                            // The chunk of a place in SPO order, before the commit.
                            let chunk_of = |i: usize| {
                                (before.iter().scan(0, |end, n| {
                                    *end += n;
                                    Some(*end)
                                }))
                                .position(|end| i < end)
                            };
                            crossings += usize::from(chunk_of(first) != chunk_of(last));
                        }
                        run.for_each(|(s, o)| kg.remove(&triple(s, o)));
                    }
                    Round::Refresh => {
                        let confidence = f32::from(round as u8) / 16.0;
                        (held.iter().filter(|k| (from..to).contains(&k.s.raw())))
                            .for_each(|&k| kg.insert_key_with(k, wiki, confidence));
                    }
                    Round::Scatter => {
                        for _ in 0..rng.gen_range(1..24) {
                            let (s, o) =
                                (rng.gen_range(0..WIDE_SUBJECTS), rng.gen_range(0..WIDE_OBJECTS));
                            match rng.gen_bool(0.5) {
                                true => kg.insert(triple(s, o)),
                                false => kg.remove(&triple(s, o)),
                            }
                        }
                    }
                }
                let want = reference.commit(&kg);
                let got = kg.commit();
                assert_committed_alike(&kg, &reference, &got, &want);
                let after = kg.spo.chunk_lens();
                splits += usize::from(after.len() > before.len());
                empties += usize::from(
                    before.iter().sum::<usize>() > after.iter().sum::<usize>()
                        && after.len() < before.len(),
                );
            }
            for (graph, bytes) in &left_behind {
                assert!(to_bytes(graph) == *bytes, "a write reached a graph left behind");
                assert_eq!(graph.check_invariants(), Ok(()));
            }
        });
        assert!(
            splits > 0 && empties > 0 && crossings > 0 && forks > 0,
            "{splits} splits, {empties} emptied or merged, {crossings} crossings, {forks} forks"
        );
    }

    /// An image whose meta pairs do not name the SPO keys in order — two
    /// swapped, one dropped, one duplicated in another's place or added —
    /// decodes to a typed error, not a panic.
    #[test]
    fn meta_out_of_step_with_spo_is_corrupt() {
        use crate::error::SagaError;
        use crate::persist::codec::{BinCodec, Reader};
        let (mut kg, knows, name, a, b, c) = setup();
        kg.insert(Triple::new(a, knows, b));
        kg.insert(Triple::new(a, knows, c));
        kg.insert(Triple::new(b, name, "Bo"));
        kg.commit();
        let image = to_bytes(&kg);
        assert!(KnowledgeGraph::dec(&mut Reader::new(&image)).is_ok());

        // With nothing queued the image ends with the meta pairs, two empty
        // queues and the commit counter.
        const PAIR: usize = KEY_BYTES + META_BYTES;
        let tail = 3 * LEN_BYTES;
        let pairs_at = image.len() - tail - 3 * PAIR;
        let count_at = pairs_at - LEN_BYTES;
        let pair = |i: usize| image[pairs_at + i * PAIR..pairs_at + (i + 1) * PAIR].to_vec();
        let with_pairs = |pairs: &[Vec<u8>]| {
            let mut out = image[..count_at].to_vec();
            (pairs.len() as u64).enc(&mut out);
            pairs.iter().for_each(|p| out.extend_from_slice(p));
            out.extend_from_slice(&image[image.len() - tail..]);
            out
        };
        assert_eq!(with_pairs(&[pair(0), pair(1), pair(2)]), image, "the pairs are where we think");
        for (what, pairs) in [
            ("swapped", vec![pair(1), pair(0), pair(2)]),
            ("dropped", vec![pair(0), pair(2)]),
            ("duplicated in place", vec![pair(0), pair(0), pair(2)]),
            ("duplicated", vec![pair(0), pair(1), pair(1), pair(2)]),
        ] {
            let got = KnowledgeGraph::dec(&mut Reader::new(&with_pairs(&pairs)));
            assert!(matches!(got, Err(SagaError::Corrupt(_))), "{what}: {got:?}");
        }
    }
}
