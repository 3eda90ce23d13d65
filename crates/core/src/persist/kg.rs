//! The knowledge graph on top of the storage [`Engine`]: durable commits,
//! MVCC snapshot reads, and a change-subscription cursor.
//!
//! **Write path.** [`KgStore::commit`] runs a closure against a
//! [`StoreTxn`], which applies mutations to the in-memory graph (fact
//! writes queue until the graph commits) *and* records them as a
//! deterministic operation list. The list is serialized
//! and appended to the engine's transaction log (one fsync per commit).
//! When the log region is full, the store checkpoints instead: the full
//! graph image (with the new transaction baked in) is written as
//! copy-on-write pages and the root flips — so every commit is durable
//! through exactly one of the two paths.
//!
//! **Recovery.** [`KgStore::open`] materializes the checkpoint image and
//! replays the log tail by re-applying each transaction's operation list.
//! Replay is deterministic: the same operations against the same image
//! produce a byte-identical graph (the graph's binary encoding is canonical —
//! see the [`BinCodec`] impl of [`KnowledgeGraph`] — sorted metadata pairs,
//! dense ids in allocation order), which is what the crash matrix asserts at
//! every kill point.
//!
//! **Read path (MVCC).** [`KgStore::pin`] hands out an
//! [`Arc`]-shared snapshot of the current graph. Writers never mutate a
//! pinned graph: `Arc::make_mut` copies only when readers still hold the
//! previous snapshot, so readers never block and never observe a partial
//! commit. The copy shares every table and index chunk with the pin: it
//! is the graph's three chunk-pointer vectors, about 7 KB for the grow
//! benchmark's 8,143 facts (the flat indexes it replaced took 700 KB),
//! and the commit then copies only the chunks it writes
//! ([`crate::store`]).
//!
//! **Change cursor.** Every commit's [`Delta`] is retained (keyed by commit
//! sequence) since the last checkpoint, mirroring the durable log tail.
//! [`KgStore::changes_since`] either returns the missing deltas or reports
//! the cursor lapsed, in which case the consumer resyncs from a snapshot —
//! the same contract the paper's change-only downstream processing needs.

use super::codec::{BinCodec, Reader};
use super::engine::{AppendOutcome, Engine, EngineOptions};
use crate::entity::{EntityBuilder, EntityRecord};
use crate::error::{Result, SagaError};
use crate::ids::{EntityId, SourceId};
use crate::obs::{Counter, Scope};
use crate::store::{Delta, KeyDelta, KnowledgeGraph};
use crate::triple::Triple;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Magic prefix of a checkpoint image, so materialized bytes that are not a
/// graph image (wrong file, garbage pages) fail decoding immediately.
const IMAGE_MAGIC: &[u8; 8] = b"SAGAIMG1";

/// Encodes `kg` as a checkpoint image (magic + canonical binary encoding).
fn encode_image(kg: &KnowledgeGraph) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(IMAGE_MAGIC);
    kg.enc(&mut out);
    out
}

/// Decodes a checkpoint image produced by [`encode_image`].
fn decode_image(bytes: &[u8]) -> Result<KnowledgeGraph> {
    let mut rd = Reader::new(bytes);
    if rd.bytes(IMAGE_MAGIC.len())? != IMAGE_MAGIC {
        return Err(SagaError::Corrupt("checkpoint image has wrong magic".into()));
    }
    KnowledgeGraph::dec(&mut rd)
}

/// One replayable mutation. The op log stores *intentions* (by name, not
/// interned id, where ids are allocation-order-dependent) so replay against
/// the checkpoint image reconstructs identical state.
#[derive(Debug, Clone)]
enum KgOp {
    /// Append an entity record (id must be the next dense id at replay).
    AddEntity(EntityRecord),
    /// Intern a provenance source by name.
    RegisterSource(String),
    /// Queue a fact insert with provenance (source by name).
    Insert { triple: Triple, source: String, confidence: f32 },
    /// Queue a fact removal.
    Remove(Triple),
    /// Set an entity's popularity prior.
    SetPopularity { entity: EntityId, popularity: f32 },
}

impl BinCodec for KgOp {
    fn enc(&self, out: &mut Vec<u8>) {
        match self {
            KgOp::AddEntity(record) => {
                out.push(0);
                record.enc(out);
            }
            KgOp::RegisterSource(name) => {
                out.push(1);
                name.enc(out);
            }
            KgOp::Insert { triple, source, confidence } => {
                out.push(2);
                triple.enc(out);
                source.enc(out);
                confidence.enc(out);
            }
            KgOp::Remove(triple) => {
                out.push(3);
                triple.enc(out);
            }
            KgOp::SetPopularity { entity, popularity } => {
                out.push(4);
                entity.enc(out);
                popularity.enc(out);
            }
        }
    }
    fn dec(rd: &mut Reader<'_>) -> Result<Self> {
        Ok(match rd.u8()? {
            0 => KgOp::AddEntity(EntityRecord::dec(rd)?),
            1 => KgOp::RegisterSource(String::dec(rd)?),
            2 => KgOp::Insert {
                triple: Triple::dec(rd)?,
                source: String::dec(rd)?,
                confidence: f32::dec(rd)?,
            },
            3 => KgOp::Remove(Triple::dec(rd)?),
            4 => KgOp::SetPopularity { entity: EntityId::dec(rd)?, popularity: f32::dec(rd)? },
            b => return Err(SagaError::Corrupt(format!("invalid op tag {b:#04x}"))),
        })
    }
}

fn encode_ops(ops: &[KgOp]) -> Vec<u8> {
    let mut out = Vec::new();
    (ops.len() as u64).enc(&mut out);
    for op in ops {
        op.enc(&mut out);
    }
    out
}

fn decode_ops(payload: &[u8]) -> Result<Vec<KgOp>> {
    let mut rd = Reader::new(payload);
    let ops = Vec::<KgOp>::dec(&mut rd)?;
    if rd.remaining() != 0 {
        return Err(SagaError::Corrupt(format!(
            "op-log payload has {} trailing bytes",
            rd.remaining()
        )));
    }
    Ok(ops)
}

fn apply_op(kg: &mut KnowledgeGraph, op: &KgOp) -> Result<()> {
    match op {
        KgOp::AddEntity(record) => {
            kg.add_entity_record(record.clone()).map_err(SagaError::Corrupt)?;
        }
        KgOp::RegisterSource(name) => {
            kg.register_source(name);
        }
        KgOp::Insert { triple, source, confidence } => {
            let sid = kg.register_source(source);
            kg.insert_with(triple.clone(), sid, *confidence);
        }
        KgOp::Remove(triple) => kg.remove(triple),
        KgOp::SetPopularity { entity, popularity } => {
            if kg.try_entity(*entity).is_none() {
                return Err(SagaError::Corrupt(format!(
                    "op log references unknown entity {entity}"
                )));
            }
            kg.set_popularity(*entity, *popularity);
        }
    }
    Ok(())
}

/// A transaction under construction. Every mutation is recorded for the
/// durable op log, and reads go through [`Deref`](std::ops::Deref) to the
/// working graph. Entity additions, source registrations and popularity
/// updates take effect at once, so later statements in the transaction see
/// them. Fact inserts and removals only queue: fact reads such as
/// [`contains`](KnowledgeGraph::contains) and
/// [`objects`](KnowledgeGraph::objects) see the committed facts until
/// [`KgStore::commit`] commits the graph after the closure returns.
pub struct StoreTxn<'a> {
    kg: &'a mut KnowledgeGraph,
    ops: Vec<KgOp>,
}

impl std::ops::Deref for StoreTxn<'_> {
    type Target = KnowledgeGraph;
    fn deref(&self) -> &KnowledgeGraph {
        self.kg
    }
}

impl StoreTxn<'_> {
    /// Adds an entity; see [`KnowledgeGraph::add_entity`].
    pub fn add_entity(&mut self, builder: EntityBuilder) -> EntityId {
        let id = self.kg.add_entity(builder);
        self.ops.push(KgOp::AddEntity(self.kg.entity(id).clone()));
        id
    }

    /// Registers a provenance source; see [`KnowledgeGraph::register_source`].
    pub fn register_source(&mut self, name: &str) -> SourceId {
        self.ops.push(KgOp::RegisterSource(name.to_owned()));
        self.kg.register_source(name)
    }

    /// Queues a fact insert with default provenance.
    pub fn insert(&mut self, triple: Triple) {
        self.insert_with(triple, SourceId(0), 1.0);
    }

    /// Queues a fact insert with provenance; see
    /// [`KnowledgeGraph::insert_with`].
    pub fn insert_with(&mut self, triple: Triple, source: SourceId, confidence: f32) {
        self.ops.push(KgOp::Insert {
            triple: triple.clone(),
            source: self.kg.source_name(source).to_owned(),
            confidence,
        });
        self.kg.insert_with(triple, source, confidence);
    }

    /// Queues a fact removal; see [`KnowledgeGraph::remove`].
    pub fn remove(&mut self, triple: &Triple) {
        self.ops.push(KgOp::Remove(triple.clone()));
        self.kg.remove(triple);
    }

    /// Sets an entity's popularity prior.
    pub fn set_popularity(&mut self, entity: EntityId, popularity: f32) {
        self.ops.push(KgOp::SetPopularity { entity, popularity });
        self.kg.set_popularity(entity, popularity);
    }
}

/// Result of [`KgStore::changes_since`].
#[derive(Debug, Clone)]
pub enum Changes {
    /// Every commit after the requested sequence, in order.
    Deltas(Vec<(u64, Delta)>),
    /// The cursor predates the change retention window (the last
    /// checkpoint); resync from a [`KgStore::pin`] snapshot at `oldest`.
    Lapsed {
        /// Oldest commit whose delta is still retained + 1 (i.e. the commit
        /// covered by the current checkpoint).
        oldest: u64,
    },
}

/// A pinned MVCC snapshot: dereferences to the [`KnowledgeGraph`] as of the
/// commit it was taken at. Holding a pin never blocks writers (they copy on
/// write) and the view never changes under the reader.
pub struct GraphPin {
    kg: Arc<KnowledgeGraph>,
    commit: u64,
    live: Arc<AtomicU64>,
    unpins: Option<Arc<Counter>>,
}

impl std::ops::Deref for GraphPin {
    type Target = KnowledgeGraph;
    fn deref(&self) -> &KnowledgeGraph {
        &self.kg
    }
}

impl GraphPin {
    /// The commit sequence this snapshot reflects.
    pub fn commit(&self) -> u64 {
        self.commit
    }
}

impl Drop for GraphPin {
    fn drop(&mut self) {
        self.live.fetch_sub(1, Ordering::SeqCst);
        if let Some(c) = &self.unpins {
            c.inc();
        }
    }
}

/// The durable knowledge-graph store: a [`KnowledgeGraph`] wired onto the
/// crash-safe [`Engine`]. See the module docs for the commit, recovery, and
/// MVCC contracts.
pub struct KgStore {
    engine: Engine,
    current: Arc<KnowledgeGraph>,
    deltas: Vec<(u64, Delta)>,
    live_readers: Arc<AtomicU64>,
    pins: Option<Arc<Counter>>,
    unpins: Option<Arc<Counter>>,
    poisoned: bool,
}

impl std::fmt::Debug for KgStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KgStore")
            .field("last_commit", &self.engine.last_commit())
            .field("triples", &self.current.num_triples())
            .finish()
    }
}

impl KgStore {
    /// Creates a new store file at `path` with `initial` as the checkpoint
    /// image (commit sequence = `initial.current_commit()`). The initial
    /// graph carries the ontology; transactions cannot alter it later.
    pub fn create(path: &Path, initial: KnowledgeGraph, opts: &EngineOptions) -> Result<Self> {
        let mut engine = Engine::create(path, opts)?;
        let image = encode_image(&initial);
        engine.checkpoint(&image, initial.current_commit())?;
        Ok(Self {
            engine,
            current: Arc::new(initial),
            deltas: Vec::new(),
            live_readers: Arc::new(AtomicU64::new(0)),
            pins: None,
            unpins: None,
            poisoned: false,
        })
    }

    /// Opens an existing store, recovering to the last committed
    /// transaction: materializes the checkpoint image and replays the log
    /// tail. Replay divergence (an op list that does not reproduce its
    /// recorded commit sequence) is reported as [`SagaError::Corrupt`].
    pub fn open(path: &Path) -> Result<Self> {
        let mut engine = Engine::open(path)?;
        let image = engine
            .materialize()?
            .ok_or_else(|| SagaError::Corrupt("store has no checkpoint image".into()))?;
        let mut kg = decode_image(&image)?;
        if kg.current_commit() != engine.checkpoint_commit() {
            return Err(SagaError::Corrupt(format!(
                "image commit {} disagrees with root commit {}",
                kg.current_commit(),
                engine.checkpoint_commit()
            )));
        }
        let mut deltas = Vec::with_capacity(engine.tail().len());
        for (seq, payload) in engine.tail() {
            let ops = decode_ops(payload)?;
            for op in &ops {
                apply_op(&mut kg, op)?;
            }
            let keys = kg.commit();
            if keys.commit != *seq {
                return Err(SagaError::Corrupt(format!(
                    "op log replay diverged: replayed commit {} for log sequence {seq}",
                    keys.commit
                )));
            }
            deltas.push((*seq, kg.decode_delta(&keys)));
        }
        Ok(Self {
            engine,
            current: Arc::new(kg),
            deltas,
            live_readers: Arc::new(AtomicU64::new(0)),
            pins: None,
            unpins: None,
            poisoned: false,
        })
    }

    /// Registers engine + reader metrics under `scope` (conventionally the
    /// registry's `persist` scope; counters land under `persist/engine/…`).
    pub fn attach_obs(&mut self, scope: &Scope) {
        let engine_scope = scope.child("engine");
        self.engine.attach_obs(&engine_scope);
        self.pins = Some(engine_scope.counter("reader_pins"));
        self.unpins = Some(engine_scope.counter("reader_unpins"));
    }

    /// The storage engine underneath (stats, scrub).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Mutable engine access (scrub needs `&mut`).
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    /// Test hook: installs a crash switch on the engine.
    pub fn set_kill(&mut self, kill: Arc<crate::fault::KillSwitch>) {
        self.engine.set_kill(kill);
    }

    /// The current graph (unpinned borrow; prefer [`pin`](Self::pin) for
    /// reads that outlive a statement).
    pub fn graph(&self) -> &KnowledgeGraph {
        &self.current
    }

    /// Sequence number of the last durable commit.
    pub fn last_commit(&self) -> u64 {
        self.engine.last_commit()
    }

    /// Readers currently holding a [`GraphPin`].
    pub fn live_readers(&self) -> u64 {
        self.live_readers.load(Ordering::SeqCst)
    }

    /// Takes an MVCC snapshot pin of the current graph. Never blocks; the
    /// snapshot is immutable for the pin's lifetime.
    pub fn pin(&self) -> GraphPin {
        self.live_readers.fetch_add(1, Ordering::SeqCst);
        if let Some(c) = &self.pins {
            c.inc();
        }
        GraphPin {
            kg: Arc::clone(&self.current),
            commit: self.engine.last_commit(),
            live: Arc::clone(&self.live_readers),
            unpins: self.unpins.clone(),
        }
    }

    fn ensure_writable(&self) -> Result<()> {
        if self.poisoned {
            return Err(SagaError::Unavailable { site: "kg-store".into(), transient: false });
        }
        Ok(())
    }

    /// Runs one durable transaction. The closure mutates through
    /// [`StoreTxn`]; on return the transaction is committed to the log (or
    /// baked into a checkpoint when the log is full) and its [`Delta`] is
    /// recorded for [`changes_since`](Self::changes_since), the one reader
    /// of decoded changes. Returns the closure's result and the keys the
    /// commit changed.
    ///
    /// On an I/O or crash-switch error the store is poisoned — the
    /// in-memory graph may be ahead of disk — and every later write fails
    /// with [`SagaError::Unavailable`]; reopen from disk to resume (this is
    /// exactly what crash recovery does).
    pub fn commit<R>(&mut self, f: impl FnOnce(&mut StoreTxn<'_>) -> R) -> Result<(R, KeyDelta)> {
        self.ensure_writable()?;
        let mut txn = StoreTxn { kg: Arc::make_mut(&mut self.current), ops: Vec::new() };
        let out = f(&mut txn);
        let StoreTxn { kg, ops } = txn;
        let delta = kg.commit();
        let payload = encode_ops(&ops);
        self.poisoned = true; // cleared on success below
        match self.engine.append(&payload)? {
            AppendOutcome::Committed(seq) => {
                if seq != delta.commit {
                    return Err(SagaError::Corrupt(format!(
                        "commit sequence skew: graph {} vs log {seq}",
                        delta.commit
                    )));
                }
            }
            AppendOutcome::LogFull => {
                // Bake the transaction (and everything before it) into a
                // fresh checkpoint; durability comes from the root flip.
                let image = encode_image(&self.current);
                self.engine.checkpoint(&image, delta.commit)?;
                self.deltas.clear();
            }
        }
        self.poisoned = false;
        self.deltas.push((delta.commit, self.current.decode_delta(&delta)));
        Ok((out, delta))
    }

    /// Compacts the store: writes the current graph as a fresh checkpoint
    /// image (copy-on-write against the previous one) and resets the log.
    /// Change cursors older than this point lapse.
    pub fn checkpoint(&mut self) -> Result<()> {
        self.ensure_writable()?;
        let image = encode_image(&self.current);
        self.poisoned = true;
        self.engine.checkpoint(&image, self.engine.last_commit())?;
        self.poisoned = false;
        self.deltas.clear();
        Ok(())
    }

    /// The change-subscription cursor: deltas of every commit after
    /// `commit`, or [`Changes::Lapsed`] when retention (the last
    /// checkpoint) no longer reaches back that far.
    ///
    /// A cursor *ahead* of the store also lapses: such a cursor can only
    /// come from another store generation (say, state carried across a
    /// restore from backup), and returning an empty delta list would make
    /// the consumer silently skip every future change until the store
    /// happened to pass it. Lapsing instead forces the one sound recovery —
    /// a full rebuild from a pinned snapshot.
    pub fn changes_since(&self, commit: u64) -> Changes {
        let last = self.engine.last_commit();
        if commit > last {
            return Changes::Lapsed { oldest: self.engine.checkpoint_commit() };
        }
        if commit == last {
            return Changes::Deltas(Vec::new());
        }
        match self.deltas.first().map(|(s, _)| *s) {
            Some(oldest) if commit + 1 >= oldest => {
                Changes::Deltas(self.deltas.iter().filter(|(s, _)| *s > commit).cloned().collect())
            }
            _ => Changes::Lapsed { oldest: self.engine.checkpoint_commit() },
        }
    }

    /// Pulls the next [`DeltaBatch`](crate::delta::DeltaBatch) for `cursor`:
    /// the entity-keyed dirty set of every commit past the cursor, with the
    /// cursor advanced past them. On [`DeltaPull::Lapsed`](crate::delta::DeltaPull::Lapsed) the cursor is
    /// left untouched — the caller full-rebuilds from a
    /// [`pin`](Self::pin) and [`resync`s](crate::delta::DeltaCursor::resync)
    /// to the pin's commit.
    pub fn pull_delta(&self, cursor: &mut crate::delta::DeltaCursor) -> crate::delta::DeltaPull {
        match self.changes_since(cursor.position()) {
            Changes::Deltas(deltas) => {
                let batch = crate::delta::DeltaBatch::from_deltas(cursor.position(), &deltas);
                cursor.advance_to(batch.to);
                crate::delta::DeltaPull::Batch(batch)
            }
            Changes::Lapsed { oldest } => crate::delta::DeltaPull::Lapsed { oldest },
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::ontology::{Cardinality, Ontology, Volatility};
    use crate::persist::codec::to_bytes;
    use crate::value::{Value, ValueKind};

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("saga-core-kgstore-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(format!("{}-{}", std::process::id(), name));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn base_graph() -> (KnowledgeGraph, crate::ids::PredicateId) {
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
        let mut kg = KnowledgeGraph::new(o);
        kg.add_entity(EntityBuilder::new("Alice", person));
        kg.add_entity(EntityBuilder::new("Bob", person));
        (kg, knows)
    }

    fn person_type(kg: &KnowledgeGraph) -> crate::ids::TypeId {
        kg.entity(EntityId(0)).entity_type
    }

    #[test]
    fn a_txn_sees_its_entities_at_once_and_its_facts_after_commit() {
        let p = tmp("txn-reads.db");
        let (kg, knows) = base_graph();
        let mut store = KgStore::create(&p, kg, &EngineOptions::default()).unwrap();
        let (alice, bob) = (EntityId(0), EntityId(1));
        let fact = Triple::new(alice, knows, bob);
        let (carol, _) = store
            .commit(|txn| {
                let t = person_type(txn);
                let carol = txn.add_entity(EntityBuilder::new("Carol", t));
                assert_eq!(txn.entity(carol).name, "Carol");
                let src = txn.register_source("unit-test");
                assert_eq!(txn.source_name(src), "unit-test");
                txn.set_popularity(carol, 0.5);
                assert_eq!(txn.entity(carol).popularity, 0.5);
                txn.insert_with(fact.clone(), src, 0.9);
                assert!(!txn.contains(&fact), "an insert queues until the commit");
                assert!(txn.objects(alice, knows).is_empty());
                carol
            })
            .unwrap();
        assert!(store.graph().contains(&fact));
        assert_eq!(store.graph().entity(carol).popularity, 0.5);
        store
            .commit(|txn| {
                txn.remove(&fact);
                assert!(txn.contains(&fact), "a removal queues until the commit");
                assert_eq!(txn.objects(alice, knows), vec![Value::Entity(bob)]);
            })
            .unwrap();
        assert!(!store.graph().contains(&fact));
    }

    #[test]
    fn commit_reopen_round_trip_is_bit_identical() {
        let p = tmp("roundtrip.db");
        let (kg, knows) = base_graph();
        let mut store = KgStore::create(&p, kg, &EngineOptions::default()).unwrap();
        let (id, delta) = store
            .commit(|txn| {
                let t = person_type(txn);
                let carol = txn.add_entity(EntityBuilder::new("Carol", t).alias("C"));
                let src = txn.register_source("unit-test");
                txn.insert_with(Triple::new(EntityId(0), knows, carol), src, 0.9);
                txn.insert(Triple::new(EntityId(0), knows, EntityId(1)));
                carol
            })
            .unwrap();
        assert_eq!(delta.added.len(), 2);
        assert_eq!(store.last_commit(), 1);
        let before = to_bytes(store.graph());
        drop(store);
        let store = KgStore::open(&p).unwrap();
        assert_eq!(store.last_commit(), 1);
        assert!(store.graph().contains(&Triple::new(EntityId(0), knows, id)));
        let after = to_bytes(store.graph());
        assert_eq!(before, after, "replayed state must be byte-identical");
        store.graph().check_invariants().unwrap();
    }

    #[test]
    fn pins_are_isolated_from_later_commits() {
        let p = tmp("mvcc.db");
        let (mut kg, knows) = base_graph();
        let nickname = kg.ontology_mut().add_predicate(
            "nickname",
            "nickname",
            ValueKind::Text,
            None,
            Cardinality::Multi,
            Volatility::Stable,
            false,
        );
        let mut store = KgStore::create(&p, kg, &EngineOptions::default()).unwrap();
        store.commit(|txn| txn.insert(Triple::new(EntityId(0), knows, EntityId(1)))).unwrap();
        let pin = store.pin();
        let pinned = to_bytes(&*pin);
        assert_eq!(pin.commit(), 1);
        assert_eq!(store.live_readers(), 1);
        // The store's graph shares its entity and literal tables with the
        // pinned one; this commit writes both.
        let nick = Triple::new(EntityId(0), nickname, crate::value::Value::from("new here"));
        let (carol, _) = store
            .commit(|txn| {
                txn.remove(&Triple::new(EntityId(0), knows, EntityId(1)));
                txn.insert(nick.clone());
                let t = person_type(txn);
                txn.add_entity(EntityBuilder::new("Carol", t))
            })
            .unwrap();
        // The pinned snapshot still sees the removed fact and nothing the
        // commit added; the store sees the opposite.
        assert!(pin.contains(&Triple::new(EntityId(0), knows, EntityId(1))));
        assert!(!store.graph().contains(&Triple::new(EntityId(0), knows, EntityId(1))));
        assert!(!pin.contains(&nick) && store.graph().contains(&nick));
        assert!(pin.try_entity(carol).is_none());
        assert_eq!(store.graph().entity(carol).name, "Carol");
        assert_eq!(to_bytes(&*pin), pinned, "a pinned version never changes");
        drop(pin);
        assert_eq!(store.live_readers(), 0);
    }

    #[test]
    fn changes_cursor_delivers_and_lapses() {
        let p = tmp("changes.db");
        let (kg, knows) = base_graph();
        let mut store = KgStore::create(&p, kg, &EngineOptions::default()).unwrap();
        store.commit(|txn| txn.insert(Triple::new(EntityId(0), knows, EntityId(1)))).unwrap();
        store.commit(|txn| txn.insert(Triple::new(EntityId(1), knows, EntityId(0)))).unwrap();
        match store.changes_since(1) {
            Changes::Deltas(d) => {
                assert_eq!(d.len(), 1);
                assert_eq!(d[0].0, 2);
                assert_eq!(d[0].1.added.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        match store.changes_since(2) {
            Changes::Deltas(d) => assert!(d.is_empty()),
            other => panic!("unexpected {other:?}"),
        }
        store.checkpoint().unwrap();
        match store.changes_since(1) {
            Changes::Lapsed { oldest } => assert_eq!(oldest, 2),
            other => panic!("cursor must lapse after checkpoint, got {other:?}"),
        }
        // After reopen the cursor is backed by the recovered tail.
        store.commit(|txn| txn.insert(Triple::new(EntityId(1), knows, EntityId(1)))).unwrap();
        drop(store);
        let store = KgStore::open(&p).unwrap();
        match store.changes_since(2) {
            Changes::Deltas(d) => {
                assert_eq!(d.len(), 1);
                assert_eq!(d[0].0, 3);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn log_full_auto_checkpoints_and_stays_durable() {
        let p = tmp("autockpt.db");
        let (kg, knows) = base_graph();
        // Tiny log so a handful of commits overflow it.
        let opts = EngineOptions { page_size: 256, log_cap: 512 };
        let mut store = KgStore::create(&p, kg, &opts).unwrap();
        for i in 0..20u64 {
            let src_name = format!("src-{i}");
            store
                .commit(|txn| {
                    let s = txn.register_source(&src_name);
                    txn.insert_with(Triple::new(EntityId(0), knows, EntityId(1)), s, 0.5);
                })
                .unwrap();
        }
        assert_eq!(store.last_commit(), 20);
        let before = to_bytes(store.graph());
        drop(store);
        let store = KgStore::open(&p).unwrap();
        assert_eq!(store.last_commit(), 20);
        assert_eq!(to_bytes(store.graph()), before);
    }

    #[test]
    fn cursor_ahead_of_store_lapses_instead_of_reporting_empty() {
        let p = tmp("future-cursor.db");
        let (kg, knows) = base_graph();
        let mut store = KgStore::create(&p, kg, &EngineOptions::default()).unwrap();
        store.commit(|txn| txn.insert(Triple::new(EntityId(0), knows, EntityId(1)))).unwrap();
        match store.changes_since(store.last_commit() + 5) {
            Changes::Lapsed { .. } => {}
            other => panic!("future cursor must lapse, got {other:?}"),
        }
    }

    /// Satellite proof for the incremental pipeline: a consumer whose pull
    /// cadence races the log-wrap auto-checkpoint (which wipes delta
    /// retention mid-cursor) must resync through the `Lapsed` full-rebuild
    /// path without ever missing or double-applying a commit.
    #[test]
    fn lapsed_cursor_under_log_wrap_resyncs_without_miss_or_dup() {
        use std::collections::BTreeSet;
        type Fact = (u64, u32, String);
        let fact_set = |kg: &KnowledgeGraph| -> BTreeSet<Fact> {
            kg.keys()
                .map(|k| {
                    let t = kg.decode(k);
                    (t.subject.raw(), t.predicate.raw(), format!("{:?}", t.object))
                })
                .collect()
        };
        let apply = |replica: &mut BTreeSet<Fact>, d: &Delta| {
            for t in &d.removed {
                replica.remove(&(t.subject.raw(), t.predicate.raw(), format!("{:?}", t.object)));
            }
            for t in d.added.iter().chain(&d.refreshed) {
                replica.insert((t.subject.raw(), t.predicate.raw(), format!("{:?}", t.object)));
            }
        };

        let p = tmp("lapse-wrap.db");
        let (kg, knows) = base_graph();
        // Tiny log: the wrap-triggered auto-checkpoint clears retention
        // every few commits, so a cursor more than a step behind lapses.
        let opts = EngineOptions { page_size: 256, log_cap: 512 };
        let mut store = KgStore::create(&p, kg, &opts).unwrap();
        let person = person_type(store.graph());

        let mut replica = fact_set(store.graph());
        let mut cursor = 0u64; // consumed through this commit
        let mut applied: BTreeSet<u64> = BTreeSet::new(); // commits applied since last resync
        let mut resync_floor = 0u64; // replica state covers commits <= this
        let (mut lapses, mut delta_pulls) = (0u32, 0u32);

        for i in 0..40u64 {
            let name = format!("E{i}");
            store
                .commit(|txn| {
                    let t = person;
                    let e = txn.add_entity(EntityBuilder::new(name.as_str(), t));
                    txn.insert(Triple::new(EntityId(0), knows, e));
                    if i % 5 == 4 {
                        // Exercise the removed path too.
                        txn.remove(&Triple::new(EntityId(0), knows, EntityId(e.raw() - 1)));
                    }
                })
                .unwrap();
            // Cadence: pull every 3rd commit, so the cursor is sometimes
            // far enough behind a wrap to lapse and sometimes not.
            if i % 3 != 2 {
                continue;
            }
            match store.changes_since(cursor) {
                Changes::Deltas(ds) => {
                    if !ds.is_empty() {
                        delta_pulls += 1;
                    }
                    for (seq, d) in &ds {
                        assert!(
                            *seq > resync_floor,
                            "commit {seq} already covered by resync at {resync_floor}"
                        );
                        assert!(applied.insert(*seq), "commit {seq} delivered twice");
                        apply(&mut replica, d);
                        cursor = *seq;
                    }
                }
                Changes::Lapsed { oldest } => {
                    lapses += 1;
                    assert!(oldest > cursor, "lapse must mean retention passed the cursor");
                    // Full rebuild from a pinned snapshot, then resync.
                    let pin = store.pin();
                    replica = fact_set(&pin);
                    cursor = pin.commit();
                    resync_floor = pin.commit();
                    applied.clear();
                }
            }
            assert_eq!(
                replica,
                fact_set(store.graph()),
                "replica diverged at commit {} (pull {i})",
                store.last_commit()
            );
        }
        assert!(lapses >= 1, "test must exercise the Lapsed resync path");
        assert!(delta_pulls >= 1, "test must exercise the incremental path");
    }

    #[test]
    fn obs_counters_register_under_engine_scope() {
        let p = tmp("obs.db");
        let (kg, knows) = base_graph();
        let registry = crate::obs::Registry::new();
        let mut store = KgStore::create(&p, kg, &EngineOptions::default()).unwrap();
        store.attach_obs(&registry.scope("persist"));
        store.commit(|txn| txn.insert(Triple::new(EntityId(0), knows, EntityId(1)))).unwrap();
        let pin = store.pin();
        drop(pin);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("persist/engine/log_appends"), 1);
        assert_eq!(snap.counter("persist/engine/reader_pins"), 1);
        assert_eq!(snap.counter("persist/engine/reader_unpins"), 1);
    }
}
