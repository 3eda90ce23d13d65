//! Global knowledge enrichment (paper Sec. 5, paths (1)–(3)):
//!
//! 1. a **static knowledge asset** — a maintained graph-engine view of
//!    popular entities shipped to every device with no client request;
//! 2. **piggyback enrichment** — facts about entities the user already
//!    asked a server about ride along with the answer;
//! 3. **private retrieval** — 2-server XOR cPIR (information-theoretic,
//!    after Chor et al.) and Laplace-noised differentially-private counts
//!    for knowledge not covered by (1) or (2).

use saga_core::persist::codec::{enc_seq, BinCodec, Reader};
use saga_core::rng::SplitMix64;
use saga_core::{EntityId, KnowledgeGraph, Triple};
use saga_graph::{GraphView, ViewDef};

/// The static knowledge asset: popular entities and their facts, serialized
/// as a self-contained mini-KG. Built server-side from a maintained view.
#[derive(Debug, Clone)]
pub struct StaticAsset {
    /// `(entity id, name, type name, popularity)` for entities in the asset.
    pub entities: Vec<(EntityId, String, String, f32)>,
    /// Facts among asset entities (server-side ids).
    pub triples: Vec<Triple>,
    /// Version of the view the asset reflects.
    pub version: u64,
}

impl StaticAsset {
    /// Builds the asset from the server KG: the `static_knowledge_asset`
    /// view plus the entity records it references.
    pub fn build(server: &KnowledgeGraph, min_popularity: f32) -> Self {
        let view = GraphView::materialize(server, ViewDef::static_knowledge_asset(min_popularity));
        let triples: Vec<Triple> = view.triples().collect();
        let mut ids: Vec<EntityId> = view.entities();
        // Also include entities referenced only as subjects of literal facts.
        ids.extend(triples.iter().map(|t| t.subject));
        ids.sort_unstable();
        ids.dedup();
        let entities = ids
            .into_iter()
            .map(|id| {
                let e = server.entity(id);
                let ty = server.ontology().type_info(e.entity_type).name.clone();
                (id, e.name.clone(), ty, e.popularity)
            })
            .collect();
        Self { entities, triples, version: server.current_commit() }
    }

    /// Asset payload size in bytes (shipping cost): the length of its
    /// entities, facts and version in the binary codec.
    pub fn payload_bytes(&self) -> usize {
        let mut out = Vec::new();
        self.entities.enc(&mut out);
        self.triples.enc(&mut out);
        self.version.enc(&mut out);
        out.len()
    }

    /// Facts about one entity in the asset.
    pub fn facts_of(&self, entity: EntityId) -> Vec<&Triple> {
        self.triples.iter().filter(|t| t.subject == entity).collect()
    }
}

/// The device-side global knowledge store: asset facts plus facts obtained
/// through piggyback and private retrieval, with bookkeeping of where each
/// fact came from (privacy accounting).
#[derive(Debug, Clone, Default)]
pub struct GlobalKnowledge {
    /// Facts by subject, with the path that delivered them.
    pub facts: Vec<(Triple, EnrichmentPath)>,
    /// Bytes received per path (the cost asymmetry of Sec. 5).
    pub bytes_by_path: std::collections::BTreeMap<EnrichmentPath, usize>,
}

/// Which enrichment path delivered a fact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EnrichmentPath {
    /// Path 1: the shipped static asset.
    StaticAsset,
    /// Path 2: riding an existing server interaction.
    Piggyback,
    /// Path 3: PIR / differentially-private queries.
    PrivateRetrieval,
}

impl GlobalKnowledge {
    /// Loads the static asset (path 1). No request leaves the device.
    pub fn load_static_asset(&mut self, asset: &StaticAsset) {
        let bytes = asset.payload_bytes();
        for t in &asset.triples {
            self.facts.push((t.clone(), EnrichmentPath::StaticAsset));
        }
        *self.bytes_by_path.entry(EnrichmentPath::StaticAsset).or_default() += bytes;
    }

    /// Ingests piggybacked facts from a server interaction (path 2).
    pub fn ingest_piggyback(&mut self, facts: &[Triple]) {
        let mut payload = Vec::new();
        enc_seq(facts.iter(), &mut payload);
        let bytes = payload.len();
        for t in facts {
            self.facts.push((t.clone(), EnrichmentPath::Piggyback));
        }
        *self.bytes_by_path.entry(EnrichmentPath::Piggyback).or_default() += bytes;
    }

    /// Facts known about a subject.
    pub fn facts_of(&self, entity: EntityId) -> Vec<&Triple> {
        self.facts.iter().filter(|(t, _)| t.subject == entity).map(|(t, _)| t).collect()
    }

    /// Number of facts delivered by each path.
    pub fn count_by_path(&self, path: EnrichmentPath) -> usize {
        self.facts.iter().filter(|(_, p)| *p == path).count()
    }
}

/// Server-side piggyback: answering a query about `entity` also returns its
/// 1-hop facts ("we can include the fact that the Blue Jays are a baseball
/// team located in Toronto").
pub fn piggyback_answer(server: &KnowledgeGraph, entity: EntityId) -> Vec<Triple> {
    server.triples_of(entity).collect()
}

// ---------------------------------------------------------------- PIR ----

/// A PIR database: fixed-size blocks, one per entity bundle.
#[derive(Debug, Clone)]
pub struct PirDatabase {
    block_size: usize,
    blocks: Vec<Vec<u8>>,
    /// Entity → block index.
    index: std::collections::HashMap<EntityId, usize>,
}

impl PirDatabase {
    /// Packs each asset entity's facts into a fixed-size block: the codec
    /// encoding of the fact list, zero-padded (or cut) to `block_size`.
    pub fn from_asset(asset: &StaticAsset, block_size: usize) -> Self {
        let mut blocks = Vec::new();
        let mut index = std::collections::HashMap::new();
        for (id, _, _, _) in &asset.entities {
            let mut payload = Vec::new();
            enc_seq(asset.facts_of(*id).into_iter(), &mut payload);
            payload.truncate(block_size);
            payload.resize(block_size, 0);
            index.insert(*id, blocks.len());
            blocks.push(payload);
        }
        Self { block_size, blocks, index }
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Block index of an entity.
    pub fn block_of(&self, entity: EntityId) -> Option<usize> {
        self.index.get(&entity).copied()
    }

    /// Server-side answer: XOR of all blocks selected by the query
    /// bitvector. The server learns only the (random-looking) bitvector.
    pub fn answer(&self, selector: &[bool]) -> Vec<u8> {
        let mut out = vec![0u8; self.block_size];
        for (i, sel) in selector.iter().enumerate() {
            if *sel {
                for (o, b) in out.iter_mut().zip(&self.blocks[i]) {
                    *o ^= b;
                }
            }
        }
        out
    }
}

/// Outcome of one PIR fetch.
#[derive(Debug, Clone)]
pub struct PirFetch {
    /// The recovered block (trailing zero padding included).
    pub block: Vec<u8>,
    /// Upload + download bytes across both servers.
    pub bytes_transferred: usize,
    /// Cost of a direct (non-private) fetch of the same block, for the
    /// price-of-privacy comparison.
    pub direct_fetch_bytes: usize,
}

/// 2-server XOR cPIR: server A gets a uniformly random selector `r`,
/// server B gets `r ⊕ e_i`; XOR of the answers is block `i`. Neither server
/// learns `i` (information-theoretic privacy, non-colluding assumption).
pub fn pir_fetch(
    server_a: &PirDatabase,
    server_b: &PirDatabase,
    target: usize,
    seed: u64,
) -> PirFetch {
    assert_eq!(server_a.len(), server_b.len(), "replicated databases must match");
    assert!(target < server_a.len(), "target out of range");
    let n = server_a.len();
    let mut rng = SplitMix64::new(seed);
    let r: Vec<bool> = (0..n).map(|_| rng.gen()).collect();
    let mut r_xor_e: Vec<bool> = r.clone();
    r_xor_e[target] = !r_xor_e[target];

    let ans_a = server_a.answer(&r);
    let ans_b = server_b.answer(&r_xor_e);
    let block: Vec<u8> = ans_a.iter().zip(&ans_b).map(|(a, b)| a ^ b).collect();

    // Upload: one bit per block per server; download: one block per server.
    let bytes_transferred = 2 * n.div_ceil(8) + 2 * server_a.block_size;
    PirFetch { block, bytes_transferred, direct_fetch_bytes: server_a.block_size }
}

/// Decodes a PIR block back into triples: the length-prefixed fact list
/// at its start, ignoring the zero padding behind it. A block too small for
/// its bundle (the encoding was cut to the block size) is
/// [`SagaError::Corrupt`](saga_core::SagaError::Corrupt).
pub fn decode_pir_block(block: &[u8]) -> saga_core::Result<Vec<Triple>> {
    Vec::dec(&mut Reader::new(block))
}

// ------------------------------------------------------------ DP counts --

/// A Laplace-noised count query (ε-differential privacy for counting
/// queries with sensitivity 1).
pub fn dp_count(true_count: usize, epsilon: f64, seed: u64) -> f64 {
    let mut rng = SplitMix64::new(seed);
    // Inverse-CDF sampling of Laplace(0, 1/ε).
    let u: f64 = rng.gen_range(-0.5..0.5);
    let noise = -(1.0 / epsilon) * u.signum() * (1.0 - 2.0 * u.abs()).ln();
    true_count as f64 + noise
}

#[cfg(test)]
mod tests {
    use super::*;
    use saga_core::synth::{generate, SynthConfig};

    fn asset() -> (saga_core::synth::SynthKg, StaticAsset) {
        let s = generate(&SynthConfig::tiny(51));
        let a = StaticAsset::build(&s.kg, 0.5);
        (s, a)
    }

    #[test]
    fn asset_contains_only_popular_entities() {
        let (s, a) = asset();
        assert!(!a.entities.is_empty());
        assert!(!a.triples.is_empty());
        for (id, _, _, pop) in &a.entities {
            assert!(*pop >= 0.5, "entity {id} too unpopular for the asset");
        }
        assert!(a.entities.len() < s.kg.num_entities());
        // The flagship scenario entity is popular enough to ship.
        assert!(a.entities.iter().any(|(_, name, _, _)| name == "Michael Jordan"));
    }

    #[test]
    fn device_loads_asset_without_any_request() {
        let (_, a) = asset();
        let mut g = GlobalKnowledge::default();
        g.load_static_asset(&a);
        assert_eq!(g.count_by_path(EnrichmentPath::StaticAsset), a.triples.len());
        assert!(g.bytes_by_path[&EnrichmentPath::StaticAsset] > 0);
    }

    #[test]
    fn piggyback_delivers_one_hop_facts() {
        let (s, _) = asset();
        let mut g = GlobalKnowledge::default();
        let facts = piggyback_answer(&s.kg, s.scenario.benicio);
        assert!(!facts.is_empty());
        g.ingest_piggyback(&facts);
        assert_eq!(g.facts_of(s.scenario.benicio).len(), facts.len());
        assert_eq!(g.count_by_path(EnrichmentPath::Piggyback), facts.len());
    }

    #[test]
    fn pir_recovers_exactly_the_target_block() {
        let (_, a) = asset();
        let db_a = PirDatabase::from_asset(&a, 2048);
        let db_b = PirDatabase::from_asset(&a, 2048);
        let target_entity = a
            .entities
            .iter()
            .map(|(id, _, _, _)| *id)
            .find(|id| !a.facts_of(*id).is_empty())
            .expect("an asset entity with facts");
        let idx = db_a.block_of(target_entity).unwrap();
        let fetch = pir_fetch(&db_a, &db_b, idx, 42);
        let triples = decode_pir_block(&fetch.block).unwrap();
        let expected: Vec<Triple> = a.facts_of(target_entity).into_iter().cloned().collect();
        assert!(!expected.is_empty());
        assert_eq!(triples, expected);
    }

    /// A one-entity asset whose single fact is `(e, p, Integer(0))`: the
    /// bundle's encoding ends in zero bytes, like the padding after it.
    fn zero_ended_asset() -> (StaticAsset, Vec<u8>) {
        let e = EntityId(1);
        let fact = Triple::new(e, saga_core::PredicateId(0), 0i64);
        let asset = StaticAsset {
            entities: vec![(e, "E".into(), "thing".into(), 1.0)],
            triples: vec![fact],
            version: 0,
        };
        let mut bundle = Vec::new();
        enc_seq(asset.triples.iter(), &mut bundle);
        (asset, bundle)
    }

    #[test]
    fn pir_bundle_ending_in_zero_bytes_decodes_whole() {
        let (asset, bundle) = zero_ended_asset();
        assert_eq!(bundle.last(), Some(&0), "the bundle must end in 0x00");
        let db = PirDatabase::from_asset(&asset, bundle.len() + 64);
        let fetch = pir_fetch(&db, &db, 0, 3);
        assert_eq!(decode_pir_block(&fetch.block).unwrap(), asset.triples);
    }

    #[test]
    fn pir_block_too_small_for_its_bundle_is_corrupt() {
        let (asset, bundle) = zero_ended_asset();
        let db = PirDatabase::from_asset(&asset, bundle.len() - 1);
        let fetch = pir_fetch(&db, &db, 0, 3);
        assert!(matches!(decode_pir_block(&fetch.block), Err(saga_core::SagaError::Corrupt(_))));
    }

    #[test]
    fn pir_is_much_more_expensive_than_direct() {
        let (_, a) = asset();
        let db_a = PirDatabase::from_asset(&a, 1024);
        let db_b = PirDatabase::from_asset(&a, 1024);
        let fetch = pir_fetch(&db_a, &db_b, 0, 7);
        assert!(
            fetch.bytes_transferred > fetch.direct_fetch_bytes,
            "privacy must cost more: {} vs {}",
            fetch.bytes_transferred,
            fetch.direct_fetch_bytes
        );
    }

    #[test]
    fn pir_queries_look_random_to_each_server() {
        // The selector sent to server A is independent of the target: two
        // different targets with the same seed produce the same selector
        // for A (only B's differs in one position).
        let (_, a) = asset();
        let db = PirDatabase::from_asset(&a, 256);
        let n = db.len();
        let mut rng_a = SplitMix64::new(9);
        let r1: Vec<bool> = (0..n).map(|_| rng_a.gen()).collect();
        let mut rng_b = SplitMix64::new(9);
        let r2: Vec<bool> = (0..n).map(|_| rng_b.gen()).collect();
        assert_eq!(r1, r2, "server A's view is target-independent");
    }

    #[test]
    fn dp_counts_are_noisy_but_calibrated() {
        let true_count = 100usize;
        let estimates: Vec<f64> = (0..200).map(|i| dp_count(true_count, 1.0, i)).collect();
        let mean = estimates.iter().sum::<f64>() / estimates.len() as f64;
        assert!((mean - 100.0).abs() < 2.0, "mean {mean}");
        // Noise actually present.
        assert!(estimates.iter().any(|e| (e - 100.0).abs() > 0.5));
        // Lower epsilon → more noise (on average).
        let spread = |eps: f64| {
            (0..200).map(|i| (dp_count(true_count, eps, 1000 + i) - 100.0).abs()).sum::<f64>()
                / 200.0
        };
        assert!(spread(0.1) > spread(10.0));
    }
}
