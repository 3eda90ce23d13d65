//! Single-node training loop: contrastive losses, AdaGrad updates, and the
//! [`TrainedModel`] artifact consumed by every downstream service.

use crate::dataset::{DenseTriple, TrainingSet};
use crate::model::ModelKind;
use crate::sampler::NegativeSampler;
use crate::table::EmbeddingTable;
use saga_core::persist::codec::{BinCodec, Reader};
use saga_core::rng::SplitMix64;
use saga_core::{EntityId, PredicateId, SagaError};

/// Contrastive loss for (positive, negative) score pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loss {
    /// `max(0, margin − s⁺ + s⁻)` per negative.
    MarginRanking,
    /// `softplus(−s⁺) + softplus(s⁻)` per negative.
    Logistic,
}

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

fn softplus(x: f32) -> f32 {
    if x > 20.0 {
        x
    } else {
        (1.0 + x.exp()).ln()
    }
}

impl Loss {
    /// Returns `(loss, dL/ds_pos, dL/ds_neg)` for one pos/neg score pair.
    pub fn eval(self, margin: f32, s_pos: f32, s_neg: f32) -> (f32, f32, f32) {
        match self {
            Loss::MarginRanking => {
                let l = margin - s_pos + s_neg;
                if l > 0.0 {
                    (l, -1.0, 1.0)
                } else {
                    (0.0, 0.0, 0.0)
                }
            }
            Loss::Logistic => {
                let l = softplus(-s_pos) + softplus(s_neg);
                (l, -sigmoid(-s_pos), sigmoid(s_neg))
            }
        }
    }
}

/// Training hyperparameters.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Model architecture to train.
    pub model: ModelKind,
    /// Embedding dimension.
    pub dim: usize,
    /// Training epochs.
    pub epochs: usize,
    /// AdaGrad learning rate.
    pub learning_rate: f32,
    /// Margin for the ranking loss.
    pub margin: f32,
    /// Negatives per positive.
    pub negatives: usize,
    /// Contrastive loss to optimize.
    pub loss: Loss,
    /// Avoid sampling true triples as negatives.
    pub filtered_negatives: bool,
    /// RNG seed (determinism).
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            model: ModelKind::TransE,
            dim: 32,
            epochs: 25,
            learning_rate: 0.1,
            margin: 1.0,
            negatives: 4,
            loss: Loss::MarginRanking,
            filtered_negatives: true,
            seed: 17,
        }
    }
}

/// A trained embedding model: entity/relation matrices plus the id maps
/// back into the knowledge graph. The id maps are sorted, so a KG id's
/// local index is a binary search (as in [`TrainingSet`]).
#[derive(Debug, Clone)]
pub struct TrainedModel {
    /// The model architecture.
    pub kind: ModelKind,
    /// Local entity index → KG entity id, strictly increasing.
    pub entity_ids: Vec<EntityId>,
    /// Local relation index → KG predicate id, strictly increasing.
    pub relation_ids: Vec<PredicateId>,
    /// Entity embedding matrix.
    pub entities: EmbeddingTable,
    /// Relation embedding matrix.
    pub relations: EmbeddingTable,
    /// Mean training loss per epoch (diagnostics / convergence tests).
    pub epoch_losses: Vec<f32>,
}

/// True when `ids` is strictly increasing: sorted, without a repeat.
fn strictly_increasing<T: Ord>(ids: &[T]) -> bool {
    ids.windows(2).all(|w| w[0] < w[1])
}

impl TrainedModel {
    /// Assembles a model from its parts. The id maps must be strictly
    /// increasing, as a [`TrainingSet`]'s vocabularies are.
    pub fn assemble(
        kind: ModelKind,
        entity_ids: Vec<EntityId>,
        relation_ids: Vec<PredicateId>,
        entities: EmbeddingTable,
        relations: EmbeddingTable,
        epoch_losses: Vec<f32>,
    ) -> Self {
        debug_assert!(strictly_increasing(&entity_ids) && strictly_increasing(&relation_ids));
        Self { kind, entity_ids, relation_ids, entities, relations, epoch_losses }
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.entities.dim()
    }

    /// Local index of a KG entity, if it was in the training vocabulary.
    pub fn entity_index(&self, e: EntityId) -> Option<u32> {
        self.entity_ids.binary_search(&e).ok().map(|i| i as u32)
    }

    /// Local index of a KG predicate.
    pub fn relation_index(&self, r: PredicateId) -> Option<u32> {
        self.relation_ids.binary_search(&r).ok().map(|i| i as u32)
    }

    /// Embedding vector of a KG entity.
    pub fn entity_embedding(&self, e: EntityId) -> Option<&[f32]> {
        self.entity_index(e).map(|i| self.entities.row(i as usize))
    }

    /// Scores a dense triple.
    pub fn score_dense(&self, t: &DenseTriple) -> f32 {
        self.kind.score(
            self.entities.row(t.h as usize),
            self.relations.row(t.r as usize),
            self.entities.row(t.t as usize),
        )
    }

    /// Scores a KG-space triple; `None` when any id is out of vocabulary.
    pub fn score_triple(&self, s: EntityId, p: PredicateId, o: EntityId) -> Option<f32> {
        let h = self.entity_index(s)?;
        let r = self.relation_index(p)?;
        let t = self.entity_index(o)?;
        Some(self.score_dense(&DenseTriple { h, r, t }))
    }

    /// Persists the model as a checksummed single-frame file, atomically.
    pub fn save(&self, path: &std::path::Path) -> saga_core::Result<()> {
        saga_core::persist::save_value(path, self)
    }

    /// Loads a model saved by [`save`](Self::save). Corrupted files are
    /// rejected by the frame checksum.
    pub fn load(path: &std::path::Path) -> saga_core::Result<Self> {
        saga_core::persist::load_value(path)
    }
}

/// A model encodes its parts. Decoding [`assemble`](TrainedModel::assemble)s
/// them, and rejects id maps that are not strictly increasing as
/// [`SagaError::Corrupt`]: a binary search in them would miss ids.
impl BinCodec for TrainedModel {
    fn enc(&self, out: &mut Vec<u8>) {
        self.kind.enc(out);
        self.entity_ids.enc(out);
        self.relation_ids.enc(out);
        self.entities.enc(out);
        self.relations.enc(out);
        self.epoch_losses.enc(out);
    }
    fn dec(rd: &mut Reader<'_>) -> saga_core::Result<Self> {
        let kind = ModelKind::dec(rd)?;
        let entity_ids: Vec<EntityId> = Vec::dec(rd)?;
        let relation_ids: Vec<PredicateId> = Vec::dec(rd)?;
        if !strictly_increasing(&entity_ids) || !strictly_increasing(&relation_ids) {
            return Err(SagaError::Corrupt("model ids are not strictly increasing".into()));
        }
        Ok(Self::assemble(
            kind,
            entity_ids,
            relation_ids,
            EmbeddingTable::dec(rd)?,
            EmbeddingTable::dec(rd)?,
            Vec::dec(rd)?,
        ))
    }
}

/// One SGD step on a positive and its negatives. Returns the summed loss.
/// Shared by the single-node trainer and the partitioned round loop.
#[allow(clippy::too_many_arguments)]
pub(crate) fn train_step(
    cfg: &TrainConfig,
    pos: &DenseTriple,
    negs: &[DenseTriple],
    entities: &mut EmbeddingTable,
    relations: &mut EmbeddingTable,
    dh: &mut [f32],
    dr: &mut [f32],
    dt: &mut [f32],
) -> f32 {
    let dim = cfg.dim;
    debug_assert_eq!(entities.dim(), dim);
    let mut total = 0.0f32;
    for neg in negs {
        let s_pos = cfg.model.score(
            entities.row(pos.h as usize),
            relations.row(pos.r as usize),
            entities.row(pos.t as usize),
        );
        let s_neg = cfg.model.score(
            entities.row(neg.h as usize),
            relations.row(neg.r as usize),
            entities.row(neg.t as usize),
        );
        let (loss, d_pos, d_neg) = cfg.loss.eval(cfg.margin, s_pos, s_neg);
        total += loss;
        if d_pos != 0.0 {
            cfg.model.score_grads(
                entities.row(pos.h as usize),
                relations.row(pos.r as usize),
                entities.row(pos.t as usize),
                dh,
                dr,
                dt,
            );
            scale(dh, d_pos);
            scale(dr, d_pos);
            scale(dt, d_pos);
            entities.adagrad_update(pos.h as usize, dh, cfg.learning_rate);
            relations.adagrad_update(pos.r as usize, dr, cfg.learning_rate);
            entities.adagrad_update(pos.t as usize, dt, cfg.learning_rate);
        }
        if d_neg != 0.0 {
            cfg.model.score_grads(
                entities.row(neg.h as usize),
                relations.row(neg.r as usize),
                entities.row(neg.t as usize),
                dh,
                dr,
                dt,
            );
            scale(dh, d_neg);
            scale(dr, d_neg);
            scale(dt, d_neg);
            entities.adagrad_update(neg.h as usize, dh, cfg.learning_rate);
            relations.adagrad_update(neg.r as usize, dr, cfg.learning_rate);
            entities.adagrad_update(neg.t as usize, dt, cfg.learning_rate);
        }
        if cfg.model.clip_entities() {
            entities.clip_row_to_unit_ball(pos.h as usize);
            entities.clip_row_to_unit_ball(pos.t as usize);
            entities.clip_row_to_unit_ball(neg.h as usize);
            entities.clip_row_to_unit_ball(neg.t as usize);
        }
    }
    total
}

#[inline]
fn scale(v: &mut [f32], by: f32) {
    for x in v {
        *x *= by;
    }
}

/// Trains a model on `ds` with a single worker (paper Sec. 2, the
/// in-memory baseline; partitioned training, resident or streamed from
/// disk, is [`crate::checkpoint::CheckpointedTrainer`]'s loop).
pub fn train(ds: &TrainingSet, cfg: &TrainConfig) -> TrainedModel {
    let mut entities = EmbeddingTable::init(ds.num_entities(), cfg.dim, cfg.seed);
    let mut relations = EmbeddingTable::init(ds.num_relations(), cfg.dim, cfg.seed ^ REL_SEED);
    let mut sampler = NegativeSampler::new(ds.num_entities(), cfg.filtered_negatives, cfg.seed ^ 1);
    let mut order: Vec<usize> = (0..ds.train.len()).collect();
    let mut rng = SplitMix64::new(cfg.seed ^ 2);
    let (mut dh, mut dr, mut dt) = (vec![0.0; cfg.dim], vec![0.0; cfg.dim], vec![0.0; cfg.dim]);
    let mut epoch_losses = Vec::with_capacity(cfg.epochs);

    for _epoch in 0..cfg.epochs {
        rng.shuffle(&mut order);
        let mut epoch_loss = 0.0f64;
        for &i in &order {
            let pos = ds.train[i];
            let negs = sampler.corrupt(&pos, cfg.negatives, ds);
            epoch_loss += train_step(
                cfg,
                &pos,
                &negs,
                &mut entities,
                &mut relations,
                &mut dh,
                &mut dr,
                &mut dt,
            ) as f64;
        }
        epoch_losses.push((epoch_loss / ds.train.len().max(1) as f64) as f32);
    }

    TrainedModel::assemble(
        cfg.model,
        ds.entities.clone(),
        ds.relations.clone(),
        entities,
        relations,
        epoch_losses,
    )
}

/// Seed offset separating relation init from entity init.
pub(crate) const REL_SEED: u64 = 0x7e1a_7105;

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use saga_core::persist::codec;
    use saga_core::synth::{generate, SynthConfig};
    use saga_graph::{GraphView, ViewDef};

    fn dataset(seed: u64) -> TrainingSet {
        let s = generate(&SynthConfig::tiny(seed));
        let v = GraphView::materialize(&s.kg, ViewDef::embedding_training(2));
        TrainingSet::from_edges(&v.edges(), 0.05, 0.05, 3)
    }

    fn quick_cfg(model: ModelKind) -> TrainConfig {
        TrainConfig { model, dim: 16, epochs: 8, ..TrainConfig::default() }
    }

    #[test]
    fn losses_behave() {
        let (l, dp, dn) = Loss::MarginRanking.eval(1.0, 5.0, 0.0);
        assert_eq!((l, dp, dn), (0.0, 0.0, 0.0), "satisfied margin is inactive");
        let (l, dp, dn) = Loss::MarginRanking.eval(1.0, 0.0, 0.5);
        assert!(l > 0.0 && dp == -1.0 && dn == 1.0);
        let (l, dp, dn) = Loss::Logistic.eval(0.0, 2.0, -2.0);
        assert!(l > 0.0 && dp < 0.0 && dn > 0.0);
        // Logistic gradients shrink as scores separate.
        let (_, dp2, dn2) = Loss::Logistic.eval(0.0, 6.0, -6.0);
        assert!(dp2.abs() < dp.abs() && dn2.abs() < dn.abs());
    }

    #[test]
    fn training_reduces_loss_for_all_models() {
        let ds = dataset(41);
        for model in ModelKind::ALL {
            let m = train(&ds, &quick_cfg(model));
            let first = m.epoch_losses[0];
            let last = *m.epoch_losses.last().unwrap();
            assert!(last < first * 0.8, "{}: loss did not drop ({first} -> {last})", model.name());
            assert!(m.epoch_losses.iter().all(|l| l.is_finite()));
        }
    }

    #[test]
    fn trained_model_scores_positives_above_random_negatives() {
        let ds = dataset(43);
        let m = train(&ds, &quick_cfg(ModelKind::TransE));
        let mut pos_better = 0;
        let n = ds.train.len().min(100);
        for t in ds.train.iter().take(n) {
            let s_pos = m.score_dense(t);
            let neg = DenseTriple { h: t.h, r: t.r, t: (t.t + 7) % ds.num_entities() as u32 };
            if ds.contains(&neg) {
                pos_better += 1; // skip accidental positives
                continue;
            }
            if s_pos > m.score_dense(&neg) {
                pos_better += 1;
            }
        }
        assert!(
            pos_better * 100 >= n * 75,
            "positives ranked above negatives only {pos_better}/{n}"
        );
    }

    #[test]
    fn training_is_deterministic() {
        let ds = dataset(45);
        let a = train(&ds, &quick_cfg(ModelKind::DistMult));
        let b = train(&ds, &quick_cfg(ModelKind::DistMult));
        assert_eq!(a.epoch_losses, b.epoch_losses);
        assert_eq!(a.entities.row(0), b.entities.row(0));
    }

    #[test]
    fn model_lookup_by_kg_ids() {
        let ds = dataset(47);
        let m = train(&ds, &quick_cfg(ModelKind::TransE));
        let e = m.entity_ids[5];
        assert_eq!(m.entity_index(e), Some(5));
        assert!(m.entity_embedding(e).is_some());
        assert_eq!(m.entity_embedding(saga_core::EntityId(u64::MAX)), None);
        let t = &ds.test[0];
        let s = m.score_triple(
            m.entity_ids[t.h as usize],
            m.relation_ids[t.r as usize],
            m.entity_ids[t.t as usize],
        );
        assert!(s.is_some());
        assert!((s.unwrap() - m.score_dense(t)).abs() < 1e-6);
    }

    #[test]
    fn save_load_round_trip_and_corruption_rejected() {
        let ds = dataset(51);
        let m = train(&ds, &TrainConfig { epochs: 2, dim: 8, ..TrainConfig::default() });
        let dir = std::env::temp_dir().join("saga-model-persist");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("model-{}.bin", std::process::id()));
        m.save(&path).unwrap();
        let back = TrainedModel::load(&path).unwrap();
        assert_eq!(back.entity_ids, m.entity_ids);
        assert_eq!(back.entities.row(3), m.entities.row(3));
        let t = &ds.test[0];
        assert_eq!(back.score_dense(t), m.score_dense(t));
        // Lookups answer after loading.
        let e = m.entity_ids[3];
        assert_eq!(back.entity_embedding(e), m.entity_embedding(e));
        assert_eq!(back.relation_index(m.relation_ids[0]), Some(0));
        // Corrupt a byte in the middle: load must fail, not mis-load.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, bytes).unwrap();
        assert!(TrainedModel::load(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    /// A model whose id map repeats or reorders an id decodes as corrupt,
    /// not as a model whose lookups miss or pick one of two rows.
    #[test]
    fn repeated_or_unsorted_ids_decode_as_corrupt() {
        let ds = dataset(53);
        let m = train(&ds, &TrainConfig { epochs: 1, dim: 4, ..TrainConfig::default() });
        let decode = |entity_ids: Vec<EntityId>, relation_ids: Vec<PredicateId>| {
            let bytes = codec::to_bytes(&TrainedModel { entity_ids, relation_ids, ..m.clone() });
            codec::from_bytes::<TrainedModel>(&bytes)
        };
        let (ents, rels) = (m.entity_ids.clone(), m.relation_ids.clone());
        assert!(decode(ents.clone(), rels.clone()).is_ok());
        let mut repeated = ents.clone();
        repeated[1] = repeated[0];
        let mut swapped = ents.clone();
        swapped.swap(0, 1);
        let mut repeated_rel = rels.clone();
        repeated_rel[1] = repeated_rel[0];
        for (e, r) in [(repeated, rels.clone()), (swapped, rels), (ents, repeated_rel)] {
            match decode(e, r) {
                Err(SagaError::Corrupt(_)) => {}
                other => panic!("expected Corrupt, got {:?}", other.map(|m| m.entity_ids.len())),
            }
        }
    }
}
