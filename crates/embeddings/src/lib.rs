//! # saga-embeddings
//!
//! The knowledge-graph embedding pipeline of paper Sec. 2 / Fig. 3:
//!
//! - [`dataset`] — training sets built from graph-engine views (the fact
//!   filtering stage);
//! - [`model`] — TransE / DistMult / ComplEx scoring with analytic
//!   gradients;
//! - [`mod@train`] — the single-node trainer and the [`train::TrainedModel`]
//!   artifact;
//! - [`partition`] — random edge-based partitioning and multi-worker bucket
//!   training (the PBG-style scalability lever);
//! - [`disk`] — the bounded partition buffer that streams the tables
//!   through disk (the Marius-style lever), and [`train_disk`];
//! - [`checkpoint`] — the one round loop over partition tables, resident or
//!   buffered, with crash-safe round-granular checkpointing and fault
//!   injection;
//! - [`eval`] — filtered MRR/Hits@k, AUC and NDCG;
//! - [`tasks`] — the Fig. 2 applications: fact ranking, fact verification,
//!   related entities and entity-linking support.

#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]

pub mod checkpoint;
pub mod dataset;
pub mod disk;
pub mod eval;
pub mod model;
pub mod partition;
pub mod reasoning;
pub mod sampler;
pub mod table;
pub mod tasks;
pub mod train;
pub mod walk;

pub use checkpoint::{
    CheckpointedTrainer, TrainCheckpointLog, TrainReport, TrainRun, SITE_CHECKPOINT_WRITE,
    SITE_TRAIN_BUCKET,
};
pub use dataset::{DenseTriple, TrainingSet};
pub use disk::{train_disk, DiskStats};
pub use eval::{auc, evaluate, ndcg, LinkPredictionMetrics};
pub use model::ModelKind;
pub use partition::{dirty_partitions, train_partitioned, training_partitioning, Partitioning};
pub use reasoning::{traverse_answers, PathQuery, PathReasoner};
pub use sampler::NegativeSampler;
pub use table::EmbeddingTable;
pub use tasks::{
    build_flat_index, build_knn_index, rank_existing_facts, rank_facts, related_entities,
    warm_cache, FactVerifier, Verification,
};
pub use train::{train, Loss, TrainConfig, TrainedModel};
pub use walk::{train_on_walks, WalkConfig, WalkEmbeddings};
