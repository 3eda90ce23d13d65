//! # saga-ondevice
//!
//! Private on-device knowledge (paper Sec. 5): personal KG construction
//! from contacts/messages/calendar with entity resolution and fusion
//! (Fig. 7), memory-bounded spill-to-disk operators, per-source
//! cross-device sync with computation offload, on-device semantic
//! annotation with contextual relevance ranking, and the three
//! global-knowledge enrichment paths (static asset, piggyback, PIR/DP
//! private retrieval).
//!
//! Entity resolution has one implementation: the pausable stage machine of
//! [`ConstructionPipeline`] (block → pair → match → cluster). The first
//! build and every increment run the same stages, an increment over its new
//! records only, and either can be checkpointed and resumed at any step.
//!
//! Devices sync per-source op logs and offloaded artifacts, nothing else:
//! every personal-KG entity is re-derived from the synced records, so there
//! is no per-entity update or conflict clock to exchange.

#![warn(missing_docs)]

pub mod assistant;
pub mod enrich;
pub mod fuse;
pub mod matching;
pub mod personalize;
pub mod pipeline;
pub mod sources;
pub mod spill;
pub mod sync;

pub use assistant::{
    person_context_embedding, resolve_references, resolve_references_with_asset, ContextAsset,
    ResolvedReference,
};
pub use enrich::{
    decode_pir_block, dp_count, piggyback_answer, pir_fetch, EnrichmentPath, GlobalKnowledge,
    PirDatabase, PirFetch, StaticAsset,
};
pub use fuse::{fuse_clusters, personal_ontology, FusedPerson, PersonalOntology};
pub use matching::{
    block_observations, normalize_email, normalize_phone, score_pair, BlockKey, MatchScore,
    UnionFind,
};
pub use personalize::{build_preferences, recommend, PreferenceProfile};
pub use pipeline::{ConstructionPipeline, IncrementReport, Stage};
pub use sources::{
    generate_device_data, DeviceDataConfig, DeviceTruth, PersonObservation, SourceKind, TruePerson,
};
pub use spill::{SpillSorter, SpillStats};
pub use sync::{
    gossip_until_stable, offload_compute, sync_pair, sync_pair_lossy, Device, DeviceId, DeviceTier,
    LossyLink, SourceOp, SyncPolicy, SyncReport, ViewArtifact,
};
