//! # saga-odke
//!
//! Open-Domain Knowledge Extraction (paper Sec. 4 / Figs. 5–6): identifying
//! important missing and stale facts (reactive, proactive and predictive
//! paths), synthesizing targeted search queries, extracting candidate facts
//! with a zoo of extractors, corroborating candidates with a trained
//! evidence model, and fusing accepted facts back into the knowledge graph.

#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]

pub mod corroborate;
pub mod extract;
pub mod profiler;
pub mod querylog;
pub mod resilient;
pub mod runner;
pub mod synthesize;

pub use corroborate::{featurize, Corroborator, EvidenceFeatures, ScoredValue};
pub use extract::{
    extract_from_page, parse_value, ExtractedCandidate, ExtractorKind, TargetExtractor,
};
pub use profiler::{select_targets, FactTarget, ProfilerConfig, TargetReason};
pub use querylog::{generate_query_log, unanswered_targets, QueryRecord};
pub use resilient::{CheckpointLog, ResilientOdke, RunCheckpoint, SITE_EXTRACT};
pub use runner::{
    calibrate_corroborator, find_documents, run_odke, run_odke_delta_obs, run_odke_obs,
    select_delta_targets, OdkeConfig, OdkeReport, TargetOutcome, TargetStatus,
};
pub use synthesize::{synthesize_queries, SynthesizedQuery};
