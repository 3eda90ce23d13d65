//! Every frozen number of the ledger. Nothing here is derived at run time;
//! each run prints the lot in its provenance line, and README.md records
//! how each was calibrated. Changing one is a change to the benchmark: the
//! baseline has to be measured again.

/// Seed of the serve world (synthetic KG + vector corpus). Constant, so
/// that `--seed` changes only the order of requests, never the data.
pub const WORLD_SEED: u64 = 0x5A6A;

// ------------------------------------------------------------ serve_lookup
/// Lookups per window.
pub const LOOKUP_WINDOW_OPS: usize = 1_000;
/// Windows per segment (one segment = one freshly started server).
pub const LOOKUP_SEGMENT_WINDOWS: usize = 16;
/// Entity universe the Zipf sampler draws lookup keys from.
pub const TRACE_ENTITIES: usize = 100_000;

// ------------------------------------------------------------ serve_search
/// Vector dimensionality; with [`SEARCH_VECTORS`] over [`SEARCH_SHARDS`]
/// shards the scan is 1 MiB per shard — resident in a 2 MiB L2.
pub const SEARCH_DIM: usize = 64;
pub const SEARCH_VECTORS: usize = 8_192;
pub const SEARCH_SHARDS: usize = 2;
pub const SEARCH_K: u32 = 10;
/// `Search` items per `SagaClient::batch` call.
pub const SEARCH_BATCH_ITEMS: usize = 8;
/// Distinct query identities (hot queries repeat).
pub const SEARCH_QUERY_POOL: usize = 1_000;
/// Batch calls per window.
pub const SEARCH_WINDOW_OPS: usize = 100;
pub const SEARCH_SEGMENT_WINDOWS: usize = 20;
/// Hottest queries checked against `oracle_search` on every fresh server.
pub const HOT_CHECKED: usize = 8;

// ------------------------------------------------------- serve, traced run
/// Share of `--seconds` the traced run spends on: alternating untraced and
/// traced segments; the open-loop ladder; the rest goes to the fixed-count
/// probes below.
pub const TRACE_CLOSED_SHARE: f64 = 0.55;
pub const TRACE_LADDER_SHARE: f64 = 0.30;
/// Open-loop rungs, requests (lookup) or batch calls (search) per second:
/// about 40 / 60 / 80 % of the closed-loop rate measured on the reference
/// box (README, "Calibration").
pub const LOOKUP_LADDER_PER_S: [u64; 3] = [8_000, 12_000, 16_000];
pub const SEARCH_LADDER_PER_S: [u64; 3] = [560, 840, 1_120];
/// Latency limit, counted from the due time, that 99 % of a rung's
/// requests must meet for the rung to count as sustained.
pub const LOOKUP_LIMIT_US: u64 = 1_000;
pub const SEARCH_LIMIT_US: u64 = 10_000;
pub const LADDER_OK_SHARE: f64 = 0.99;
/// Ops through the bare `ShardEngine` in the engine probe.
pub const LOOKUP_PROBE_OPS: usize = 5_000;
pub const SEARCH_PROBE_OPS: usize = 400;
/// Iterations of each direct-call probe.
pub const WIRE_PROBE_ITERS: usize = 20_000;
pub const GRAPH_PROBE_ITERS: usize = 200_000;
pub const ANN_PROBE_ITERS: usize = 1_000;

// --------------------------------------------------------------------- grow
/// Seed of the grow fixture (world, corpus, training); `saga grow-bench`'s
/// default.
pub const FIXTURE_SEED: u64 = 7;
pub const FIXTURE_PEOPLE: usize = 500;
pub const FIXTURE_MOVIES: usize = 160;
pub const FIXTURE_SONGS: usize = 160;
pub const FIXTURE_ORGS: usize = 80;
pub const FIXTURE_PLACES: usize = 60;
pub const FIXTURE_TEAMS: usize = 25;
pub const FIXTURE_ENTITY_PAGES: usize = 900;
pub const FIXTURE_NEWS_PAGES: usize = 160;
pub const FIXTURE_NOISE_PAGES: usize = 80;
/// `lives_in` fact targets (the first N rendered subjects by entity id).
pub const FIXTURE_TARGETS: usize = 25;
pub const TRAIN_DIM: usize = 8;
pub const TRAIN_EPOCHS: usize = 2;
pub const TRAIN_NEGATIVES: usize = 2;
pub const TRAIN_PARTITIONS: usize = 32;
pub const ODKE_DOCS_PER_QUERY: usize = 50;
pub const MAX_DOCS_PER_ENTITY: usize = 3;
pub const MIN_PREDICATE_FREQUENCY: usize = 2;
/// Worker threads handed to every grow stage. One: the process is pinned
/// to one core, where parallel speed-up cannot be observed.
pub const GROW_WORKERS: usize = 1;
/// New pages and real-world fact changes per interval, on top of the edits.
pub const NEW_PAGES_PER_INTERVAL: usize = 2;
pub const FACT_CHANGES_PER_INTERVAL: usize = 2;
/// `grow_trickle`: chained intervals per epoch and page-edit fraction.
pub const TRICKLE_INTERVALS: usize = 24;
pub const TRICKLE_CHURN: f64 = 0.01;
/// `grow_surge`.
pub const SURGE_INTERVALS: usize = 10;
pub const SURGE_CHURN: f64 = 0.30;
