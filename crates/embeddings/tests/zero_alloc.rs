//! The training-side counterpart of `saga-ann`'s zero-alloc test.
//!
//! - The per-round obs instrumentation of `CheckpointedTrainer::with_obs` —
//!   two value histograms — must allocate nothing once warm: a counting
//!   global allocator is armed around a replay of the exact recording
//!   sequence the round loop performs.
//! - The round loop itself allocates per run, never per round or epoch: at
//!   one worker, the same set trained for 2 and for 6 epochs allocates the
//!   same number of times through `train_partitioned`, and so does a
//!   warm-started delta `CheckpointedTrainer::train`, whose one checkpoint
//!   frame is encoded into a buffer sized once.
//! - Building the embedding-training set (view, edges, splits) allocates a
//!   fixed number of times, whatever the size of the graph: as often on a
//!   synthetic world ten times the size of another.
//!
//! The allocator counts only on the thread that armed it, so tests running
//! side by side do not count each other's allocations; every measured call
//! runs on the test's own thread.

use saga_core::obs::Registry;
use saga_embeddings::{
    dirty_partitions, train_partitioned, training_partitioning, CheckpointedTrainer,
    TrainCheckpointLog, TrainConfig, TrainingSet,
};
use saga_graph::{GraphView, ViewDef};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;

struct CountingAlloc;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocations `f` makes on this thread.
fn count_allocs(f: impl FnOnce()) -> u64 {
    ALLOCS.with(|n| n.set(0));
    ARMED.with(|a| a.set(true));
    f();
    ARMED.with(|a| a.set(false));
    ALLOCS.with(Cell::get)
}

#[test]
fn warm_round_instrumentation_performs_no_allocation() {
    let registry = Registry::new();
    let scope = registry.scope("embeddings").child("train-bucket");
    let round_wall_units = scope.histogram("round_wall_units");
    let round_buckets = scope.histogram("round_buckets");

    // Warm-up: the first recording of each histogram happens unarmed.
    round_wall_units.record(1);
    round_buckets.record(4);

    let iters = 1_000u64;
    let allocs = count_allocs(|| {
        for r in 0..iters {
            round_wall_units.record(1 + r % 3);
            round_buckets.record(r % 7);
        }
    });
    assert_eq!(allocs, 0, "warm round instrumentation allocated {allocs} times");

    let snap = registry.snapshot();
    let wall = snap.histogram("embeddings/train-bucket/round_wall_units").expect("recorded");
    assert_eq!(wall.count(), iters + 1);
    let buckets = snap.histogram("embeddings/train-bucket/round_buckets").expect("recorded");
    assert_eq!(buckets.count(), iters + 1);
}

const NUM_PARTS: usize = 8;

fn dataset() -> TrainingSet {
    let s = saga_core::synth::generate(&saga_core::synth::SynthConfig::tiny(61));
    let v = GraphView::materialize(&s.kg, ViewDef::embedding_training(2));
    TrainingSet::from_edges(&v.edges(), 0.05, 0.05, 3)
}

fn cfg(epochs: usize) -> TrainConfig {
    TrainConfig { dim: 8, epochs, negatives: 2, ..Default::default() }
}

fn wal_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("saga-zero-alloc").join(std::process::id().to_string());
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join(format!("{name}.wal"));
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn partitioned_training_allocates_per_run_not_per_round() {
    let ds = dataset();
    let allocs = |epochs: usize| {
        let c = cfg(epochs);
        let mut rounds = 0;
        let n = count_allocs(|| {
            let (model, report) = train_partitioned(&ds, &c, NUM_PARTS, 1);
            rounds = report.rounds_completed;
            std::hint::black_box(model);
        });
        (n, rounds)
    };
    let (two, two_rounds) = allocs(2);
    let (six, six_rounds) = allocs(6);
    assert!(six_rounds > two_rounds, "{six_rounds} rounds at 6 epochs, {two_rounds} at 2");
    assert_eq!(two, six, "2 epochs allocate {two} times, 6 epochs {six}");
}

#[test]
fn delta_training_allocates_per_run_not_per_round() {
    let ds = dataset();
    let (prior, _) = train_partitioned(&ds, &cfg(2), NUM_PARTS, 1);
    let parts = training_partitioning(&ds, &cfg(2), NUM_PARTS);
    let dirty = dirty_partitions(&ds, &parts, ds.entities.iter().copied().step_by(41).take(2));
    assert!(!dirty.is_empty() && dirty.len() < NUM_PARTS, "a partial dirty set: {dirty:?}");
    let allocs = |epochs: usize| {
        let mut log = TrainCheckpointLog::open(&wal_path(&format!("delta-{epochs}"))).expect("log");
        let trainer = CheckpointedTrainer::new(cfg(epochs), NUM_PARTS, 1)
            .with_warm_start(&prior)
            .with_delta_partitions(dirty.clone());
        let mut rounds = 0;
        let n = count_allocs(|| {
            let run = trainer.train(&ds, &mut log).expect("delta run");
            rounds = run.report.rounds_completed;
            assert_eq!(run.report.checkpoints_written, 1);
            std::hint::black_box(run);
        });
        (n, rounds)
    };
    let (two, two_rounds) = allocs(2);
    let (six, six_rounds) = allocs(6);
    assert!(six_rounds > two_rounds, "{six_rounds} rounds at 6 epochs, {two_rounds} at 2");
    assert_eq!(two, six, "2 epochs allocate {two} times, 6 epochs {six}");
}

#[test]
fn building_the_training_set_allocates_the_same_at_any_graph_size() {
    use saga_core::synth::{generate, SynthConfig};
    let tiny = SynthConfig::tiny(61);
    let ten_times = SynthConfig {
        num_people: 10 * tiny.num_people,
        num_movies: 10 * tiny.num_movies,
        num_songs: 10 * tiny.num_songs,
        num_orgs: 10 * tiny.num_orgs,
        num_places: 10 * tiny.num_places,
        num_teams: 10 * tiny.num_teams,
        ..tiny.clone()
    };
    let allocs = |world: &SynthConfig| {
        let s = generate(world);
        let mut train = 0;
        let n = count_allocs(|| {
            let v = GraphView::materialize(&s.kg, ViewDef::embedding_training(2));
            let ds = TrainingSet::from_edges(&v.edges(), 0.05, 0.05, 3);
            train = ds.train.len();
            std::hint::black_box(ds);
        });
        (n, train)
    };
    let (one, one_train) = allocs(&tiny);
    let (ten, ten_train) = allocs(&ten_times);
    assert!(ten_train > 5 * one_train, "{ten_train} training triples at 10×, {one_train} at 1×");
    assert_eq!(one, ten, "1× allocates {one} times, 10× {ten}");
    assert!(one <= 9, "{one} allocations");
}
