//! Delta retraining: warm-started, dirty-partition-only training through
//! the checkpointed trainer. Invariants: only buckets touching a dirty
//! partition train (cost scales with churn), entities in untouched
//! partitions keep their warm-started rows byte-identical, the result is
//! bit-identical at every worker count, a completed delta run leaves one
//! checkpoint frame that restores its model, and a killed one leaves none
//! and restarts from the warm start to the uninterrupted model.

use saga_core::fault::{FaultInjector, FaultPlan, RetryPolicy, SiteFaults};
use saga_embeddings::{
    dirty_partitions, train_partitioned, training_partitioning, CheckpointedTrainer, ModelKind,
    TrainCheckpointLog, TrainConfig, TrainedModel, TrainingSet, SITE_CHECKPOINT_WRITE,
};
use saga_graph::{GraphView, ViewDef};
use std::collections::BTreeSet;
use std::path::PathBuf;

const NUM_PARTS: usize = 4;

fn dataset() -> TrainingSet {
    let s = saga_core::synth::generate(&saga_core::synth::SynthConfig::tiny(61));
    let v = GraphView::materialize(&s.kg, ViewDef::embedding_training(2));
    let mut ds = TrainingSet::from_edges(&v.edges(), 0.05, 0.05, 3);
    ds.train.truncate(240);
    ds
}

fn cfg(seed: u64) -> TrainConfig {
    TrainConfig {
        model: ModelKind::TransE,
        dim: 8,
        epochs: 2,
        negatives: 2,
        seed,
        ..Default::default()
    }
}

fn wal_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("saga-delta-train").join(std::process::id().to_string());
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir.join(format!("{name}.wal"))
}

/// A small dirty-entity set plus its partition image.
fn dirty_set(ds: &TrainingSet, c: &TrainConfig, n: usize) -> BTreeSet<u16> {
    let parts = training_partitioning(ds, c, NUM_PARTS);
    dirty_partitions(ds, &parts, ds.entities.iter().copied().take(n))
}

fn delta_run(
    ds: &TrainingSet,
    c: &TrainConfig,
    prior: &TrainedModel,
    dirty: &BTreeSet<u16>,
    workers: usize,
    log_name: &str,
) -> (TrainedModel, saga_embeddings::TrainReport) {
    let mut log = TrainCheckpointLog::open(&wal_path(log_name)).expect("open log");
    let run = CheckpointedTrainer::new(c.clone(), NUM_PARTS, workers)
        .with_warm_start(prior)
        .with_delta_partitions(dirty.clone())
        .train(ds, &mut log)
        .expect("delta run");
    (run.model.expect("delta run completes"), run.report)
}

#[test]
fn delta_retrain_trains_fewer_buckets_and_keeps_clean_partitions() {
    let ds = dataset();
    let c = cfg(7);
    let (prior, full_stats) = train_partitioned(&ds, &c, NUM_PARTS, 2);
    // One dirty partition out of four.
    let parts = training_partitioning(&ds, &c, NUM_PARTS);
    let one_entity = ds.entities[0];
    let dirty = dirty_partitions(&ds, &parts, [one_entity]);
    assert_eq!(dirty.len(), 1);
    let (model, report) = delta_run(&ds, &c, &prior, &dirty, 2, "fewer-buckets");

    // Exactly the buckets touching the dirty partition train, every epoch.
    let retained: Vec<(u16, u16)> = parts
        .buckets(&ds.train)
        .into_keys()
        .filter(|(ph, pt)| dirty.contains(ph) || dirty.contains(pt))
        .collect();
    assert!(!retained.is_empty(), "dirty buckets exist");
    assert_eq!(report.buckets_trained, retained.len() * c.epochs);
    assert!(
        report.buckets_trained < full_stats.buckets_trained,
        "delta trains fewer buckets: {} vs {}",
        report.buckets_trained,
        full_stats.buckets_trained
    );

    // A retained bucket can move any row of its two partitions (its
    // negative pool spans both); a partition in no retained bucket is
    // pinned to the warm start byte-for-byte.
    let touched: BTreeSet<u16> = retained.iter().flat_map(|&(a, b)| [a, b]).collect();
    for (g, &e) in ds.entities.iter().enumerate() {
        if touched.contains(&parts.part_of[g]) {
            continue;
        }
        assert_eq!(
            prior.entity_embedding(e).expect("in prior vocab"),
            model.entity_embedding(e).expect("in new vocab"),
            "entity {g} in an untouched partition moved"
        );
    }
}

#[test]
fn delta_retrain_is_deterministic_across_worker_counts() {
    let ds = dataset();
    let c = cfg(13);
    let (prior, _) = train_partitioned(&ds, &c, NUM_PARTS, 1);
    let dirty = dirty_set(&ds, &c, 12);
    let (base, _) = delta_run(&ds, &c, &prior, &dirty, 1, "det-w1");
    for workers in [2usize, 8] {
        let (m, _) = delta_run(&ds, &c, &prior, &dirty, workers, &format!("det-w{workers}"));
        assert_eq!(
            m.entities.to_bytes(),
            base.entities.to_bytes(),
            "entity tables differ at workers={workers}"
        );
        assert_eq!(
            m.relations.to_bytes(),
            base.relations.to_bytes(),
            "relation tables differ at workers={workers}"
        );
        assert_eq!(m.epoch_losses, base.epoch_losses, "losses differ at workers={workers}");
    }
}

fn assert_same_model(got: &TrainedModel, want: &TrainedModel) {
    assert_eq!(got.entities.to_bytes(), want.entities.to_bytes());
    assert_eq!(got.relations.to_bytes(), want.relations.to_bytes());
    assert_eq!(got.epoch_losses, want.epoch_losses);
}

/// A delta run is made durable once, where it is acknowledged: one frame
/// after the last round, holding everything needed to restore the model.
#[test]
fn completed_delta_run_writes_one_frame_that_restores_its_model() {
    let ds = dataset();
    let c = cfg(23);
    let (prior, _) = train_partitioned(&ds, &c, NUM_PARTS, 1);
    let dirty = dirty_set(&ds, &c, 12);
    let (model, report) = delta_run(&ds, &c, &prior, &dirty, 2, "one-frame");
    assert!(report.rounds_completed >= 2, "several rounds, so per-round would be several frames");
    assert_eq!(report.checkpoints_written, 1);
    assert_eq!(report.checkpoints_skipped, 0);

    // Training against the completed log restores the model from the frame:
    // the counters are the frame's, so no round ran again.
    let mut log = TrainCheckpointLog::open(&wal_path("one-frame")).expect("reopen log");
    assert_eq!(log.rounds_recovered(), 1);
    let again = CheckpointedTrainer::new(c.clone(), NUM_PARTS, 2)
        .with_warm_start(&prior)
        .with_delta_partitions(dirty)
        .train(&ds, &mut log)
        .expect("restored run");
    assert!(again.report.resumed_at.is_some());
    assert_eq!(again.report.rounds_completed, report.rounds_completed);
    assert_eq!(again.report.bucket_attempts, report.bucket_attempts);
    assert_eq!(again.report.checkpoints_written, 1);
    assert_same_model(&again.model.expect("restored run completes"), &model);
}

/// A delta run killed before its last round has written nothing: the
/// resumed run restarts from the warm start its caller still holds, and
/// reaches the uninterrupted model.
#[test]
fn killed_delta_run_resumes_bit_identical() {
    let ds = dataset();
    let c = cfg(29);
    let (prior, _) = train_partitioned(&ds, &c, NUM_PARTS, 1);
    let dirty = dirty_set(&ds, &c, 12);
    let (reference, ref_report) = delta_run(&ds, &c, &prior, &dirty, 2, "kill-ref");
    assert!(ref_report.rounds_completed >= 2, "need rounds to kill between");

    let path = wal_path("kill-resume");
    let mut log = TrainCheckpointLog::open(&path).expect("open log");
    let killed = CheckpointedTrainer::new(c.clone(), NUM_PARTS, 2)
        .with_warm_start(&prior)
        .with_delta_partitions(dirty.clone())
        .with_kill_after_rounds(1)
        .train(&ds, &mut log)
        .expect("killed run");
    assert!(killed.model.is_none(), "kill hook fired");
    assert_eq!(killed.report.checkpoints_written, 0);

    let mut log = TrainCheckpointLog::open(&path).expect("reopen log");
    assert_eq!(log.rounds_recovered(), 0, "no frame before the last round");
    let resumed = CheckpointedTrainer::new(c.clone(), NUM_PARTS, 2)
        .with_warm_start(&prior)
        .with_delta_partitions(dirty.clone())
        .train(&ds, &mut log)
        .expect("resumed run");
    assert_eq!(resumed.report.resumed_at, None);
    assert_eq!(resumed.report.checkpoints_written, 1);
    assert_same_model(&resumed.model.expect("resumed run completes"), &reference);
}

/// The `checkpoint-write` fault site gates the single frame. Losing it
/// costs the durability of this interval, never the model.
#[test]
fn faulted_single_frame_is_skipped_and_the_model_still_returned() {
    let ds = dataset();
    let c = cfg(37);
    let (prior, _) = train_partitioned(&ds, &c, NUM_PARTS, 1);
    let dirty = dirty_set(&ds, &c, 12);
    let (reference, _) = delta_run(&ds, &c, &prior, &dirty, 2, "fault-ref");

    let injector = FaultInjector::new(
        FaultPlan::reliable(404).with_site(SITE_CHECKPOINT_WRITE, SiteFaults::transient(1.0)),
    );
    let path = wal_path("fault-single-frame");
    let mut log = TrainCheckpointLog::open(&path).expect("open log");
    let run = CheckpointedTrainer::new(c.clone(), NUM_PARTS, 2)
        .with_warm_start(&prior)
        .with_delta_partitions(dirty)
        .with_faults(&injector)
        .with_retry(RetryPolicy { max_attempts: 2, ..Default::default() })
        .train(&ds, &mut log)
        .expect("run completes");
    assert_eq!(run.report.checkpoints_skipped, 1);
    assert_eq!(run.report.checkpoints_written, 0);
    assert_same_model(&run.model.expect("model returned without its frame"), &reference);
    drop(log);
    let log = TrainCheckpointLog::open(&path).expect("reopen log");
    assert_eq!(log.rounds_recovered(), 0);
}

#[test]
fn delta_log_rejects_full_run_and_other_dirty_sets() {
    let ds = dataset();
    let c = cfg(31);
    let (prior, _) = train_partitioned(&ds, &c, NUM_PARTS, 1);
    // One dirty partition so a shifted set is genuinely different.
    let parts = training_partitioning(&ds, &c, NUM_PARTS);
    let dirty = dirty_partitions(&ds, &parts, [ds.entities[0]]);
    assert_eq!(dirty.len(), 1);

    // A completed delta run leaves its frame; try resuming it with a
    // different identity.
    let path = wal_path("digest-gate");
    let mut log = TrainCheckpointLog::open(&path).expect("open log");
    let seeded = CheckpointedTrainer::new(c.clone(), NUM_PARTS, 1)
        .with_warm_start(&prior)
        .with_delta_partitions(dirty.clone())
        .train(&ds, &mut log)
        .expect("seeded delta log");
    assert_eq!(seeded.report.checkpoints_written, 1);

    // Full (non-delta) trainer must refuse the delta log.
    let mut log = TrainCheckpointLog::open(&path).expect("reopen log");
    assert!(
        CheckpointedTrainer::new(c.clone(), NUM_PARTS, 1).train(&ds, &mut log).is_err(),
        "full run resumed a delta log"
    );
    // A different dirty set must refuse it too.
    let other: BTreeSet<u16> = dirty.iter().map(|p| (p + 1) % NUM_PARTS as u16).collect();
    let mut log = TrainCheckpointLog::open(&path).expect("reopen log");
    assert!(
        CheckpointedTrainer::new(c.clone(), NUM_PARTS, 1)
            .with_warm_start(&prior)
            .with_delta_partitions(other)
            .train(&ds, &mut log)
            .is_err(),
        "delta run resumed a log for a different dirty set"
    );
}
