//! Fault matrix for checkpointed embedding training: kill/resume at every
//! round boundary, transient and permanent bucket faults, checkpoint-write
//! faults, torn checkpoint tails, and the same loop's bucket-granular
//! resume with a partition buffer. The invariant under test everywhere: a resumed run produces
//! embeddings *byte-identical* to the uninterrupted run.

use saga_core::fault::{crash_matrix, FaultInjector, FaultPlan, RetryPolicy, SiteFaults};
use saga_core::SagaError;
use saga_embeddings::{
    train_disk, train_partitioned, CheckpointedTrainer, ModelKind, TrainCheckpointLog, TrainConfig,
    TrainedModel, TrainingSet, SITE_CHECKPOINT_WRITE, SITE_TRAIN_BUCKET,
};
use saga_graph::{GraphView, ViewDef};
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
    let dir = std::env::temp_dir().join("saga-train-fault").join(std::process::id().to_string());
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir.join(format!("{name}.wal"))
}

/// Byte-level model equality: shapes, every f32 of both tables (data and
/// AdaGrad state), and the per-epoch losses.
fn models_identical(a: &TrainedModel, b: &TrainedModel) -> Result<(), String> {
    if a.entities.to_bytes() != b.entities.to_bytes() {
        return Err("entity tables differ".into());
    }
    if a.relations.to_bytes() != b.relations.to_bytes() {
        return Err("relation tables differ".into());
    }
    if a.epoch_losses != b.epoch_losses {
        return Err("losses differ".into());
    }
    Ok(())
}

fn assert_models_identical(a: &TrainedModel, b: &TrainedModel, what: &str) {
    if let Err(e) = models_identical(a, b) {
        panic!("{what}: {e}");
    }
}

/// Acceptance criterion: killed at *every* round boundary, at worker
/// counts 1/2/8, across ≥5 seeds, the resumed model is byte-identical to
/// the uninterrupted run (which itself matches plain `train_partitioned`).
/// Runs on the shared [`crash_matrix`] harness (the same one the storage
/// engine's kill matrix uses), so every failing kill point is reported, not
/// just the first.
#[test]
fn kill_at_every_round_boundary_resumes_bit_identical() {
    let ds = dataset();
    let mut baselines = std::collections::HashMap::new();
    let mut points: Vec<(u64, usize, usize)> = Vec::new();
    for seed in [3u64, 11, 23, 47, 91] {
        let cfg = cfg(seed);
        let (baseline, _) = train_partitioned(&ds, &cfg, NUM_PARTS, 1);

        // Clean checkpointed runs match the plain trainer at every worker
        // count, and tell us the total number of rounds.
        let mut total_rounds = 0usize;
        for workers in [1usize, 2, 8] {
            let mut log = TrainCheckpointLog::open(&wal_path(&format!("clean-{seed}-{workers}")))
                .expect("open log");
            let run = CheckpointedTrainer::new(cfg.clone(), NUM_PARTS, workers)
                .train(&ds, &mut log)
                .expect("clean checkpointed run");
            let model = run.model.expect("clean run completes");
            assert_models_identical(&baseline, &model, &format!("clean s{seed} w{workers}"));
            assert_eq!(run.report.checkpoints_written, run.report.rounds_completed);
            total_rounds = run.report.rounds_completed;
        }
        assert!(total_rounds >= 4, "need several rounds to make kill points interesting");

        baselines.insert(seed, baseline);
        for workers in [1usize, 2, 8] {
            for kill_at in 1..total_rounds {
                points.push((seed, workers, kill_at));
            }
        }
    }

    let report = crash_matrix(points, |&(seed, workers, kill_at)| {
        let cfg = cfg(seed);
        let baseline = &baselines[&seed];
        let path = wal_path(&format!("kill-{seed}-{workers}-{kill_at}"));
        let mut log = TrainCheckpointLog::open(&path).map_err(|e| format!("open log: {e}"))?;
        let killed = CheckpointedTrainer::new(cfg.clone(), NUM_PARTS, workers)
            .with_kill_after_rounds(kill_at)
            .train(&ds, &mut log)
            .map_err(|e| format!("killed run: {e}"))?;
        if killed.model.is_some() {
            return Err("kill hook did not fire".into());
        }
        if killed.report.rounds_completed != kill_at {
            return Err(format!(
                "killed run completed {} rounds, expected {kill_at}",
                killed.report.rounds_completed
            ));
        }
        drop(log);

        let mut log = TrainCheckpointLog::open(&path).map_err(|e| format!("reopen log: {e}"))?;
        if log.rounds_recovered() != kill_at {
            return Err(format!("recovered {} rounds, expected {kill_at}", log.rounds_recovered()));
        }
        let resumed = CheckpointedTrainer::new(cfg, NUM_PARTS, workers)
            .train(&ds, &mut log)
            .map_err(|e| format!("resumed run: {e}"))?;
        if resumed.report.resumed_at.is_none() {
            return Err("resume cursor missing from report".into());
        }
        let model = resumed.model.ok_or("resumed run did not complete")?;
        models_identical(baseline, &model)?;
        std::fs::remove_file(&path).ok();
        Ok(())
    });
    report.assert_clean("trainer round-boundary kill matrix");
}

/// Acceptance criterion: a 30% transient-fault run at `SITE_TRAIN_BUCKET`
/// converges to the same model as the failure-free run, with quarantine
/// count 0 — retries never corrupt sibling buckets' scratch.
#[test]
fn transient_bucket_faults_converge_to_failure_free_model() {
    let ds = dataset();
    let cfg = cfg(7);
    let (baseline, base_stats) = train_partitioned(&ds, &cfg, NUM_PARTS, 2);

    let injector = FaultInjector::new(
        FaultPlan::reliable(1302).with_site(SITE_TRAIN_BUCKET, SiteFaults::transient(0.3)),
    );
    let patient = RetryPolicy { max_attempts: 10, ..Default::default() };
    let mut log = TrainCheckpointLog::open(&wal_path("transient-30pct")).expect("open log");
    let run = CheckpointedTrainer::new(cfg, NUM_PARTS, 2)
        .with_faults(&injector)
        .with_retry(patient)
        .train(&ds, &mut log)
        .expect("faulty run completes");

    assert!(run.report.retries > 0, "30% fault rate must force retries");
    assert!(run.report.quarantined.is_empty(), "no bucket may exhaust 10 attempts");
    assert_eq!(run.report.buckets_trained, base_stats.buckets_trained);
    assert!(run.report.wall_round_units > run.report.rounds_completed as u64);
    let model = run.model.expect("completes");
    assert_models_identical(&baseline, &model, "30% transient faults");
    assert!(injector.site_stats(SITE_TRAIN_BUCKET).transient_faults > 0);
}

/// Permanently failing buckets are quarantined (recorded on the report)
/// and the run still completes instead of erroring out.
#[test]
fn permanent_bucket_faults_quarantine_pairs_and_complete() {
    let ds = dataset();
    let cfg = cfg(13);
    let (_, base_stats) = train_partitioned(&ds, &cfg, NUM_PARTS, 2);
    let injector = FaultInjector::new(FaultPlan::reliable(77).with_site(
        SITE_TRAIN_BUCKET,
        SiteFaults { permanent_rate: 0.35, ..SiteFaults::transient(0.0) },
    ));
    let mut log = TrainCheckpointLog::open(&wal_path("permanent-35pct")).expect("open log");
    let run = CheckpointedTrainer::new(cfg, NUM_PARTS, 2)
        .with_faults(&injector)
        .train(&ds, &mut log)
        .expect("quarantine, not error");

    assert!(!run.report.quarantined.is_empty(), "35% permanent faults must quarantine");
    assert!(run.report.buckets_trained < base_stats.buckets_trained);
    assert!(run.model.is_some(), "run completes despite quarantined pairs");
    // Quarantine is sticky: a pair hit in epoch 0 is skipped in epoch 1 too,
    // so distinct quarantined pairs never exceed the grid.
    assert!(run.report.quarantined.len() <= NUM_PARTS * NUM_PARTS);
}

/// Faults at `SITE_CHECKPOINT_WRITE` degrade durability (skipped frames)
/// but never the model; a kill under those faults still resumes exactly,
/// because skipped frames keep their partitions in the next frame's dirty
/// set.
#[test]
fn checkpoint_write_faults_skip_frames_without_corruption() {
    let ds = dataset();
    let cfg = cfg(29);
    let (baseline, _) = train_partitioned(&ds, &cfg, NUM_PARTS, 2);

    let plan = || {
        FaultInjector::new(
            FaultPlan::reliable(404).with_site(SITE_CHECKPOINT_WRITE, SiteFaults::transient(0.5)),
        )
    };
    let impatient = RetryPolicy { max_attempts: 2, ..Default::default() };

    // Uninterrupted: skipped checkpoints must not change the model.
    let injector = plan();
    let mut log = TrainCheckpointLog::open(&wal_path("ckpt-faults-clean")).expect("open log");
    let run = CheckpointedTrainer::new(cfg.clone(), NUM_PARTS, 2)
        .with_faults(&injector)
        .with_retry(impatient)
        .train(&ds, &mut log)
        .expect("run completes");
    assert!(run.report.checkpoints_skipped > 0, "50% @ 2 attempts must skip frames");
    assert!(run.report.checkpoint_retries > 0);
    assert!(run.report.checkpoints_written < run.report.rounds_completed);
    let total_rounds = run.report.rounds_completed;
    assert_models_identical(&baseline, &run.model.expect("completes"), "skipped checkpoints");

    // Killed mid-run under the same write faults: resume is still exact
    // even though the log is missing frames (it just restarts earlier).
    let kill_at = total_rounds / 2;
    let path = wal_path("ckpt-faults-kill");
    let injector = plan();
    let mut log = TrainCheckpointLog::open(&path).expect("open log");
    let killed = CheckpointedTrainer::new(cfg.clone(), NUM_PARTS, 2)
        .with_faults(&injector)
        .with_retry(impatient)
        .with_kill_after_rounds(kill_at)
        .train(&ds, &mut log)
        .expect("killed run returns");
    assert!(killed.model.is_none());
    assert!(killed.report.checkpoints_written < kill_at, "some frames were dropped");
    drop(log);

    let mut log = TrainCheckpointLog::open(&path).expect("reopen");
    assert!(log.rounds_recovered() < kill_at);
    let resumed = CheckpointedTrainer::new(cfg, NUM_PARTS, 2).train(&ds, &mut log).expect("resume");
    assert_models_identical(
        &baseline,
        &resumed.model.expect("completes"),
        "kill under checkpoint-write faults",
    );
}

/// A torn tail (partial frame from a crash mid-append) truncates to the
/// last valid round on open, and the resumed run is still byte-identical —
/// the mirror of `core::persist`'s WAL torn-tail tests at trainer level.
#[test]
fn torn_checkpoint_tail_truncates_and_resumes_exactly() {
    let ds = dataset();
    let cfg = cfg(31);
    let (baseline, _) = train_partitioned(&ds, &cfg, NUM_PARTS, 1);

    let path = wal_path("torn-tail");
    let mut log = TrainCheckpointLog::open(&path).expect("open log");
    let killed = CheckpointedTrainer::new(cfg.clone(), NUM_PARTS, 1)
        .with_kill_after_rounds(6)
        .train(&ds, &mut log)
        .expect("killed run");
    assert!(killed.model.is_none());
    drop(log);

    // Tear the tail: chop bytes off the last frame.
    let bytes = std::fs::read(&path).expect("read wal");
    std::fs::write(&path, &bytes[..bytes.len() - 37]).expect("tear tail");

    let mut log = TrainCheckpointLog::open(&path).expect("recovering open");
    assert_eq!(log.rounds_recovered(), 5, "torn last frame dropped, prefix kept");
    let resumed = CheckpointedTrainer::new(cfg, NUM_PARTS, 1).train(&ds, &mut log).expect("resume");
    assert_eq!(resumed.report.resumed_at.map(|(_, r)| r > 0), Some(true));
    assert_models_identical(&baseline, &resumed.model.expect("completes"), "torn tail");
}

/// A log written under one config refuses to resume under another — the
/// digest covers every hyperparameter and the partition count.
#[test]
fn config_digest_mismatch_is_rejected() {
    let ds = dataset();
    let path = wal_path("digest-mismatch");
    let mut log = TrainCheckpointLog::open(&path).expect("open log");
    CheckpointedTrainer::new(cfg(5), NUM_PARTS, 1)
        .with_kill_after_rounds(2)
        .train(&ds, &mut log)
        .expect("seed run");
    drop(log);

    let mut log = TrainCheckpointLog::open(&path).expect("reopen");
    let other = TrainConfig { dim: 12, ..cfg(5) };
    let err = CheckpointedTrainer::new(other, NUM_PARTS, 1).train(&ds, &mut log).unwrap_err();
    assert!(matches!(err, SagaError::InvalidArgument(_)), "got {err}");
}

/// Buffered training: a kill at the first, middle or last bucket boundary
/// resumes to the exact model of an uninterrupted `train_disk` run, also
/// when the resumed run holds a different number of partitions in memory
/// than the killed one. A buffered log does not resume a resident run.
#[test]
fn disk_checkpointed_kill_resume_matches_uninterrupted() {
    let ds = dataset();
    let cfg = cfg(19);
    let base_dir =
        std::env::temp_dir().join("saga-train-fault").join(format!("disk-{}", std::process::id()));
    let trainer = || CheckpointedTrainer::new(cfg.clone(), NUM_PARTS, 1);

    let (baseline, _) =
        train_disk(&ds, &cfg, NUM_PARTS, 2, &base_dir.join("clean")).expect("plain disk run");

    // Uninterrupted checkpointed run matches the plain trainer.
    let full_dir = base_dir.join("full");
    let mut log = TrainCheckpointLog::open(&wal_path("disk-clean")).expect("open log");
    let run = trainer().with_buffer(2, &full_dir).train(&ds, &mut log).expect("checkpointed run");
    assert_models_identical(&baseline, &run.model.expect("completes"), "disk clean");
    let total_buckets = run.report.rounds_completed;
    assert_eq!(run.report.buckets_trained, total_buckets, "a buffered round is one bucket");
    assert_eq!(run.report.checkpoints_written, total_buckets);
    assert!(total_buckets >= 4);

    for kill_at in [1, total_buckets / 2, total_buckets - 1] {
        for resume_capacity in [2, 3, NUM_PARTS] {
            let name = format!("disk-kill-{kill_at}-{resume_capacity}");
            let (dir, path) = (base_dir.join(&name), wal_path(&name));
            let mut log = TrainCheckpointLog::open(&path).expect("open log");
            let killed = trainer()
                .with_buffer(2, &dir)
                .with_kill_after_rounds(kill_at)
                .train(&ds, &mut log)
                .expect("killed disk run");
            assert!(killed.model.is_none());
            assert_eq!(killed.report.rounds_completed, kill_at);
            drop(log);

            let mut log = TrainCheckpointLog::open(&path).expect("reopen");
            assert_eq!(log.rounds_recovered(), kill_at);
            let resumed = trainer()
                .with_buffer(resume_capacity, &dir)
                .train(&ds, &mut log)
                .expect("resumed disk run");
            assert!(resumed.report.resumed_at.is_some());
            assert_models_identical(
                &baseline,
                &resumed.model.expect("completes"),
                &format!("disk killed@{kill_at}, resumed at capacity {resume_capacity}"),
            );
        }
    }

    let mut log = TrainCheckpointLog::open(&wal_path("disk-clean")).expect("reopen");
    let err = trainer().train(&ds, &mut log).unwrap_err();
    assert!(matches!(err, SagaError::InvalidArgument(_)), "got {err}");
    std::fs::remove_dir_all(&base_dir).ok();
}

/// A buffered run whose checkpoint writes fault keeps the skipped frames'
/// partitions for the next frame, reading back from disk the ones the
/// buffer evicted meanwhile; killed under those faults, it still resumes to
/// the uninterrupted model.
#[test]
fn buffered_checkpoint_write_faults_resume_bit_identical() {
    let ds = dataset();
    let cfg = cfg(37);
    let dir = std::env::temp_dir()
        .join("saga-train-fault")
        .join(format!("disk-faults-{}", std::process::id()));
    let (baseline, _) = train_disk(&ds, &cfg, NUM_PARTS, 2, &dir).expect("plain disk run");
    let injector = FaultInjector::new(
        FaultPlan::reliable(405).with_site(SITE_CHECKPOINT_WRITE, SiteFaults::transient(0.5)),
    );
    let impatient = RetryPolicy { max_attempts: 2, ..Default::default() };

    let mut log = TrainCheckpointLog::open(&wal_path("disk-ckpt-clean")).expect("open log");
    let clean = CheckpointedTrainer::new(cfg.clone(), NUM_PARTS, 1)
        .with_buffer(2, &dir)
        .with_kill_after_rounds(20)
        .train(&ds, &mut log)
        .expect("killed run returns");

    let path = wal_path("disk-ckpt-faults");
    let mut log = TrainCheckpointLog::open(&path).expect("open log");
    let killed = CheckpointedTrainer::new(cfg.clone(), NUM_PARTS, 1)
        .with_buffer(2, &dir)
        .with_faults(&injector)
        .with_retry(impatient)
        .with_kill_after_rounds(20)
        .train(&ds, &mut log)
        .expect("killed run returns");
    assert!(killed.model.is_none());
    assert!(killed.report.checkpoints_skipped > 0, "50% @ 2 attempts must skip frames");
    // Both runs page the same tables in and out; only frames read back.
    assert!(killed.io.partition_loads > clean.io.partition_loads, "no frame read a table back");
    drop(log);

    let mut log = TrainCheckpointLog::open(&path).expect("reopen");
    assert!(log.rounds_recovered() < 20);
    let resumed = CheckpointedTrainer::new(cfg, NUM_PARTS, 1)
        .with_buffer(2, &dir)
        .train(&ds, &mut log)
        .expect("resume");
    assert_models_identical(&baseline, &resumed.model.expect("completes"), "buffered faults");
    std::fs::remove_dir_all(&dir).ok();
}
