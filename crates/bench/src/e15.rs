//! E15 — retry amplification under injected faults: how much extra work
//! (retries, call volume, wall-clock rounds) the resilient extraction and
//! training layers spend to recover a failure-free result as the transient
//! fault rate climbs.
//!
//! Part A sweeps `ResilientOdke` over transient fault rates at the search
//! and fetch sites and measures fact recovery plus retry/call-volume
//! amplification. Part B sweeps `CheckpointedTrainer` over fault rates at
//! `SITE_TRAIN_BUCKET` and measures bucket-attempt amplification and
//! wall-round overhead, asserting the recovered model stays bit-identical
//! to the failure-free one.

use crate::report::{f3, ExperimentResult, Table};
use crate::world::{Scale, World};
use saga_annotation::{AnnotationService, LinkerConfig, Tier};
use saga_core::fault::{BreakerConfig, FaultInjector, FaultPlan, RetryPolicy, SiteFaults};
use saga_embeddings::{
    train_partitioned, CheckpointedTrainer, ModelKind, TrainCheckpointLog, TrainConfig,
    TrainingSet, SITE_TRAIN_BUCKET,
};
use saga_graph::{GraphView, ViewDef};
use saga_odke::{FactTarget, OdkeConfig, ResilientOdke, RunCheckpoint, TargetReason};
use saga_webcorpus::{FaultySource, ReliableSource, SITE_FETCH, SITE_SEARCH};

const RATES: [f64; 5] = [0.0, 0.1, 0.2, 0.3, 0.45];

struct OdkePoint {
    rate: f64,
    facts_written: usize,
    fact_recovery: f64,
    retries: u64,
    call_volume_x: f64,
    quarantined: usize,
}

struct TrainPoint {
    rate: f64,
    bucket_attempts: u64,
    attempt_amplification: f64,
    wall_round_units: u64,
    wall_overhead_x: f64,
    model_identical: bool,
    quarantined: usize,
}

/// A patient policy: the swept transient rates clear well inside the
/// attempt cap, so recovery stays lossless across the whole curve.
fn patient() -> RetryPolicy {
    RetryPolicy { max_attempts: 10, ..RetryPolicy::default() }
}

fn odke_curve(world: &World, scale: Scale, obs: &saga_core::obs::Scope) -> Vec<OdkePoint> {
    let svc = AnnotationService::build(&world.synth.kg, LinkerConfig::tier(Tier::T2Contextual));
    let n_targets = match scale {
        Scale::Quick => 8,
        Scale::Full => 16,
    };
    let targets: Vec<FactTarget> = world
        .synth
        .people
        .iter()
        .take(n_targets)
        .map(|&e| FactTarget {
            entity: e,
            predicate: world.synth.preds.date_of_birth,
            reason: TargetReason::CoverageGap,
            importance: 1.0,
        })
        .collect();

    let mut points = Vec::with_capacity(RATES.len());
    let mut baseline_facts = 0usize;
    let mut baseline_calls = 0u64;
    for &rate in &RATES {
        let plan = FaultPlan::reliable(1915)
            .with_site(SITE_SEARCH, SiteFaults::transient(rate))
            .with_site(SITE_FETCH, SiteFaults::transient(rate));
        let injector = FaultInjector::new(plan);
        let source =
            FaultySource::new(ReliableSource::new(&world.search, &world.corpus), &injector);
        let runner = ResilientOdke::new(&source, OdkeConfig::default())
            .with_retry(patient())
            .with_breakers(BreakerConfig { failure_threshold: 1_000, cooldown_ms: 1 })
            .with_obs(obs.child(&format!("rate{:02}", (rate * 100.0) as u32)));
        let mut kg = world.synth.kg.clone();
        let mut checkpoint = RunCheckpoint::default();
        let report = runner
            .run(&mut kg, &svc, &targets, &mut checkpoint, None)
            .expect("resilient run without log IO cannot fail");

        let calls = injector.site_stats(SITE_SEARCH).calls + injector.site_stats(SITE_FETCH).calls;
        if rate == 0.0 {
            baseline_facts = report.facts_written;
            baseline_calls = calls.max(1);
        }
        points.push(OdkePoint {
            rate,
            facts_written: report.facts_written,
            fact_recovery: if baseline_facts == 0 {
                1.0
            } else {
                report.facts_written as f64 / baseline_facts as f64
            },
            retries: report.retries,
            call_volume_x: calls as f64 / baseline_calls as f64,
            quarantined: report.quarantined.len(),
        });
    }
    points
}

fn train_curve(world: &World, scale: Scale, obs: &saga_core::obs::Scope) -> Vec<TrainPoint> {
    let view = GraphView::materialize(&world.synth.kg, ViewDef::embedding_training(5));
    let mut ds = TrainingSet::from_edges(&view.edges(), 0.02, 0.02, 41);
    let (epochs, cap) = match scale {
        Scale::Quick => (2, 500),
        Scale::Full => (3, usize::MAX),
    };
    ds.train.truncate(cap);
    let cfg = TrainConfig { model: ModelKind::TransE, dim: 16, epochs, ..Default::default() };
    let (num_parts, workers) = (4usize, 2usize);
    let (baseline, _) = train_partitioned(&ds, &cfg, num_parts, workers);
    let baseline_bytes = baseline.entities.to_bytes();

    let dir = std::env::temp_dir().join(format!("saga-e15-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut points = Vec::with_capacity(RATES.len());
    for &rate in &RATES {
        let injector = FaultInjector::new(
            FaultPlan::reliable(2015).with_site(SITE_TRAIN_BUCKET, SiteFaults::transient(rate)),
        );
        let path = dir.join(format!("rate-{}.wal", (rate * 100.0) as u32));
        let mut log = TrainCheckpointLog::open(&path).expect("open checkpoint log");
        let run = CheckpointedTrainer::new(cfg.clone(), num_parts, workers)
            .with_faults(&injector)
            .with_retry(patient())
            .with_obs(obs.child(&format!("rate{:02}", (rate * 100.0) as u32)))
            .train(&ds, &mut log)
            .expect("checkpointed training");
        let model = run.model.expect("run not killed");
        let r = &run.report;
        points.push(TrainPoint {
            rate,
            bucket_attempts: r.bucket_attempts,
            attempt_amplification: r.bucket_attempts as f64 / r.buckets_trained.max(1) as f64,
            wall_round_units: r.wall_round_units,
            wall_overhead_x: r.wall_round_units as f64 / r.rounds_completed.max(1) as f64,
            model_identical: model.entities.to_bytes() == baseline_bytes,
            quarantined: r.quarantined.len(),
        });
        std::fs::remove_file(&path).ok();
    }
    std::fs::remove_dir_all(&dir).ok();
    points
}

/// Runs E15.
pub fn run(scale: Scale) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "E15",
        "Sec. 2/4 — retry amplification of the resilient extraction and training layers",
    );
    let world = World::build(scale, 53);
    let registry = saga_core::obs::Registry::new();
    let scope = registry.scope("bench").child("e15");

    let odke = odke_curve(&world, scale, &scope.child("odke"));
    let mut t = Table::new(
        "ODKE fact recovery and retry volume vs transient fault rate (search+fetch sites)",
        &[
            "fault_rate",
            "facts_written",
            "fact_recovery",
            "retries",
            "call_volume_x",
            "quarantined",
        ],
    );
    for p in &odke {
        t.row(&[
            format!("{:.0}%", p.rate * 100.0),
            p.facts_written.to_string(),
            f3(p.fact_recovery),
            p.retries.to_string(),
            format!("{:.2}x", p.call_volume_x),
            p.quarantined.to_string(),
        ]);
    }
    result.tables.push(t);

    let train = train_curve(&world, scale, &scope.child("train"));
    let mut t = Table::new(
        "checkpointed training overhead vs transient fault rate (train-bucket site)",
        &[
            "fault_rate",
            "bucket_attempts",
            "attempt_amp",
            "wall_rounds",
            "wall_overhead",
            "model_identical",
            "quarantined",
        ],
    );
    for p in &train {
        t.row(&[
            format!("{:.0}%", p.rate * 100.0),
            p.bucket_attempts.to_string(),
            format!("{:.2}x", p.attempt_amplification),
            p.wall_round_units.to_string(),
            format!("{:.2}x", p.wall_overhead_x),
            p.model_identical.to_string(),
            p.quarantined.to_string(),
        ]);
    }
    result.tables.push(t);

    let lossless = odke.iter().all(|p| (p.fact_recovery - 1.0).abs() < 1e-9)
        && train.iter().all(|p| p.model_identical && p.quarantined == 0);
    result.notes.push(if lossless {
        "recovery is lossless across the whole curve: every fault rate reproduces the \
         failure-free facts and the bit-identical model — the cost surfaces only as retry \
         volume and wall-round overhead"
            .to_string()
    } else {
        "recovery degraded at some fault rate: see the fact_recovery / model_identical columns"
            .to_string()
    });
    result
}
