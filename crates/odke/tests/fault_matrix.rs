//! Fault-matrix tests for the resilient ODKE runner: bit-identical reports
//! under a seeded fault plan, full fact recovery under heavy transient
//! failure, and checkpoint/resume equivalence with a killed run — in memory,
//! through the journal, and through a journal torn mid-append.

use saga_annotation::{AnnotationService, LinkerConfig, Tier};
use saga_core::fault::{BreakerConfig, FaultInjector, FaultPlan, RetryPolicy, SiteFaults};
use saga_core::synth::{generate, SynthConfig, SynthKg};
use saga_core::KnowledgeGraph;
use saga_odke::{
    run_odke, CheckpointLog, FactTarget, OdkeConfig, OdkeReport, ResilientOdke, RunCheckpoint,
    TargetReason, TargetStatus,
};
use saga_webcorpus::{
    generate_corpus, Corpus, CorpusConfig, FaultySource, ReliableSource, SearchEngine, SITE_FETCH,
    SITE_SEARCH,
};

fn setup() -> (SynthKg, Corpus, AnnotationService, SearchEngine, Vec<FactTarget>) {
    let s = generate(&SynthConfig::tiny(231));
    let (c, _) = generate_corpus(&s, &[], &CorpusConfig::tiny(17));
    let svc = AnnotationService::build(&s.kg, LinkerConfig::tier(Tier::T2Contextual));
    let search = SearchEngine::build(&c);
    let targets: Vec<FactTarget> = s.people[..12]
        .iter()
        .map(|&e| FactTarget {
            entity: e,
            predicate: s.preds.date_of_birth,
            reason: TargetReason::CoverageGap,
            importance: 1.0,
        })
        .collect();
    (s, c, svc, search, targets)
}

/// A patient retry policy: ~30% transient rates clear well inside eight
/// attempts, and a high breaker threshold keeps runs breaker-free so
/// checkpointed and uninterrupted executions stay comparable.
fn patient() -> RetryPolicy {
    RetryPolicy { max_attempts: 8, ..RetryPolicy::default() }
}

fn flaky_plan(seed: u64) -> FaultPlan {
    FaultPlan::reliable(seed)
        .with_site(SITE_SEARCH, SiteFaults::transient(0.3))
        .with_site(SITE_FETCH, SiteFaults::transient(0.3))
}

fn run_flaky(
    seed: u64,
    kg: &mut KnowledgeGraph,
    svc: &AnnotationService,
    search: &SearchEngine,
    corpus: &Corpus,
    targets: &[FactTarget],
) -> OdkeReport {
    let injector = FaultInjector::new(flaky_plan(seed));
    let source = FaultySource::new(ReliableSource::new(search, corpus), &injector);
    let runner = ResilientOdke::new(&source, OdkeConfig::default())
        .with_retry(patient())
        .with_breakers(BreakerConfig { failure_threshold: 1_000, cooldown_ms: 1 });
    let mut checkpoint = RunCheckpoint::default();
    runner.run(kg, svc, targets, &mut checkpoint, None).expect("no log I/O to fail")
}

#[test]
fn same_seed_produces_bit_identical_reports() {
    let (s, c, svc, search, targets) = setup();

    let mut kg1 = s.kg.clone();
    let r1 = run_flaky(77, &mut kg1, &svc, &search, &c, &targets);
    let mut kg2 = s.kg.clone();
    let r2 = run_flaky(77, &mut kg2, &svc, &search, &c, &targets);
    assert!(r1.retries > 0, "30% transient rates must force retries");
    assert_eq!(format!("{r1:?}"), format!("{r2:?}"), "same seed, same report");

    let mut kg3 = s.kg.clone();
    let r3 = run_flaky(78, &mut kg3, &svc, &search, &c, &targets);
    assert_ne!(
        (r1.retries, r1.quarantined.len()),
        (r3.retries, r3.quarantined.len()),
        "a different seed must draw a different fault pattern"
    );
}

#[test]
fn transient_failures_recover_the_failure_free_facts() {
    let (s, c, svc, search, targets) = setup();

    // Failure-free baseline on the classic runner.
    let mut kg_clean = s.kg.clone();
    let clean = run_odke(&mut kg_clean, &svc, &search, &c, &targets, &OdkeConfig::default());

    let mut kg_flaky = s.kg.clone();
    let flaky = run_flaky(77, &mut kg_flaky, &svc, &search, &c, &targets);

    assert_eq!(flaky.facts_written, clean.facts_written, "retries must recover every fact");
    assert!(flaky.quarantined.is_empty());
    for (t, (of, oc)) in targets.iter().zip(flaky.outcomes.iter().zip(&clean.outcomes)) {
        assert_eq!(of.status, TargetStatus::Ok, "all transients must clear");
        assert_eq!(of.winner.is_some(), oc.winner.is_some());
        assert_eq!(
            kg_flaky.objects(t.entity, t.predicate),
            kg_clean.objects(t.entity, t.predicate),
            "flaky and clean runs must agree on the KG"
        );
    }
    assert_eq!(kg_flaky.num_triples(), kg_clean.num_triples());
}

#[test]
fn killed_run_resumes_to_the_uninterrupted_report() {
    let (s, c, svc, search, targets) = setup();

    // Uninterrupted flaky run.
    let mut kg1 = s.kg.clone();
    let full = run_flaky(77, &mut kg1, &svc, &search, &c, &targets);

    // Same run killed after 5 targets, then resumed from the checkpoint.
    let injector = FaultInjector::new(flaky_plan(77));
    let source = FaultySource::new(ReliableSource::new(&search, &c), &injector);
    let breakers = BreakerConfig { failure_threshold: 1_000, cooldown_ms: 1 };
    let mut kg2 = s.kg.clone();
    let mut checkpoint = RunCheckpoint::default();

    let partial_runner = ResilientOdke::new(&source, OdkeConfig::default())
        .with_retry(patient())
        .with_breakers(breakers)
        .with_max_targets(5);
    let partial =
        partial_runner.run(&mut kg2, &svc, &targets, &mut checkpoint, None).expect("no log I/O");
    assert_eq!(checkpoint.done.len(), 5, "the run was killed after 5 targets");
    assert_eq!(partial.outcomes.len(), 5);

    let resume_runner = ResilientOdke::new(&source, OdkeConfig::default())
        .with_retry(patient())
        .with_breakers(breakers);
    let resumed =
        resume_runner.run(&mut kg2, &svc, &targets, &mut checkpoint, None).expect("no log I/O");

    assert_eq!(
        format!("{resumed:?}"),
        format!("{full:?}"),
        "resume must reconstruct the uninterrupted report bit-for-bit"
    );
    for t in &targets {
        assert_eq!(kg2.objects(t.entity, t.predicate), kg1.objects(t.entity, t.predicate));
    }
    assert_eq!(kg2.num_triples(), kg1.num_triples());
}

#[test]
fn wal_checkpoint_survives_a_kill_and_replays() {
    let (s, c, svc, search, targets) = setup();
    let dir = std::env::temp_dir().join("saga-odke-fault-matrix");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join(format!("{}-resume.wal", std::process::id()));
    let _ = std::fs::remove_file(&path);

    let injector = FaultInjector::new(flaky_plan(77));
    let source = FaultySource::new(ReliableSource::new(&search, &c), &injector);
    let breakers = BreakerConfig { failure_threshold: 1_000, cooldown_ms: 1 };

    // First process: killed after 4 targets. Dropping the log mid-run
    // stands in for the process dying; the WAL has synced every entry.
    let mut kg = s.kg.clone();
    {
        let (mut log, mut checkpoint) = CheckpointLog::open(&path).expect("fresh WAL");
        assert_eq!(checkpoint.done.len(), 0);
        let runner = ResilientOdke::new(&source, OdkeConfig::default())
            .with_retry(patient())
            .with_breakers(breakers)
            .with_max_targets(4);
        runner.run(&mut kg, &svc, &targets, &mut checkpoint, Some(&mut log)).expect("log I/O ok");
    }

    // Second process: replay the WAL, resume only the incomplete targets.
    let (mut log, mut checkpoint) = CheckpointLog::open(&path).expect("replayable WAL");
    assert_eq!(checkpoint.done.len(), 4, "replay recovers the finished targets");
    let runner = ResilientOdke::new(&source, OdkeConfig::default())
        .with_retry(patient())
        .with_breakers(breakers);
    let resumed =
        runner.run(&mut kg, &svc, &targets, &mut checkpoint, Some(&mut log)).expect("log I/O ok");
    assert_eq!(resumed.outcomes.len(), targets.len());

    // The resumed report matches an uninterrupted in-memory run.
    let mut kg_ref = s.kg.clone();
    let full = run_flaky(77, &mut kg_ref, &svc, &search, &c, &targets);
    assert_eq!(format!("{resumed:?}"), format!("{full:?}"));

    let _ = std::fs::remove_file(&path);
}

#[test]
fn torn_journal_tail_drops_only_the_unfinished_entry() {
    let (s, c, svc, search, targets) = setup();
    let dir = std::env::temp_dir().join("saga-odke-fault-matrix");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join(format!("{}-torn.wal", std::process::id()));
    let _ = std::fs::remove_file(&path);

    let injector = FaultInjector::new(flaky_plan(77));
    let source = FaultySource::new(ReliableSource::new(&search, &c), &injector);
    let breakers = BreakerConfig { failure_threshold: 1_000, cooldown_ms: 1 };

    // First process: five targets journaled, then killed while the fifth
    // entry was being appended — the file ends inside its last frame.
    let mut kg = s.kg.clone();
    {
        let (mut log, mut checkpoint) = CheckpointLog::open(&path).expect("fresh WAL");
        let runner = ResilientOdke::new(&source, OdkeConfig::default())
            .with_retry(patient())
            .with_breakers(breakers)
            .with_max_targets(5);
        runner.run(&mut kg, &svc, &targets, &mut checkpoint, Some(&mut log)).expect("log I/O ok");
    }
    let len = std::fs::metadata(&path).expect("journal exists").len();
    let file = std::fs::OpenOptions::new().write(true).open(&path).expect("open journal");
    file.set_len(len - 3).expect("tear the last frame");
    drop(file);

    // Second process: the torn entry is gone, the four before it replay.
    let (mut log, mut checkpoint) = CheckpointLog::open(&path).expect("a torn tail is recoverable");
    assert_eq!(checkpoint.done.len(), 4, "only the unfinished entry is dropped");
    let runner = ResilientOdke::new(&source, OdkeConfig::default())
        .with_retry(patient())
        .with_breakers(breakers);
    let resumed =
        runner.run(&mut kg, &svc, &targets, &mut checkpoint, Some(&mut log)).expect("log I/O ok");

    let mut kg_ref = s.kg.clone();
    let full = run_flaky(77, &mut kg_ref, &svc, &search, &c, &targets);
    assert_eq!(format!("{resumed:?}"), format!("{full:?}"), "resume reproduces the full run");
    for t in &targets {
        assert_eq!(kg.objects(t.entity, t.predicate), kg_ref.objects(t.entity, t.predicate));
    }

    let _ = std::fs::remove_file(&path);
}

#[test]
fn permanent_search_outage_quarantines_instead_of_aborting() {
    let (s, c, svc, search, targets) = setup();
    let injector =
        FaultInjector::new(FaultPlan::reliable(3).with_site(
            SITE_SEARCH,
            SiteFaults { permanent_rate: 1.0, ..SiteFaults::transient(0.0) },
        ));
    let source = FaultySource::new(ReliableSource::new(&search, &c), &injector);
    let runner = ResilientOdke::new(&source, OdkeConfig::default()).with_retry(patient());
    let mut kg = s.kg.clone();
    let mut checkpoint = RunCheckpoint::default();
    let report = runner.run(&mut kg, &svc, &targets, &mut checkpoint, None).expect("no log I/O");

    assert_eq!(report.quarantined.len(), targets.len(), "every target skipped, none aborted");
    assert_eq!(report.facts_written, 0);
    for o in &report.outcomes {
        assert!(matches!(o.status, TargetStatus::Skipped { .. }), "status: {:?}", o.status);
        assert!(o.winner.is_none());
    }
}
