//! What an interval leaves on disk, as counts that repeat exactly: each
//! retraining interval of a chained low-churn run writes **one** training
//! checkpoint frame (a delta retrain is made durable where it is
//! acknowledged, not per round), and the workdir keeps only the newest
//! `delta-train-N.wal`. CI can hold these where it cannot hold a clock.

use saga_core::obs::Registry;
use saga_core::synth::{generate, SynthConfig};
use saga_embeddings::{ModelKind, TrainConfig};
use saga_odke::{FactTarget, OdkeConfig, TargetReason};
use saga_pipeline::{grow_batch, grow_incremental, GrowthConfig};
use saga_webcorpus::{apply_churn, apply_fact_churn, generate_corpus, ChurnConfig, CorpusConfig};

fn train_logs(workdir: &std::path::Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(workdir)
        .expect("workdir")
        .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("delta-train-") && n.ends_with(".wal"))
        .collect();
    names.sort();
    names
}

#[test]
fn trickle_intervals_write_one_frame_each_and_keep_one_log() {
    let s = generate(&SynthConfig::tiny(231));
    let (mut corpus, truth) = generate_corpus(&s, &[], &CorpusConfig::tiny(17));
    let mut subjects: Vec<u64> = truth
        .rendered_facts
        .iter()
        .filter(|(_, _, p, _)| *p == s.preds.lives_in)
        .map(|(_, e, _, _)| e.raw())
        .collect();
    subjects.sort_unstable();
    subjects.dedup();
    let cfg = GrowthConfig {
        odke: OdkeConfig { docs_per_query: 50, ..OdkeConfig::default() },
        train: TrainConfig {
            model: ModelKind::TransE,
            dim: 8,
            epochs: 2,
            negatives: 2,
            seed: 11,
            ..TrainConfig::default()
        },
        targets: subjects
            .into_iter()
            .take(25)
            .map(|raw| FactTarget {
                entity: saga_core::EntityId(raw),
                predicate: s.preds.lives_in,
                reason: TargetReason::CoverageGap,
                importance: 1.0,
            })
            .collect(),
        ..GrowthConfig::default()
    };
    let workdir =
        std::env::temp_dir().join("saga-pipeline-durability").join(std::process::id().to_string());
    let reg = Registry::new();
    let (mut state, _) = grow_batch(&s.kg, &corpus, &cfg, 2, &workdir, &reg).expect("bootstrap");
    assert_eq!(train_logs(&workdir), Vec::<String>::new(), "a full train keeps no delta log");

    let frames = |reg: &Registry| reg.snapshot().counter("delta/train/checkpoints_written");
    for interval in 1..=3u64 {
        apply_churn(
            &mut corpus,
            &ChurnConfig { edit_fraction: 0.01, new_pages: 2, seed: 900 + interval },
        );
        apply_fact_churn(&mut corpus, &s, &truth, 2, 0x5eed ^ interval);
        let before = frames(&reg);
        let report = grow_incremental(&mut state, &corpus, &cfg, 2, &reg).expect("interval");
        assert!(!report.lapsed);
        assert!(report.partitions_retrained > 0, "interval {interval} must retrain to be a gate");
        assert!(report.buckets_trained > 2, "several rounds: per-round frames would show");
        assert_eq!(frames(&reg) - before, 1, "interval {interval}: one frame per delta retrain");
        assert_eq!(train_logs(&workdir), vec![format!("delta-train-{interval}.wal")]);
    }
}
