//! E6 — Fig. 7: personal KG construction — entity resolution quality, the
//! "three Tims" consolidation, pause/resume equivalence, throughput.

use crate::report::{f3, ExperimentResult, Table};
use crate::world::Scale;
use saga_ondevice::{
    fuse_clusters, generate_device_data, personal_ontology, resolve_references,
    ConstructionPipeline, DeviceDataConfig,
};
use std::time::Instant;

fn device_config(scale: Scale) -> DeviceDataConfig {
    match scale {
        Scale::Quick => DeviceDataConfig::tiny(61),
        Scale::Full => {
            DeviceDataConfig { seed: 61, num_persons: 600, ..DeviceDataConfig::default() }
        }
    }
}

/// Runs E6.
pub fn run(scale: Scale) -> ExperimentResult {
    let mut result = ExperimentResult::new("E6", "Fig. 7 — personal KG construction");
    let (obs, truth) = generate_device_data(&device_config(scale));

    // ---- full pipeline ------------------------------------------------------
    let start = Instant::now();
    let mut pipeline = ConstructionPipeline::new(obs.clone());
    pipeline.run_to_completion();
    let elapsed = start.elapsed();
    let clusters = pipeline.clusters().to_vec();

    // Pairwise quality vs ground truth.
    let mut owner_of = vec![0usize; obs.len()];
    for (i, o) in obs.iter().enumerate() {
        owner_of[i] = truth.owner[&(o.source, o.record_id)];
    }
    let mut cluster_of = vec![usize::MAX; obs.len()];
    for (ci, c) in clusters.iter().enumerate() {
        for &i in c {
            cluster_of[i] = ci;
        }
    }
    let (mut tp, mut fp, mut fn_) = (0u64, 0u64, 0u64);
    for i in 0..obs.len() {
        for j in i + 1..obs.len() {
            match (cluster_of[i] == cluster_of[j], owner_of[i] == owner_of[j]) {
                (true, true) => tp += 1,
                (true, false) => fp += 1,
                (false, true) => fn_ += 1,
                _ => {}
            }
        }
    }
    let precision = tp as f64 / (tp + fp).max(1) as f64;
    let recall = tp as f64 / (tp + fn_).max(1) as f64;
    let f1 = 2.0 * precision * recall / (precision + recall).max(1e-9);

    let mut t = Table::new("entity resolution quality (pairwise)", &["metric", "value"]);
    t.row(&["observations".into(), obs.len().to_string()]);
    t.row(&["true persons".into(), truth.persons.len().to_string()]);
    t.row(&["clusters produced".into(), clusters.len().to_string()]);
    t.row(&["pairwise precision".into(), f3(precision)]);
    t.row(&["pairwise recall".into(), f3(recall)]);
    t.row(&["pairwise F1".into(), f3(f1)]);
    t.row(&[
        "throughput (obs/s)".into(),
        format!("{:.0}", obs.len() as f64 / elapsed.as_secs_f64().max(1e-9)),
    ]);
    result.tables.push(t);

    // ---- pause/resume equivalence -------------------------------------------
    let reference_fp = pipeline.result_fingerprint();
    let mut paused = ConstructionPipeline::new(obs.clone());
    let mut resumes = 0;
    // Pause often enough to prove the property, without re-serializing the
    // full state tens of thousands of times at large scale.
    let batch = (obs.len() / 8).max(11);
    while !paused.is_done() {
        paused.step(batch);
        let ckpt = paused.checkpoint();
        paused = ConstructionPipeline::resume(obs.clone(), &ckpt).expect("resume");
        resumes += 1;
    }
    let mut pr = Table::new(
        "pause/resume (Sec. 5: 'paused and resumed at any point without losing state')",
        &["run", "result_fingerprint", "pause_points"],
    );
    pr.row(&["uninterrupted".into(), format!("{reference_fp:x}"), "0".into()]);
    pr.row(&[
        "paused+resumed".into(),
        format!("{:x}", paused.result_fingerprint()),
        resumes.to_string(),
    ]);
    result.tables.push(pr);

    // ---- the 'three Tims' consolidation + contextual resolution -------------
    let (ont, handles) = personal_ontology();
    let mut kg = saga_core::KnowledgeGraph::new(ont);
    let fused = fuse_clusters(&mut kg, &handles, pipeline.observations(), &clusters);
    // Find any person observed in all three sources.
    let tri_source = fused.iter().find(|f| {
        let kinds: std::collections::HashSet<_> = f.members.iter().map(|(k, _)| *k).collect();
        kinds.len() == 3
    });
    let mut tims = Table::new(
        "multi-source consolidation (the Fig. 7 'Tim' example)",
        &["fused person", "sources", "observations"],
    );
    if let Some(f) = tri_source {
        tims.row(&[
            f.display_name.clone(),
            "contacts+messages+calendar".into(),
            f.members.len().to_string(),
        ]);
    }
    // Contextual reference resolution: find a person who shares a first
    // name with someone else but has a topic the namesakes lack — the
    // paper's "coworker that has conversations about SIGMOD" setup.
    let topics_of = |entity: saga_core::EntityId| -> Vec<String> {
        kg.objects(entity, handles.talks_about)
            .into_iter()
            .filter_map(|v| v.as_text().map(str::to_owned))
            .collect()
    };
    let first_of = |f: &saga_ondevice::FusedPerson| {
        f.display_name.split(' ').next().unwrap_or("").to_lowercase()
    };
    let mut demo: Option<(String, String, saga_core::EntityId)> = None;
    'outer: for f in fused.iter().filter(|f| f.members.len() >= 3) {
        let namesakes: Vec<_> =
            fused.iter().filter(|g| g.entity != f.entity && first_of(g) == first_of(f)).collect();
        if namesakes.is_empty() {
            continue;
        }
        let other_topics: std::collections::HashSet<String> =
            namesakes.iter().flat_map(|g| topics_of(g.entity)).collect();
        for topic in topics_of(f.entity) {
            if !other_topics.contains(&topic) {
                demo = Some((first_of(f), topic, f.entity));
                break 'outer;
            }
        }
    }
    if let Some((first, topic, target)) = demo {
        let utterance = format!("message {first} {topic}");
        let refs = resolve_references(&kg, &handles, &fused, &utterance);
        let resolved_correctly =
            refs.iter().any(|r| r.ranked.first().map(|(i, _)| fused[*i].entity) == Some(target));
        tims.row(&[
            format!("utterance: '{utterance}'"),
            "context-ranked among namesakes".into(),
            if resolved_correctly {
                "resolved to correct person".into()
            } else {
                "MISRESOLVED".into()
            },
        ]);
    }
    result.tables.push(tims);

    // ---- continuous construction: one increment ---------------------------
    // A build over every record but the last, then the last one as an
    // increment: it scores only the pairs that touch the new record and
    // ends with the full rebuild's clusters. The full build's pair count is
    // that of one increment from empty.
    let (last, earlier) = obs.split_last().expect("device data has records");
    let mut grown = ConstructionPipeline::new(earlier.to_vec());
    grown.run_to_completion();
    let increment = grown.ingest_increment(vec![last.clone()]);
    let mut from_empty = ConstructionPipeline::new(Vec::new());
    from_empty.run_to_completion();
    let full_pairs = from_empty.ingest_increment(obs.clone()).pairs_scored;
    let mut inc = Table::new(
        "continuous construction (Sec. 5): the last record as an increment",
        &["pairs scored (increment / full build)", "pairs matched", "fingerprint = full rebuild"],
    );
    inc.row(&[
        format!("{} / {full_pairs}", increment.pairs_scored),
        increment.pairs_matched.to_string(),
        if grown.result_fingerprint() == reference_fp { "yes" } else { "no" }.into(),
    ]);
    result.tables.push(inc);

    result.notes.push(
        "expected shape: F1 near 1.0 (strong identifiers dominate); identical fingerprints \
         for paused and uninterrupted runs"
            .into(),
    );
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e6_quick_shapes_hold() {
        let r = run(Scale::Quick);
        let rows = &r.tables[0].rows;
        let f1: f64 = rows[5][1].parse().unwrap();
        assert!(f1 > 0.9, "F1 {f1}");
        // Pause/resume fingerprints equal.
        let pr = &r.tables[1].rows;
        assert_eq!(pr[0][1], pr[1][1], "fingerprints differ");
        let pauses: usize = pr[1][2].parse().unwrap();
        assert!(pauses > 3);
        // One increment ends where the full rebuild does, scoring fewer pairs.
        let inc = &r.tables[3].rows[0];
        assert_eq!(inc[2], "yes", "the increment's fingerprint differs from the full rebuild's");
        let (scored, full) = inc[0].split_once(" / ").unwrap();
        assert!(scored.parse::<usize>().unwrap() < full.parse().unwrap());
    }
}
