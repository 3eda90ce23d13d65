//! On-device private knowledge (Sec. 5 / Fig. 7): construct a personal KG
//! from contacts, messages and calendar with a pausable pipeline; resolve
//! the ambiguous "message Tim ..." utterance contextually; sync across
//! devices under per-source policies; and enrich with global knowledge via
//! the three private paths.
//!
//! ```text
//! cargo run --release -p saga-examples --example personal_assistant
//! ```

use saga_core::synth::{generate, SynthConfig};
use saga_ondevice::{
    decode_pir_block, dp_count, fuse_clusters, generate_device_data, gossip_until_stable,
    offload_compute, personal_ontology, piggyback_answer, pir_fetch, resolve_references,
    ConstructionPipeline, Device, DeviceDataConfig, DeviceId, DeviceTier, EnrichmentPath,
    GlobalKnowledge, PirDatabase, SourceKind, StaticAsset, SyncPolicy,
};

fn main() {
    // ---- personal KG construction, pausable -----------------------------
    let (obs, truth) = generate_device_data(&DeviceDataConfig::tiny(7));
    println!("device data: {} observations of {} people", obs.len(), truth.persons.len());

    let mut pipeline = ConstructionPipeline::new(obs.clone());
    let mut pauses = 0;
    while !pipeline.is_done() {
        pipeline.step(50);
        // A higher-priority task arrives: checkpoint and yield.
        let ckpt = pipeline.checkpoint();
        pipeline =
            ConstructionPipeline::resume(obs.clone(), &ckpt).expect("resume from checkpoint");
        pauses += 1;
    }
    println!(
        "construction finished across {pauses} pause/resume cycles → {} fused persons",
        pipeline.clusters().len()
    );

    let (ont, handles) = personal_ontology();
    let mut kg = saga_core::KnowledgeGraph::new(ont);
    let clusters = pipeline.clusters().to_vec();
    let fused = fuse_clusters(&mut kg, &handles, pipeline.observations(), &clusters);

    // ---- contextual reference resolution ---------------------------------
    // Find a first name shared by two fused persons (the "two Tims"); the
    // first such name in alphabetical order, so every run prints the same.
    let mut by_first: std::collections::BTreeMap<String, Vec<usize>> = Default::default();
    for (i, f) in fused.iter().enumerate() {
        if f.members.len() < 2 {
            continue;
        }
        let first = f.display_name.split(' ').next().unwrap_or("").to_lowercase();
        by_first.entry(first).or_default().push(i);
    }
    if let Some((first, idxs)) = by_first.iter().find(|(_, v)| v.len() >= 2) {
        // Pick a topic the first candidate has and the namesakes lack, so
        // context genuinely disambiguates (the paper's SIGMOD example).
        let topics = |i: usize| -> Vec<String> {
            kg.objects(fused[i].entity, handles.talks_about)
                .into_iter()
                .filter_map(|v| v.as_text().map(str::to_owned))
                .collect()
        };
        let others: std::collections::HashSet<String> =
            idxs[1..].iter().flat_map(|&i| topics(i)).collect();
        let topic = topics(idxs[0])
            .into_iter()
            .find(|t| !others.contains(t))
            .unwrap_or_else(|| topics(idxs[0]).first().cloned().unwrap_or_default());
        let utterance = format!("message {first} {topic}");
        println!("\nutterance: '{utterance}'");
        println!("candidates named '{first}':");
        for &i in idxs {
            println!("  - {}", fused[i].display_name);
        }
        let refs = resolve_references(&kg, &handles, &fused, &utterance);
        if let Some(r) = refs.iter().find(|r| &r.mention == first) {
            let (best, score) = r.ranked[0];
            println!("contextual ranking picks: {} (score {:.3})", fused[best].display_name, score);
        }
    }

    // ---- cross-device sync with per-source policies ------------------------
    let mut laptop = Device::new(DeviceId(0), DeviceTier::Laptop, SyncPolicy::all());
    let mut phone = Device::new(
        DeviceId(1),
        DeviceTier::Phone,
        SyncPolicy::only(&[SourceKind::Contacts, SourceKind::Messages]),
    );
    let watch =
        Device::new(DeviceId(2), DeviceTier::Watch, SyncPolicy::only(&[SourceKind::Contacts]));
    for o in &obs {
        match o.source {
            SourceKind::Calendar => laptop.ingest_local(o.clone()),
            _ => phone.ingest_local(o.clone()),
        }
    }
    let mut devices = vec![laptop, phone, watch];
    let rounds = gossip_until_stable(&mut devices, 10);
    println!("\nsync converged in {rounds} gossip rounds");
    println!(
        "  watch sees {} contact ops, {} message ops (messages not synced to watch)",
        devices[2].ops_for(SourceKind::Contacts).len(),
        devices[2].ops_for(SourceKind::Messages).len()
    );
    println!(
        "  calendar ops stay on the laptop: laptop={} phone={}",
        devices[0].ops_for(SourceKind::Calendar).len(),
        devices[1].ops_for(SourceKind::Calendar).len()
    );
    let builder = offload_compute(&mut devices, "contact-embedding-view", 1, |d| {
        format!("view over {} ops", d.observations().len()).into_bytes()
    });
    println!(
        "  expensive view computed by {:?}, artifact on watch: {}",
        builder.unwrap(),
        devices[2].artifact("contact-embedding-view").is_some()
    );

    // ---- global knowledge enrichment ---------------------------------------
    let server = generate(&SynthConfig::tiny(7));
    let asset = StaticAsset::build(&server.kg, 0.5);
    let mut global = GlobalKnowledge::default();
    global.load_static_asset(&asset);
    println!(
        "\nglobal enrichment path 1 (static asset): {} facts about {} popular entities ({} bytes, zero requests)",
        global.count_by_path(EnrichmentPath::StaticAsset),
        asset.entities.len(),
        asset.payload_bytes()
    );

    let team = server.synth_team_example();
    let facts = piggyback_answer(&server.kg, team);
    global.ingest_piggyback(&facts);
    println!(
        "path 2 (piggyback on 'what is the score in the {} game?'): +{} facts",
        server.kg.entity(team).name,
        facts.len()
    );

    let db_a = PirDatabase::from_asset(&asset, 4096);
    let db_b = PirDatabase::from_asset(&asset, 4096);
    // Pick an asset entity that actually has facts to retrieve.
    let target = asset
        .entities
        .iter()
        .map(|(id, _, _, _)| *id)
        .find(|&id| !asset.facts_of(id).is_empty())
        .unwrap_or(asset.entities[0].0);
    let fetch = pir_fetch(&db_a, &db_b, db_a.block_of(target).unwrap(), 55);
    let triples = decode_pir_block(&fetch.block).expect("the target's bundle fits its block");
    println!(
        "path 3 (2-server PIR for '{}'): {} facts, {} bytes transferred vs {} direct — private but expensive",
        server.kg.entity(target).name,
        triples.len(),
        fetch.bytes_transferred,
        fetch.direct_fetch_bytes
    );
    println!(
        "path 3 (DP count, ε=1.0): true person count {} → noisy {:.1}",
        server.synth_people_count(),
        dp_count(server.synth_people_count(), 1.0, 99)
    );
}

/// Small extension trait so the example reads cleanly.
trait SynthExt {
    fn synth_team_example(&self) -> saga_core::EntityId;
    fn synth_people_count(&self) -> usize;
}

impl SynthExt for saga_core::synth::SynthKg {
    fn synth_team_example(&self) -> saga_core::EntityId {
        self.teams[0]
    }
    fn synth_people_count(&self) -> usize {
        self.people.len()
    }
}
