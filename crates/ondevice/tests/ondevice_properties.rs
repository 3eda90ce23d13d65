//! Property tests for the on-device stack: sync convergence, spill-sort
//! equivalence, and pause/resume losslessness under arbitrary schedules.

use saga_ondevice::{
    gossip_until_stable, sync_pair, ConstructionPipeline, Device, DeviceId, DeviceTier,
    PersonObservation, SourceKind, SpillSorter, SyncPolicy,
};
use saga_testkit::check;

fn obs(source: SourceKind, id: u64, name: &str) -> PersonObservation {
    PersonObservation {
        source,
        record_id: id,
        name: name.into(),
        phone: Some(format!("+1 555 000 {:04}", id % 10_000)),
        email: None,
        context: String::new(),
    }
}

fn source_of(i: u8) -> SourceKind {
    SourceKind::ALL[i as usize % 3]
}

/// For arbitrary device policies and op placements, gossip converges,
/// and afterwards: two devices agree on a source iff both sync it (or
/// neither received any op for it); non-synced sources never leave
/// their origin device.
#[test]
fn sync_convergence_under_arbitrary_policies() {
    check(24, 1, |rng| {
        let policies: Vec<u8> = (0..3).map(|_| rng.gen_range(0..8)).collect();
        let ops = saga_testkit::vec(rng, 1..40, |rng| {
            (rng.gen_range(0u8..3), rng.gen_range(0u8..3), rng.gen_range(0u64..50))
        });
        let mk_policy = |bits: u8| {
            let sources: Vec<SourceKind> = SourceKind::ALL
                .into_iter()
                .enumerate()
                .filter(|(i, _)| bits & (1 << i) != 0)
                .map(|(_, s)| s)
                .collect();
            SyncPolicy::only(&sources)
        };
        let mut devices: Vec<Device> = policies
            .iter()
            .enumerate()
            .map(|(i, &bits)| Device::new(DeviceId(i as u8), DeviceTier::Phone, mk_policy(bits)))
            .collect();
        for (dev, src, id) in &ops {
            let d = (*dev as usize) % devices.len();
            devices[d].ingest_local(obs(source_of(*src), *id, &format!("p{id}")));
        }
        let rounds = gossip_until_stable(&mut devices, 20);
        assert!(rounds < 20, "must converge");

        // Idempotence: one more exchange moves nothing.
        let (a, rest) = devices.split_at_mut(1);
        let r = sync_pair(&mut a[0], &mut rest[0]);
        assert_eq!(r.ops_a_to_b + r.ops_b_to_a, 0);

        // Policy containment: a device that does not sync source s holds
        // only its own ops for s.
        for d in &devices {
            for s in SourceKind::ALL {
                if !d.policy.syncs(s) {
                    for op in d.ops_for(s) {
                        assert_eq!(op.origin, d.id, "foreign op leaked into non-synced source");
                    }
                }
            }
        }
    });
}

/// SpillSorter output equals a plain in-memory sort for every input and
/// budget.
#[test]
fn spill_sort_equivalence() {
    check(24, 2, |rng| {
        let items = saga_testkit::vec(rng, 0..300, |rng| {
            (rng.gen_range(0u32..1000), rng.gen_range(0u32..1000))
        });
        let budget = rng.gen_range(1024usize..32_768);
        let dir = std::env::temp_dir()
            .join("saga-prop-spill")
            .join(format!("{}-{budget}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut sorter: SpillSorter<(u32, u32)> = SpillSorter::new(&dir, budget).unwrap();
        for it in &items {
            sorter.push(*it).unwrap();
        }
        let (got, stats) = sorter.finish().unwrap();
        let mut want = items.clone();
        want.sort();
        assert_eq!(got, want);
        assert!(stats.peak_memory_bytes <= budget + 128);
        std::fs::remove_dir_all(&dir).ok();
    });
}

/// The construction pipeline yields identical results for any step
/// granularity, any pause/resume schedule and any split of the records into
/// a first build and one or two increments: every case ends at the
/// full-rebuild fingerprint, in the state an uninterrupted run reaches.
#[test]
fn pipeline_schedule_independence() {
    check(24, 3, |rng| {
        let seed = rng.gen_range(0u64..200);
        let steps = saga_testkit::vec(rng, 1..40, |rng| rng.gen_range(1usize..60));
        let (obs, _) = saga_ondevice::generate_device_data(&saga_ondevice::DeviceDataConfig {
            seed,
            num_persons: 25,
            ..Default::default()
        });
        let mut reference = ConstructionPipeline::new(obs.clone());
        reference.run_to_completion();

        // The first build takes a random prefix; the rest comes as one or
        // two increments.
        let first = rng.gen_range(0..=obs.len());
        let mut cuts = vec![first];
        if rng.gen_bool(0.5) {
            cuts.push(rng.gen_range(first..=obs.len()));
        }
        cuts.push(obs.len());

        let mut p = ConstructionPipeline::new(obs[..first].to_vec());
        let mut step_iter = steps.iter().cycle();
        let mut hops = 0;
        for (i, &end) in cuts.iter().enumerate() {
            if i > 0 {
                p.begin_increment(obs[cuts[i - 1]..end].to_vec());
            }
            while !p.is_done() {
                p.step(*step_iter.next().unwrap());
                if hops % 3 == 0 {
                    let ckpt = p.checkpoint();
                    p = ConstructionPipeline::resume(obs[..end].to_vec(), &ckpt).unwrap();
                }
                hops += 1;
                assert!(hops < 1_000_000);
            }
        }
        assert_eq!(p.result_fingerprint(), reference.result_fingerprint());
        assert_eq!(p.observations(), &obs[..]);

        // Pausing lost and redid no work: the state is the one the same
        // batches reach uninterrupted.
        let mut straight = ConstructionPipeline::new(obs[..first].to_vec());
        straight.run_to_completion();
        for batch in cuts.windows(2) {
            straight.ingest_increment(obs[batch[0]..batch[1]].to_vec());
        }
        assert_eq!(p.checkpoint(), straight.checkpoint());
    });
}
