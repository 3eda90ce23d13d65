//! Cross-device knowledge sync (paper Sec. 5, *Sync*): per-source op-logs,
//! per-source sync policies, gossip exchange with high-water-mark clocks,
//! and computation offload from weak to capable devices.

use crate::sources::{PersonObservation, SourceKind};
use std::collections::BTreeMap;

/// A device identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DeviceId(pub u8);

/// Compute capability tier (paper: "compare a laptop to a watch").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DeviceTier {
    /// Weakest tier; cannot compute views.
    Watch,
    /// Mid tier.
    Phone,
    /// Most capable tier; preferred offload target.
    Laptop,
}

impl DeviceTier {
    /// Whether this tier is allowed to run expensive computations
    /// (materializing views, large-model inference).
    pub fn can_compute_views(self) -> bool {
        self >= DeviceTier::Phone
    }
}

/// Per-device, per-source sync opt-in.
#[derive(Debug, Clone, Default)]
pub struct SyncPolicy {
    synced: std::collections::BTreeSet<SourceKind>,
}

impl SyncPolicy {
    /// Sync all sources.
    pub fn all() -> Self {
        Self { synced: SourceKind::ALL.into_iter().collect() }
    }

    /// Sync only the listed sources.
    pub fn only(sources: &[SourceKind]) -> Self {
        Self { synced: sources.iter().copied().collect() }
    }

    /// Whether `source` is synced under this policy.
    pub fn syncs(&self, source: SourceKind) -> bool {
        self.synced.contains(&source)
    }
}

/// One op in a per-source append-only log: an observation ingested on some
/// origin device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceOp {
    /// Device the op originated on.
    pub origin: DeviceId,
    /// Originating source kind.
    pub source: SourceKind,
    /// Sequence number within `(origin, source)`.
    pub seq: u64,
    /// The observed person record.
    pub observation: PersonObservation,
}

/// An artifact produced by offloaded computation (e.g. an expensive view),
/// synced by value.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewArtifact {
    /// Artifact name (stable key).
    pub name: String,
    /// Device that computed the artifact.
    pub built_by: DeviceId,
    /// Monotone corpus/artifact version.
    pub version: u64,
    /// Opaque serialized payload.
    pub payload: Vec<u8>,
}

/// A device: its sync policy, capability tier, op log and artifacts.
#[derive(Debug, Clone)]
pub struct Device {
    /// Identifier.
    pub id: DeviceId,
    /// Deployment tier.
    pub tier: DeviceTier,
    /// Per-source sync opt-in.
    pub policy: SyncPolicy,
    /// All ops this device knows, keyed for idempotence.
    log: BTreeMap<(DeviceId, SourceKind, u64), SourceOp>,
    /// Next local sequence per source.
    next_seq: BTreeMap<SourceKind, u64>,
    /// Received artifacts by name (latest version wins).
    artifacts: BTreeMap<String, ViewArtifact>,
}

impl Device {
    /// Creates a device.
    pub fn new(id: DeviceId, tier: DeviceTier, policy: SyncPolicy) -> Self {
        Self {
            id,
            tier,
            policy,
            log: BTreeMap::new(),
            next_seq: BTreeMap::new(),
            artifacts: BTreeMap::new(),
        }
    }

    /// Ingests a locally-observed record, appending to the op log.
    pub fn ingest_local(&mut self, observation: PersonObservation) {
        let source = observation.source;
        let seq = self.next_seq.entry(source).or_insert(0);
        let op = SourceOp { origin: self.id, source, seq: *seq, observation };
        self.log.insert((self.id, source, *seq), op);
        *seq += 1;
    }

    /// All observations this device can see (its personal-KG input).
    pub fn observations(&self) -> Vec<PersonObservation> {
        self.log.values().map(|op| op.observation.clone()).collect()
    }

    /// Ops of one source.
    pub fn ops_for(&self, source: SourceKind) -> Vec<&SourceOp> {
        self.log.values().filter(|op| op.source == source).collect()
    }

    /// Stable fingerprint of this device's ops for the given sources —
    /// equal fingerprints ⇔ identical synced state.
    pub fn fingerprint(&self, sources: &[SourceKind]) -> u64 {
        let mut s = String::new();
        for op in self.log.values() {
            if sources.contains(&op.source) {
                s.push_str(&format!(
                    "{:?}|{:?}|{}|{:?};",
                    op.origin, op.source, op.seq, op.observation
                ));
            }
        }
        saga_core::text::fnv1a(s.as_bytes())
    }

    /// Stores an artifact (newer versions replace older).
    pub fn store_artifact(&mut self, artifact: ViewArtifact) {
        match self.artifacts.get(&artifact.name) {
            Some(existing) if existing.version >= artifact.version => {}
            _ => {
                self.artifacts.insert(artifact.name.clone(), artifact);
            }
        }
    }

    /// Fetches an artifact by name.
    pub fn artifact(&self, name: &str) -> Option<&ViewArtifact> {
        self.artifacts.get(name)
    }
}

/// Report of one sync exchange.
#[derive(Debug, Clone, Copy, Default)]
pub struct SyncReport {
    /// Ops shipped from the first to the second device.
    pub ops_a_to_b: usize,
    /// Ops shipped from the second to the first device.
    pub ops_b_to_a: usize,
    /// Artifacts copied in either direction.
    pub artifacts_exchanged: usize,
}

/// [`sync_pair_lossy`] over [`LossyLink::perfect`]: every message arrives
/// exactly once. Idempotent and commutative.
pub fn sync_pair(a: &mut Device, b: &mut Device) -> SyncReport {
    sync_pair_lossy(a, b, &mut LossyLink::perfect())
}

/// A deterministic lossy message channel: each message sent through the
/// link is delivered 0 (dropped), 1, or 2 (duplicated) times, decided by a
/// seeded hash of the running message counter. Because the per-source op
/// log is keyed and artifact versions are monotone, [`sync_pair_lossy`]
/// stays idempotent under both loss modes — duplication is absorbed and
/// drops are healed by later gossip rounds.
#[derive(Debug, Clone)]
pub struct LossyLink {
    seed: u64,
    drop_rate: f64,
    dup_rate: f64,
    sent: u64,
    /// Messages the link has swallowed.
    pub dropped: u64,
    /// Messages the link has delivered twice.
    pub duplicated: u64,
}

impl LossyLink {
    /// A link dropping `drop_rate` and duplicating `dup_rate` of messages.
    pub fn new(seed: u64, drop_rate: f64, dup_rate: f64) -> Self {
        Self { seed, drop_rate, dup_rate, sent: 0, dropped: 0, duplicated: 0 }
    }

    /// A link that delivers everything exactly once.
    pub fn perfect() -> Self {
        Self::new(0, 0.0, 0.0)
    }

    /// How many copies of the next message arrive (0, 1 or 2).
    fn copies(&mut self) -> usize {
        let n = self.sent;
        self.sent += 1;
        if saga_core::fault::unit_hash(self.seed, &[n, 0]) < self.drop_rate {
            self.dropped += 1;
            return 0;
        }
        if saga_core::fault::unit_hash(self.seed, &[n, 1]) < self.dup_rate {
            self.duplicated += 1;
            2
        } else {
            1
        }
    }
}

/// Bidirectional sync: exchanges ops of every source that **both** devices
/// sync (a source kept private by either side never crosses) and
/// artifacts. Every message passes through `link` and may be
/// dropped or duplicated in flight. Reported counts reflect state that
/// actually changed, so duplicated deliveries and re-sends of already-known
/// ops count zero.
pub fn sync_pair_lossy(a: &mut Device, b: &mut Device, link: &mut LossyLink) -> SyncReport {
    let mut report = SyncReport::default();
    let shared: Vec<SourceKind> =
        SourceKind::ALL.into_iter().filter(|s| a.policy.syncs(*s) && b.policy.syncs(*s)).collect();

    let from_a: Vec<SourceOp> =
        a.log.values().filter(|op| shared.contains(&op.source)).cloned().collect();
    let from_b: Vec<SourceOp> =
        b.log.values().filter(|op| shared.contains(&op.source)).cloned().collect();

    for op in from_a {
        let key = (op.origin, op.source, op.seq);
        for _ in 0..link.copies() {
            if let std::collections::btree_map::Entry::Vacant(e) = b.log.entry(key) {
                e.insert(op.clone());
                report.ops_a_to_b += 1;
            }
        }
    }
    for op in from_b {
        let key = (op.origin, op.source, op.seq);
        for _ in 0..link.copies() {
            if let std::collections::btree_map::Entry::Vacant(e) = a.log.entry(key) {
                e.insert(op.clone());
                report.ops_b_to_a += 1;
            }
        }
    }

    let arts_a: Vec<ViewArtifact> = a.artifacts.values().cloned().collect();
    let arts_b: Vec<ViewArtifact> = b.artifacts.values().cloned().collect();
    for art in arts_a {
        for _ in 0..link.copies() {
            if b.artifacts.get(&art.name).is_none_or(|e| e.version < art.version) {
                b.store_artifact(art.clone());
                report.artifacts_exchanged += 1;
            }
        }
    }
    for art in arts_b {
        for _ in 0..link.copies() {
            if a.artifacts.get(&art.name).is_none_or(|e| e.version < art.version) {
                a.store_artifact(art.clone());
                report.artifacts_exchanged += 1;
            }
        }
    }
    report
}

/// Runs gossip rounds over all device pairs until no ops move; returns the
/// number of rounds needed.
pub fn gossip_until_stable(devices: &mut [Device], max_rounds: usize) -> usize {
    for round in 1..=max_rounds {
        let mut moved = 0;
        for i in 0..devices.len() {
            for j in i + 1..devices.len() {
                let (left, right) = devices.split_at_mut(j);
                let r = sync_pair(&mut left[i], &mut right[0]);
                moved += r.ops_a_to_b + r.ops_b_to_a;
            }
        }
        if moved == 0 {
            return round;
        }
    }
    max_rounds
}

/// Offload: the most capable device computes `build` and the artifact is
/// then synced to the others (paper: "offloading expensive computation to
/// more powerful devices ... and syncing the result"). Returns the builder.
pub fn offload_compute(
    devices: &mut [Device],
    name: &str,
    version: u64,
    build: impl Fn(&Device) -> Vec<u8>,
) -> Option<DeviceId> {
    let builder_idx = devices
        .iter()
        .enumerate()
        .filter(|(_, d)| d.tier.can_compute_views())
        .max_by_key(|(_, d)| d.tier)?
        .0;
    let payload = build(&devices[builder_idx]);
    let artifact =
        ViewArtifact { name: name.to_owned(), built_by: devices[builder_idx].id, version, payload };
    for d in devices.iter_mut() {
        d.store_artifact(artifact.clone());
    }
    Some(artifact.built_by)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether every device pair agrees on the sources both of them sync.
    fn gossip_converged(devices: &[Device]) -> bool {
        for i in 0..devices.len() {
            for j in i + 1..devices.len() {
                let shared: Vec<SourceKind> = SourceKind::ALL
                    .into_iter()
                    .filter(|s| devices[i].policy.syncs(*s) && devices[j].policy.syncs(*s))
                    .collect();
                if devices[i].fingerprint(&shared) != devices[j].fingerprint(&shared) {
                    return false;
                }
            }
        }
        true
    }

    /// Gossip over a lossy link until every pair agrees on its shared sources
    /// (a "no ops moved" round is not proof of convergence when the link can
    /// drop an entire exchange). Returns the rounds used; `max_rounds` means
    /// the gossip may not have converged.
    fn gossip_until_stable_lossy(
        devices: &mut [Device],
        link: &mut LossyLink,
        max_rounds: usize,
    ) -> usize {
        for round in 1..=max_rounds {
            for i in 0..devices.len() {
                for j in i + 1..devices.len() {
                    let (left, right) = devices.split_at_mut(j);
                    sync_pair_lossy(&mut left[i], &mut right[0], link);
                }
            }
            if gossip_converged(devices) {
                return round;
            }
        }
        max_rounds
    }

    fn obs(source: SourceKind, id: u64, name: &str) -> PersonObservation {
        PersonObservation {
            source,
            record_id: id,
            name: name.into(),
            phone: None,
            email: Some(format!("{name}@example.com")),
            context: String::new(),
        }
    }

    fn three_devices() -> Vec<Device> {
        // Laptop syncs everything; phone syncs everything; watch syncs only
        // contacts. The phone holds the calendar (not synced by watch).
        let mut laptop = Device::new(DeviceId(0), DeviceTier::Laptop, SyncPolicy::all());
        let mut phone = Device::new(
            DeviceId(1),
            DeviceTier::Phone,
            SyncPolicy::only(&[SourceKind::Contacts, SourceKind::Messages]),
        );
        let mut watch =
            Device::new(DeviceId(2), DeviceTier::Watch, SyncPolicy::only(&[SourceKind::Contacts]));
        laptop.ingest_local(obs(SourceKind::Contacts, 0, "tim"));
        laptop.ingest_local(obs(SourceKind::Calendar, 1, "tim"));
        phone.ingest_local(obs(SourceKind::Messages, 0, "ana"));
        phone.ingest_local(obs(SourceKind::Contacts, 1, "ana"));
        watch.ingest_local(obs(SourceKind::Contacts, 0, "leo"));
        vec![laptop, phone, watch]
    }

    #[test]
    fn synced_sources_converge_private_sources_do_not_leak() {
        let mut devices = three_devices();
        let rounds = gossip_until_stable(&mut devices, 10);
        assert!(rounds <= 3, "converged in {rounds} rounds");

        // Contacts converge everywhere.
        let c = [SourceKind::Contacts];
        assert_eq!(devices[0].fingerprint(&c), devices[1].fingerprint(&c));
        assert_eq!(devices[1].fingerprint(&c), devices[2].fingerprint(&c));
        assert_eq!(devices[2].ops_for(SourceKind::Contacts).len(), 3);

        // Messages converge between laptop and phone only.
        let m = [SourceKind::Messages];
        assert_eq!(devices[0].fingerprint(&m), devices[1].fingerprint(&m));
        assert!(devices[2].ops_for(SourceKind::Messages).is_empty(), "watch never syncs messages");

        // Calendar stays on the laptop (phone doesn't sync calendar).
        assert_eq!(devices[0].ops_for(SourceKind::Calendar).len(), 1);
        assert!(devices[1].ops_for(SourceKind::Calendar).is_empty());
        assert!(devices[2].ops_for(SourceKind::Calendar).is_empty());
    }

    #[test]
    fn sync_is_idempotent() {
        let mut devices = three_devices();
        gossip_until_stable(&mut devices, 10);
        let before: Vec<u64> = devices.iter().map(|d| d.fingerprint(&SourceKind::ALL)).collect();
        let (a, b) = devices.split_at_mut(1);
        let r = sync_pair(&mut a[0], &mut b[0]);
        assert_eq!(r.ops_a_to_b + r.ops_b_to_a, 0, "no-op after convergence");
        let after: Vec<u64> = devices.iter().map(|d| d.fingerprint(&SourceKind::ALL)).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn local_ingest_after_sync_propagates() {
        let mut devices = three_devices();
        gossip_until_stable(&mut devices, 10);
        devices[2].ingest_local(obs(SourceKind::Contacts, 5, "zoe"));
        gossip_until_stable(&mut devices, 10);
        for d in &devices {
            assert!(
                d.ops_for(SourceKind::Contacts).iter().any(|o| o.observation.name == "zoe"),
                "device {:?} missing new contact",
                d.id
            );
        }
    }

    #[test]
    fn offload_picks_most_capable_and_ships_artifact() {
        let mut devices = three_devices();
        let builder = offload_compute(&mut devices, "popular-contacts-view", 1, |d| {
            format!("built-from-{}-ops", d.observations().len()).into_bytes()
        })
        .unwrap();
        assert_eq!(builder, DeviceId(0), "laptop is most capable");
        for d in &devices {
            let art = d.artifact("popular-contacts-view").unwrap();
            assert_eq!(art.built_by, DeviceId(0));
            assert!(!art.payload.is_empty());
        }
        // The watch could not have built it.
        assert!(!DeviceTier::Watch.can_compute_views());
    }

    #[test]
    fn duplication_is_absorbed_and_matches_lossless_gossip() {
        let mut lossless = three_devices();
        gossip_until_stable(&mut lossless, 10);

        let mut lossy = three_devices();
        let mut link = LossyLink::new(5, 0.0, 0.6);
        let rounds = gossip_until_stable_lossy(&mut lossy, &mut link, 20);
        assert!(rounds < 20, "duplication alone must not block convergence");
        assert!(link.duplicated > 0, "the link did duplicate messages");

        for (a, b) in lossless.iter().zip(&lossy) {
            assert_eq!(
                a.fingerprint(&SourceKind::ALL),
                b.fingerprint(&SourceKind::ALL),
                "duplicated deliveries must be absorbed by the keyed log"
            );
        }
    }

    #[test]
    fn gossip_converges_under_message_drops_across_seeds() {
        let mut lossless = three_devices();
        gossip_until_stable(&mut lossless, 10);
        let want: Vec<u64> = lossless.iter().map(|d| d.fingerprint(&SourceKind::ALL)).collect();

        for seed in 0..20 {
            let mut devices = three_devices();
            let mut link = LossyLink::new(seed, 0.3, 0.2);
            let rounds = gossip_until_stable_lossy(&mut devices, &mut link, 50);
            assert!(rounds < 50, "seed {seed}: gossip must converge despite 30% drops");
            let got: Vec<u64> = devices.iter().map(|d| d.fingerprint(&SourceKind::ALL)).collect();
            assert_eq!(got, want, "seed {seed}: lossy gossip must reach the lossless state");
        }
    }

    #[test]
    fn lossy_gossip_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut devices = three_devices();
            let mut link = LossyLink::new(seed, 0.25, 0.25);
            let rounds = gossip_until_stable_lossy(&mut devices, &mut link, 50);
            (rounds, link.dropped, link.duplicated)
        };
        assert_eq!(run(11), run(11), "same seed, same loss pattern");
        assert_ne!(run(11), run(12), "different seeds, different loss patterns");
    }

    #[test]
    fn artifact_versions_monotonic() {
        let mut d = Device::new(DeviceId(9), DeviceTier::Phone, SyncPolicy::all());
        d.store_artifact(ViewArtifact {
            name: "v".into(),
            built_by: DeviceId(0),
            version: 2,
            payload: vec![2],
        });
        d.store_artifact(ViewArtifact {
            name: "v".into(),
            built_by: DeviceId(0),
            version: 1,
            payload: vec![1],
        });
        assert_eq!(d.artifact("v").unwrap().payload, vec![2], "older version ignored");
    }
}
