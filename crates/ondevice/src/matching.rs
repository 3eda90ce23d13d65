//! Entity resolution: normalization, blocking, pairwise matching, and
//! union-find clustering (the Fig. 7 "three Tims → one Person" task).

use crate::sources::PersonObservation;
use crate::spill::{SpillSorter, SpillStats};
use saga_core::persist::codec::{BinCodec, Reader};
use saga_core::text::{jaccard, normalize_phrase};
use saga_core::Result;
use std::collections::HashMap;
use std::path::Path;

/// Normalizes a phone number to digits only (drops a leading country `1`
/// for 11-digit North-American numbers).
pub fn normalize_phone(phone: &str) -> String {
    let digits: String = phone.chars().filter(|c| c.is_ascii_digit()).collect();
    if digits.len() == 11 && digits.starts_with('1') {
        digits[1..].to_owned()
    } else {
        digits
    }
}

/// Normalizes an email address (lowercase, trimmed).
pub fn normalize_email(email: &str) -> String {
    email.trim().to_lowercase()
}

/// A blocking key: observations sharing a key become candidate pairs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BlockKey {
    /// Normalized phone number.
    Phone(String),
    /// Normalized email address.
    Email(String),
    /// First name token (catches short-form message senders).
    NameToken(String),
}

impl BinCodec for BlockKey {
    fn enc(&self, out: &mut Vec<u8>) {
        let (tag, s) = match self {
            BlockKey::Phone(s) => (0u8, s),
            BlockKey::Email(s) => (1, s),
            BlockKey::NameToken(s) => (2, s),
        };
        out.push(tag);
        s.enc(out);
    }
    fn dec(rd: &mut Reader<'_>) -> saga_core::Result<Self> {
        let tag = rd.u8()?;
        let s = String::dec(rd)?;
        match tag {
            0 => Ok(BlockKey::Phone(s)),
            1 => Ok(BlockKey::Email(s)),
            2 => Ok(BlockKey::NameToken(s)),
            b => Err(saga_core::SagaError::Corrupt(format!("invalid block key tag {b}"))),
        }
    }
}

/// Blocks larger than this emit no pairs: a hub key (a very common first
/// name) would otherwise make blocking quadratic.
pub const MAX_BLOCK_SIZE: usize = 256;

/// Minimum [`MatchScore::score`] at which two observations merge.
pub const MATCH_THRESHOLD: f32 = 0.9;

/// Emits the blocking keys of one observation.
pub(crate) fn block_keys(o: &PersonObservation) -> Vec<BlockKey> {
    let mut keys = Vec::new();
    if let Some(p) = &o.phone {
        let n = normalize_phone(p);
        if !n.is_empty() {
            keys.push(BlockKey::Phone(n));
        }
    }
    if let Some(e) = &o.email {
        let n = normalize_email(e);
        if !n.is_empty() {
            keys.push(BlockKey::Email(n));
        }
    }
    if let Some(first) = normalize_phrase(&o.name).split(' ').next() {
        if !first.is_empty() {
            keys.push(BlockKey::NameToken(first.to_owned()));
        }
    }
    keys
}

/// Cuts the key group that starts at `keyed[start]` of a sorted
/// `(key, index)` list into candidate pairs, pushes them onto `pairs` and
/// returns where the next group starts. Only pairs that touch an index
/// `>= base` are emitted (`base` 0 emits them all), and a group larger than
/// [`MAX_BLOCK_SIZE`] emits none.
pub(crate) fn cut_group(
    keyed: &[(BlockKey, usize)],
    start: usize,
    base: usize,
    pairs: &mut Vec<(usize, usize)>,
) -> usize {
    let key = &keyed[start].0;
    let end = start + keyed[start..].iter().take_while(|(k, _)| k == key).count();
    let group = &keyed[start..end];
    // Indices ascend within a group, so its last one is its largest.
    if group.len() <= MAX_BLOCK_SIZE && group[group.len() - 1].1 >= base {
        for (a, &(_, x)) in group.iter().enumerate() {
            for &(_, y) in &group[a + 1..] {
                if x != y && y >= base {
                    pairs.push((x, y));
                }
            }
        }
    }
    end
}

/// Pairwise-blocking output: candidate pairs of observation indices.
#[derive(Debug, Clone, Default)]
pub struct BlockingResult {
    /// Candidate observation-index pairs.
    pub pairs: Vec<(usize, usize)>,
    /// Spill-sorter statistics of the blocking run.
    pub spill_stats: SpillStats,
}

/// Memory-bounded blocking: sorts `(key, index)` pairs with a spill sorter
/// and cuts each key group into candidate pairs ([`MAX_BLOCK_SIZE`] caps a
/// group). The construction pipeline cuts its in-memory key list the same
/// way.
pub fn block_observations(
    observations: &[PersonObservation],
    spill_dir: &Path,
    memory_budget: usize,
) -> Result<BlockingResult> {
    let mut sorter: SpillSorter<(BlockKey, usize)> = SpillSorter::new(spill_dir, memory_budget)?;
    for (i, o) in observations.iter().enumerate() {
        for k in block_keys(o) {
            sorter.push((k, i))?;
        }
    }
    let (sorted, spill_stats) = sorter.finish()?;

    let mut pairs = Vec::new();
    let mut i = 0;
    while i < sorted.len() {
        i = cut_group(&sorted, i, 0, &mut pairs);
    }
    pairs.sort_unstable();
    pairs.dedup();
    Ok(BlockingResult { pairs, spill_stats })
}

/// Match decision features and score.
#[derive(Debug, Clone, Copy)]
pub struct MatchScore {
    /// Exact normalized-phone agreement.
    pub phone_match: bool,
    /// Exact normalized-email agreement.
    pub email_match: bool,
    /// Token-Jaccard name similarity.
    pub name_similarity: f32,
    /// Score; higher is better.
    pub score: f32,
}

/// Scores an observation pair. Strong identifiers (phone/email) dominate;
/// name similarity alone is not sufficient (two different Tims must NOT
/// merge on first name).
pub fn score_pair(a: &PersonObservation, b: &PersonObservation) -> MatchScore {
    let phone_match = match (&a.phone, &b.phone) {
        (Some(x), Some(y)) => normalize_phone(x) == normalize_phone(y),
        _ => false,
    };
    let email_match = match (&a.email, &b.email) {
        (Some(x), Some(y)) => normalize_email(x) == normalize_email(y),
        _ => false,
    };
    let name_similarity = jaccard(&a.name, &b.name);
    // First-name containment (message "Tim" vs contact "Tim Archer").
    let a_first = normalize_phrase(&a.name);
    let b_first = normalize_phrase(&b.name);
    let name_compatible = a_first.split(' ').next() == b_first.split(' ').next();

    let mut score = 0.0f32;
    if phone_match {
        score += 1.0;
    }
    if email_match {
        score += 1.0;
    }
    if name_compatible {
        score += 0.2 * (0.5 + name_similarity / 2.0);
    }
    MatchScore { phone_match, email_match, name_similarity, score }
}

/// Union-find over observation indices.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    /// Creates a new instance.
    pub fn new(n: usize) -> Self {
        Self { parent: (0..n).collect() }
    }

    /// Finds the root of an element (path compression).
    pub fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let root = self.find(self.parent[x]);
            self.parent[x] = root;
        }
        self.parent[x]
    }

    /// Merges the sets containing `a` and `b`.
    pub fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra.max(rb)] = ra.min(rb);
        }
    }

    /// Clusters as lists of member indices, sorted for determinism.
    pub fn clusters(&mut self) -> Vec<Vec<usize>> {
        let n = self.parent.len();
        let mut groups: HashMap<usize, Vec<usize>> = HashMap::new();
        for x in 0..n {
            let r = self.find(x);
            groups.entry(r).or_default().push(x);
        }
        let mut out: Vec<Vec<usize>> = groups.into_values().collect();
        out.sort_by_key(|g| g[0]);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::ConstructionPipeline;
    use crate::sources::{generate_device_data, DeviceDataConfig, SourceKind};

    fn resolve(obs: &[PersonObservation]) -> Vec<Vec<usize>> {
        let mut p = ConstructionPipeline::new(obs.to_vec());
        p.run_to_completion();
        p.clusters().to_vec()
    }

    fn spill_dir(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir()
            .join("saga-match-tests")
            .join(format!("{}-{name}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn phone_and_email_normalization() {
        assert_eq!(normalize_phone("+1 555 123 4567"), "5551234567");
        assert_eq!(normalize_phone("555-123-4567"), "5551234567");
        assert_eq!(normalize_phone("+44 20 7946 0958"), "442079460958");
        assert_eq!(normalize_email(" Tim.Archer@Example.COM "), "tim.archer@example.com");
    }

    #[test]
    fn the_three_tims_consolidate() {
        // Fig. 7: contact + message sender + calendar invitee, linked via
        // phone (contact↔message) and email (contact↔calendar).
        let obs = vec![
            PersonObservation {
                source: SourceKind::Contacts,
                record_id: 0,
                name: "Tim Archer".into(),
                phone: Some("+1 555 111 2222".into()),
                email: Some("tim@example.com".into()),
                context: String::new(),
            },
            PersonObservation {
                source: SourceKind::Messages,
                record_id: 1,
                name: "Tim".into(),
                phone: Some("5551112222".into()),
                email: None,
                context: "about the sigmod draft".into(),
            },
            PersonObservation {
                source: SourceKind::Calendar,
                record_id: 2,
                name: "Tim Archer".into(),
                phone: None,
                email: Some("TIM@example.com".into()),
                context: "meeting: sigmod draft".into(),
            },
            // A different Tim: same first name, different identifiers.
            PersonObservation {
                source: SourceKind::Contacts,
                record_id: 3,
                name: "Tim Novak".into(),
                phone: Some("+1 555 999 8888".into()),
                email: Some("tnovak@example.com".into()),
                context: String::new(),
            },
        ];
        let clusters = resolve(&obs);
        let non_singleton: Vec<_> = clusters.iter().filter(|c| c.len() > 1).collect();
        assert_eq!(non_singleton.len(), 1, "exactly one merged Tim: {clusters:?}");
        assert_eq!(non_singleton[0], &vec![0, 1, 2]);
        // Tim Novak stays separate.
        assert!(clusters.iter().any(|c| c == &vec![3]));
    }

    #[test]
    fn resolution_matches_ground_truth_well() {
        let (obs, truth) = generate_device_data(&DeviceDataConfig::tiny(21));
        let clusters = resolve(&obs);
        // Pairwise precision/recall vs ground truth.
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
                let same_truth = owner_of[i] == owner_of[j];
                let same_pred = cluster_of[i] == cluster_of[j];
                match (same_pred, same_truth) {
                    (true, true) => tp += 1,
                    (true, false) => fp += 1,
                    (false, true) => fn_ += 1,
                    _ => {}
                }
            }
        }
        let precision = tp as f64 / (tp + fp).max(1) as f64;
        let recall = tp as f64 / (tp + fn_).max(1) as f64;
        assert!(precision > 0.95, "precision {precision}");
        assert!(recall > 0.9, "recall {recall}");
    }

    #[test]
    fn blocking_respects_memory_budget() {
        let (obs, _) = generate_device_data(&DeviceDataConfig::tiny(22));
        let budget = 8 * 1024;
        let r = block_observations(&obs, &spill_dir("budget"), budget).unwrap();
        assert!(r.spill_stats.peak_memory_bytes <= budget + 256);
        assert!(r.spill_stats.runs_spilled > 0);
        assert!(!r.pairs.is_empty());
    }

    #[test]
    fn union_find_transitivity() {
        let mut uf = UnionFind::new(5);
        uf.union(0, 1);
        uf.union(1, 2);
        assert_eq!(uf.find(0), uf.find(2));
        assert_ne!(uf.find(0), uf.find(3));
        let clusters = uf.clusters();
        assert_eq!(clusters.len(), 3);
        assert_eq!(clusters[0], vec![0, 1, 2]);
    }
}
