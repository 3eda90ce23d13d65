//! The annotation pass (paper Fig. 4), written once: annotate a list of
//! documents with `workers` shards, isolating failures per document and
//! degrading the linker tier when its backing cache is down.
//!
//! The fault-free entry points of [`crate::pipeline`] are this pass without
//! a [`FaultInjector`]: the feature-cache probe and the per-document fault
//! check are skipped, and the retry loop — which then only meets a caught
//! annotator panic, an error it does not retry — runs on a local
//! [`VirtualClock`]. A full pass lists every page; an incremental pass lists
//! the changed pages and runs on the caller's thread (`workers == 1`).
//!
//! Failure isolation is per document: a page whose annotation fails
//! permanently (or panics the annotator) is *quarantined* — recorded in
//! the pass report and re-queued for the next incremental pass — instead
//! of killing the worker shard. Fault keys mix the pass number, so a
//! document that drew a permanent fault in pass `N` gets a fresh draw in
//! pass `N + 1` and typically recovers.
//!
//! Tier degradation: a T2 (contextual) deployment depends on the entity
//! feature cache. When the [`SITE_EMBED_CACHE`] probe fails even after
//! retries, the pass degrades to T1 (popularity) rather than failing —
//! the paper's price/performance ladder doubling as an availability
//! ladder — and the report records the fallback.

use crate::linker::{LinkedMention, Tier};
use crate::pipeline::{AnnotatedCorpus, AnnotatedDoc, PipelineStats};
use crate::service::{AnnotateScratch, AnnotationService};
use saga_core::fault::{FaultInjector, RetryPolicy, VirtualClock};
use saga_core::obs::{Histogram, Scope};
use saga_core::{DocId, Result, SagaError};
use saga_webcorpus::{Corpus, WebPage};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Fault-injection site name for per-document annotation compute.
pub const SITE_ANNOTATE: &str = "annotate";
/// Fault-injection site name for the entity feature cache backing T2.
pub const SITE_EMBED_CACHE: &str = "embedding-cache";

/// Resilience outcome of one annotation pass.
#[derive(Debug, Clone)]
pub struct ResilienceReport {
    /// Linker tier the pass actually ran at.
    pub tier_used: Tier,
    /// Whether `tier_used` is a degradation of the configured tier.
    pub degraded: bool,
    /// Documents whose annotation failed permanently this pass (sorted).
    /// They keep any previous annotation and should be fed back into the
    /// next incremental pass.
    pub quarantined: Vec<DocId>,
    /// Transient retries spent.
    pub retries: u64,
}

impl ResilienceReport {
    /// Record this pass's outcome through an obs scope: counters `retries`,
    /// `quarantined` and `degraded_passes` (all deterministic for a fixed
    /// fault seed, regardless of worker count).
    pub fn record_to(&self, scope: &Scope) {
        scope.counter("retries").add(self.retries);
        scope.counter("quarantined").add(self.quarantined.len() as u64);
        if self.degraded {
            scope.counter("degraded_passes").inc();
        }
    }
}

/// Runs annotation passes, over a fallible substrate when given one.
pub struct ResilientAnnotator<'a> {
    service: &'a AnnotationService,
    faults: Option<&'a FaultInjector>,
    /// Backoff clock when no injector brings one.
    clock: VirtualClock,
    retry: RetryPolicy,
    pass: u64,
    obs: Option<Scope>,
}

/// What one worker of a pass produced.
#[derive(Default)]
struct Shard {
    ok: Vec<AnnotatedDoc>,
    quarantined: Vec<DocId>,
    retries: u64,
}

/// Per-document histograms: `mentions_per_doc`, `retries_per_doc`.
type DocHistograms = (Arc<Histogram>, Arc<Histogram>);

impl<'a> ResilientAnnotator<'a> {
    /// An annotator over a reliable substrate, with the default retry
    /// policy.
    pub fn new(service: &'a AnnotationService) -> Self {
        Self {
            service,
            faults: None,
            clock: VirtualClock::new(),
            retry: RetryPolicy::default(),
            pass: 0,
            obs: None,
        }
    }

    /// Routes the feature-cache probe ([`SITE_EMBED_CACHE`]) and every
    /// document's annotation ([`SITE_ANNOTATE`]) through `injector`, whose
    /// clock then takes the backoff.
    pub fn with_faults(mut self, injector: &'a FaultInjector) -> Self {
        self.faults = Some(injector);
        self
    }

    /// Records pass metrics into `scope`: a whole-pass `pass_ticks` span,
    /// `mentions_per_doc` and `retries_per_doc` histograms (values, not
    /// clock deltas — deterministic under any worker count), the
    /// `docs_processed` / `mentions_found` counters and the
    /// [`ResilienceReport`] counters.
    pub fn with_obs(mut self, scope: Scope) -> Self {
        self.obs = Some(scope);
        self
    }

    /// Overrides the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Sets the incremental pass number, which is mixed into fault keys:
    /// a document quarantined in pass `N` gets an independent fault draw
    /// when re-annotated in pass `N + 1`.
    pub fn with_pass(mut self, pass: u64) -> Self {
        self.pass = pass;
        self
    }

    /// The clock retries back off on: the injector's, else the local one.
    fn clock(&self) -> &VirtualClock {
        self.faults.map_or(&self.clock, FaultInjector::clock)
    }

    /// Probes the feature cache and picks the tier for this pass.
    fn resolve_tier(&self, retries: &mut u64) -> (Tier, bool) {
        let configured = self.service.config().tier;
        let Some(injector) = self.faults.filter(|_| configured == Tier::T2Contextual) else {
            return (configured, false);
        };
        let mut last_attempt = 0;
        let probe = self.retry.run(injector.clock(), self.pass, |attempt| {
            last_attempt = attempt;
            injector.check(SITE_EMBED_CACHE, self.pass, attempt)
        });
        *retries += u64::from(last_attempt);
        match probe {
            Ok(()) => (Tier::T2Contextual, false),
            Err(_) => (Tier::T1Popularity, true),
        }
    }

    /// Annotates one page under retry with the worker's `scratch`, catching
    /// annotator panics so a pathological document cannot take down its
    /// worker shard (a panic may leave the scratch half written; every
    /// annotation overwrites what it reads).
    fn annotate_page(
        &self,
        tier: Tier,
        page: &WebPage,
        retries: &mut u64,
        scratch: &mut AnnotateScratch<'a>,
    ) -> Result<Vec<LinkedMention>> {
        let key = page.id.raw() ^ self.pass.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut last_attempt = 0;
        let result = self.retry.run(self.clock(), key, |attempt| {
            last_attempt = attempt;
            if let Some(injector) = self.faults {
                injector.check(SITE_ANNOTATE, key, attempt)?;
            }
            catch_unwind(AssertUnwindSafe(|| self.service.annotate_page_into(page, tier, scratch)))
                .map_err(|_| {
                    SagaError::Corrupt(format!("annotator panicked on doc {}", page.id.raw()))
                })
        });
        *retries += u64::from(last_attempt);
        result
    }

    /// Annotates `docs` of `corpus` with `workers` shards — on the caller's
    /// thread when `workers <= 1` — writing successful annotations into
    /// `out`. Per-document failures are isolated to the document:
    /// quarantined ids land in the report, not in a panic.
    pub fn annotate(
        &self,
        corpus: &Corpus,
        docs: &[DocId],
        workers: usize,
        out: &mut AnnotatedCorpus,
    ) -> (PipelineStats, ResilienceReport) {
        let start = Instant::now();
        let pass_span = self.obs.as_ref().map(|s| s.span("pass_ticks"));
        let per_doc = self
            .obs
            .as_ref()
            .map(|s| (s.histogram("mentions_per_doc"), s.histogram("retries_per_doc")));
        let mut retries = 0u64;
        let (tier, degraded) = self.resolve_tier(&mut retries);

        let next = AtomicUsize::new(0);
        let drain = || self.drain(tier, corpus, docs, &next, per_doc.as_ref());
        let shards = if workers <= 1 {
            vec![drain()]
        } else {
            // Per-document panics are caught inside `annotate_page`, so a
            // worker only ever exits cleanly.
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..workers).map(|_| s.spawn(drain)).collect();
                handles.into_iter().map(|h| h.join().expect("annotation worker panicked")).collect()
            })
        };

        let mut quarantined = Vec::new();
        let (mut docs_processed, mut mentions_found) = (0, 0);
        for shard in shards {
            retries += shard.retries;
            quarantined.extend(shard.quarantined);
            for ad in shard.ok {
                docs_processed += 1;
                mentions_found += ad.mentions.len();
                out.docs.insert(ad.doc, ad);
            }
        }
        quarantined.sort_unstable();

        let stats = PipelineStats { docs_processed, mentions_found, elapsed: start.elapsed() };
        let report = ResilienceReport { tier_used: tier, degraded, quarantined, retries };
        if let Some(scope) = &self.obs {
            scope.counter("docs_processed").add(docs_processed as u64);
            scope.counter("mentions_found").add(mentions_found as u64);
            report.record_to(scope);
        }
        drop(pass_span);
        (stats, report)
    }

    /// One worker's share of a pass: annotates the documents it claims off
    /// `next` until none are left, all with one [`AnnotateScratch`].
    fn drain(
        &self,
        tier: Tier,
        corpus: &Corpus,
        docs: &[DocId],
        next: &AtomicUsize,
        per_doc: Option<&DocHistograms>,
    ) -> Shard {
        let mut shard = Shard::default();
        let mut scratch = AnnotateScratch::new();
        while let Some(&doc) = docs.get(next.fetch_add(1, Ordering::Relaxed)) {
            let page = corpus.page(doc);
            let retries_before = shard.retries;
            let result = self.annotate_page(tier, page, &mut shard.retries, &mut scratch);
            if let Some((mentions_per_doc, retries_per_doc)) = per_doc {
                if let Ok(mentions) = &result {
                    mentions_per_doc.record(mentions.len() as u64);
                }
                retries_per_doc.record(shard.retries - retries_before);
            }
            match result {
                Ok(mentions) => {
                    shard.ok.push(AnnotatedDoc { doc, version: page.last_modified, mentions })
                }
                Err(_) => shard.quarantined.push(doc),
            }
        }
        shard
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::linker::LinkerConfig;
    use crate::reference::LinkBits;
    use saga_core::fault::{FaultPlan, SiteFaults};
    use saga_core::synth::{generate, SynthConfig};
    use saga_webcorpus::{generate_corpus, CorpusConfig};

    fn setup() -> (saga_core::synth::SynthKg, Corpus, AnnotationService) {
        let s = generate(&SynthConfig::tiny(171));
        let (c, _) = generate_corpus(&s, &[], &CorpusConfig::tiny(11));
        let svc = AnnotationService::build(&s.kg, LinkerConfig::tier(Tier::T2Contextual));
        (s, c, svc)
    }

    fn all_docs(c: &Corpus) -> Vec<DocId> {
        c.pages.iter().map(|p| p.id).collect()
    }

    /// A service at `tier` whose delta automaton knows entities the main
    /// one does not — a longer name over an existing one, a homonym of the
    /// player with a new alias — and whose T2 deployment scores graph
    /// coherence; and a corpus with pages that mention them.
    fn delta_world(tier: Tier) -> (Corpus, AnnotationService, [saga_core::EntityId; 2]) {
        use saga_core::EntityBuilder;
        use saga_embeddings::{train, ModelKind, TrainConfig, TrainingSet};
        use saga_graph::{GraphView, ViewDef};
        let mut s = generate(&SynthConfig::tiny(171));
        let (mut c, _) = generate_corpus(&s, &[], &CorpusConfig::tiny(11));
        let mut svc = AnnotationService::build(&s.kg, LinkerConfig::tier(tier));
        if tier == Tier::T2Contextual {
            let view = GraphView::materialize(&s.kg, ViewDef::embedding_training(3));
            let ds = TrainingSet::from_edges(&view.edges(), 0.05, 0.05, 5);
            let cfg =
                TrainConfig { model: ModelKind::TransE, dim: 8, epochs: 2, ..Default::default() };
            svc = svc.with_graph_embeddings(train(&ds, &cfg));
        }
        let player = s.kg.entity(s.scenario.mj_player).name.clone();
        let institute = s.kg.add_entity(
            EntityBuilder::new(format!("{player} Institute"), s.types.organization)
                .description("a research institute")
                .popularity(0.4),
        );
        let homonym = s.kg.add_entity(
            EntityBuilder::new(player.clone(), s.types.person)
                .alias("Zorblatt Quuxington")
                .description("a novelist")
                .popularity(0.9),
        );
        svc.add_entity(&s.kg, institute);
        svc.add_entity(&s.kg, homonym);
        let mut page = c.pages[0].clone();
        for (i, text) in [
            format!("The {player} Institute opened; {player} and Zorblatt Quuxington spoke."),
            format!("Zorblatt Quuxington, the novelist {player}, visited the {player} Institute."),
            format!("{player} basketball championship Chicago Bulls {player} Institute"),
        ]
        .into_iter()
        .enumerate()
        {
            page.id = DocId(c.pages.len() as u64);
            page.title = format!("Delta page {i}");
            page.paragraphs = vec![text];
            c.pages.push(page.clone());
        }
        (c, svc, [institute, homonym])
    }

    /// The pass — one scratch per worker, reused page after page — links
    /// every page exactly as the reference per-call path does (spans, forms,
    /// entities, score bits) at every tier, with a delta automaton and
    /// graph coherence, at 1, 2 and 8 workers; and a degraded T1 pass of a
    /// T2 deployment equals the reference at T1.
    #[test]
    fn scratch_pass_matches_the_reference_per_call_path() {
        for tier in [Tier::T0Lexical, Tier::T1Popularity, Tier::T2Contextual] {
            let (c, svc, delta_ids) = delta_world(tier);
            let want: Vec<_> = c
                .pages
                .iter()
                .map(|p| crate::reference::link_bits(&svc.reference_annotate(&p.full_text(), tier)))
                .collect();
            let linked: Vec<_> = want.iter().flatten().map(|l| l.3).collect();
            assert!(delta_ids.iter().all(|id| linked.contains(id)), "{tier:?}: delta links");
            let ambiguous = |l: &LinkBits| svc.aliases().candidates(&l.2).len() > 1;
            assert!(want.iter().flatten().any(ambiguous), "{tier:?}: ambiguous links");
            for workers in [1, 2, 8] {
                let (out, _) = crate::pipeline::annotate_corpus(&svc, &c, workers);
                for (page, want) in c.pages.iter().zip(&want) {
                    let got = crate::reference::link_bits(&out.docs[&page.id].mentions);
                    assert_eq!(&got, want, "{tier:?} at {workers} workers, {:?}", page.id);
                }
            }
        }
        let (c, svc, _) = delta_world(Tier::T2Contextual);
        let injector = FaultInjector::new(FaultPlan::reliable(7).with_site(
            SITE_EMBED_CACHE,
            SiteFaults { permanent_rate: 1.0, ..SiteFaults::transient(0.0) },
        ));
        let mut out = AnnotatedCorpus::default();
        let annotator = ResilientAnnotator::new(&svc).with_faults(&injector);
        let (_, report) = annotator.annotate(&c, &all_docs(&c), 2, &mut out);
        assert_eq!(report.tier_used, Tier::T1Popularity);
        for page in &c.pages {
            assert_eq!(
                crate::reference::link_bits(&out.docs[&page.id].mentions),
                crate::reference::link_bits(
                    &svc.reference_annotate(&page.full_text(), Tier::T1Popularity)
                ),
            );
        }
    }

    #[test]
    fn reliable_pass_matches_the_plain_pipeline() {
        let (_, c, svc) = setup();
        let injector = FaultInjector::new(FaultPlan::reliable(1));
        let annotator = ResilientAnnotator::new(&svc).with_faults(&injector);
        let mut out = AnnotatedCorpus::default();
        let (stats, report) = annotator.annotate(&c, &all_docs(&c), 4, &mut out);
        let (plain, plain_stats) = crate::pipeline::annotate_corpus(&svc, &c, 4);

        assert_eq!(stats.docs_processed, plain_stats.docs_processed);
        assert_eq!(stats.mentions_found, plain_stats.mentions_found);
        assert_eq!(out.docs.len(), plain.docs.len());
        assert!(report.quarantined.is_empty());
        assert_eq!(report.tier_used, Tier::T2Contextual);
        assert!(!report.degraded);
        assert_eq!(report.retries, 0);
    }

    #[test]
    fn quarantined_docs_recover_on_the_next_pass() {
        let (_, c, svc) = setup();
        // Heavy permanent faults: some documents must fail this pass.
        let injector = FaultInjector::new(FaultPlan::reliable(42).with_site(
            SITE_ANNOTATE,
            SiteFaults { permanent_rate: 0.25, ..SiteFaults::transient(0.1) },
        ));
        let annotator = ResilientAnnotator::new(&svc).with_faults(&injector);
        let mut out = AnnotatedCorpus::default();
        let (stats, report) = annotator.annotate(&c, &all_docs(&c), 4, &mut out);
        assert!(!report.quarantined.is_empty(), "25% permanent faults must quarantine docs");
        assert_eq!(stats.docs_processed + report.quarantined.len(), c.len());
        assert_eq!(out.docs.len(), stats.docs_processed);

        // Re-queue the quarantine list on subsequent passes: the fresh
        // fault draws let (at least most of) them through.
        let mut pending = report.quarantined;
        for pass in 1..6 {
            if pending.is_empty() {
                break;
            }
            let annotator = ResilientAnnotator::new(&svc).with_faults(&injector).with_pass(pass);
            let (_, rep) = annotator.annotate(&c, &pending, 1, &mut out);
            assert!(rep.quarantined.len() < pending.len(), "each pass must make progress");
            pending = rep.quarantined;
        }
        assert!(pending.is_empty(), "quarantined docs recover across passes");
        assert_eq!(out.docs.len(), c.len());
    }

    #[test]
    fn embedding_cache_outage_degrades_to_t1() {
        let (_, c, svc) = setup();
        let injector = FaultInjector::new(FaultPlan::reliable(7).with_site(
            SITE_EMBED_CACHE,
            SiteFaults { permanent_rate: 1.0, ..SiteFaults::transient(0.0) },
        ));
        let annotator = ResilientAnnotator::new(&svc).with_faults(&injector);
        let mut out = AnnotatedCorpus::default();
        let (stats, report) = annotator.annotate(&c, &all_docs(&c), 2, &mut out);
        assert_eq!(report.tier_used, Tier::T1Popularity);
        assert!(report.degraded);
        assert!(report.quarantined.is_empty());
        assert_eq!(stats.docs_processed, c.len());
        // The degraded pass still annotates — T1 keeps the lights on.
        assert!(stats.mentions_found > 0);
    }

    #[test]
    fn faulty_pass_is_deterministic_across_worker_counts() {
        let (_, c, svc) = setup();
        let run = |workers: usize| {
            let injector = FaultInjector::new(FaultPlan::reliable(9).with_site(
                SITE_ANNOTATE,
                SiteFaults { permanent_rate: 0.1, ..SiteFaults::transient(0.3) },
            ));
            let annotator = ResilientAnnotator::new(&svc).with_faults(&injector);
            let mut out = AnnotatedCorpus::default();
            let (stats, report) = annotator.annotate(&c, &all_docs(&c), workers, &mut out);
            (stats.docs_processed, stats.mentions_found, report.quarantined, report.retries)
        };
        assert_eq!(run(1), run(4), "fault decisions must not depend on scheduling");
    }

    #[test]
    fn obs_snapshot_bit_identical_across_worker_counts() {
        use saga_core::obs::Registry;
        let (_, c, svc) = setup();
        let run = |workers: usize| {
            let injector = FaultInjector::new(FaultPlan::reliable(9).with_site(
                SITE_ANNOTATE,
                SiteFaults { permanent_rate: 0.1, ..SiteFaults::transient(0.3) },
            ));
            // The registry shares the injector's virtual clock, so even the
            // whole-pass span (total charged latency) is deterministic.
            let registry = Registry::with_clock(Arc::new(injector.clock().clone()));
            let annotator = ResilientAnnotator::new(&svc)
                .with_faults(&injector)
                .with_obs(registry.scope("annotation").child(SITE_ANNOTATE));
            let mut out = AnnotatedCorpus::default();
            annotator.annotate(&c, &all_docs(&c), workers, &mut out);
            registry.snapshot()
        };
        let s1 = run(1);
        assert_eq!(s1, run(2), "snapshots must match between 1 and 2 workers");
        assert_eq!(s1, run(8), "snapshots must match between 1 and 8 workers");
        assert!(s1.counter("annotation/annotate/retries") > 0, "workload must exercise retries");

        // No injector: the fault-free pass `annotate_corpus_obs` runs.
        let plain = |workers: usize| {
            let registry = Registry::with_clock(Arc::new(VirtualClock::new()));
            crate::pipeline::annotate_corpus_obs(&svc, &c, workers, &registry.scope("annotation"));
            registry.snapshot()
        };
        let p1 = plain(1);
        assert_eq!(p1, plain(2), "fault-free snapshots must match between 1 and 2 workers");
        assert_eq!(p1, plain(8), "fault-free snapshots must match between 1 and 8 workers");
        let names: Vec<&str> = p1.metrics.keys().map(String::as_str).collect();
        assert_eq!(
            names,
            [
                "annotation/docs_processed",
                "annotation/mentions_found",
                "annotation/mentions_per_doc",
                "annotation/pass_ticks",
                "annotation/quarantined",
                "annotation/retries",
                "annotation/retries_per_doc",
            ]
        );
        assert_eq!(p1.counter("annotation/docs_processed"), c.len() as u64);
        assert_eq!(p1.counter("annotation/retries"), 0);
        assert_eq!(p1.counter("annotation/quarantined"), 0);
    }
}
