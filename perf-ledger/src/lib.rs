//! `perf-ledger`: the repo's benchmark of the serve and grow paths.
//!
//! One process runs one workload, checks its answers, and reports the
//! metrics `BENCHMARK.json` names. See `README.md` for what each number
//! means and why the run is shaped the way it is.

pub mod consts;
pub mod grow;
pub mod serve;
pub mod spans;
pub mod stats;
pub mod sys;

use grow::{GrowPlan, GrowRun};
use serve::{ServeKind, ServePlan, ServeTrace};
use stats::{Metric, Phase};
use std::path::Path;

/// Every allocation in the process is counted, whichever crate makes it.
#[global_allocator]
static GLOBAL: sys::CountingAlloc = sys::CountingAlloc;

/// The four workloads, by their `BENCHMARK.json` names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeLookup,
    ServeSearch,
    GrowTrickle,
    GrowSurge,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::ServeLookup, Workload::ServeSearch, Workload::GrowTrickle, Workload::GrowSurge];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeLookup => "serve_lookup",
            Workload::ServeSearch => "serve_search",
            Workload::GrowTrickle => "grow_trickle",
            Workload::GrowSurge => "grow_surge",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The plan the command runs for this workload.
    pub fn ledger_plan(self) -> Plan {
        use consts::*;
        match self {
            Workload::ServeLookup => Plan::Serve(ServePlan::ledger(ServeKind::Lookup)),
            Workload::ServeSearch => Plan::Serve(ServePlan::ledger(ServeKind::Search)),
            Workload::GrowTrickle => Plan::Grow(GrowPlan::ledger(TRICKLE_INTERVALS, TRICKLE_CHURN)),
            Workload::GrowSurge => Plan::Grow(GrowPlan::ledger(SURGE_INTERVALS, SURGE_CHURN)),
        }
    }
}

/// What sizes a run.
#[derive(Debug, Clone)]
pub enum Plan {
    Serve(ServePlan),
    Grow(GrowPlan),
}

/// Name and unit of every per-layer metric, in `BENCHMARK.json` order. A
/// traced run prints all of them; a layer that is not on the workload's
/// path did no work there and reads 0.
pub const PER_LAYER: [(&str, &str); 62] = [
    // serve, per request
    ("client.encode_us", "us"),
    ("transport.request_us", "us"),
    ("netserver.residence_us", "us"),
    ("transport.response_us", "us"),
    ("client.decode_us", "us"),
    ("serve.span_sum_ratio", "ratio"),
    ("netserver.requests", "count"),
    ("netserver.shed", "count"),
    ("netserver.expired", "count"),
    ("client.attempts_per_call", "count"),
    ("client.retries", "count"),
    ("wire.request_bytes", "B"),
    ("wire.response_bytes", "B"),
    // load side, every workload
    ("loadgen.op_p99_us", "us"),
    ("loadgen.op_p50_all_us", "us"),
    ("loadgen.ops_per_s", "1/s"),
    ("loadgen.steal_ticks", "count"),
    ("loadgen.lag_us_p99", "us"),
    ("loadgen.within_limit_share", "ratio"),
    ("serve.max_rate_ok_per_s", "1/s"),
    // serve, engine probe
    ("shard.queue_wait_us", "us"),
    ("shard.batch_size_mean", "count"),
    ("shard.exec_us_per_batch", "us"),
    ("shard.exec_us_per_item", "us"),
    // serve, direct calls
    ("wire.request_encode_ns", "ns"),
    ("wire.request_decode_ns", "ns"),
    ("wire.response_encode_ns", "ns"),
    ("wire.response_decode_ns", "ns"),
    ("graph.lookup_ns", "ns"),
    ("ann.flat_search_us", "us"),
    ("ann.flat_search_batch8_us", "us"),
    ("kernels.flops_per_query", "count"),
    ("kernels.bytes_scanned_per_query", "B"),
    // grow, staged mirror
    ("webcorpus.reindex_us", "us"),
    ("annotation.delta_us", "us"),
    ("annotation.link_sync_us", "us"),
    ("pipeline.graph_clone_us", "us"),
    ("odke.delta_us", "us"),
    ("pipeline.fact_diff_us", "us"),
    ("store.commit_us", "us"),
    ("store.pull_delta_us", "us"),
    ("graph.training_view_us", "us"),
    ("embeddings.partitioning_us", "us"),
    ("embeddings.retrain_us", "us"),
    ("ann.upsert_us", "us"),
    ("pipeline.publish_us", "us"),
    ("pipeline.stage_sum_ratio", "ratio"),
    // grow, counts
    ("pipeline.pages_reprocessed", "count"),
    ("pipeline.entities_dirtied", "count"),
    ("pipeline.targets_reextracted", "count"),
    ("pipeline.facts_changed", "count"),
    ("pipeline.partitions_retrained", "count"),
    ("pipeline.buckets_trained", "count"),
    ("pipeline.ann_upserts", "count"),
    ("pipeline.work_ratio_vs_batch", "ratio"),
    ("persist.flushes_per_op", "count"),
    ("persist.file_bytes_per_fact", "B"),
    // grow, set-up
    ("pipeline.bootstrap_annotate_us", "us"),
    ("pipeline.bootstrap_odke_us", "us"),
    ("store.create_us", "us"),
    ("embeddings.train_full_us", "us"),
    // both
    ("trace.overhead_share", "ratio"),
];

/// The per-layer list with `values` filled in and 0 everywhere else.
fn per_layer(values: &[(&str, f64)]) -> Vec<Metric> {
    for (name, _) in values {
        assert!(PER_LAYER.iter().any(|(n, _)| n == name), "unlisted per-layer metric {name}");
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = values.iter().find(|(n, _)| *n == name).map_or(0.0, |&(_, v)| v);
            Metric::new(name, unit, value)
        })
        .collect()
}

/// What one run produced.
pub struct RunOutput {
    pub attempted: u64,
    pub failed: u64,
    /// The gated six (`--trace 0`) or the per-layer list (`--trace 1`).
    pub metrics: Vec<Metric>,
    /// Ungated numbers for the human reader, printed above the result line.
    pub notes: Vec<String>,
    /// The traced run's spans, for the caller to write out.
    pub spans: spans::Spans,
}

impl RunOutput {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

fn load_side(phase: &Phase, steal_ticks: u64) -> Vec<(&'static str, f64)> {
    vec![
        ("loadgen.op_p99_us", phase.op_p99_us()),
        ("loadgen.op_p50_all_us", phase.op_p50_all_us()),
        ("loadgen.ops_per_s", phase.ops_per_s()),
        ("loadgen.steal_ticks", steal_ticks as f64),
    ]
}

fn phase_note(label: &str, p: &Phase) -> String {
    format!(
        "{label}: {} ops in {} windows, {} set-ups; op p50 quiet {:.1} us, all-window {:.1} us, \
         p99 {:.1} us; {:.1} ops/s; cpu {:.2} us/op; {:.2} allocs/op, {:.3} KiB/op; {:.2} flushes/op",
        p.latencies.count(),
        p.windows.len(),
        p.setup_s.len(),
        p.op_p50_us(),
        p.op_p50_all_us(),
        p.op_p99_us(),
        p.ops_per_s(),
        p.cpu_us_per_op(),
        p.allocs_per_op(),
        p.alloc_kb_per_op(),
        p.flushes_per_op(),
    )
}

fn serve_layers(t: &ServeTrace, steal_ticks: u64) -> (Vec<Metric>, Vec<String>) {
    let per_op = |name: &str| t.spans.mean_us_per(name, "op");
    let top = t.ladder.last();
    let mut values = vec![
        ("client.encode_us", per_op("client.encode")),
        ("transport.request_us", per_op("transport.request")),
        ("netserver.residence_us", per_op("netserver.residence")),
        ("transport.response_us", per_op("transport.response")),
        ("client.decode_us", per_op("client.decode")),
        ("serve.span_sum_ratio", t.span_sum_ratio()),
        ("netserver.requests", t.server.requests as f64),
        ("netserver.shed", t.server.shed as f64),
        ("netserver.expired", t.server.expired as f64),
        ("client.attempts_per_call", t.client.attempts as f64 / t.client.calls.max(1) as f64),
        ("client.retries", t.client.retries as f64),
        ("wire.request_bytes", t.request_bytes_per_op),
        ("wire.response_bytes", t.response_bytes_per_op),
        ("loadgen.lag_us_p99", top.map_or(0.0, |r| r.lag_p99_us)),
        ("loadgen.within_limit_share", top.map_or(0.0, |r| r.within_share())),
        ("serve.max_rate_ok_per_s", t.max_rate_ok_per_s()),
        ("shard.queue_wait_us", t.probe.queue_wait_us),
        ("shard.batch_size_mean", t.probe.batch_size_mean),
        ("shard.exec_us_per_batch", t.probe.exec_us_per_batch),
        ("shard.exec_us_per_item", t.probe.exec_us_per_item),
        ("wire.request_encode_ns", t.direct.request_encode_ns),
        ("wire.request_decode_ns", t.direct.request_decode_ns),
        ("wire.response_encode_ns", t.direct.response_encode_ns),
        ("wire.response_decode_ns", t.direct.response_decode_ns),
        ("graph.lookup_ns", t.direct.graph_lookup_ns),
        ("ann.flat_search_us", t.direct.flat_search_us),
        ("ann.flat_search_batch8_us", t.direct.flat_search_batch8_us),
        ("kernels.flops_per_query", t.direct.flops_per_query),
        ("kernels.bytes_scanned_per_query", t.direct.bytes_scanned_per_query),
        ("trace.overhead_share", t.overhead_share()),
    ];
    values.extend(load_side(&t.untraced, steal_ticks));
    let mut notes = vec![phase_note("untraced", &t.untraced), phase_note("traced", &t.traced)];
    for r in &t.ladder {
        notes.push(format!(
            "open loop {}/s: {} due, {} sent, {} wrong, {:.4} within limit, lag p99 {:.1} us, \
             from-due p99 {:.1} us",
            r.per_s,
            r.due,
            r.sent,
            r.wrong,
            r.within_share(),
            r.lag_p99_us,
            r.from_due_p99_us
        ));
    }
    (per_layer(&values), notes)
}

fn grow_layers(run: &GrowRun, steal_ticks: u64) -> (Vec<Metric>, Vec<String>) {
    let per_interval = |name: &str| run.spans.mean_us_per(name, "interval");
    let per_boot = |name: &str| run.spans.mean_us_per(name, "bootstrap");
    let c = &run.counts;
    let mut values = vec![
        ("webcorpus.reindex_us", per_interval("webcorpus.reindex")),
        ("annotation.delta_us", per_interval("annotation.delta")),
        ("annotation.link_sync_us", per_interval("annotation.link_sync")),
        ("pipeline.graph_clone_us", per_interval("pipeline.graph_clone")),
        ("odke.delta_us", per_interval("odke.delta")),
        ("pipeline.fact_diff_us", per_interval("pipeline.fact_diff")),
        ("store.commit_us", per_interval("store.commit")),
        ("store.pull_delta_us", per_interval("store.pull_delta")),
        ("graph.training_view_us", per_interval("graph.training_view")),
        ("embeddings.partitioning_us", per_interval("embeddings.partitioning")),
        ("embeddings.retrain_us", per_interval("embeddings.retrain")),
        ("ann.upsert_us", per_interval("ann.upsert")),
        ("pipeline.publish_us", per_interval("pipeline.publish")),
        ("pipeline.stage_sum_ratio", run.stage_sum_ratio()),
        ("pipeline.pages_reprocessed", c.mean(c.pages_reprocessed)),
        ("pipeline.entities_dirtied", c.mean(c.entities_dirtied)),
        ("pipeline.targets_reextracted", c.mean(c.targets_reextracted)),
        ("pipeline.facts_changed", c.mean(c.facts_changed)),
        ("pipeline.partitions_retrained", c.mean(c.partitions_retrained)),
        ("pipeline.buckets_trained", c.mean(c.buckets_trained)),
        ("pipeline.ann_upserts", c.mean(c.ann_upserts)),
        ("pipeline.work_ratio_vs_batch", run.phase.op_p50_us() / (run.phase.setup_s() * 1e6)),
        ("persist.flushes_per_op", run.phase.flushes_per_op()),
        ("persist.file_bytes_per_fact", c.file_bytes_per_fact),
        ("pipeline.bootstrap_annotate_us", per_boot("pipeline.bootstrap_annotate")),
        ("pipeline.bootstrap_odke_us", per_boot("pipeline.bootstrap_odke")),
        ("store.create_us", per_boot("store.create")),
        ("embeddings.train_full_us", per_boot("embeddings.train_full")),
        ("trace.overhead_share", run.overhead_share()),
    ];
    values.extend(load_side(&run.phase, steal_ticks));
    let notes =
        vec![phase_note("grow_incremental", &run.phase), phase_note("staged mirror", &run.traced)];
    (per_layer(&values), notes)
}

/// Runs one workload for about `seconds`. `scratch` is a directory the run
/// may fill and the caller removes.
pub fn run(
    plan: &Plan,
    scratch: &Path,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<RunOutput, String> {
    let ticks0 = sys::host_ticks();
    let steal = || sys::host_ticks().steal - ticks0.steal;
    match (plan, trace) {
        (Plan::Serve(plan), false) => {
            let phase = serve::run(plan, seed, seconds)?;
            // Read when the measured phase ends, before anything is freed.
            Ok(untraced_output(phase, sys::peak_rss_mb()))
        }
        (Plan::Grow(plan), false) => {
            let run = grow::run(plan, scratch, seed, seconds, false)?;
            Ok(untraced_output(run.phase, run.peak_rss_mb))
        }
        (Plan::Serve(plan), true) => {
            let t = serve::run_traced(plan, seed, seconds)?;
            let (metrics, notes) = serve_layers(&t, steal());
            Ok(RunOutput {
                attempted: t.attempted(),
                failed: t.failed(),
                metrics,
                notes,
                spans: t.spans,
            })
        }
        (Plan::Grow(plan), true) => {
            let run = grow::run(plan, scratch, seed, seconds, true)?;
            let (metrics, notes) = grow_layers(&run, steal());
            Ok(RunOutput {
                attempted: run.phase.attempted,
                failed: run.phase.failed,
                metrics,
                notes,
                spans: run.spans,
            })
        }
    }
}

fn untraced_output(phase: Phase, peak_rss_mb: f64) -> RunOutput {
    RunOutput {
        attempted: phase.attempted,
        failed: phase.failed,
        metrics: phase.end_to_end(peak_rss_mb),
        notes: vec![phase_note("measured", &phase)],
        spans: spans::Spans::default(),
    }
}
