//! Every workload at a tiny, library-only scale, with and without tracing:
//! the names and units printed are exactly `BENCHMARK.json`'s, nothing
//! gated reads 0, and the window statistic is the 25th percentile.

use perf_ledger::grow::GrowPlan;
use perf_ledger::serve::{ServeKind, ServePlan};
use perf_ledger::stats::{self, Metric, Phase, Window};
use perf_ledger::{Plan, Workload};
use saga_core::synth::SynthConfig;
use saga_serve::NetServerConfig;
use saga_webcorpus::CorpusConfig;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// The text of every object in the `key` array of `BENCHMARK.json`. The
/// file is flat enough to read without a JSON parser (the offline
/// `serde_json` stand-in cannot parse).
fn objects(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
    let from = text.find(&format!("\"{key}\": [")).expect("section present");
    let section = &text[from..from + text[from..].find(']').expect("section closes")];
    section.split('{').skip(1).map(str::to_string).collect()
}

fn field(object: &str, name: &str) -> String {
    let at = object.find(&format!("\"{name}\": \"")).expect("field present") + name.len() + 5;
    object[at..at + object[at..].find('"').expect("string closes")].to_string()
}

/// `(name, unit)` of every metric listed under `key`.
fn listed(key: &str) -> Vec<(String, String)> {
    objects(key).iter().map(|obj| (field(obj, "name"), field(obj, "unit"))).collect()
}

fn tiny_plan(workload: Workload) -> Plan {
    let tiny_serve = |kind| {
        let ledger = ServePlan::ledger(kind);
        ServePlan {
            server: NetServerConfig { vectors: 512, ..ledger.server.clone() },
            window_ops: 20,
            segment_windows: 2,
            probe_ops: 40,
            wire_probe_iters: 200,
            graph_probe_iters: 2_000,
            ann_probe_iters: 40,
            ..ledger
        }
    };
    let tiny_grow = |churn| GrowPlan {
        synth: SynthConfig::tiny(231),
        corpus: CorpusConfig::tiny(17),
        partitions: 4,
        ..GrowPlan::ledger(2, churn)
    };
    match workload {
        Workload::ServeLookup => Plan::Serve(tiny_serve(ServeKind::Lookup)),
        Workload::ServeSearch => Plan::Serve(tiny_serve(ServeKind::Search)),
        Workload::GrowTrickle => Plan::Grow(tiny_grow(0.01)),
        Workload::GrowSurge => Plan::Grow(tiny_grow(0.30)),
    }
}

fn run_tiny(workload: Workload, trace: bool) -> Vec<Metric> {
    let scratch = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("smoke-{}-{trace}", workload.name()));
    std::fs::create_dir_all(&scratch).expect("scratch dir");
    let out =
        perf_ledger::run(&tiny_plan(workload), &scratch, 5, 0.2, trace).expect("run succeeds");
    std::fs::remove_dir_all(&scratch).expect("scratch removed");
    assert!(out.correct(), "{}: {} of {} ops failed", workload.name(), out.failed, out.attempted);
    assert_eq!(out.spans.is_empty(), !trace);

    // The result line carries every metric by name with its unit.
    let line = stats::result_line(out.correct(), out.attempted, out.failed, &out.metrics);
    assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
    for m in &out.metrics {
        assert!(line.contains(&format!("\"{}\": {{\"value\": ", m.name)), "{} missing", m.name);
        assert!(m.value.is_finite(), "{} is not finite", m.name);
    }
    out.metrics
}

fn names_and_units(metrics: &[Metric]) -> Vec<(String, String)> {
    metrics.iter().map(|m| (m.name.to_string(), m.unit.to_string())).collect()
}

#[test]
fn untraced_runs_print_the_gated_metrics_and_none_is_zero() {
    let want = listed("end_to_end");
    assert_eq!(want.len(), 6);
    for workload in Workload::ALL {
        let metrics = run_tiny(workload, false);
        assert_eq!(names_and_units(&metrics), want, "{}", workload.name());
        for m in &metrics {
            assert!(m.value > 0.0, "{} is {} on {}", m.name, m.value, workload.name());
        }
    }
}

#[test]
fn traced_runs_print_every_layer_and_each_moves_somewhere() {
    let want = listed("per_layer");
    assert_eq!(want.len(), perf_ledger::PER_LAYER.len());
    let mut largest: BTreeMap<&'static str, f64> = BTreeMap::new();
    for workload in Workload::ALL {
        let metrics = run_tiny(workload, true);
        assert_eq!(names_and_units(&metrics), want, "{}", workload.name());
        for m in &metrics {
            let seen = largest.entry(m.name).or_insert(0.0);
            *seen = seen.max(m.value.abs());
        }
        let ratio = |name: &str| metrics.iter().find(|m| m.name == name).expect("listed").value;
        let sum = match workload {
            Workload::ServeLookup | Workload::ServeSearch => ratio("serve.span_sum_ratio"),
            Workload::GrowTrickle | Workload::GrowSurge => ratio("pipeline.stage_sum_ratio"),
        };
        assert!((0.97..=1.03).contains(&sum), "{}: spans sum to {sum}", workload.name());
    }
    // Counters of failures and of host disturbance read 0 on a clean run;
    // at this scale the open loop may sustain no rung and a two-interval
    // chain may refresh no fact.
    let may_be_zero = [
        "netserver.shed",
        "netserver.expired",
        "client.retries",
        "loadgen.steal_ticks",
        "loadgen.lag_us_p99",
        "serve.max_rate_ok_per_s",
        "pipeline.facts_changed",
    ];
    for (name, value) in largest {
        assert!(value > 0.0 || may_be_zero.contains(&name), "{name} is 0 on every workload");
    }
}

#[test]
fn workload_names_match_benchmark_json() {
    let names: Vec<String> = objects("workloads").iter().map(|obj| field(obj, "name")).collect();
    assert_eq!(names, Workload::ALL.map(|w| w.name().to_string()));
    for workload in Workload::ALL {
        assert_eq!(Workload::parse(workload.name()), Some(workload));
    }
}

#[test]
fn window_statistic_is_the_lower_quartile() {
    // 1..=101: the 25th percentile sits exactly on the 26th value.
    let sample: Vec<f64> = (1..=101).rev().map(f64::from).collect();
    assert_eq!(stats::quiet(&sample), 26.0);
    assert_eq!(stats::median(&sample), 51.0);

    // A disturbed run: five windows in seven are slow, the statistic still
    // reads the quiet ones; the all-window median does not.
    let window = |p50_us: f64| Window {
        p50_us,
        cpu_us_per_op: p50_us / 2.0,
        allocs_per_op: 3.0,
        alloc_kb_per_op: 1.5,
        flushes_per_op: 0.0,
    };
    let mut phase = Phase::default();
    phase.windows.extend([100.0, 101.0, 400.0, 410.0, 420.0, 430.0, 440.0].map(window));
    assert!(phase.op_p50_us() < 260.0, "quiet-window p50 {}", phase.op_p50_us());
    assert_eq!(phase.op_p50_all_us(), 410.0);
    assert_eq!(phase.allocs_per_op(), 3.0);
}
