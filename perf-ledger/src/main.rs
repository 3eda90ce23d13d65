//! `perf-ledger --workload <name> --seed <u64> --seconds <n> --trace <0|1>`
//!
//! Prints a provenance line, ungated notes, and — last — the result line
//! the driver parses. Exits non-zero when any op failed its check.

use perf_ledger::{consts, stats, sys, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: cannot read '{value}'");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().ok().filter(|s| *s > 0.0).ok_or_else(bad)?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

const SCRATCH_PREFIX: &str = "perf-ledger-scratch-";

/// The run's scratch directory, beside the executable (inside the build
/// directory, so inside the checkout); removed when dropped, which covers
/// every exit path that unwinds. A run that was killed cannot clean up, so
/// each run first sweeps the directories of processes that no longer exist.
struct Scratch(PathBuf);

impl Scratch {
    fn beside_exe() -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let build_dir = exe.parent().ok_or("executable has no parent directory")?;
        for entry in std::fs::read_dir(build_dir).into_iter().flatten().flatten() {
            let name = entry.file_name();
            let pid = name.to_str().and_then(|n| n.strip_prefix(SCRATCH_PREFIX));
            if pid.is_some_and(|pid| !PathBuf::from("/proc").join(pid).exists()) {
                let _ = std::fs::remove_dir_all(entry.path());
            }
        }
        let dir = build_dir.join(format!("{SCRATCH_PREFIX}{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("scratch dir: {e}"))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn provenance(args: &Args, host: &sys::HostSetup) -> String {
    use consts::*;
    let pinned = host.pinned_core.map_or("null".to_string(), |c| c.to_string());
    format!(
        "provenance {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"cores\": {}, \"pinned_core\": {pinned}, \"kernel_backend\": \"{}\", \
         \"rustc\": \"{}\", \"flush_model_us\": {FLUSH_US}, \"malloc_single_arena\": {}, \
         \"min_timer_slack\": {}, \"standins\": true, \"consts\": {{\
         \"world_seed\": {WORLD_SEED}, \"lookup_window_ops\": {LOOKUP_WINDOW_OPS}, \
         \"lookup_segment_windows\": {LOOKUP_SEGMENT_WINDOWS}, \
         \"trace_entities\": {TRACE_ENTITIES}, \"search_dim\": {SEARCH_DIM}, \
         \"search_vectors\": {SEARCH_VECTORS}, \"search_shards\": {SEARCH_SHARDS}, \
         \"search_k\": {SEARCH_K}, \"search_batch_items\": {SEARCH_BATCH_ITEMS}, \
         \"search_query_pool\": {SEARCH_QUERY_POOL}, \"search_window_ops\": {SEARCH_WINDOW_OPS}, \
         \"search_segment_windows\": {SEARCH_SEGMENT_WINDOWS}, \"hot_checked\": {HOT_CHECKED}, \
         \"lookup_ladder_per_s\": {LOOKUP_LADDER_PER_S:?}, \
         \"search_ladder_per_s\": {SEARCH_LADDER_PER_S:?}, \
         \"lookup_limit_us\": {LOOKUP_LIMIT_US}, \"search_limit_us\": {SEARCH_LIMIT_US}, \
         \"fixture_seed\": {FIXTURE_SEED}, \"fixture_entities\": [{FIXTURE_PEOPLE}, \
         {FIXTURE_MOVIES}, {FIXTURE_SONGS}, {FIXTURE_ORGS}, {FIXTURE_PLACES}, {FIXTURE_TEAMS}], \
         \"fixture_pages\": [{FIXTURE_ENTITY_PAGES}, {FIXTURE_NEWS_PAGES}, \
         {FIXTURE_NOISE_PAGES}], \"fixture_targets\": {FIXTURE_TARGETS}, \
         \"train\": [{TRAIN_DIM}, {TRAIN_EPOCHS}, {TRAIN_NEGATIVES}, {TRAIN_PARTITIONS}], \
         \"grow_workers\": {GROW_WORKERS}, \"trickle\": [{TRICKLE_INTERVALS}, {TRICKLE_CHURN}], \
         \"surge\": [{SURGE_INTERVALS}, {SURGE_CHURN}], \
         \"new_pages_per_interval\": {NEW_PAGES_PER_INTERVAL}, \
         \"fact_changes_per_interval\": {FACT_CHANGES_PER_INTERVAL}}}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace,
        host.cores,
        saga_core::kernels::backend_name(),
        env!("PERF_LEDGER_RUSTC"),
        host.single_arena,
        host.min_timer_slack,
        FLUSH_US = sys::FLUSH_MODEL_US,
    )
}

fn run(args: &Args, host: &sys::HostSetup) -> Result<bool, String> {
    let scratch = Scratch::beside_exe()?;
    println!("{}", provenance(args, host));
    let ticks0 = sys::host_ticks();
    let plan = args.workload.ledger_plan();
    let out = perf_ledger::run(&plan, &scratch.0, args.seed, args.seconds, args.trace)?;
    let ticks1 = sys::host_ticks();
    for note in &out.notes {
        println!("# {note}");
    }
    println!(
        "# host: steal {} ticks, iowait {} ticks during the run (all cores); {} modelled flushes",
        ticks1.steal - ticks0.steal,
        ticks1.iowait - ticks0.iowait,
        sys::flush_count()
    );
    if !out.spans.is_empty() {
        // The dump is scratch like the rest and goes when the run ends; what
        // stays is this summary (self = duration not covered by child spans).
        let path = scratch.0.join("spans.tsv");
        out.spans.dump(&path).map_err(|e| format!("span dump: {e}"))?;
        let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
        println!("# {} spans, {bytes} bytes, written to {}", out.spans.len(), path.display());
        for row in out.spans.summary() {
            println!(
                "# span {}: {} spans, total {:.3} ms, self {:.3} ms",
                row.name,
                row.count,
                row.total_ns as f64 / 1e6,
                row.self_ns as f64 / 1e6
            );
        }
    }
    println!("{}", stats::result_line(out.correct(), out.attempted, out.failed, &out.metrics));
    Ok(out.correct())
}

fn main() -> ExitCode {
    // Before anything can spawn a thread: affinity and timer slack are
    // inherited, and the arena cap must precede the first contended malloc.
    let host = sys::init_process();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perf-ledger: {e}");
            eprintln!(
                "usage: perf-ledger --workload <{}> --seed <u64> --seconds <n> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    match run(&args, &host) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perf-ledger: {e}");
            ExitCode::from(1)
        }
    }
}
