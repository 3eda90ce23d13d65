//! The deterministic chaos matrix: every (seed × fault class) cell runs a
//! real server behind a fault-injecting transport and proves the protocol
//! invariant — every call ends in either a response **bit-identical to the
//! fault-free oracle** or a **typed error**. Never a panic, never a wrong
//! answer, never a hang.
//!
//! Fault classes: drop, duplicate, delay, torn write, bit flip, and
//! disconnect (the recv-direction disconnect models a server killed after
//! executing the request but before the ack lands), plus a mixed-rate
//! configuration. Verdicts are pure hashes of (seed, direction, frame
//! bytes), so a cell's behaviour is reproducible run to run.

use saga_core::obs::Registry;
use saga_core::SagaError;
use saga_serve::net::chaos::{ChaosConfig, ChaosTransport};
use saga_serve::net::client::{ClientConfig, SagaClient};
use saga_serve::net::server::{oracle_lookup, oracle_search, NetServer, NetServerConfig};
use saga_serve::net::transport::MemListener;
use saga_serve::net::wire::ResponseBody;
use std::sync::Arc;
use std::time::Duration;

const WORLD_SEED: u64 = 11;
const FAULT_RATE: f64 = 0.3;
const CHAOS_SEEDS: std::ops::RangeInclusive<u64> = 1..=5;

/// The fault classes, by the name [`single`] turns each on with.
const ALL_FAULT_CLASSES: [&str; 6] =
    ["drop", "duplicate", "delay", "torn", "bit_flip", "disconnect"];

/// One fault class at `rate`, everything else off.
fn single(seed: u64, class: &str, rate: f64) -> ChaosConfig {
    let clean = ChaosConfig { seed, ..ChaosConfig::default() };
    match class {
        "drop" => ChaosConfig { drop: rate, ..clean },
        "duplicate" => ChaosConfig { duplicate: rate, ..clean },
        "delay" => ChaosConfig { delay: rate, ..clean },
        "torn" => ChaosConfig { torn: rate, ..clean },
        "bit_flip" => ChaosConfig { bit_flip: rate, ..clean },
        "disconnect" => ChaosConfig { disconnect: rate, ..clean },
        _ => unreachable!("no fault class {class}"),
    }
}

/// A storm mixing every class at a modest rate.
fn mixed(seed: u64) -> ChaosConfig {
    ChaosConfig {
        seed,
        drop: 0.06,
        duplicate: 0.06,
        delay: 0.06,
        torn: 0.04,
        bit_flip: 0.06,
        disconnect: 0.04,
    }
}

fn server_cfg() -> NetServerConfig {
    NetServerConfig::small(WORLD_SEED)
}

fn client_cfg() -> ClientConfig {
    ClientConfig {
        request_timeout: Duration::from_millis(100),
        retry_budget: 500,
        // Backoffs advance the virtual clock only: the schedule (and the
        // breaker cooldown arithmetic) runs deterministically without
        // wall-clock sleeps.
        real_sleep: false,
        ..ClientConfig::default()
    }
}

/// The fault-free expectations, computed through the same in-process
/// partition/search/merge path the server uses.
struct Oracle {
    lookup5: ResponseBody,
    search99: ResponseBody,
    search7: ResponseBody,
}

fn oracle() -> Oracle {
    let cfg = server_cfg();
    Oracle {
        lookup5: ResponseBody::LookupOk { entity: 5, fact_count: oracle_lookup(&cfg, 5) },
        search99: ResponseBody::SearchOk { hits: oracle_search(&cfg, 99, 8) },
        search7: ResponseBody::SearchOk { hits: oracle_search(&cfg, 7, 3) },
    }
}

/// A SagaError the protocol is allowed to surface to callers under faults.
fn typed(e: &SagaError) -> bool {
    matches!(e, SagaError::Io(_) | SagaError::Corrupt(_) | SagaError::Unavailable { .. })
}

#[derive(Default)]
struct CellOutcome {
    correct: u64,
    typed_errors: u64,
    faults_fired: u64,
}

/// Run one chaos cell: 4 calls through a faulted transport against a live
/// server. Panics if any call returns a wrong answer or an untyped error.
fn run_cell(chaos: ChaosConfig, oracle: &Oracle, label: &str) -> CellOutcome {
    let listener = MemListener::new();
    let registry = Registry::new();
    let server = NetServer::start(Box::new(listener.clone()), server_cfg(), &registry);
    let transport = Arc::new(ChaosTransport::new(listener, chaos));
    let chaos_stats = transport.stats();
    let client = SagaClient::new(transport, client_cfg());

    type CallFn<'a> = Box<dyn Fn() -> saga_core::Result<ResponseBody> + 'a>;
    let mut out = CellOutcome::default();
    let calls: [(&str, CallFn, &ResponseBody); 4] = [
        ("ping", Box::new(|| client.ping()), &ResponseBody::Pong),
        ("lookup", Box::new(|| client.lookup(5)), &oracle.lookup5),
        ("search99", Box::new(|| client.search(99, 8)), &oracle.search99),
        ("search7", Box::new(|| client.search(7, 3)), &oracle.search7),
    ];
    for (name, call, expect) in &calls {
        match call() {
            Ok(resp) => {
                assert_eq!(
                    &resp, *expect,
                    "{label}/{name}: response survived retries but differs from the \
                     fault-free oracle"
                );
                out.correct += 1;
            }
            Err(e) => {
                assert!(typed(&e), "{label}/{name}: untyped error {e:?}");
                out.typed_errors += 1;
            }
        }
    }
    out.faults_fired = chaos_stats.total();
    server.shutdown();
    out
}

#[test]
fn chaos_matrix_yields_correct_results_or_typed_errors() {
    let oracle = oracle();

    // Sanity: a clean cell must answer everything correctly with zero
    // faults fired — the oracle and the server agree absent chaos.
    let clean = run_cell(ChaosConfig::default(), &oracle, "clean");
    assert_eq!(clean.correct, 4, "fault-free run must serve every call");
    assert_eq!(clean.faults_fired, 0);

    let mut per_class_fired = vec![0u64; ALL_FAULT_CLASSES.len()];
    let mut per_class_correct = vec![0u64; ALL_FAULT_CLASSES.len()];
    let mut mixed_fired = 0u64;
    let mut mixed_correct = 0u64;

    for seed in CHAOS_SEEDS {
        for (i, &class) in ALL_FAULT_CLASSES.iter().enumerate() {
            let label = format!("seed{seed}/{class}");
            let cell = run_cell(single(seed, class, FAULT_RATE), &oracle, &label);
            per_class_fired[i] += cell.faults_fired;
            per_class_correct[i] += cell.correct;
        }
        let cell = run_cell(mixed(seed), &oracle, &format!("seed{seed}/mixed"));
        mixed_fired += cell.faults_fired;
        mixed_correct += cell.correct;
    }

    // Every fault class actually fired somewhere in the matrix (the cells
    // are deterministic, so this cannot flake), and despite the faults the
    // retry loop still landed correct answers for every class.
    for (i, class) in ALL_FAULT_CLASSES.iter().enumerate() {
        assert!(per_class_fired[i] > 0, "fault class {class} never fired across the matrix");
        assert!(
            per_class_correct[i] > 0,
            "fault class {class} never produced a correct retried response"
        );
    }
    assert!(mixed_fired > 0 && mixed_correct > 0, "mixed chaos cells degenerate");
}

#[test]
fn chaos_cells_are_reproducible_for_a_seed() {
    // Same seed, same world, same call sequence → identical outcomes.
    let oracle = oracle();
    let a = run_cell(mixed(3), &oracle, "repro-a");
    let b = run_cell(mixed(3), &oracle, "repro-b");
    assert_eq!(a.correct, b.correct, "correct-count diverged for identical seeds");
    // Fault verdicts are pure frame-hash functions; only timing-dependent
    // retry truncation could differ, and correct/typed totals must not.
    assert_eq!(a.correct + a.typed_errors, b.correct + b.typed_errors);
}
