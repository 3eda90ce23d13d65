//! Crash-recovery proofs for the MVCC storage engine.
//!
//! The central claim of the engine is: **killing the process at any I/O
//! boundary — before or mid-way through any page write, log append, root
//! flip, or fsync — loses at most the in-flight transaction, and recovery
//! reproduces a byte-identical graph.** This suite proves it by brute
//! force: a discovery run counts every engine I/O operation for a
//! deterministic workload, then the workload is re-run once per operation
//! index × kill mode × seed with a [`KillSwitch`] armed at exactly that
//! operation, and the recovered state is compared byte-for-byte (its
//! canonical image, [`to_bytes`]) against an oracle run that never crashed.
//!
//! A separate sweep flips bits across the store file and asserts corruption
//! is always surfaced as a typed error or a clean prefix state — never a
//! panic, never silently wrong data.

use saga_core::fault::{crash_matrix, KillMode, KillSwitch};
use saga_core::persist::codec::to_bytes;
use saga_core::{
    Cardinality, EngineOptions, EntityBuilder, EntityId, KgStore, KnowledgeGraph, Ontology,
    SagaError, Triple, ValueKind, Volatility,
};
use std::path::PathBuf;

const TXNS: u64 = 6;
const SEEDS: [u64; 5] = [3, 11, 23, 47, 91];

/// Small pages and a small log so the workload crosses every code path:
/// several plain log appends plus at least one auto-checkpoint (page
/// writes, manifest chain, root flip).
fn opts() -> EngineOptions {
    EngineOptions { page_size: 128, log_cap: 768 }
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("saga-crash-matrix");
    std::fs::create_dir_all(&dir).unwrap();
    let p = dir.join(format!("{}-{}", std::process::id(), name));
    let _ = std::fs::remove_file(&p);
    p
}

fn base_graph() -> KnowledgeGraph {
    let mut o = Ontology::new();
    let person = o.add_type("person", None);
    o.add_predicate(
        "knows",
        "knows",
        ValueKind::Entity,
        Some(person),
        Cardinality::Multi,
        Volatility::Slow,
        false,
    );
    o.add_predicate(
        "nickname",
        "nickname",
        ValueKind::Text,
        Some(person),
        Cardinality::Single,
        Volatility::Slow,
        false,
    );
    let mut kg = KnowledgeGraph::new(o);
    kg.add_entity(EntityBuilder::new("Alice", person));
    kg.add_entity(EntityBuilder::new("Bob", person));
    kg
}

/// Applies transaction `i` (1-based) of the deterministic workload. The
/// mutations depend only on `(seed, i)` and on state the previous
/// transactions created, so replaying any prefix is reproducible.
fn apply_txn(store: &mut KgStore, seed: u64, i: u64) -> Result<(), SagaError> {
    let knows = store.graph().ontology().predicate_by_name("knows").unwrap();
    let nickname = store.graph().ontology().predicate_by_name("nickname").unwrap();
    let person = store.graph().entity(EntityId(0)).entity_type;
    store
        .commit(|txn| {
            let e =
                txn.add_entity(EntityBuilder::new(format!("e{seed}-{i}"), person).popularity(0.25));
            let src = txn.register_source(&format!("src-{}", i % 3));
            txn.insert_with(Triple::new(EntityId(0), knows, e), src, 0.5 + (i as f32) * 0.05);
            txn.insert_with(
                Triple::new(e, nickname, format!("nick-{seed}-{i}").as_str()),
                src,
                0.9,
            );
            if i.is_multiple_of(3) {
                // Remove the `knows` edge added two transactions ago
                // (entity ids are dense: txn j adds entity 1 + j).
                txn.remove(&Triple::new(EntityId(0), knows, EntityId(1 + (i - 2))));
            }
            txn.set_popularity(e, 0.5);
        })
        .map(|_| ())
}

/// Runs the oracle (never-killed) workload for `seed`, returning the
/// canonical graph bytes after each commit: index `c` holds the expected
/// state at commit sequence `c`.
fn oracle_prefixes(seed: u64) -> Vec<Vec<u8>> {
    let p = tmp(&format!("oracle-{seed}.db"));
    let mut store = KgStore::create(&p, base_graph(), &opts()).unwrap();
    let mut prefixes = vec![to_bytes(store.graph())];
    for i in 1..=TXNS {
        apply_txn(&mut store, seed, i).unwrap();
        prefixes.push(to_bytes(store.graph()));
    }
    let _ = std::fs::remove_file(&p);
    prefixes
}

/// Counts the engine I/O operations the full workload performs for `seed`.
fn discover_ops(seed: u64) -> u64 {
    let p = tmp(&format!("discover-{seed}.db"));
    let mut store = KgStore::create(&p, base_graph(), &opts()).unwrap();
    let observer = KillSwitch::armed(u64::MAX, KillMode::Before);
    store.set_kill(observer.clone());
    for i in 1..=TXNS {
        apply_txn(&mut store, seed, i).unwrap();
    }
    let _ = std::fs::remove_file(&p);
    observer.ops_seen()
}

#[test]
fn kill_at_every_io_boundary_recovers_bit_identical() {
    let mut points: Vec<(u64, u64, KillMode)> = Vec::new();
    let mut oracles = std::collections::HashMap::new();
    for seed in SEEDS {
        let total = discover_ops(seed);
        assert!(total > 20, "workload too small to be a meaningful matrix ({total} ops)");
        oracles.insert(seed, oracle_prefixes(seed));
        for k in 0..total {
            points.push((seed, k, KillMode::Before));
            points.push((seed, k, KillMode::Torn));
        }
    }

    let report = crash_matrix(points, |&(seed, k, mode)| {
        let oracle = &oracles[&seed];
        let p = tmp(&format!("cm-{seed}-{k}-{mode:?}.db"));
        let mut store =
            KgStore::create(&p, base_graph(), &opts()).map_err(|e| format!("create: {e}"))?;
        store.set_kill(KillSwitch::armed(k, mode));

        // Run until the crash fires; count fully-acknowledged transactions.
        let mut acked = 0u64;
        let mut killed = false;
        for i in 1..=TXNS {
            match apply_txn(&mut store, seed, i) {
                Ok(()) => acked = i,
                Err(SagaError::Killed { .. }) => {
                    killed = true;
                    break;
                }
                Err(e) => return Err(format!("txn {i} failed with non-kill error: {e}")),
            }
        }
        if !killed {
            return Err(format!("switch at op {k} never fired (acked {acked})"));
        }
        drop(store);

        // Recovery must succeed and land on the acked transaction or the
        // in-flight one (durable iff its log frame was fully written).
        let mut store = KgStore::open(&p).map_err(|e| format!("recovery failed: {e}"))?;
        let c = store.last_commit();
        if c != acked && c != acked + 1 {
            return Err(format!("recovered commit {c}, expected {acked} or {}", acked + 1));
        }
        let got = to_bytes(store.graph());
        if got != oracle[c as usize] {
            return Err(format!("state at commit {c} is not bit-identical to oracle"));
        }
        let scrub = store.engine_mut().scrub().map_err(|e| format!("scrub: {e}"))?;
        if !scrub.is_clean() {
            return Err(format!("post-recovery scrub dirty: {:?}", scrub.problems));
        }

        // Finish the workload; the end state must match the oracle exactly.
        for i in (c + 1)..=TXNS {
            apply_txn(&mut store, seed, i).map_err(|e| format!("resume txn {i}: {e}"))?;
        }
        if to_bytes(store.graph()) != oracle[TXNS as usize] {
            return Err("final state after resume diverges from oracle".into());
        }
        let _ = std::fs::remove_file(&p);
        Ok(())
    });
    report.assert_clean("kg-store crash matrix");
}

#[test]
fn bit_flips_anywhere_never_panic_and_never_serve_silent_corruption() {
    let seed = 7u64;
    let p = tmp("flip-base.db");
    let mut store = KgStore::create(&p, base_graph(), &opts()).unwrap();
    let mut valid_states: Vec<Vec<u8>> = vec![to_bytes(store.graph())];
    for i in 1..=TXNS {
        apply_txn(&mut store, seed, i).unwrap();
        valid_states.push(to_bytes(store.graph()));
    }
    drop(store);
    let pristine = std::fs::read(&p).unwrap();

    // Flip one bit at a time: dense over the superblocks, sampled beyond.
    let offsets: Vec<usize> =
        (0..pristine.len()).filter(|&off| off < 1024 || off % 13 == 0).collect();
    let flip_path = tmp("flip-run.db");
    for off in offsets {
        let mut bytes = pristine.clone();
        bytes[off] ^= 0x10;
        std::fs::write(&flip_path, &bytes).unwrap();
        match KgStore::open(&flip_path) {
            // A successful open must land on *some* committed state —
            // a flip in the log tail legitimately truncates to a prefix.
            Ok(store) => {
                let got = to_bytes(store.graph());
                assert!(
                    valid_states.contains(&got),
                    "flip at byte {off} silently produced a state that never existed"
                );
            }
            // Typed error: exactly what corruption should produce.
            Err(SagaError::Corrupt(_)) | Err(SagaError::Io(_)) => {}
            Err(e) => panic!("flip at byte {off} surfaced unexpected error kind: {e}"),
        }
    }
    let _ = std::fs::remove_file(&p);
    let _ = std::fs::remove_file(&flip_path);
}

#[test]
fn recovery_cost_tracks_log_tail_not_database_size() {
    // Two stores with a 20x size difference but identical log tails: the
    // recovery byte counter (what open() actually reads beyond the
    // superblocks) must not scale with database size. The `tail_txns` and
    // `log_used` equalities below are the gate: replay work is counted, and
    // no wall clock is consulted.
    let build = |name: &str, entities: u64| {
        let p = tmp(name);
        let mut store =
            KgStore::create(&p, base_graph(), &EngineOptions { page_size: 256, log_cap: 4096 })
                .unwrap();
        let person = store.graph().entity(EntityId(0)).entity_type;
        store
            .commit(|txn| {
                for e in 0..entities {
                    txn.add_entity(EntityBuilder::new(format!("bulk-{e}"), person));
                }
            })
            .unwrap();
        store.checkpoint().unwrap(); // put the bulk behind the checkpoint
                                     // Identical small tails on both stores.
        for i in 1..=3u64 {
            apply_txn(&mut store, 1, i).unwrap();
        }
        drop(store);
        p
    };
    let small = build("reco-small.db", 50);
    let large = build("reco-large.db", 1000);
    let small_store = KgStore::open(&small).unwrap();
    let large_store = KgStore::open(&large).unwrap();
    let s = small_store.engine().stats();
    let l = large_store.engine().stats();
    assert!(
        l.page_count > s.page_count * 4,
        "size difference did not materialize: {} vs {} pages",
        l.page_count,
        s.page_count
    );
    assert_eq!(s.tail_txns, l.tail_txns, "log tails must match for a fair comparison");
    assert_eq!(s.log_used, l.log_used, "recovery replay reads must depend on the tail alone");
    let _ = std::fs::remove_file(&small);
    let _ = std::fs::remove_file(&large);
}
