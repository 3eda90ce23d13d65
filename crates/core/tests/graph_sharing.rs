//! Copy-on-write sharing of a graph's tables. The ontology, the entity
//! records, the literal table, the source interner and every chunk of the
//! three indexes sit behind `Arc`s that a clone shares, so:
//!
//! - a clone and its original write through to neither: every `&mut self`
//!   method copies the table or chunk it writes before writing it;
//! - copying a graph costs the same few allocations whatever its size —
//!   the three chunk-pointer vectors — and asks for under 5 % of the bytes
//!   of the flat key and meta vectors the chunks replaced;
//! - a `KgStore::commit` of one fact while a reader pins the previous
//!   version copies the pinned graph's pointer vectors and then at most the
//!   one chunk of each index the fact lands in, at any size;
//! - interning a literal into a table a clone or a pin shares copies the
//!   table's chunk pointers, its hash index and its last, partial chunk of
//!   fewer than 32 values, not the values before: a bound that holds at any
//!   size, whether the fact is committed under a pin or inserted into a
//!   fresh clone.
//!
//! The surface-form index behind `entities_by_form` is derived state in a
//! cell the clones share: built once between them, never written through
//! by a clone that adds an entity, never encoded.
//!
//! A publish (`canonicalized_bytes`) also allocates per table, not per
//! fact or literal, and asks for little more than the image it returns.
//!
//! The allocation counter is process-wide, so the tests here take turns on
//! [`GATE`].

use saga_core::persist::codec::to_bytes;
use saga_core::synth::{generate, SynthConfig, SynthKg};
use saga_core::text::normalize_phrase;
use saga_core::{
    Cardinality, Date, EngineOptions, EntityBuilder, EntityId, KgStore, KnowledgeGraph, Triple,
    Value, ValueKind, Volatility,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

struct CountingAlloc;

static GATE: Mutex<()> = Mutex::new(());
static ARMED: AtomicBool = AtomicBool::new(false);
/// Allocator requests while armed: allocations and reallocations.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes those requests asked for; a reallocation counts its new size.
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is an atomic statistic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// The allocator requests `f` makes, and the bytes they ask for.
fn count_requests(f: impl FnOnce()) -> (u64, u64) {
    ALLOCS.store(0, Ordering::SeqCst);
    BYTES.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    f();
    ARMED.store(false, Ordering::SeqCst);
    (ALLOCS.load(Ordering::SeqCst), BYTES.load(Ordering::SeqCst))
}

fn count_allocs(f: impl FnOnce()) -> u64 {
    count_requests(f).0
}

/// The tiny synthetic world with every entity count times `scale`.
fn world(scale: usize) -> SynthKg {
    let tiny = SynthConfig::tiny(3);
    generate(&SynthConfig {
        num_people: tiny.num_people * scale,
        num_movies: tiny.num_movies * scale,
        num_songs: tiny.num_songs * scale,
        num_orgs: tiny.num_orgs * scale,
        num_places: tiny.num_places * scale,
        num_teams: tiny.num_teams * scale,
        ..tiny
    })
}

/// Writes to `kg` through every `&mut self` method of the graph.
fn write_through_every_method(kg: &mut KnowledgeGraph) {
    let thing = kg.entity(EntityId(0)).entity_type;
    let probe = kg.add_entity(EntityBuilder::new("Sharing Probe", thing));
    let mut replayed = kg.entity(EntityId(1)).clone();
    replayed.id = EntityId(kg.num_entities() as u64);
    replayed.name = "Replayed Probe".into();
    kg.add_entity_record(replayed).expect("the next dense id");
    kg.set_popularity(EntityId(0), 0.125);
    let note = kg.ontology_mut().add_predicate(
        "sharing_note",
        "sharing note",
        ValueKind::Text,
        None,
        Cardinality::Multi,
        Volatility::Slow,
        false,
    );
    let source = kg.register_source("sharing-probe");
    let fact = Triple::new(probe, note, Value::Text("a literal no graph had".into()));
    kg.insert_with(fact, source, 0.5);
    let first = kg.decode(kg.keys().next().expect("a fact"));
    kg.remove(&first);
    kg.commit();
}

#[test]
fn a_clone_and_its_original_write_through_to_neither() {
    let _turn = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let mut original = world(1).kg;
    let before = to_bytes(&original);
    let unwritten = |kg: &KnowledgeGraph| {
        to_bytes(kg) == before
            && kg.entities_by_form("sharing probe").is_empty()
            && kg.ontology().predicate_by_name("sharing_note").is_none()
            && kg.entity(EntityId(0)).popularity != 0.125
    };

    let mut copy = original.clone();
    write_through_every_method(&mut copy);
    assert!(!unwritten(&copy), "the copy was written");
    assert!(unwritten(&original), "a write to the copy reached the original");
    copy.check_invariants().unwrap();

    let copy = original.clone();
    write_through_every_method(&mut original);
    assert!(unwritten(&copy), "a write to the original reached the copy");
    original.check_invariants().unwrap();
}

/// Bytes a fact took in the flat indexes before they were chunked: three
/// 24-byte keys and a 16-byte meta.
const FLAT_BYTES_PER_FACT: u64 = 3 * 24 + 16;

/// The most a commit of one fact may ask for to copy index chunks: one
/// chunk of each index at its largest, 256 entries — 40-byte SPO entries,
/// 24-byte POS and OSP keys — each behind a 16-byte `Arc` header.
const THREE_CHUNKS: u64 = 256 * 40 + 2 * 256 * 24 + 3 * 16;

/// What a commit under a pin asks for besides index chunks and pointer
/// vectors, at any size: its op list and log payload, its sorted delta and
/// the decoded delta the store keeps.
const COMMIT_OVERHEAD: u64 = 4 * 1024;

/// The allocator requests and bytes of cloning `kg`.
fn clone_requests(kg: &KnowledgeGraph) -> (u64, u64) {
    count_requests(|| drop(std::hint::black_box(kg.clone())))
}

#[test]
fn a_clone_asks_for_a_small_share_of_the_flat_index_bytes_at_any_size() {
    let _turn = GATE.lock().unwrap_or_else(|e| e.into_inner());
    for scale in [1, 10] {
        let kg = world(scale).kg;
        let flat = kg.num_triples() as u64 * FLAT_BYTES_PER_FACT;
        let (_, bytes) = clone_requests(&kg);
        assert!(
            bytes * 20 < flat,
            "{scale}x: a clone asked for {bytes} bytes, flat indexes {flat}"
        );
    }
}

#[test]
fn copying_a_graph_allocates_the_same_few_times_at_any_size() {
    let _turn = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let (small, large) = (world(1).kg, world(10).kg);
    assert!(large.num_entities() > 8 * small.num_entities());
    assert!(large.num_triples() > 8 * small.num_triples());
    let (at_1x, at_10x) = (clone_requests(&small).0, clone_requests(&large).0);
    assert_eq!(at_1x, at_10x, "a copy allocates per table, not per entity or literal");
    // The three chunk-pointer vectors, and one spare.
    assert!(at_1x <= 4, "{at_1x} allocations to copy a graph");
}

/// Commits one new entity-valued fact to a store of `world` while a reader
/// pins the previous version; returns the commit's allocator requests and
/// bytes, and the bytes a clone of the pinned graph asks for. A first,
/// uncounted commit warms the engine's buffers.
fn pinned_commit_requests(world: SynthKg, tag: &str) -> (u64, u64, u64) {
    let path = std::env::temp_dir()
        .join(format!("saga-core-graph-sharing-{}-{tag}.store", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let (people, spouse) = (world.people.clone(), world.preds.spouse);
    let fresh: Vec<Triple> = people
        .iter()
        .flat_map(|&s| people.iter().map(move |&o| Triple::new(s, spouse, Value::Entity(o))))
        .filter(|t| !world.kg.contains(t))
        .take(2)
        .collect();
    let mut store = KgStore::create(&path, world.kg, &EngineOptions::default()).unwrap();
    let _first_pin = store.pin();
    store.commit(|txn| txn.insert(fresh[0].clone())).unwrap();
    let second_pin = store.pin();
    let (_, clone_bytes) = clone_requests(&second_pin);
    let (allocs, bytes) = count_requests(|| {
        store.commit(|txn| txn.insert(fresh[1].clone())).unwrap();
    });
    assert!(store.graph().contains(&fresh[1]) && !second_pin.contains(&fresh[1]));
    drop(store);
    let _ = std::fs::remove_file(&path);
    (allocs, bytes, clone_bytes)
}

#[test]
fn a_commit_under_a_pin_allocates_the_same_few_times_at_any_size() {
    let _turn = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let (at_1x, _, _) = pinned_commit_requests(world(1), "1x");
    let (at_10x, _, _) = pinned_commit_requests(world(10), "10x");
    assert_eq!(at_1x, at_10x, "the pinned copy allocates per table, not per entity or literal");
    assert!(at_1x <= 24, "{at_1x} allocations for a one-fact commit under a pin");
}

#[test]
fn a_commit_under_a_pin_copies_three_chunks_and_the_pointer_vectors_at_any_size() {
    let _turn = GATE.lock().unwrap_or_else(|e| e.into_inner());
    for (scale, tag) in [(1, "bytes-1x"), (10, "bytes-10x")] {
        let world = world(scale);
        let flat = world.kg.num_triples() as u64 * FLAT_BYTES_PER_FACT;
        let (_, bytes, pointers) = pinned_commit_requests(world, tag);
        // The pointer vectors are what a clone of the pinned graph copies,
        // and that is a small share of the indexes.
        assert!(pointers * 20 < flat, "{scale}x: {pointers} bytes to copy the pointer vectors");
        let chunks = bytes.saturating_sub(pointers);
        assert!(
            chunks <= THREE_CHUNKS + COMMIT_OVERHEAD,
            "{scale}x: a one-fact commit under a pin asked for {bytes} bytes, {pointers} of them \
             the pointer vectors"
        );
    }
}

/// What interning into a shared literal table may copy of its values: the
/// last chunk, fewer than 32 of them, one allocation each at most. A copy
/// of every value costs hundreds at 10× the tiny world.
const LAST_CHUNK: u64 = 32;

/// Asserts that every count of `at_1x` and `at_10x` is at most `bound`.
fn bounded_at_any_size(at_1x: &[u64], at_10x: &[u64], bound: u64) {
    let most = at_1x.iter().chain(at_10x).max().expect("counts");
    assert!(*most <= bound, "{at_1x:?} at 1x, {at_10x:?} at 10x: over {bound}, a per-literal copy");
}

/// Commits, under a pin of the previous version, three facts in turn, each
/// with an identifier literal no table has; returns each commit's
/// allocations. A first, uncounted commit warms the engine's buffers.
fn pinned_literal_commit_allocs(world: SynthKg, tag: &str) -> Vec<u64> {
    let path = std::env::temp_dir()
        .join(format!("saga-core-graph-sharing-literal-{}-{tag}.store", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let (subject, library_id) = (world.people[0], world.preds.library_id);
    let fresh: Vec<Triple> = (0..4)
        .map(|i| Triple::new(subject, library_id, Value::Identifier(format!("gate-{tag}-{i}"))))
        .collect();
    let mut store = KgStore::create(&path, world.kg, &EngineOptions::default()).unwrap();
    let mut pin = store.pin();
    store.commit(|txn| txn.insert(fresh[0].clone())).unwrap();
    let allocs = fresh[1..]
        .iter()
        .map(|fact| {
            pin = store.pin();
            let fact_copy = fact.clone();
            let allocs = count_allocs(|| {
                store.commit(|txn| txn.insert(fact_copy)).unwrap();
            });
            assert!(store.graph().contains(fact) && !pin.contains(fact));
            allocs
        })
        .collect();
    drop((pin, store));
    let _ = std::fs::remove_file(&path);
    allocs
}

#[test]
fn a_literal_commit_under_a_pin_allocates_the_same_few_times_at_any_size() {
    let _turn = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let at_1x = pinned_literal_commit_allocs(world(1), "1x");
    let at_10x = pinned_literal_commit_allocs(world(10), "10x");
    // The bound of an entity-valued commit under a pin, and the last chunk.
    bounded_at_any_size(&at_1x, &at_10x, 24 + LAST_CHUNK);
}

/// Clones `kg` and inserts, into the clone, a fact with an identifier
/// literal no table has, while `kg` still shares the clone's table; three
/// times, each round cloning the last round's clone. Returns each insert's
/// allocations.
fn clone_then_intern_allocs(mut kg: KnowledgeGraph, tag: &str) -> Vec<u64> {
    let library_id = kg.ontology().predicate_by_name("library_id").expect("a synth predicate");
    (0..3)
        .map(|i| {
            let mut copy = kg.clone();
            let fact =
                Triple::new(EntityId(0), library_id, Value::Identifier(format!("{tag}-{i}")));
            let expect = fact.clone();
            let allocs = count_allocs(|| copy.insert(fact));
            copy.commit();
            assert!(copy.contains(&expect) && !kg.contains(&expect));
            kg = copy;
            allocs
        })
        .collect()
}

#[test]
fn interning_into_a_clone_allocates_the_same_few_times_at_any_size() {
    let _turn = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let at_1x = clone_then_intern_allocs(world(1).kg, "1x");
    let at_10x = clone_then_intern_allocs(world(10).kg, "10x");
    // The table's own `Arc`, chunk pointers, hash index (and its growth)
    // and last chunk, and the queued write.
    bounded_at_any_size(&at_1x, &at_10x, 8 + LAST_CHUNK);
}

/// `kg` with eight literals, of every literal kind, under one multi-valued
/// predicate for every third entity, and one group as wide as a quarter of
/// the entities: the `(subject, predicate)` groups a publish orders by
/// content, whose canonical strings sort against their values
/// (`"-3" < "10" < "9"`).
fn with_literal_groups(mut kg: KnowledgeGraph) -> KnowledgeGraph {
    let listed = kg.ontology_mut().add_predicate(
        "listed_value",
        "listed value",
        ValueKind::Text,
        None,
        Cardinality::Multi,
        Volatility::Slow,
        false,
    );
    for e in (0..kg.num_entities() as u64).step_by(3) {
        let i = e as i64;
        let date = Date::new(1990 + (i % 30) as i32, 1 + (i % 12) as u8, 1 + (i % 28) as u8);
        let label = format!("item {}", i % 11);
        for v in [
            Value::Integer(10 + i % 7),
            Value::Integer(-(i % 5)),
            Value::Integer(9),
            Value::Float(i as f64 / 8.0),
            Value::Date(date.expect("a valid date")),
            Value::Text(label.clone()),
            Value::Identifier(label),
            Value::Bool(i % 2 == 0),
        ] {
            kg.insert(Triple::new(EntityId(e), listed, v));
        }
    }
    for i in 0..kg.num_entities() as i64 / 4 {
        kg.insert(Triple::new(EntityId(1), listed, Value::Integer(50 - 7 * i)));
    }
    kg.commit();
    kg
}

/// The image a publish writes, the allocator requests it makes, and the
/// bytes they ask for.
fn publish_requests(kg: &KnowledgeGraph) -> (Vec<u8>, u64, u64) {
    let mut image = Vec::new();
    let (allocs, bytes) = count_requests(|| image = kg.canonicalized_bytes());
    (image, allocs, bytes)
}

#[test]
fn a_publish_allocates_the_same_few_times_and_about_one_image_at_any_size() {
    let _turn = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let (small, large) = (with_literal_groups(world(1).kg), with_literal_groups(world(10).kg));
    let (image_1x, at_1x, bytes_1x) = publish_requests(&small);
    let (image_10x, at_10x, bytes_10x) = publish_requests(&large);
    assert!(image_10x.len() > 8 * image_1x.len());
    assert_eq!(at_1x, at_10x, "a publish allocates per table, not per fact or literal");
    // New source ids and names, new literal ids and values, a group's
    // spans, scratch string and key order, the OSP runs, the POS cursors
    // and the image.
    assert!(at_1x <= 10, "{at_1x} allocations to publish a graph");
    for (image, bytes) in [(&image_1x, bytes_1x), (&image_10x, bytes_10x)] {
        let ratio = bytes as f64 / image.len() as f64;
        assert!(ratio <= 1.5, "{bytes} bytes requested for a {}-byte image", image.len());
    }
}

/// The linear scan [`KnowledgeGraph::entities_by_form`] answers for.
fn scan_by_form(kg: &KnowledgeGraph, norm: &str) -> Vec<EntityId> {
    kg.entities()
        .filter(|e| e.surface_forms().any(|f| normalize_phrase(f) == norm))
        .map(|e| e.id)
        .collect()
}

/// Every normalized surface form of `kg`, and strings near them: the raw
/// form, its form with a char cut or added, its first token, and forms no
/// entity has — the empty form among them.
fn probes(kg: &KnowledgeGraph) -> Vec<String> {
    let mut out = vec![String::new(), " ".into(), "nobody nowhere".into()];
    for e in kg.entities() {
        for f in e.surface_forms() {
            let norm = normalize_phrase(f);
            let mut cut = norm.clone();
            cut.pop();
            let first = norm.split(' ').next().unwrap_or_default().to_owned();
            out.extend([f.to_owned(), format!("{norm}s"), cut, first, norm]);
        }
    }
    out
}

fn assert_index_is_the_scan(kg: &KnowledgeGraph, probes: &[String], what: &str) {
    for p in probes {
        assert_eq!(kg.entities_by_form(p), scan_by_form(kg, p).as_slice(), "{what}: {p:?}");
    }
}

#[test]
fn the_surface_form_index_answers_as_the_linear_scan() {
    let _turn = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let original = world(1).kg;
    let mut probes = probes(&original);
    assert_index_is_the_scan(&original, &probes, "built");
    assert!(original.entities_by_form("michael jordan").len() >= 2, "homonyms, in id order");

    // A clone shares the built index: its first lookup allocates nothing.
    let clone = original.clone();
    let hit = count_allocs(|| {
        std::hint::black_box(clone.entities_by_form("michael jordan"));
    });
    assert_eq!(hit, 0, "a clone rebuilt the index its original had built");

    // Entities added to a clone — a homonym, a form that normalizes to
    // nothing, a replayed record — reach its answers and not the original's.
    let mut grown = original.clone();
    let thing = grown.entity(EntityId(0)).entity_type;
    let homonym = grown.add_entity(EntityBuilder::new("Michael JORDAN!", thing).alias(" -- "));
    let mut replayed = grown.entity(EntityId(1)).clone();
    replayed.id = EntityId(grown.num_entities() as u64);
    replayed.aliases.push("Michael Jordan".into());
    let replayed = grown.add_entity_record(replayed).expect("the next dense id");
    probes.push("michael jordan".into());
    assert_index_is_the_scan(&grown, &probes, "grown");
    assert_index_is_the_scan(&original, &probes, "original after the clone grew");
    assert!(grown.entities_by_form("michael jordan").ends_with(&[homonym, replayed]));
    assert_eq!(grown.entities_by_form(""), [homonym]);
    assert!(original.entities_by_form("").is_empty());
    // The grown graph holds its built index alone now: another entity
    // empties it in place, and the next lookup sees the entity.
    let late = grown.add_entity(EntityBuilder::new("Late Arrival", thing).alias("MJ"));
    probes.push("late arrival".into());
    assert_index_is_the_scan(&grown, &probes, "grown again");
    assert_eq!(grown.entities_by_form("late arrival"), [late]);

    // The index is never encoded: a decoded graph answers the same from
    // its own index, and built or not, the image bytes are the same.
    let bytes = to_bytes(&grown);
    let decoded: KnowledgeGraph = saga_core::persist::codec::from_bytes(&bytes).unwrap();
    assert_eq!(to_bytes(&decoded), bytes);
    assert_index_is_the_scan(&decoded, &probes, "decoded");
    assert_eq!(to_bytes(&decoded), bytes);
}
