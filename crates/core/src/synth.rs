//! Deterministic synthetic open-domain knowledge graph.
//!
//! Stands in for the paper's production KG (see DESIGN.md §2). Generates
//! people, creative works, organizations, places and teams with:
//! - Zipfian popularity skew;
//! - multi-valued predicates (occupations) with an importance-ranked ground
//!   truth, for the fact-ranking experiment;
//! - noisy bookkeeping facts (heights, library ids, follower counts) — the
//!   facts Sec. 2 of the paper says must be filtered before embedding
//!   training;
//! - rare predicates below any sensible frequency threshold;
//! - homonym entities (same surface name, different type), including the
//!   paper's worked examples: the two Michael Jordans (Fig. 2) and the two
//!   Michelle Williamses (Fig. 6).
//!
//! Everything is seeded: the same config always yields the same graph.

use crate::entity::EntityBuilder;
use crate::ids::{EntityId, PredicateId, TypeId};
use crate::ontology::{Cardinality, Ontology, Volatility};
use crate::rng::SplitMix64;
use crate::store::KnowledgeGraph;
use crate::triple::Triple;
use crate::value::{Date, Value, ValueKind};
use std::collections::{BTreeMap, HashMap};

/// Handles to the standard ontology's types.
#[derive(Debug, Clone, Copy)]
#[allow(missing_docs)] // names are self-describing type handles
pub struct TypeIds {
    pub person: TypeId,
    pub athlete: TypeId,
    pub academic: TypeId,
    pub musician: TypeId,
    pub actor: TypeId,
    pub movie: TypeId,
    pub song: TypeId,
    pub organization: TypeId,
    pub place: TypeId,
    pub team: TypeId,
    pub occupation: TypeId,
    pub genre: TypeId,
}

/// Handles to the standard ontology's predicates.
#[derive(Debug, Clone)]
#[allow(missing_docs)] // names are self-describing predicate handles
pub struct PredIds {
    // Relational facts (embedding-relevant).
    pub occupation: PredicateId,
    pub spouse: PredicateId,
    pub born_in: PredicateId,
    pub lives_in: PredicateId,
    pub works_for: PredicateId,
    pub member_of: PredicateId,
    pub directed_by: PredicateId,
    pub starring: PredicateId,
    pub performed_by: PredicateId,
    pub genre: PredicateId,
    pub founded_by: PredicateId,
    pub headquarters: PredicateId,
    pub home_city: PredicateId,
    pub located_in: PredicateId,
    // Attribute facts.
    pub date_of_birth: PredicateId,
    pub release_date: PredicateId,
    pub founded_date: PredicateId,
    // Noise facts (filtered before embedding training).
    pub height_cm: PredicateId,
    pub net_worth: PredicateId,
    pub social_followers: PredicateId,
    pub library_id: PredicateId,
    pub runtime_minutes: PredicateId,
    pub population: PredicateId,
    /// Rare predicates: each appears on only a handful of triples.
    pub rare: Vec<PredicateId>,
}

/// Builds the standard open-domain ontology used across the workspace.
pub fn standard_ontology(rare_predicates: usize) -> (Ontology, TypeIds, PredIds) {
    let mut o = Ontology::new();
    let person = o.add_type("person", None);
    let types = TypeIds {
        person,
        athlete: o.add_type("athlete", Some(person)),
        academic: o.add_type("academic", Some(person)),
        musician: o.add_type("musician", Some(person)),
        actor: o.add_type("actor", Some(person)),
        movie: o.add_type("movie", None),
        song: o.add_type("song", None),
        organization: o.add_type("organization", None),
        place: o.add_type("place", None),
        team: o.add_type("team", None),
        occupation: o.add_type("occupation", None),
        genre: o.add_type("genre", None),
    };
    use Cardinality::{Multi, Single};
    use ValueKind as VK;
    use Volatility::{Fast, Slow, Stable};
    let p = |o: &mut Ontology,
             name: &str,
             phrase: &str,
             range: VK,
             dom: Option<TypeId>,
             card: Cardinality,
             vol: Volatility,
             noise: bool| o.add_predicate(name, phrase, range, dom, card, vol, noise);

    let preds = PredIds {
        occupation: p(
            &mut o,
            "occupation",
            "occupation",
            VK::Entity,
            Some(person),
            Multi,
            Slow,
            false,
        ),
        spouse: p(&mut o, "spouse", "spouse", VK::Entity, Some(person), Single, Slow, false),
        born_in: p(
            &mut o,
            "born_in",
            "place of birth",
            VK::Entity,
            Some(person),
            Single,
            Stable,
            false,
        ),
        lives_in: p(&mut o, "lives_in", "lives in", VK::Entity, Some(person), Single, Slow, false),
        works_for: p(
            &mut o,
            "works_for",
            "works for",
            VK::Entity,
            Some(person),
            Multi,
            Slow,
            false,
        ),
        member_of: p(
            &mut o,
            "member_of",
            "member of",
            VK::Entity,
            Some(person),
            Multi,
            Slow,
            false,
        ),
        directed_by: p(
            &mut o,
            "directed_by",
            "directed by",
            VK::Entity,
            Some(types.movie),
            Single,
            Stable,
            false,
        ),
        starring: p(
            &mut o,
            "starring",
            "starring",
            VK::Entity,
            Some(types.movie),
            Multi,
            Stable,
            false,
        ),
        performed_by: p(
            &mut o,
            "performed_by",
            "performed by",
            VK::Entity,
            Some(types.song),
            Single,
            Stable,
            false,
        ),
        genre: p(&mut o, "genre", "genre", VK::Entity, None, Multi, Stable, false),
        founded_by: p(
            &mut o,
            "founded_by",
            "founded by",
            VK::Entity,
            Some(types.organization),
            Multi,
            Stable,
            false,
        ),
        headquarters: p(
            &mut o,
            "headquarters",
            "headquarters",
            VK::Entity,
            Some(types.organization),
            Single,
            Slow,
            false,
        ),
        home_city: p(
            &mut o,
            "home_city",
            "home city",
            VK::Entity,
            Some(types.team),
            Single,
            Slow,
            false,
        ),
        located_in: p(
            &mut o,
            "located_in",
            "located in",
            VK::Entity,
            Some(types.place),
            Single,
            Stable,
            false,
        ),
        date_of_birth: p(
            &mut o,
            "date_of_birth",
            "date of birth",
            VK::Date,
            Some(person),
            Single,
            Stable,
            false,
        ),
        release_date: p(
            &mut o,
            "release_date",
            "release date",
            VK::Date,
            None,
            Single,
            Stable,
            false,
        ),
        founded_date: p(
            &mut o,
            "founded_date",
            "founded",
            VK::Date,
            Some(types.organization),
            Single,
            Stable,
            false,
        ),
        height_cm: p(
            &mut o,
            "height_cm",
            "height",
            VK::Integer,
            Some(person),
            Single,
            Stable,
            true,
        ),
        net_worth: p(
            &mut o,
            "net_worth",
            "net worth",
            VK::Integer,
            Some(person),
            Single,
            Fast,
            true,
        ),
        social_followers: p(
            &mut o,
            "social_followers",
            "social media followers",
            VK::Integer,
            Some(person),
            Single,
            Fast,
            true,
        ),
        library_id: p(
            &mut o,
            "library_id",
            "national library id",
            VK::Identifier,
            None,
            Single,
            Stable,
            true,
        ),
        runtime_minutes: p(
            &mut o,
            "runtime_minutes",
            "runtime",
            VK::Integer,
            Some(types.movie),
            Single,
            Stable,
            true,
        ),
        population: p(
            &mut o,
            "population",
            "population",
            VK::Integer,
            Some(types.place),
            Single,
            Slow,
            true,
        ),
        rare: (0..rare_predicates)
            .map(|i| {
                p(
                    &mut o,
                    &format!("rare_pred_{i}"),
                    &format!("rare relation {i}"),
                    VK::Entity,
                    None,
                    Multi,
                    Stable,
                    false,
                )
            })
            .collect(),
    };
    (o, types, preds)
}

/// Configuration for the synthetic KG generator.
#[derive(Debug, Clone)]
#[allow(missing_docs)] // entity-count knobs; names are self-describing
pub struct SynthConfig {
    pub seed: u64,
    pub num_people: usize,
    pub num_movies: usize,
    pub num_songs: usize,
    pub num_orgs: usize,
    pub num_places: usize,
    pub num_teams: usize,
    /// Fraction of people that share a surface name with another person.
    pub homonym_fraction: f64,
    /// Number of rare predicates (each used ~2 times).
    pub rare_predicates: usize,
    /// Probability that a person gets each class of noise fact.
    pub noise_fact_rate: f64,
}

impl Default for SynthConfig {
    fn default() -> Self {
        Self {
            seed: 7,
            num_people: 2_000,
            num_movies: 600,
            num_songs: 800,
            num_orgs: 200,
            num_places: 150,
            num_teams: 60,
            homonym_fraction: 0.04,
            rare_predicates: 8,
            noise_fact_rate: 0.8,
        }
    }
}

impl SynthConfig {
    /// A small graph for fast unit tests.
    pub fn tiny(seed: u64) -> Self {
        Self {
            seed,
            num_people: 120,
            num_movies: 40,
            num_songs: 40,
            num_orgs: 20,
            num_places: 25,
            num_teams: 10,
            homonym_fraction: 0.05,
            rare_predicates: 4,
            noise_fact_rate: 0.8,
        }
    }
}

/// The generated graph plus ground-truth side information used by the
/// experiment harness.
#[derive(Debug)]
#[allow(missing_docs)] // per-type entity-id lists; names are self-describing
pub struct SynthKg {
    /// The generated graph.
    pub kg: KnowledgeGraph,
    pub types: TypeIds,
    pub preds: PredIds,
    pub people: Vec<EntityId>,
    pub movies: Vec<EntityId>,
    pub songs: Vec<EntityId>,
    pub orgs: Vec<EntityId>,
    pub places: Vec<EntityId>,
    pub teams: Vec<EntityId>,
    pub occupations: Vec<EntityId>,
    pub genres: Vec<EntityId>,
    /// Groups of entities sharing the same surface name.
    pub homonym_groups: Vec<Vec<EntityId>>,
    /// For each person with >1 occupation: occupations in ground-truth
    /// importance order (most important first). Ordered by person, so a
    /// walk over it is the same on every run.
    pub occupation_rank_truth: BTreeMap<EntityId, Vec<EntityId>>,
    /// The canonical worked examples from the paper.
    pub scenario: ScenarioEntities,
}

/// Entities wired to reproduce the paper's worked examples.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioEntities {
    /// Michael Jordan, the basketball player (Fig. 2).
    pub mj_player: EntityId,
    /// Michael Jordan, the professor (Fig. 2).
    pub mj_professor: EntityId,
    /// Michelle Williams, the music artist, DOB 1979-07-23 (Fig. 6).
    pub mw_singer: EntityId,
    /// Michelle Williams, the actress, DOB 1980-09-09 (Fig. 6).
    pub mw_actress: EntityId,
    /// Benicio del Toro (intro example).
    pub benicio: EntityId,
}

const FIRST_NAMES: &[&str] = &[
    "james", "mary", "robert", "patricia", "john", "jennifer", "michael", "linda", "david",
    "elena", "william", "sofia", "richard", "ana", "joseph", "laura", "thomas", "karen", "carlos",
    "nancy", "daniel", "amara", "matthew", "keiko", "anthony", "priya", "mark", "fatima", "paulo",
    "ingrid", "steven", "chloe", "andrew", "yuki", "joshua", "leila", "kevin", "marta", "brian",
    "rosa", "george", "diana", "edward", "alice", "ronald", "grace", "timothy", "helen",
];
const LAST_NAMES: &[&str] = &[
    "smith",
    "johnson",
    "garcia",
    "miller",
    "davis",
    "rodriguez",
    "martinez",
    "hernandez",
    "lopez",
    "gonzalez",
    "wilson",
    "anderson",
    "thomas",
    "taylor",
    "moore",
    "jackson",
    "martin",
    "lee",
    "perez",
    "thompson",
    "white",
    "harris",
    "sanchez",
    "clark",
    "ramirez",
    "lewis",
    "robinson",
    "walker",
    "young",
    "allen",
    "king",
    "wright",
    "scott",
    "torres",
    "nguyen",
    "hill",
    "flores",
    "green",
    "adams",
    "nelson",
    "baker",
    "hall",
    "rivera",
    "campbell",
    "mitchell",
    "carter",
    "roberts",
    "okafor",
    "kowalski",
    "haddad",
];
const PLACE_STEMS: &[&str] = &[
    "spring", "oak", "river", "lake", "stone", "maple", "cedar", "iron", "silver", "golden",
    "north", "east", "harbor", "crystal", "summit", "valley", "meadow", "aurora", "granite",
    "willow",
];
const PLACE_SUFFIXES: &[&str] =
    &["field", "ton", "ville", "burg", "port", "haven", "wood", "ford", "dale", "view"];
const MOVIE_ADJ: &[&str] = &[
    "silent",
    "crimson",
    "endless",
    "broken",
    "hidden",
    "burning",
    "frozen",
    "electric",
    "midnight",
    "golden",
    "savage",
    "quiet",
    "restless",
    "shattered",
    "velvet",
    "hollow",
];
const MOVIE_NOUN: &[&str] = &[
    "horizon",
    "empire",
    "garden",
    "shadow",
    "promise",
    "voyage",
    "reckoning",
    "symphony",
    "frontier",
    "labyrinth",
    "harvest",
    "covenant",
    "mirage",
    "cascade",
    "paradox",
    "winter",
];
const SONG_VERB: &[&str] = &[
    "dancing", "falling", "running", "dreaming", "waiting", "burning", "flying", "drifting",
    "singing", "breaking",
];
const SONG_TAIL: &[&str] = &[
    "in the rain",
    "without you",
    "tonight",
    "all over again",
    "under neon lights",
    "back home",
    "for the last time",
    "in slow motion",
    "past midnight",
    "on the highway",
];
const ORG_STEMS: &[&str] = &[
    "apex", "nova", "vertex", "quantum", "stellar", "cobalt", "meridian", "zenith", "atlas",
    "helios", "aurora", "titan", "vector", "lumen", "orbit",
];
const ORG_SUFFIXES: &[&str] = &[
    "labs",
    "industries",
    "systems",
    "media",
    "records",
    "studios",
    "group",
    "works",
    "dynamics",
    "institute",
];
const OCCUPATIONS: &[&str] = &[
    "basketball player",
    "professor",
    "singer",
    "actor",
    "film director",
    "writer",
    "politician",
    "software engineer",
    "chef",
    "painter",
    "journalist",
    "producer",
    "entrepreneur",
    "athlete",
    "composer",
];
const GENRES: &[&str] = &[
    "drama",
    "comedy",
    "thriller",
    "science fiction",
    "documentary",
    "pop",
    "rock",
    "jazz",
    "hip hop",
    "classical",
    "folk",
    "electronic",
];
const SPORTS: &[&str] = &["basketball", "baseball", "soccer", "hockey", "tennis"];

// Canonical popularity skew lives in `trace::zipf_popularity` so the serving
// load harness samples requests with exactly the skew the data was built
// with; re-exported here for the generation loops below.
use crate::trace::zipf_popularity;

/// Generates the synthetic KG. Deterministic in `cfg.seed`.
pub fn generate(cfg: &SynthConfig) -> SynthKg {
    let (ontology, types, preds) = standard_ontology(cfg.rare_predicates);
    let mut kg = KnowledgeGraph::new(ontology);
    let src = kg.register_source("synthetic");
    let mut rng = SplitMix64::new(cfg.seed);

    // ---- leaf vocabulary entities -------------------------------------
    let occupations: Vec<EntityId> = OCCUPATIONS
        .iter()
        .map(|name| {
            kg.add_entity(
                EntityBuilder::new(*name, types.occupation)
                    .description(format!("the occupation of {name}"))
                    .popularity(0.5),
            )
        })
        .collect();
    let genres: Vec<EntityId> = GENRES
        .iter()
        .map(|name| {
            kg.add_entity(
                EntityBuilder::new(*name, types.genre)
                    .description(format!("the {name} genre"))
                    .popularity(0.5),
            )
        })
        .collect();

    // ---- places (with a containment hierarchy) ------------------------
    let mut places = Vec::with_capacity(cfg.num_places);
    let mut used_place_names = std::collections::HashSet::new();
    for i in 0..cfg.num_places {
        let mut name;
        loop {
            name = format!(
                "{}{}",
                PLACE_STEMS[rng.gen_range(0..PLACE_STEMS.len())],
                PLACE_SUFFIXES[rng.gen_range(0..PLACE_SUFFIXES.len())]
            );
            if used_place_names.insert(name.clone()) {
                break;
            }
            name.push_str(&format!(" {}", used_place_names.len()));
            if used_place_names.insert(name.clone()) {
                break;
            }
        }
        let pop = zipf_popularity(i, cfg.num_places);
        let id = kg.add_entity(
            EntityBuilder::new(titlecase(&name), types.place)
                .description(format!(
                    "a city known for its {} district",
                    PLACE_STEMS[i % PLACE_STEMS.len()]
                ))
                .popularity(pop),
        );
        places.push(id);
    }
    for (i, &pl) in places.iter().enumerate() {
        if i >= 10 {
            let parent = places[rng.gen_range(0..10)];
            kg.insert_with(Triple::new(pl, preds.located_in, parent), src, 1.0);
        }
        if rng.gen_bool(cfg.noise_fact_rate) {
            kg.insert_with(
                Triple::new(pl, preds.population, rng.gen_range(5_000i64..5_000_000)),
                src,
                1.0,
            );
        }
    }

    // ---- teams ---------------------------------------------------------
    let mut teams = Vec::with_capacity(cfg.num_teams);
    for i in 0..cfg.num_teams {
        let city = places[rng.gen_range(0..places.len())];
        let sport = SPORTS[i % SPORTS.len()];
        let city_name = kg.entity(city).name.clone();
        let mascot = MOVIE_NOUN[rng.gen_range(0..MOVIE_NOUN.len())];
        let name = format!("{} {}s", city_name, titlecase(mascot));
        let id = kg.add_entity(
            EntityBuilder::new(&name, types.team)
                .description(format!("a professional {sport} team based in {city_name}"))
                .popularity(zipf_popularity(i, cfg.num_teams)),
        );
        kg.insert_with(Triple::new(id, preds.home_city, city), src, 1.0);
        teams.push(id);
    }

    // ---- people ---------------------------------------------------------
    let mut people = Vec::with_capacity(cfg.num_people + 5);
    let mut name_to_people: HashMap<String, Vec<EntityId>> = HashMap::new();
    let mut occupation_rank_truth = BTreeMap::new();

    // The paper's worked-example entities come first so they always exist.
    let scenario = {
        let mj_player = kg.add_entity(
            EntityBuilder::new("Michael Jordan", types.athlete)
                .alias("MJ")
                .alias("Air Jordan")
                .description("legendary basketball player, six-time champion")
                .popularity(0.99),
        );
        let mj_professor = kg.add_entity(
            EntityBuilder::new("Michael Jordan", types.academic)
                .description("professor of machine learning and statistics")
                .popularity(0.60),
        );
        let mw_singer = kg.add_entity(
            EntityBuilder::new("Michelle Williams", types.musician)
                .description("music artist and singer, member of a famous pop group")
                .popularity(0.70),
        );
        let mw_actress = kg.add_entity(
            EntityBuilder::new("Michelle Williams", types.actor)
                .description("award-winning film and television actress")
                .popularity(0.75),
        );
        let benicio = kg.add_entity(
            EntityBuilder::new("Benicio del Toro", types.actor)
                .alias("Benicio Del Toro")
                .description("acclaimed film actor and director")
                .popularity(0.85),
        );
        let bball = occupations[0]; // "basketball player"
        let prof = occupations[1]; // "professor"
        let singer = occupations[2]; // "singer"
        let actor = occupations[3]; // "actor"
        let director = occupations[4]; // "film director"
        kg.insert_with(Triple::new(mj_player, preds.occupation, bball), src, 1.0);
        kg.insert_with(Triple::new(mj_player, preds.member_of, teams[0]), src, 1.0);
        kg.insert_with(
            Triple::new(mj_player, preds.date_of_birth, Date::new(1963, 2, 17).unwrap()),
            src,
            1.0,
        );
        kg.insert_with(Triple::new(mj_professor, preds.occupation, prof), src, 1.0);
        kg.insert_with(Triple::new(mw_singer, preds.occupation, singer), src, 1.0);
        // NOTE: mw_singer's DOB (1979-07-23) is deliberately NOT inserted —
        // recovering it is the Fig. 6 ODKE scenario.
        kg.insert_with(Triple::new(mw_actress, preds.occupation, actor), src, 1.0);
        kg.insert_with(
            Triple::new(mw_actress, preds.date_of_birth, Date::new(1980, 9, 9).unwrap()),
            src,
            1.0,
        );
        kg.insert_with(Triple::new(benicio, preds.occupation, actor), src, 1.0);
        kg.insert_with(Triple::new(benicio, preds.occupation, director), src, 1.0);
        occupation_rank_truth.insert(benicio, vec![actor, director]);
        for &e in &[mj_player, mj_professor, mw_singer, mw_actress, benicio] {
            people.push(e);
            name_to_people.entry(kg.entity(e).name.to_lowercase()).or_default().push(e);
        }
        ScenarioEntities { mj_player, mj_professor, mw_singer, mw_actress, benicio }
    };

    let homonym_target = (cfg.num_people as f64 * cfg.homonym_fraction) as usize;
    for i in 0..cfg.num_people {
        let reuse_name = i > 0 && i <= homonym_target * 2 && i % 2 == 1;
        let name = if reuse_name {
            // Reuse the previous person's name to form a homonym pair.
            kg.entity(*people.last().unwrap()).name.clone()
        } else {
            format!(
                "{} {}",
                titlecase(FIRST_NAMES[rng.gen_range(0..FIRST_NAMES.len())]),
                titlecase(LAST_NAMES[rng.gen_range(0..LAST_NAMES.len())])
            )
        };
        let sub = match rng.gen_range(0..5) {
            0 => types.athlete,
            1 => types.academic,
            2 => types.musician,
            3 => types.actor,
            _ => types.person,
        };
        let n_occ =
            1 + (rng.gen_range(0..100) < 30) as usize + (rng.gen_range(0..100) < 10) as usize;
        let mut occs: Vec<EntityId> = Vec::new();
        while occs.len() < n_occ {
            let o = occupations[rng.gen_range(0..occupations.len())];
            if !occs.contains(&o) {
                occs.push(o);
            }
        }
        let occ_desc = kg.entity(occs[0]).name.clone();
        let pop = zipf_popularity(i, cfg.num_people) * rng.gen_range(0.5..1.0);
        let first = name.split(' ').next().unwrap_or(&name).to_owned();
        let mut builder = EntityBuilder::new(&name, sub)
            .description(format!("a well known {occ_desc}"))
            .popularity(pop);
        if rng.gen_bool(0.3) {
            builder = builder.alias(first);
        }
        let id = kg.add_entity(builder);
        people.push(id);
        name_to_people.entry(name.to_lowercase()).or_default().push(id);

        // Occupations: ranked ground truth = insertion order (first is the
        // "primary" one referenced by the description).
        for &o in &occs {
            kg.insert_with(Triple::new(id, preds.occupation, o), src, 1.0);
        }
        if occs.len() > 1 {
            occupation_rank_truth.insert(id, occs.clone());
        }

        // Core relational facts.
        let dob = Date::new(
            rng.gen_range(1930..2005),
            rng.gen_range(1..=12) as u8,
            rng.gen_range(1..=28) as u8,
        )
        .unwrap();
        kg.insert_with(Triple::new(id, preds.date_of_birth, dob), src, 1.0);
        let birthplace = places[rng.gen_range(0..places.len())];
        kg.insert_with(Triple::new(id, preds.born_in, birthplace), src, 1.0);
        if rng.gen_bool(0.7) {
            kg.insert_with(
                Triple::new(id, preds.lives_in, places[rng.gen_range(0..places.len())]),
                src,
                1.0,
            );
        }
        if sub == types.athlete {
            kg.insert_with(
                Triple::new(id, preds.member_of, teams[rng.gen_range(0..teams.len())]),
                src,
                1.0,
            );
        }
        // Spouses: link to a previous person occasionally (symmetric pair).
        if people.len() > 10 && rng.gen_bool(0.25) {
            let other = people[rng.gen_range(0..people.len() - 1)];
            if other != id && kg.objects(other, preds.spouse).is_empty() {
                kg.insert_with(Triple::new(id, preds.spouse, other), src, 1.0);
                kg.insert_with(Triple::new(other, preds.spouse, id), src, 1.0);
            }
        }
        // Noise facts.
        if rng.gen_bool(cfg.noise_fact_rate) {
            kg.insert_with(Triple::new(id, preds.height_cm, rng.gen_range(150i64..210)), src, 1.0);
        }
        if rng.gen_bool(cfg.noise_fact_rate * 0.5) {
            kg.insert_with(
                Triple::new(id, preds.net_worth, rng.gen_range(10_000i64..1_000_000_000)),
                src,
                1.0,
            );
        }
        if rng.gen_bool(cfg.noise_fact_rate * 0.6) {
            kg.insert_with(
                Triple::new(id, preds.social_followers, rng.gen_range(100i64..90_000_000)),
                src,
                1.0,
            );
        }
        if rng.gen_bool(cfg.noise_fact_rate * 0.4) {
            kg.insert_with(
                Triple::new(
                    id,
                    preds.library_id,
                    Value::Identifier(format!("NL{:08}", rng.gen::<u32>())),
                ),
                src,
                1.0,
            );
        }
    }

    // ---- organizations ---------------------------------------------------
    let mut orgs = Vec::with_capacity(cfg.num_orgs);
    for i in 0..cfg.num_orgs {
        let name = format!(
            "{} {}",
            titlecase(ORG_STEMS[rng.gen_range(0..ORG_STEMS.len())]),
            titlecase(ORG_SUFFIXES[rng.gen_range(0..ORG_SUFFIXES.len())])
        );
        let hq = places[rng.gen_range(0..places.len())];
        let id = kg.add_entity(
            EntityBuilder::new(format!("{name} {i}"), types.organization)
                .alias(name.clone())
                .description(format!("an organization headquartered in {}", kg.entity(hq).name))
                .popularity(zipf_popularity(i, cfg.num_orgs)),
        );
        kg.insert_with(Triple::new(id, preds.headquarters, hq), src, 1.0);
        kg.insert_with(
            Triple::new(id, preds.founded_by, people[rng.gen_range(0..people.len())]),
            src,
            1.0,
        );
        let fd = Date::new(rng.gen_range(1900..2020), rng.gen_range(1..=12) as u8, 1).unwrap();
        kg.insert_with(Triple::new(id, preds.founded_date, fd), src, 1.0);
        orgs.push(id);
    }
    // Employment edges.
    for &person in people.iter() {
        if rng.gen_bool(0.5) && !orgs.is_empty() {
            kg.insert_with(
                Triple::new(person, preds.works_for, orgs[rng.gen_range(0..orgs.len())]),
                src,
                1.0,
            );
        }
    }

    // ---- movies -----------------------------------------------------------
    let mut movies = Vec::with_capacity(cfg.num_movies);
    let actor_pool: Vec<EntityId> = people.to_vec();
    for i in 0..cfg.num_movies {
        let title = format!(
            "The {} {}",
            titlecase(MOVIE_ADJ[rng.gen_range(0..MOVIE_ADJ.len())]),
            titlecase(MOVIE_NOUN[rng.gen_range(0..MOVIE_NOUN.len())])
        );
        let title =
            if rng.gen_bool(0.35) { format!("{title} {}", rng.gen_range(2..4)) } else { title };
        // Benicio directs/stars in the first few movies (intro example).
        let director =
            if i < 4 { scenario.benicio } else { actor_pool[rng.gen_range(0..actor_pool.len())] };
        let id = kg.add_entity(
            EntityBuilder::new(&title, types.movie)
                .description(format!("a film directed by {}", kg.entity(director).name))
                .popularity(zipf_popularity(i, cfg.num_movies)),
        );
        kg.insert_with(Triple::new(id, preds.directed_by, director), src, 1.0);
        let n_cast = rng.gen_range(2..6);
        for _ in 0..n_cast {
            let a = actor_pool[rng.gen_range(0..actor_pool.len())];
            kg.insert_with(Triple::new(id, preds.starring, a), src, 1.0);
        }
        if i < 4 {
            kg.insert_with(Triple::new(id, preds.starring, scenario.mw_actress), src, 1.0);
        }
        kg.insert_with(
            Triple::new(id, preds.genre, genres[rng.gen_range(0..genres.len())]),
            src,
            1.0,
        );
        let rd = Date::new(
            rng.gen_range(1960..2023),
            rng.gen_range(1..=12) as u8,
            rng.gen_range(1..=28) as u8,
        )
        .unwrap();
        kg.insert_with(Triple::new(id, preds.release_date, rd), src, 1.0);
        if rng.gen_bool(cfg.noise_fact_rate) {
            kg.insert_with(
                Triple::new(id, preds.runtime_minutes, rng.gen_range(70i64..200)),
                src,
                1.0,
            );
        }
        movies.push(id);
    }

    // ---- songs --------------------------------------------------------------
    let mut songs = Vec::with_capacity(cfg.num_songs);
    for i in 0..cfg.num_songs {
        let title = format!(
            "{} {}",
            titlecase(SONG_VERB[rng.gen_range(0..SONG_VERB.len())]),
            SONG_TAIL[rng.gen_range(0..SONG_TAIL.len())]
        );
        let performer =
            if i < 3 { scenario.mw_singer } else { actor_pool[rng.gen_range(0..actor_pool.len())] };
        let id = kg.add_entity(
            EntityBuilder::new(titlecase(&title), types.song)
                .description(format!("a song by {}", kg.entity(performer).name))
                .popularity(zipf_popularity(i, cfg.num_songs)),
        );
        kg.insert_with(Triple::new(id, preds.performed_by, performer), src, 1.0);
        kg.insert_with(
            Triple::new(id, preds.genre, genres[rng.gen_range(5..genres.len())]),
            src,
            1.0,
        );
        let rd = Date::new(
            rng.gen_range(1960..2023),
            rng.gen_range(1..=12) as u8,
            rng.gen_range(1..=28) as u8,
        )
        .unwrap();
        kg.insert_with(Triple::new(id, preds.release_date, rd), src, 1.0);
        songs.push(id);
    }

    // ---- rare predicates: ~2 uses each -------------------------------------
    for &rp in &preds.rare {
        for _ in 0..2 {
            let a = people[rng.gen_range(0..people.len())];
            let b = people[rng.gen_range(0..people.len())];
            if a != b {
                kg.insert_with(Triple::new(a, rp, b), src, 1.0);
            }
        }
    }

    kg.commit();

    let homonym_groups: Vec<Vec<EntityId>> =
        name_to_people.into_values().filter(|v| v.len() > 1).collect();

    SynthKg {
        kg,
        types,
        preds,
        people,
        movies,
        songs,
        orgs,
        places,
        teams,
        occupations,
        genres,
        homonym_groups,
        occupation_rank_truth,
        scenario,
    }
}

/// Title-cases each whitespace-separated word.
pub fn titlecase(s: &str) -> String {
    s.split_whitespace()
        .map(|w| {
            let mut c = w.chars();
            match c.next() {
                Some(f) => f.to_uppercase().collect::<String>() + c.as_str(),
                None => String::new(),
            }
        })
        .collect::<Vec<_>>()
        .join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&SynthConfig::tiny(42));
        let b = generate(&SynthConfig::tiny(42));
        assert_eq!(a.kg.num_triples(), b.kg.num_triples());
        assert_eq!(a.kg.num_entities(), b.kg.num_entities());
        let ta: Vec<_> = a.kg.keys().collect();
        let tb: Vec<_> = b.kg.keys().collect();
        assert_eq!(ta, tb);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&SynthConfig::tiny(1));
        let b = generate(&SynthConfig::tiny(2));
        assert!(a.kg.keys().ne(b.kg.keys()));
    }

    #[test]
    fn scenario_entities_are_wired() {
        let s = generate(&SynthConfig::tiny(7));
        let kg = &s.kg;
        assert_eq!(kg.entity(s.scenario.mj_player).name, "Michael Jordan");
        assert_eq!(kg.entity(s.scenario.mj_professor).name, "Michael Jordan");
        assert_ne!(s.scenario.mj_player, s.scenario.mj_professor);
        // Fig. 6: the singer's DOB is missing, the actress's present.
        assert!(kg.object(s.scenario.mw_singer, s.preds.date_of_birth).is_none());
        assert_eq!(
            kg.object(s.scenario.mw_actress, s.preds.date_of_birth),
            Some(Value::Date(Date::new(1980, 9, 9).unwrap()))
        );
        // Benicio has movies.
        let directed = kg.subjects_with(s.preds.directed_by, &Value::Entity(s.scenario.benicio));
        assert!(directed.len() >= 4);
    }

    #[test]
    fn homonyms_exist() {
        let s = generate(&SynthConfig::tiny(7));
        assert!(!s.homonym_groups.is_empty());
        for group in &s.homonym_groups {
            let names: Vec<_> = group.iter().map(|&e| s.kg.entity(e).name.to_lowercase()).collect();
            assert!(names.windows(2).all(|w| w[0] == w[1]), "group shares a name");
        }
    }

    #[test]
    fn noise_and_rare_predicates_present() {
        let s = generate(&SynthConfig::tiny(7));
        let noisy = s.kg.triples_with_predicate(s.preds.height_cm).count();
        assert!(noisy > 0, "noise facts generated");
        let mut rare_total = 0;
        for &rp in &s.preds.rare {
            rare_total += s.kg.triples_with_predicate(rp).count();
        }
        assert!(rare_total > 0 && rare_total <= s.preds.rare.len() * 2);
    }

    #[test]
    fn store_invariants_hold_after_generation() {
        let s = generate(&SynthConfig::tiny(9));
        s.kg.check_invariants().unwrap();
        assert!(s.kg.num_triples() > 500);
    }

    #[test]
    fn occupation_rank_truth_matches_store() {
        let s = generate(&SynthConfig::tiny(7));
        assert!(!s.occupation_rank_truth.is_empty());
        for (&person, occs) in &s.occupation_rank_truth {
            let stored = s.kg.objects(person, s.preds.occupation);
            assert_eq!(stored.len(), occs.len());
            for o in occs {
                assert!(stored.contains(&Value::Entity(*o)));
            }
        }
    }

    #[test]
    fn titlecase_works() {
        assert_eq!(titlecase("hello world"), "Hello World");
        assert_eq!(titlecase(""), "");
    }
}
