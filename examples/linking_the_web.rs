//! "Linking the Web" (Fig. 4 / Sec. 3.1): annotate a web corpus against the
//! KG, disambiguate homonym mentions contextually, extend the KG with
//! entity→document edges, then incrementally re-annotate after churn.
//!
//! ```text
//! cargo run --release -p saga-examples --example linking_the_web
//! ```

use saga_annotation::{
    annotate_corpus, annotate_incremental, evaluate_linking, extend_kg_with_links,
    AnnotationService, LinkerConfig, Tier,
};
use saga_core::synth::{generate, SynthConfig};
use saga_webcorpus::{apply_churn, generate_corpus, ChurnConfig, CorpusConfig};

fn main() {
    let mut synth = generate(&SynthConfig::tiny(7));
    let (mut corpus, truth) = generate_corpus(&synth, &[], &CorpusConfig::tiny(9));
    println!("corpus: {} pages grounded in {} entities", corpus.len(), synth.kg.num_entities());

    // The paper's worked example: the same surface form, two entities.
    let svc = AnnotationService::build(&synth.kg, LinkerConfig::tier(Tier::T2Contextual));
    for query in [
        "Michael Jordan basketball championship stats",
        "Michael Jordan machine learning statistics students",
    ] {
        let links = svc.annotate(query);
        let top = links.iter().find(|l| &*l.form == "michael jordan");
        if let Some(l) = top {
            let e = synth.kg.entity(l.entity);
            println!("  '{query}'\n      → {} ({})", e.name, e.description);
        }
    }

    // Annotate the whole corpus in parallel (Fig. 4's "bulk annotation").
    let (mut annotated, stats) = annotate_corpus(&svc, &corpus, 4);
    println!(
        "\nbulk annotation: {} docs, {} mentions, {:.1} docs/s",
        stats.docs_processed,
        stats.mentions_found,
        stats.docs_processed as f64 / stats.elapsed.as_secs_f64().max(1e-9)
    );
    let quality = evaluate_linking(&annotated, &truth);
    println!(
        "linking quality: precision {:.3}, recall {:.3}, topic accuracy {:.3}",
        quality.precision, quality.recall, quality.topic_accuracy
    );

    // Extend the KG with entity→document link facts.
    let written = extend_kg_with_links(&mut synth.kg, &corpus, &annotated, 3);
    println!("\nextended the KG with {written} mentioned_in edges");
    let pred = synth.kg.ontology().predicate_by_name("mentioned_in").unwrap();
    let links = synth.kg.objects(synth.scenario.benicio, pred);
    println!("documents linked to Benicio del Toro:");
    for l in links.iter().take(3) {
        println!("  {l}");
    }

    // The Web changes: re-annotate only the changed pages (Sec. 3.1 "rate
    // of change").
    let report =
        apply_churn(&mut corpus, &ChurnConfig { edit_fraction: 0.05, new_pages: 8, seed: 3 });
    let inc = annotate_incremental(&svc, &corpus, &mut annotated, &report.changed);
    println!(
        "\nincremental pass after churn: {} of {} docs re-annotated ({:.1}% of a full pass)",
        inc.docs_processed,
        corpus.len(),
        100.0 * inc.docs_processed as f64 / corpus.len() as f64
    );
}
