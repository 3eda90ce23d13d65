//! The experiment harness CLI: regenerates every paper figure's experiment
//! and writes `EXPERIMENTS-results.json`.
//!
//! ```text
//! cargo run --release -p saga-bench --bin experiments -- all
//! cargo run --release -p saga-bench --bin experiments -- e5 --quick
//! ```
//!
//! Results are merged by experiment id into any existing
//! `EXPERIMENTS-results.json`, so a partial rerun (`-- e15`) updates only
//! its own rows and leaves every other experiment's recorded output
//! untouched. These are the paper's quality tables; performance numbers
//! come from `perf-ledger/`.

use saga_bench::{run_experiment, ExperimentResult, Scale, EXPERIMENTS};

/// Splits the top-level objects out of a JSON array document, string- and
/// escape-aware, returning each object's raw text. Tolerates a missing or
/// malformed file by returning no chunks.
fn split_top_level_objects(doc: &str) -> Vec<String> {
    let mut chunks = Vec::new();
    let mut depth = 0usize;
    let mut start = None;
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in doc.char_indices() {
        if in_string {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' => {
                if depth == 0 {
                    start = Some(i);
                }
                depth += 1;
            }
            '}' => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    if let Some(s) = start.take() {
                        chunks.push(doc[s..=i].to_string());
                    }
                }
            }
            _ => {}
        }
    }
    chunks
}

/// Pulls the `"id"` value out of a raw result object, e.g. `E15`.
fn extract_id(chunk: &str) -> Option<String> {
    let key = chunk.find("\"id\"")?;
    let rest = &chunk[key + 4..];
    let open = rest.find('"')?;
    let rest = &rest[open + 1..];
    let close = rest.find('"')?;
    Some(rest[..close].to_string())
}

/// Sort key: numeric part of `E15`-style ids, unparseable ids last.
fn id_order(id: &str) -> (u64, String) {
    let num = id.trim_start_matches(|c: char| !c.is_ascii_digit());
    (num.parse().unwrap_or(u64::MAX), id.to_string())
}

/// Re-indents a raw chunk so every line sits under the array's 2-space
/// base indent, normalizing chunks recovered from a previous file.
fn reindent(chunk: &str) -> String {
    let trimmed: Vec<&str> = chunk.lines().map(|l| l.trim_start()).collect();
    if trimmed.len() <= 1 {
        return format!("  {}", chunk.trim());
    }
    // Preserve relative nesting by re-deriving it from the original lines.
    let base = chunk
        .lines()
        .skip(1)
        .filter(|l| !l.trim().is_empty())
        .map(|l| l.len() - l.trim_start().len())
        .min()
        .unwrap_or(0);
    let mut out = String::new();
    for (i, line) in chunk.lines().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        let lead = line.len() - line.trim_start().len();
        let rel = lead.saturating_sub(base);
        out.push_str("  ");
        if i > 0 {
            out.push_str(&" ".repeat(rel));
        }
        out.push_str(line.trim_start());
    }
    out
}

/// Merges freshly-run results into the existing results file by id and
/// returns the new document.
fn merge_results(existing: &str, fresh: &[ExperimentResult]) -> String {
    let fresh_ids: Vec<String> = fresh.iter().map(|r| r.id.clone()).collect();
    let mut chunks: Vec<(String, String)> = split_top_level_objects(existing)
        .into_iter()
        .filter_map(|c| {
            let id = extract_id(&c)?;
            if fresh_ids.contains(&id) {
                None // superseded by this run
            } else {
                Some((id, reindent(&c)))
            }
        })
        .collect();
    for r in fresh {
        chunks.push((r.id.clone(), format!("  {}", r.to_json("  "))));
    }
    chunks.sort_by_key(|(id, _)| id_order(id));
    let body: Vec<String> = chunks.into_iter().map(|(_, c)| c).collect();
    format!("[\n{}\n]", body.join(",\n"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let scale = if quick { Scale::Quick } else { Scale::Full };
    let ids: Vec<String> = args.iter().filter(|a| !a.starts_with("--")).cloned().collect();
    let ids: Vec<String> = if ids.is_empty() || ids.iter().any(|i| i == "all") {
        EXPERIMENTS.iter().map(|s| s.to_string()).collect()
    } else {
        ids
    };

    let mut results = Vec::new();
    for id in &ids {
        eprintln!("running {id} ({scale:?})...");
        let start = std::time::Instant::now();
        match run_experiment(id, scale) {
            Some(r) => {
                println!("{}", r.render());
                eprintln!("{id} finished in {:.1}s", start.elapsed().as_secs_f64());
                results.push(r);
            }
            None => {
                eprintln!("unknown experiment id: {id}");
                eprintln!("known: {}", EXPERIMENTS.join(", "));
                std::process::exit(2);
            }
        }
    }

    let out = std::path::Path::new("EXPERIMENTS-results.json");
    let existing = std::fs::read_to_string(out).unwrap_or_default();
    let doc = merge_results(&existing, &results);
    match std::fs::write(out, doc) {
        Ok(()) => eprintln!("wrote {}", out.display()),
        Err(e) => eprintln!("could not write {}: {e}", out.display()),
    }
}
