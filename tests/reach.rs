//! Every `pub fn` of the product crates has a product caller.
//!
//! The scan reads the non-test code of `crates/*/src` (all but the dev-only
//! `crates/testkit`), `examples/` and `perf-ledger/src`. The contents of
//! string and char literals are blanked, and every `#[cfg(test)]` item is
//! cut out by brace matching, together with the files a
//! `#[cfg(test)] mod name;` declares: a test-only item may sit above product
//! code, so cutting a file at its first `#[cfg(test)]` would hide callers.
//! Comments are blanked too, and so is every `use` item (`pub use` and
//! `pub(crate) use` included): an import or a re-export names a fn without
//! calling it, and a real import is still counted where the code uses the
//! name. A `pub fn` defined in `crates/*/src` is reached when its name
//! occurs as an identifier anywhere in what is left, outside its own
//! definitions. The scan is by name, a net for mechanisms that no product
//! code names rather than a call graph: two fns that share a name are
//! reached together.
//!
//! A mechanism that only tests reach is deleted with its tests, or named in
//! [`ALLOWED`] with the reason it stays: a hook through which a test checks
//! behaviour that no public path shows. An entry fails the test once its fn
//! gains a product caller or no longer exists, so the list only shrinks.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

/// `(Owner::name, reason)`: test hooks kept on purpose. The owner is the
/// `impl` block's type, or the file's module for a free fn.
const ALLOWED: &[(&str, &str)] = &[
    (
        "RetryPolicy::no_retries",
        "the chaos matrix runs the client without retries, to see each fault's raw outcome",
    ),
    (
        "CrashMatrixReport::assert_clean",
        "the engine crash matrix's verdict: every cell recovered to its oracle",
    ),
    (
        "CircuitBreaker::is_open",
        "the breaker's state, which a reply shows only once a call is refused",
    ),
    (
        "CheckpointedTrainer::with_kill_after_rounds",
        "the trainer kill matrix stops a run at a chosen round boundary",
    ),
    (
        "TrainCheckpointLog::rounds_recovered",
        "how many rounds a resumed trainer replayed from its log",
    ),
    (
        "ResilientOdke::with_max_targets",
        "bounds a fault-matrix run to a few targets so every cell stays small",
    ),
    (
        "ResilientAnnotator::with_pass",
        "runs the annotation fault matrix at a chosen tier and worker count",
    ),
    ("SagaClient::budget_remaining", "the retry budget, which a reply shows only once it is spent"),
    ("ShardedService::dedup_count", "how many searches a batch answered from a duplicate's scan"),
    (
        "QuantizedTable::dequantize_row",
        "the quantization round-trip error bound is checked on decoded rows",
    ),
    ("ContextAsset::table_bytes", "the shipped asset's size, which the device size test compares"),
    (
        "ContextAsset::f32_table_bytes",
        "the f32 tables' size, the other side of the device size test",
    ),
    (
        "ShardedService::captured",
        "each search's shard hits, which the sharded-merge tests compare with an unsharded scan; \
         perf-ledger builds the service with `capture` off",
    ),
    (
        "fault::crash_matrix",
        "the one harness of the engine and trainer kill matrices: it runs every kill point and \
         reports all that failed",
    ),
    (
        "KillSwitch::armed",
        "the engine crash matrix arms a kill at each I/O operation of a workload; no product \
         path crashes its own store",
    ),
    (
        "kernels::force_backend",
        "the backend-equivalence and zero-alloc gates pin each kernel backend in turn; the \
         product dispatches to the detected one",
    ),
];

/// One `pub fn` definition found by the scan.
#[derive(Debug)]
struct Def {
    key: String,
    file: PathBuf,
    line: usize,
}

/// What the scan found over a repository.
struct Scan {
    /// Every `pub fn` of `crates/*/src`, by name.
    defs: BTreeMap<String, Vec<Def>>,
    /// How often each identifier occurs in non-test code.
    uses: BTreeMap<String, usize>,
}

impl Scan {
    /// `pub fn` names that occur nowhere but in their own definitions.
    fn unreached(&self) -> impl Iterator<Item = &Def> {
        self.defs
            .iter()
            .filter(|(name, defs)| self.uses.get(*name).copied().unwrap_or(0) <= defs.len())
            .flat_map(|(_, defs)| defs)
    }
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("workspace root").to_path_buf()
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    let mut paths: Vec<PathBuf> = entries.map(|e| e.expect("dir entry").path()).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            if p.file_name().is_some_and(|n| n != "target") {
                rust_files(&p, out);
            }
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// The product source files: `(file, whether its pub fns are checked)`.
fn product_files(root: &Path) -> Vec<(PathBuf, bool)> {
    let mut crates: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .expect("crates/")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.file_name().is_some_and(|n| n != "testkit"))
        .collect();
    crates.sort();
    let mut out = Vec::new();
    for c in crates {
        let mut files = Vec::new();
        rust_files(&c.join("src"), &mut files);
        out.extend(files.into_iter().map(|f| (f, true)));
    }
    for dir in [root.join("examples"), root.join("perf-ledger").join("src")] {
        let mut files = Vec::new();
        rust_files(&dir, &mut files);
        out.extend(files.into_iter().map(|f| (f, false)));
    }
    out
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Blanks `s[from..to]`, keeping its newlines so that lines still count.
fn blank(s: &mut [char], from: usize, to: usize) {
    for c in &mut s[from..to] {
        if *c != '\n' {
            *c = ' ';
        }
    }
}

/// One source file as the scan reads it: every char keeps its position,
/// and comments and the contents of string and char literals are blanked.
fn lex(src: &str) -> Vec<char> {
    let s: Vec<char> = src.chars().collect();
    let mut code = s.clone();
    let mut i = 0;
    while i < s.len() {
        let prev_ident = i > 0 && is_ident(s[i - 1]);
        // (blanked range, where to go on)
        let (from, to, next) = match s[i] {
            '/' if s.get(i + 1) == Some(&'/') => {
                let end = (i..s.len()).find(|&j| s[j] == '\n').unwrap_or(s.len());
                (i, end, end)
            }
            '/' if s.get(i + 1) == Some(&'*') => {
                let (mut depth, mut j) = (1, i + 2);
                while j < s.len() && depth > 0 {
                    if s[j] == '/' && s.get(j + 1) == Some(&'*') {
                        (depth, j) = (depth + 1, j + 2);
                    } else if s[j] == '*' && s.get(j + 1) == Some(&'/') {
                        (depth, j) = (depth - 1, j + 2);
                    } else {
                        j += 1;
                    }
                }
                (i, j, j)
            }
            // A raw string `r#"…"#` (or `br"…"`), else an identifier.
            'r' if !prev_ident || (s[i - 1] == 'b' && (i < 2 || !is_ident(s[i - 2]))) => {
                let hashes = s[i + 1..].iter().take_while(|&&c| c == '#').count();
                if s.get(i + 1 + hashes) != Some(&'"') {
                    i += 1;
                    continue;
                }
                let body = i + 2 + hashes;
                let closes = |j: usize| {
                    s[j] == '"'
                        && s[j + 1..].iter().take(hashes).filter(|&&c| c == '#').count() == hashes
                };
                let end = (body..s.len()).find(|&j| closes(j)).unwrap_or(s.len());
                (body, end, end + 1 + hashes)
            }
            '"' => {
                let mut j = i + 1;
                while j < s.len() && s[j] != '"' {
                    j += if s[j] == '\\' { 2 } else { 1 };
                }
                (i + 1, j.min(s.len()), j + 1)
            }
            // A char literal; a lifetime or label is left as it is.
            '\'' if s.get(i + 1) == Some(&'\\') || s.get(i + 2) == Some(&'\'') => {
                let first = if s[i + 1] == '\\' { i + 3 } else { i + 2 };
                let end = (first..s.len()).find(|&j| s[j] == '\'').unwrap_or(s.len());
                (i + 1, end, end + 1)
            }
            _ => {
                i += 1;
                continue;
            }
        };
        blank(&mut code, from, to);
        i = next;
    }
    code
}

/// Index just past the bracket that closes the one at `open`.
fn close_of(s: &[char], open: usize) -> usize {
    let (o, c) = (
        s[open],
        match s[open] {
            '{' => '}',
            '(' => ')',
            '[' => ']',
            _ => unreachable!("not an opening bracket"),
        },
    );
    let mut depth = 0usize;
    for (j, &ch) in s.iter().enumerate().skip(open) {
        if ch == o {
            depth += 1;
        } else if ch == c {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
    }
    s.len()
}

fn skip_ws(s: &[char], mut i: usize) -> usize {
    while i < s.len() && s[i].is_whitespace() {
        i += 1;
    }
    i
}

/// Blanks every `#[cfg(test)]` item of `src` (the attribute, any
/// attributes after it, and the item up to its closing brace or semicolon).
/// Returns the modules that such items declare out of line
/// (`#[cfg(test)] mod name;`).
fn strip_test_items(s: &mut [char]) -> Vec<String> {
    const ATTR: &str = "#[cfg(test)]";
    let attr: Vec<char> = ATTR.chars().collect();
    let mut test_mods = Vec::new();
    let mut i = 0;
    while i + attr.len() <= s.len() {
        if s[i..i + attr.len()] != attr[..] {
            i += 1;
            continue;
        }
        let mut j = skip_ws(s, i + attr.len());
        while s.get(j) == Some(&'#') {
            j = skip_ws(s, close_of(s, skip_ws(s, j + 1)));
        }
        let item_start = j;
        let mut depth = 0i32;
        let end = loop {
            match s.get(j) {
                None => break s.len(),
                Some('(' | '[') => depth += 1,
                Some(')' | ']') => depth -= 1,
                Some(';') if depth == 0 => break j + 1,
                Some('{') if depth == 0 => break close_of(s, j),
                _ => {}
            }
            j += 1;
        };
        let item: String = s[item_start..end].iter().collect();
        let words: Vec<&str> =
            item.split(|c: char| !is_ident(c)).filter(|w| !w.is_empty()).collect();
        if item.trim_end().ends_with(';') {
            if let Some(p) = words.iter().position(|&w| w == "mod") {
                test_mods.push(words[p + 1].to_string());
            }
        }
        blank(s, i, end);
        i = end;
    }
    test_mods
}

/// Blanks every `use` item of `s` (`pub use` and `pub(crate) use` too)
/// from the keyword up to its semicolon, which stays as an item boundary:
/// an import or a re-export names a fn but calls nothing.
fn blank_use_items(s: &mut [char]) {
    let ids = idents(s);
    for (k, (at, word)) in ids.iter().enumerate() {
        if word != "use" {
            continue;
        }
        // An item follows an item boundary or a visibility; `+ use<'a>`
        // does not.
        let before = s[..*at].iter().rev().find(|c| !c.is_whitespace());
        let after_pub = k > 0 && ids[k - 1].1 == "pub" && before == Some(&'b');
        if after_pub || matches!(before, None | Some('}' | ';' | '{' | ']' | ')')) {
            let end = (*at..s.len()).find(|&j| s[j] == ';').unwrap_or(s.len());
            blank(s, *at, end);
        }
    }
}

/// Identifiers of `s` with their start offsets.
fn idents(s: &[char]) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < s.len() {
        if is_ident(s[i]) && (i == 0 || !is_ident(s[i - 1])) {
            let start = i;
            while i < s.len() && is_ident(s[i]) {
                i += 1;
            }
            if !s[start].is_ascii_digit() {
                out.push((start, s[start..i].iter().collect()));
            }
        } else {
            i += 1;
        }
    }
    out
}

/// `(body start, body end, self type)` of every `impl` block of `s`.
fn impl_blocks(s: &[char], ids: &[(usize, String)]) -> Vec<(usize, usize, String)> {
    let mut out = Vec::new();
    for (k, (at, word)) in ids.iter().enumerate() {
        if word != "impl" {
            continue;
        }
        // An item `impl` follows an item boundary; `-> impl Trait` does not.
        let before = s[..*at].iter().rev().find(|c| !c.is_whitespace());
        let item = matches!(before, None | Some('}' | ';' | ']' | '{'))
            || (k > 0 && ids[k - 1].1 == "unsafe");
        if !item {
            continue;
        }
        let Some(open) = (at + 4..s.len()).find(|&j| s[j] == '{') else { continue };
        // The header up to any `where`, on one line.
        let header: String = s[at + 4..open].iter().collect();
        let header: Vec<&str> = header.split_whitespace().take_while(|w| *w != "where").collect();
        let header = header.join(" ");
        let header = header.as_str();
        // Drop the `impl<…>` generics, then take the type after `for`.
        let header = if header.starts_with('<') {
            let mut depth = 0;
            let cut = header
                .char_indices()
                .find(|&(_, c)| {
                    depth += match c {
                        '<' => 1,
                        '>' => -1,
                        _ => 0,
                    };
                    depth == 0
                })
                .map_or(header.len(), |(p, _)| p + 1);
            &header[cut..]
        } else {
            header
        };
        let ty = header.rsplit(" for ").next().unwrap_or(header);
        let ty = ty.split('<').next().unwrap_or(ty);
        let name = ty.rsplit(|c: char| !is_ident(c)).find(|w| !w.is_empty()).unwrap_or("");
        out.push((open, close_of(s, open), name.to_string()));
    }
    out
}

/// Whether `file` is a crate or `mod.rs` root, whose child modules sit
/// beside it rather than in a directory named after it.
fn is_module_root(file: &Path) -> bool {
    file.file_stem().is_some_and(|s| s == "lib" || s == "main" || s == "mod")
}

/// The module a free fn of `file` belongs to, for its allow-list key.
fn module_of(file: &Path) -> String {
    let named = if is_module_root(file) {
        let dir = file.parent().expect("file in a dir");
        if dir.ends_with("src") {
            dir.parent().expect("crate")
        } else {
            dir
        }
    } else {
        file
    };
    named.file_stem().and_then(|s| s.to_str()).unwrap_or("").to_string()
}

/// Reads one file as [`lex`], [`strip_test_items`] and [`blank_use_items`]
/// leave it. Returns it and the test modules it declares out of line.
fn read_source(src: &str) -> (Vec<char>, Vec<String>) {
    let mut s = lex(src);
    let test_mods = strip_test_items(&mut s);
    blank_use_items(&mut s);
    (s, test_mods)
}

impl Scan {
    /// Counts the mentions of `s`, the text of `file` as [`read_source`]
    /// leaves it, and with `checked` also its `pub fn` definitions.
    fn add(&mut self, file: &Path, checked: bool, s: &[char]) {
        let ids = idents(s);
        for (_, w) in &ids {
            *self.uses.entry(w.clone()).or_default() += 1;
        }
        if !checked {
            return;
        }
        let impls = impl_blocks(s, &ids);
        for k in 0..ids.len() {
            if ids[k].1 != "pub" {
                continue;
            }
            // `pub fn`, `pub const fn`, `pub unsafe fn`, but no `pub(crate)`.
            let adjacent = |a: usize| {
                a + 1 < ids.len()
                    && s[ids[a].0 + ids[a].1.len()..ids[a + 1].0].iter().all(|c| c.is_whitespace())
            };
            let mut f = k + 1;
            while adjacent(f - 1) && matches!(ids[f].1.as_str(), "const" | "unsafe" | "async") {
                f += 1;
            }
            if !adjacent(f - 1) || ids[f].1 != "fn" || !adjacent(f) {
                continue;
            }
            let (at, name) = &ids[f + 1];
            let owner = impls
                .iter()
                .filter(|(open, close, _)| open < at && at < close)
                .max_by_key(|(open, ..)| *open)
                .map_or_else(|| module_of(file), |(.., ty)| ty.clone());
            let line = s[..*at].iter().filter(|&&c| c == '\n').count() + 1;
            self.defs.entry(name.clone()).or_default().push(Def {
                key: format!("{owner}::{name}"),
                file: file.to_path_buf(),
                line,
            });
        }
    }
}

/// Scans the repository at `root`.
fn scan(root: &Path) -> Scan {
    let mut texts = Vec::new();
    let mut excluded = BTreeSet::new();
    for (file, checked) in product_files(root) {
        let (s, test_mods) = read_source(&fs::read_to_string(&file).expect("read source"));
        for m in test_mods {
            let dir = if is_module_root(&file) {
                file.parent().expect("file in a dir").to_path_buf()
            } else {
                file.with_extension("")
            };
            excluded.insert(dir.join(format!("{m}.rs")));
            excluded.insert(dir.join(&m).join("mod.rs"));
        }
        texts.push((file, checked, s));
    }
    let mut scan = Scan { defs: BTreeMap::new(), uses: BTreeMap::new() };
    for (file, checked, s) in texts.iter().filter(|(f, ..)| !excluded.contains(f)) {
        scan.add(file.strip_prefix(root).unwrap_or(file), *checked, s);
    }
    scan
}

#[test]
fn every_pub_fn_has_a_product_caller_or_an_allow_list_reason() {
    let root = repo_root();
    let scan = scan(&root);
    assert!(scan.defs.len() > 100, "the scan found only {} pub fns", scan.defs.len());
    let allowed: BTreeSet<&str> = ALLOWED.iter().map(|(key, _)| *key).collect();
    let unreached: Vec<&Def> = scan.unreached().collect();
    let unreached_keys: BTreeSet<&str> = unreached.iter().map(|d| d.key.as_str()).collect();
    let fresh: Vec<String> = unreached
        .iter()
        .filter(|d| !allowed.contains(d.key.as_str()))
        .map(|d| format!("  {} ({}:{})", d.key, d.file.display(), d.line))
        .collect();
    assert!(
        fresh.is_empty(),
        "pub fns that only tests reach — delete them with their tests, or allow-list them \
         with a reason in tests/reach.rs:\n{}",
        fresh.join("\n")
    );
    let defined: BTreeSet<String> = scan.defs.values().flatten().map(|d| d.key.clone()).collect();
    let stale: Vec<String> = ALLOWED
        .iter()
        .filter(|(key, _)| !unreached_keys.contains(key))
        .map(|(key, _)| {
            let why =
                if defined.contains(*key) { "has a product caller" } else { "no longer exists" };
            format!("  {key}: {why}")
        })
        .collect();
    assert!(
        stale.is_empty(),
        "allow-list entries to remove from tests/reach.rs:\n{}",
        stale.join("\n")
    );
}

#[test]
fn the_scan_sees_through_comments_strings_and_test_items() {
    let src = r##"
pub fn shipped() { helper(); }
// Named in a comment: documented_here. #[cfg(test)] {
/* nested /* block_comment_word */ */
/// pub fn in_a_doc_example() {}
const S: &str = "tested(); { ";
const R: &str = r#"tested(); "{" "#;
const C: char = '{';
const Q: char = '\'';
#[cfg(test)]
fn only_test() { tested(); let _ = '}'; }
pub fn after<'a>(x: &'a str) -> &'a str { x }
#[cfg(test)]
mod tests { fn t() { tested(); after(""); } }
#[cfg(test)]
mod reference;
"##;
    let (s, test_mods) = read_source(src);
    assert_eq!(test_mods, ["reference"]);
    let words: Vec<String> = idents(&s).into_iter().map(|(_, w)| w).collect();
    assert!(words.contains(&"helper".to_string()), "the call to helper was lost");
    assert_eq!(words.iter().filter(|w| *w == "after").count(), 1, "code after a test item was cut");
    for gone in [
        "documented_here",
        "block_comment_word",
        "in_a_doc_example",
        "tested",
        "only_test",
        "tests",
        "reference",
    ] {
        assert!(!words.contains(&gone.to_string()), "{gone} survived the scan");
    }
}

#[test]
fn comments_and_use_items_reach_nothing_but_an_imported_call_does() {
    let src = r#"
use crate::a::{called_by_import, line_commented};
pub use crate::b::{reexported, doc_commented};
pub(crate) use crate::c::block_commented as renamed;
use std::fmt;
pub fn called_by_import() {}
pub fn line_commented() {}
pub fn doc_commented() {}
pub fn block_commented() {}
pub fn reexported() {}
// line_commented();
/// Calls [`doc_commented`].
/* block_commented(); */
pub fn shipped() -> impl fmt::Debug + use<> { called_by_import() }
impl Thing {}
"#;
    let (s, _) = read_source(src);
    let mut scan = Scan { defs: BTreeMap::new(), uses: BTreeMap::new() };
    scan.add(Path::new("crates/x/src/lib.rs"), true, &s);
    let unreached: BTreeSet<&str> = scan.unreached().map(|d| d.key.as_str()).collect();
    let expected = [
        "x::block_commented",
        "x::doc_commented",
        "x::line_commented",
        "x::reexported",
        "x::shipped",
    ];
    assert_eq!(unreached, BTreeSet::from(expected));
    assert_eq!(scan.uses["fmt"], 1, "a name the code uses stays counted after its import");
    let impls = impl_blocks(&s, &idents(&s));
    assert_eq!(impls.len(), 1, "a blanked use item must leave its item boundary");
}
