//! Web page model: title, semi-structured infobox, prose paragraphs,
//! quality and freshness metadata.

use saga_core::DocId;

/// What kind of page this is — drives which extractors apply (paper Sec. 4:
/// rule-based extractors for schema.org-style structured data, neural-style
/// extractors for plain text).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageKind {
    /// Encyclopedia-style page about one entity, with an infobox.
    EntityProfile,
    /// News-style page mentioning several entities in prose only.
    News,
    /// Unrelated content (no KG entities).
    Noise,
}

/// A key-value row of a page's structured infobox section.
#[derive(Debug, Clone, PartialEq)]
pub struct InfoboxRow {
    /// Natural-language attribute label, e.g. `"date of birth"`.
    pub key: String,
    /// Rendered value, e.g. `"1979-07-23"`.
    pub value: String,
}

/// A semi-structured data table on a page (e.g. a filmography) — the
/// "extraction from tables" source exploited by web-scale KGs like
/// Knowledge Vault.
#[derive(Debug, Clone, PartialEq)]
pub struct PageTable {
    /// Caption, e.g. `"Filmography of Benicio del Toro"`.
    pub caption: String,
    /// Column headers; the first column names the row's subject, the rest
    /// are predicate phrases (e.g. `["title", "release date"]`).
    pub columns: Vec<String>,
    /// Cell text, row-major.
    pub rows: Vec<Vec<String>>,
}

/// A synthetic web document.
#[derive(Debug, Clone)]
pub struct WebPage {
    /// Identifier.
    pub id: DocId,
    /// Source URL.
    pub url: String,
    /// Page or table title.
    pub title: String,
    /// The model architecture.
    pub kind: PageKind,
    /// ISO-ish language tag (the corpus mixes `"en"` and `"es"`-flavoured
    /// templates to exercise the multilingual path).
    pub lang: String,
    /// Source quality prior in `[0,1]` (corroboration feature).
    pub quality: f32,
    /// Monotonic corpus version at which the page was last modified.
    pub last_modified: u64,
    /// Structured section (may be empty for prose-only pages).
    pub infobox: Vec<InfoboxRow>,
    /// Data tables (may be empty).
    pub tables: Vec<PageTable>,
    /// Prose paragraphs.
    pub paragraphs: Vec<String>,
}

impl WebPage {
    /// Full text used for indexing and annotation: title, infobox rendered
    /// as lines, then paragraphs.
    pub fn full_text(&self) -> String {
        let mut out = String::with_capacity(256);
        self.full_text_into(&mut out);
        out
    }

    /// [`full_text`](Self::full_text) into `out` (replacing its contents),
    /// for a pass that renders one page after another into one buffer.
    pub fn full_text_into(&self, out: &mut String) {
        out.clear();
        out.push_str(&self.title);
        out.push_str(". ");
        for row in &self.infobox {
            out.push_str(&row.key);
            out.push_str(": ");
            out.push_str(&row.value);
            out.push_str(". ");
        }
        for table in &self.tables {
            out.push_str(&table.caption);
            out.push_str(". ");
            push_joined(out, &table.columns);
            out.push_str(". ");
            for row in &table.rows {
                push_joined(out, row);
                out.push_str(". ");
            }
        }
        for p in &self.paragraphs {
            out.push_str(p);
            out.push(' ');
        }
    }
}

/// Appends `cells` joined by single spaces, as `cells.join(" ")` would.
fn push_joined(out: &mut String, cells: &[String]) {
    for (i, cell) in cells.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        out.push_str(cell);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_text_includes_all_sections() {
        let p = WebPage {
            id: DocId(1),
            url: "synth://p/1".into(),
            title: "Jane Doe".into(),
            kind: PageKind::EntityProfile,
            lang: "en".into(),
            quality: 0.9,
            last_modified: 0,
            infobox: vec![InfoboxRow { key: "date of birth".into(), value: "1970-01-01".into() }],
            tables: vec![PageTable {
                caption: "Bibliography of Jane Doe".into(),
                columns: vec!["title".into(), "release date".into()],
                rows: vec![vec!["First Book".into(), "1999-05-01".into()]],
            }],
            paragraphs: vec!["Jane Doe is a writer.".into()],
        };
        let t = p.full_text();
        assert!(t.contains("Jane Doe."));
        assert!(t.contains("date of birth: 1970-01-01."));
        assert!(t.contains("is a writer."));
        assert!(t.contains("Bibliography of Jane Doe"));
        assert!(t.contains("First Book 1999-05-01"));
        let mut reused = String::from("stale text from another page");
        p.full_text_into(&mut reused);
        assert_eq!(reused, t);
    }
}
