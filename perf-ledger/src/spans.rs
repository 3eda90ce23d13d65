//! In-memory span log of a traced run. Spans are recorded from the
//! benchmark's own files, around calls into the repo's public functions;
//! they are written out once, when the run ends.

use std::io::Write;
use std::path::Path;

/// One timed interval. `parent` is the id (1-based position) of the span
/// that caused it, 0 for a root; spans of one op share `request`.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub request: u64,
}

/// One row of [`Spans::summary`].
#[derive(Debug, Clone, Copy)]
pub struct NameTotal {
    pub name: &'static str,
    pub count: usize,
    pub total_ns: u64,
    /// `total_ns` minus the part covered by the spans' children.
    pub self_ns: u64,
}

#[derive(Debug, Default)]
pub struct Spans {
    spans: Vec<Span>,
}

impl Spans {
    pub fn with_capacity(n: usize) -> Self {
        Spans { spans: Vec::with_capacity(n) }
    }

    /// Records a span and returns its id, for children to name as parent.
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: u32,
        request: u64,
    ) -> u32 {
        self.spans.push(Span { name, start_ns, end_ns, parent, request });
        self.spans.len() as u32
    }

    /// Opens a span whose end is not known yet — a root whose children are
    /// recorded while it runs. [`close`](Self::close) stamps its end.
    pub fn open(&mut self, name: &'static str, parent: u32, request: u64) -> u32 {
        let now = crate::sys::now_ns();
        self.push(name, now, now, parent, request)
    }

    /// Stamps the end of the span `id` that [`open`](Self::open) returned.
    pub fn close(&mut self, id: u32) {
        self.spans[id as usize - 1].end_ns = crate::sys::now_ns();
    }

    /// Times `f` as a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = crate::sys::now_ns();
        let out = f();
        self.push(name, start, crate::sys::now_ns(), parent, request);
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Total nanoseconds spent in spans called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.end_ns - s.start_ns).sum()
    }

    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Mean duration of spans called `name` per span called `per`, in µs:
    /// "time in this layer per op". 0.0 when there is no `per` span.
    pub fn mean_us_per(&self, name: &str, per: &str) -> f64 {
        match self.count(per) {
            0 => 0.0,
            n => self.total_ns(name) as f64 / 1e3 / n as f64,
        }
    }

    /// Count, total and self time per span name, in order of first use.
    pub fn summary(&self) -> Vec<NameTotal> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in self.spans.iter().filter(|s| s.parent != 0) {
            child_ns[s.parent as usize - 1] += s.end_ns - s.start_ns;
        }
        let mut rows: Vec<NameTotal> = Vec::new();
        for (s, &children) in self.spans.iter().zip(&child_ns) {
            let at = rows.iter().position(|r| r.name == s.name).unwrap_or_else(|| {
                rows.push(NameTotal { name: s.name, count: 0, total_ns: 0, self_ns: 0 });
                rows.len() - 1
            });
            let ns = s.end_ns - s.start_ns;
            rows[at].count += 1;
            rows[at].total_ns += ns;
            rows[at].self_ns += ns.saturating_sub(children);
        }
        rows
    }

    /// Writes `id name start_ns end_ns parent request`, tab-separated.
    pub fn dump(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\trequest")?;
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                i + 1,
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent,
                s.request
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_what_children_do_not_cover() {
        let mut spans = Spans::default();
        let root = spans.push("op", 0, 100, 0, 1);
        spans.push("a", 0, 30, root, 1);
        spans.push("b", 30, 90, root, 1);
        let rows = spans.summary();
        let row = |name| *rows.iter().find(|r| r.name == name).expect("named");
        assert_eq!((row("op").count, row("op").total_ns, row("op").self_ns), (1, 100, 10));
        assert_eq!((row("b").total_ns, row("b").self_ns), (60, 60));
    }
}
