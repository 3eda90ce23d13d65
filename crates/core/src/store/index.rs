//! One sorted index of a [`KnowledgeGraph`](super::KnowledgeGraph), in
//! chunks a graph and its clones share.
//!
//! An [`Index`] holds its entries in sorted runs of about [`CHUNK`], each
//! behind an `Arc`, and a vector of chunk pointers beside each chunk's first
//! key. A lookup binary-searches the first keys, then the one chunk.
//!
//! **What a copy costs.** Cloning an index copies the pointer vector: one
//! allocation of 40 bytes a chunk, whatever the chunks hold. A commit
//! ([`Index::apply`]) copies on write exactly the chunks its sorted delta
//! lands in. A chunk whose length the delta keeps (a meta refresh) is
//! written in place when the index owns it and copied once when a clone
//! or a pin shares it; a chunk that gains or loses entries is rebuilt in one
//! allocation, as long as it is. A rebuilt run longer than [`MAX_CHUNK`]
//! is split into runs of about [`CHUNK`], and one shorter than
//! [`MIN_CHUNK`] takes in the chunks after it, so every chunk but the last
//! holds `MIN_CHUNK..=MAX_CHUNK` entries. The merge goes through a buffer
//! each thread keeps, so a commit allocates nothing beyond its chunks and,
//! when a chunk is split, merged or emptied, the pointer vector's growth.

use crate::triple::{FactMeta, TripleKey};
use std::cell::RefCell;
use std::cmp::Ordering;
use std::sync::Arc;

/// Entries per chunk when an index is built or a long run is split.
pub(crate) const CHUNK: usize = 128;
/// The most entries a chunk holds.
pub(crate) const MAX_CHUNK: usize = 2 * CHUNK;
/// The fewest entries a chunk holds, but the last.
pub(crate) const MIN_CHUNK: usize = CHUNK / 4;
/// Entries a thread's merge buffer holds from its first use: a commit's
/// region of chunks fits without growing it, so the buffer is allocated
/// once per thread. A merge that grows it further (a bulk load) frees it
/// afterwards, so it does not keep a bulk's worth.
const KEEP_SCRATCH: usize = 4 * MAX_CHUNK;

/// An SPO entry: a fact's key with its meta beside it.
pub(crate) type Fact = (TripleKey, FactMeta);

/// What an index holds per fact.
pub(crate) trait Entry: Copy + 'static {
    /// The key the index sorts this entry by.
    fn key(&self) -> TripleKey;
    /// Runs `f` with this thread's merge buffer for entries of this type.
    fn with_scratch<R>(f: impl FnOnce(&mut Vec<Self>) -> R) -> R;
}

thread_local! {
    static KEY_SCRATCH: RefCell<Vec<TripleKey>> = const { RefCell::new(Vec::new()) };
    static FACT_SCRATCH: RefCell<Vec<Fact>> = const { RefCell::new(Vec::new()) };
}

/// Lends `cell`'s buffer to `f` empty, with room for [`KEEP_SCRATCH`]
/// entries, and frees it afterwards if `f` grew it past that.
fn lend<E, R>(cell: &RefCell<Vec<E>>, f: impl FnOnce(&mut Vec<E>) -> R) -> R {
    let mut buf = cell.borrow_mut();
    buf.clear();
    buf.reserve_exact(KEEP_SCRATCH);
    let out = f(&mut buf);
    if buf.capacity() > KEEP_SCRATCH {
        *buf = Vec::new();
    }
    out
}

impl Entry for TripleKey {
    fn key(&self) -> TripleKey {
        *self
    }
    fn with_scratch<R>(f: impl FnOnce(&mut Vec<Self>) -> R) -> R {
        KEY_SCRATCH.with(|cell| lend(cell, f))
    }
}

impl Entry for Fact {
    fn key(&self) -> TripleKey {
        self.0
    }
    fn with_scratch<R>(f: impl FnOnce(&mut Vec<Self>) -> R) -> R {
        FACT_SCRATCH.with(|cell| lend(cell, f))
    }
}

/// A sorted run of entries that indexes share.
#[derive(Clone)]
struct Chunk<E> {
    /// The key of `entries[0]`.
    first: TripleKey,
    entries: Arc<[E]>,
}

impl<E: Entry> Chunk<E> {
    /// A chunk of a copy of `entries`, which is not empty: one allocation.
    fn new(entries: &[E]) -> Self {
        Chunk { first: entries[0].key(), entries: Arc::from(entries) }
    }
}

/// A place in an index: the offset in a chunk. The end of the index is
/// offset 0 of the chunk past the last. Eight bytes, so a publish's table
/// of literal runs is no wider than a table of slices.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Place {
    chunk: u32,
    at: u32,
}

impl Place {
    fn new(chunk: usize, at: usize) -> Self {
        let narrow = |n: usize| u32::try_from(n).expect("an index of fewer than 2^32 chunks");
        Place { chunk: narrow(chunk), at: narrow(at) }
    }

    fn chunk(self) -> usize {
        self.chunk as usize
    }

    fn at(self) -> usize {
        self.at as usize
    }
}

/// The entries of a graph in one sort order. See the module docs.
#[derive(Clone)]
pub(crate) struct Index<E> {
    chunks: Vec<Chunk<E>>,
    len: usize,
}

impl<E> Default for Index<E> {
    fn default() -> Self {
        Index { chunks: Vec::new(), len: 0 }
    }
}

impl<E> std::fmt::Debug for Index<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Index({} entries in {} chunks)", self.len, self.chunks.len())
    }
}

impl<E: Entry> Index<E> {
    /// An index of `entries`, which are sorted and distinct, in chunks of
    /// [`CHUNK`].
    pub(crate) fn from_sorted(entries: &[E]) -> Self {
        Index { chunks: entries.chunks(CHUNK).map(Chunk::new).collect(), len: entries.len() }
    }

    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Every entry, in order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &E> + '_ {
        self.chunks.iter().flat_map(|c| c.entries.iter())
    }

    /// The last entry.
    pub(crate) fn last(&self) -> Option<&E> {
        self.chunks.last().and_then(|c| c.entries.last())
    }

    /// The first place whose key is not `below`, for a `below` that holds
    /// for a prefix of the index: a binary search of the chunks' first
    /// keys, then of one chunk.
    pub(crate) fn place(&self, below: impl Fn(&TripleKey) -> bool) -> Place {
        let c = self.chunks.partition_point(|ch| below(&ch.first));
        let Some(chunk) = c.checked_sub(1).map(|c| &self.chunks[c]) else {
            return Place::default();
        };
        match chunk.entries.partition_point(|e| below(&e.key())) {
            at if at == chunk.entries.len() => Place::new(c, 0),
            at => Place::new(c - 1, at),
        }
    }

    /// The entries from `from` up to, not including, `to`.
    pub(crate) fn between(&self, from: Place, to: Place) -> impl Iterator<Item = &E> + '_ {
        let end = (to.chunk() + 1).min(self.chunks.len());
        (self.chunks[from.chunk().min(end)..end].iter().enumerate()).flat_map(move |(i, c)| {
            let lo = if i == 0 { from.at() } else { 0 };
            let hi = if from.chunk() + i == to.chunk() { to.at() } else { c.entries.len() };
            c.entries[lo..hi].iter()
        })
    }

    /// The entries whose keys are not `below_lo` but are `below_hi`.
    pub(crate) fn range(
        &self,
        below_lo: impl Fn(&TripleKey) -> bool,
        below_hi: impl Fn(&TripleKey) -> bool,
    ) -> impl Iterator<Item = &E> + '_ {
        self.between(self.place(below_lo), self.place(below_hi))
    }

    /// Every entry from `from` on, with its place.
    pub(crate) fn places_from(&self, from: Place) -> impl Iterator<Item = (Place, &E)> + '_ {
        (self.chunks.iter().enumerate().skip(from.chunk())).flat_map(move |(chunk, c)| {
            let lo = if chunk == from.chunk() { from.at() } else { 0 };
            (c.entries.iter().enumerate().skip(lo)).map(move |(at, e)| (Place::new(chunk, at), e))
        })
    }

    /// The entry with key `key`, in an index sorted by `cmp`.
    pub(crate) fn get(
        &self,
        key: &TripleKey,
        cmp: impl Fn(&TripleKey, &TripleKey) -> Ordering,
    ) -> Option<&E> {
        let c = self.chunks.partition_point(|ch| cmp(&ch.first, key) != Ordering::Greater);
        let entries = &self.chunks.get(c.checked_sub(1)?)?.entries;
        entries.binary_search_by(|e| cmp(&e.key(), key)).ok().map(|at| &entries[at])
    }

    /// Applies one commit: removes the entry of every key of `removed` and
    /// writes every entry of `upserts`, over the entry with its key or as a
    /// new one. Both are sorted by `cmp`, the index's order; every removed
    /// key is in the index and none is upserted. Each delta key finds its
    /// chunk by binary search from a cursor that moves one way only, and
    /// only the chunks the delta lands in are written (see the module
    /// docs).
    pub(crate) fn apply(
        &mut self,
        removed: &[TripleKey],
        upserts: &[E],
        cmp: impl Fn(&TripleKey, &TripleKey) -> Ordering,
    ) {
        if removed.is_empty() && upserts.is_empty() {
            return;
        }
        if self.len == 0 {
            // A first commit builds the index straight from its entries.
            debug_assert!(removed.is_empty(), "a removed key is not in the index");
            *self = Index::from_sorted(upserts);
            return;
        }
        let (mut removed, mut upserts) = (removed, upserts);
        // No delta key lands before chunk `c`.
        let mut c = 0;
        E::with_scratch(|scratch| {
            while let Some(next) = smallest(removed, upserts, &cmp) {
                let not_above = |ch: &Chunk<E>| cmp(&ch.first, &next) != Ordering::Greater;
                c += self.chunks[c..].partition_point(not_above).saturating_sub(1);
                let (r, u) = self.take_delta(c, &mut removed, &mut upserts, &cmp);
                if r.is_empty() && self.write_in_place(c, u, &cmp) {
                    continue;
                }
                // Rebuild chunk `c`, taking in the chunks after it while it
                // is short, and put the run back in chunks of bounded size.
                scratch.clear();
                let (mut end, mut r, mut u) = (c, r, u);
                loop {
                    let old = &self.chunks[end].entries;
                    self.len -= old.len();
                    let from = scratch.len();
                    merge(old, r, u, &cmp, scratch);
                    self.len += scratch.len() - from;
                    end += 1;
                    if scratch.is_empty() || scratch.len() >= MIN_CHUNK || end == self.chunks.len()
                    {
                        break;
                    }
                    (r, u) = self.take_delta(end, &mut removed, &mut upserts, &cmp);
                }
                let n = scratch.len();
                let pieces = if n > MAX_CHUNK { n.div_ceil(CHUNK) } else { usize::from(n > 0) };
                let piece = |j: usize| Chunk::new(&scratch[j * n / pieces..(j + 1) * n / pieces]);
                self.chunks.splice(c..end, (0..pieces).map(piece));
                c += pieces;
            }
        });
    }

    /// Takes from the front of `removed` and `upserts` the keys that land
    /// in chunk `c`: those below the next chunk's first key.
    fn take_delta<'d>(
        &self,
        c: usize,
        removed: &mut &'d [TripleKey],
        upserts: &mut &'d [E],
        cmp: &impl Fn(&TripleKey, &TripleKey) -> Ordering,
    ) -> (&'d [TripleKey], &'d [E]) {
        let bound = self.chunks.get(c + 1).map(|ch| ch.first);
        let below = |k: &TripleKey| bound.is_none_or(|b| cmp(k, &b) == Ordering::Less);
        let (r, rest) = removed.split_at(removed.partition_point(below));
        *removed = rest;
        let (u, rest) = upserts.split_at(upserts.partition_point(|e| below(&e.key())));
        *upserts = rest;
        (r, u)
    }

    /// Writes `upserts` over chunk `c`'s entries with their keys, copying
    /// the chunk first if it is shared; false, writing nothing, if the
    /// chunk lacks one of their keys.
    fn write_in_place(
        &mut self,
        c: usize,
        upserts: &[E],
        cmp: &impl Fn(&TripleKey, &TripleKey) -> Ordering,
    ) -> bool {
        let chunk = &mut self.chunks[c];
        let find = |entries: &[E], e: &E| entries.binary_search_by(|x| cmp(&x.key(), &e.key()));
        if !upserts.iter().all(|e| find(&chunk.entries, e).is_ok()) {
            return false;
        }
        let entries = Arc::make_mut(&mut chunk.entries);
        for e in upserts {
            let at = find(entries, e).expect("checked above");
            entries[at] = *e;
        }
        true
    }

    /// Checks the chunk structure and that the entries are strictly sorted
    /// by `cmp`.
    pub(crate) fn check(
        &self,
        cmp: impl Fn(&TripleKey, &TripleKey) -> Ordering,
    ) -> Result<(), String> {
        let total: usize = self.chunks.iter().map(|c| c.entries.len()).sum();
        if total != self.len {
            return Err(format!("chunks hold {total} entries, the index counts {}", self.len));
        }
        for (i, c) in self.chunks.iter().enumerate() {
            let n = c.entries.len();
            let last = i + 1 == self.chunks.len();
            if n == 0 || n > MAX_CHUNK || (n < MIN_CHUNK && !last) {
                return Err(format!("chunk {i} of {} holds {n} entries", self.chunks.len()));
            }
            if c.first != c.entries[0].key() {
                return Err(format!("chunk {i}'s first key is not its first entry's"));
            }
        }
        let mut keys = self.iter().map(Entry::key);
        let mut prev = keys.next();
        for k in keys {
            if prev.is_some_and(|p| cmp(&p, &k) != Ordering::Less) {
                return Err("entries are not strictly sorted".into());
            }
            prev = Some(k);
        }
        Ok(())
    }

    /// Every chunk's entry count, in order.
    #[cfg(test)]
    pub(crate) fn chunk_lens(&self) -> Vec<usize> {
        self.chunks.iter().map(|c| c.entries.len()).collect()
    }
}

/// The smaller of the first keys of `removed` and `upserts`.
fn smallest<E: Entry>(
    removed: &[TripleKey],
    upserts: &[E],
    cmp: &impl Fn(&TripleKey, &TripleKey) -> Ordering,
) -> Option<TripleKey> {
    match (removed.first(), upserts.first().map(Entry::key)) {
        (Some(r), Some(u)) => Some(if cmp(r, &u) == Ordering::Less { *r } else { u }),
        (r, u) => r.copied().or(u),
    }
}

/// Appends to `out` the entries of `old` less those with a key of
/// `removed`, with every entry of `upserts` written over the entry with its
/// key or in its place; all three sorted by `cmp`.
fn merge<E: Entry>(
    old: &[E],
    removed: &[TripleKey],
    upserts: &[E],
    cmp: &impl Fn(&TripleKey, &TripleKey) -> Ordering,
    out: &mut Vec<E>,
) {
    let (mut removed, mut upserts) = (removed.iter().peekable(), upserts.iter().peekable());
    for e in old {
        let k = e.key();
        while let Some(w) = upserts.next_if(|w| cmp(&w.key(), &k) == Ordering::Less) {
            out.push(*w);
        }
        if let Some(w) = upserts.next_if(|w| cmp(&w.key(), &k) == Ordering::Equal) {
            out.push(*w);
        } else if removed.next_if(|r| cmp(r, &k) == Ordering::Equal).is_none() {
            out.push(*e);
        }
    }
    out.extend(upserts.copied());
    debug_assert!(removed.next().is_none(), "a removed key is not in the index");
}
