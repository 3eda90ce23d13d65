//! Memory-bounded external sorting — the disk-oriented, tunable-buffer
//! construction primitive of paper Sec. 5 ("Resource Constraints"):
//! "expensive computations (e.g., pairwise blocking ...) spill to disk as
//! necessary" and "the amount of memory used is bounded".
//!
//! Invariant (checked by tests and experiment E7): peak buffered bytes
//! never exceed the configured budget, regardless of input size. The budget
//! bounds the sort buffer only: [`SpillSorter::finish`] returns every
//! merged item in one `Vec`, so its caller holds the whole sorted output.

use saga_core::persist::codec::{self, BinCodec};
use saga_core::persist::{FrameReader, FrameWriter};
use saga_core::{Result, SagaError};
use std::path::{Path, PathBuf};

/// Statistics of one spill-sort run.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpillStats {
    /// Sorted runs written to disk.
    pub runs_spilled: usize,
    /// Peak in-memory buffer size in bytes (encoded measure).
    pub peak_memory_bytes: usize,
    /// Bytes written to spill runs.
    pub bytes_spilled: usize,
    /// Items pushed into the sorter.
    pub items: usize,
}

/// External sorter with a hard memory budget. Items are measured by their
/// [`BinCodec`] size; when the buffer would exceed the budget it is sorted
/// and spilled as a run, and `finish` k-way-merges all runs.
pub struct SpillSorter<T> {
    budget_bytes: usize,
    dir: PathBuf,
    buffer: Vec<T>,
    buffered_bytes: usize,
    runs: Vec<PathBuf>,
    stats: SpillStats,
    /// One item's encoding, reused by every push and spill.
    scratch: Vec<u8>,
}

impl<T: BinCodec + Ord> SpillSorter<T> {
    /// Creates a sorter spilling into `dir` with the given budget.
    pub fn new(dir: &Path, budget_bytes: usize) -> Result<Self> {
        std::fs::create_dir_all(dir)?;
        Ok(Self {
            budget_bytes: budget_bytes.max(1024),
            dir: dir.to_path_buf(),
            buffer: Vec::new(),
            buffered_bytes: 0,
            runs: Vec::new(),
            stats: SpillStats::default(),
            scratch: Vec::new(),
        })
    }

    /// Adds an item, spilling the buffer first if it would exceed budget.
    pub fn push(&mut self, item: T) -> Result<()> {
        self.scratch.clear();
        item.enc(&mut self.scratch);
        let size = self.scratch.len();
        if self.buffered_bytes + size > self.budget_bytes && !self.buffer.is_empty() {
            self.spill_run()?;
        }
        self.buffered_bytes += size;
        self.stats.peak_memory_bytes = self.stats.peak_memory_bytes.max(self.buffered_bytes);
        self.stats.items += 1;
        self.buffer.push(item);
        Ok(())
    }

    fn spill_run(&mut self) -> Result<()> {
        self.buffer.sort();
        let path = self.dir.join(format!("run-{}.spill", self.runs.len()));
        let mut w = FrameWriter::create(&path)?;
        for item in self.buffer.drain(..) {
            self.scratch.clear();
            item.enc(&mut self.scratch);
            self.stats.bytes_spilled += self.scratch.len();
            w.write(&self.scratch)?;
        }
        w.flush()?;
        self.runs.push(path);
        self.stats.runs_spilled += 1;
        self.buffered_bytes = 0;
        Ok(())
    }

    /// Finishes: returns all items in sorted order plus the run stats, then
    /// removes the spill files. Runs are streamed frame-by-frame, so the
    /// merge holds one head item per run, but the returned `Vec` holds every
    /// item: the budget does not bound it.
    pub fn finish(mut self) -> Result<(Vec<T>, SpillStats)> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        self.buffer.sort();
        // Source 0 is the in-memory buffer; sources 1..=n are disk runs.
        let mut memory: std::collections::VecDeque<T> = self.buffer.drain(..).collect();
        let mut readers: Vec<FrameReader> = Vec::new();
        for r in &self.runs {
            readers.push(FrameReader::open(r)?);
        }
        let next_from = |src: usize,
                         memory: &mut std::collections::VecDeque<T>,
                         readers: &mut Vec<FrameReader>|
         -> Result<Option<T>> {
            if src == 0 {
                Ok(memory.pop_front())
            } else {
                match readers[src - 1].next_frame()? {
                    Some(bytes) => Ok(Some(codec::from_bytes(&bytes)?)),
                    None => Ok(None),
                }
            }
        };

        let mut heap: BinaryHeap<Reverse<(T, usize)>> = BinaryHeap::new();
        for src in 0..=readers.len() {
            if let Some(v) = next_from(src, &mut memory, &mut readers)? {
                heap.push(Reverse((v, src)));
            }
        }
        let mut out = Vec::with_capacity(self.stats.items);
        while let Some(Reverse((v, src))) = heap.pop() {
            out.push(v);
            if let Some(next) = next_from(src, &mut memory, &mut readers)? {
                heap.push(Reverse((next, src)));
            }
        }

        for r in &self.runs {
            std::fs::remove_file(r).ok();
        }
        if out.len() != self.stats.items {
            return Err(SagaError::Corrupt(format!(
                "spill merge lost items: {} != {}",
                out.len(),
                self.stats.items
            )));
        }
        Ok((out, self.stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir()
            .join("saga-spill-tests")
            .join(format!("{}-{name}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn sorts_like_in_memory() {
        let d = dir("sorts");
        let mut sorter: SpillSorter<(u32, String)> = SpillSorter::new(&d, 2048).unwrap();
        let mut expected = Vec::new();
        for i in 0..500u32 {
            let item = ((i * 7919) % 500, format!("payload-{i}"));
            expected.push(item.clone());
            sorter.push(item).unwrap();
        }
        expected.sort();
        let (got, stats) = sorter.finish().unwrap();
        assert_eq!(got, expected);
        assert!(stats.runs_spilled > 0, "tiny budget must spill");
        assert_eq!(stats.items, 500);
    }

    #[test]
    fn memory_budget_is_respected() {
        let d = dir("budget");
        let budget = 4096;
        let mut sorter: SpillSorter<(u64, String)> = SpillSorter::new(&d, budget).unwrap();
        for i in 0..2000u64 {
            sorter.push((i.wrapping_mul(0x9e3779b9) % 2000, "x".repeat(40))).unwrap();
        }
        let (_, stats) = sorter.finish().unwrap();
        assert!(
            stats.peak_memory_bytes <= budget + 128,
            "peak {} exceeds budget {budget}",
            stats.peak_memory_bytes
        );
    }

    #[test]
    fn large_budget_never_spills() {
        let d = dir("nospill");
        let mut sorter: SpillSorter<u32> = SpillSorter::new(&d, 1 << 24).unwrap();
        for i in (0..100).rev() {
            sorter.push(i).unwrap();
        }
        let (got, stats) = sorter.finish().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<u32>>());
        assert_eq!(stats.runs_spilled, 0);
        assert_eq!(stats.bytes_spilled, 0);
    }

    #[test]
    fn empty_input() {
        let d = dir("empty");
        let sorter: SpillSorter<u32> = SpillSorter::new(&d, 4096).unwrap();
        let (got, stats) = sorter.finish().unwrap();
        assert!(got.is_empty());
        assert_eq!(stats.items, 0);
    }

    #[test]
    fn duplicates_preserved() {
        let d = dir("dups");
        let mut sorter: SpillSorter<u8> = SpillSorter::new(&d, 1024).unwrap();
        for _ in 0..300 {
            sorter.push(7).unwrap();
        }
        let (got, _) = sorter.finish().unwrap();
        assert_eq!(got.len(), 300);
        assert!(got.iter().all(|&x| x == 7));
    }
}
