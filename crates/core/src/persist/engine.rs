//! A single-file, crash-safe MVCC storage engine.
//!
//! On-disk layout (little-endian; see DESIGN.md §10 for the full diagram):
//!
//! ```text
//! [superblock slot A: 256 B] [superblock slot B: 256 B]
//! [transaction-log region: log_cap bytes]
//! [page heap: page slots of page_size bytes, grown on demand]
//! ```
//!
//! **Dual-slot atomic root.** Each superblock slot is a self-checksummed
//! record naming the current root: the checkpointed image's page manifest,
//! the commit sequence the image covers, and the log generation. Commits
//! of a new root always overwrite the *stale* slot and fsync; recovery
//! picks the valid slot with the higher epoch. A torn root write leaves
//! the old slot untouched, so there is always a consistent root.
//!
//! **Transaction log.** Committed transactions are appended to the log
//! region as checksummed frames (the [`Wal`](super::Wal) frame format)
//! tagged with the root's log generation and a dense commit sequence.
//! Recovery replays the valid, in-generation, gap-free prefix and treats
//! everything after it as a torn tail — the standard WAL contract. A
//! checkpoint bumps the generation instead of erasing the region, so the
//! region is reused circularly without ever overwriting data the current
//! root still needs.
//!
//! **Copy-on-write pages.** A checkpoint splits the state image into
//! content-defined chunks and writes only chunks not already present in
//! the previous root's manifest; unchanged chunks are shared between
//! roots. Page checksums live in the manifest and the manifest's checksum
//! lives in the superblock, so every byte reachable from a root is
//! checksum-validated before use — corruption surfaces as a typed
//! [`SagaError::Corrupt`], never a panic or a silent bad read.
//!
//! **Recovery cost.** [`Engine::open`] reads the two superblock slots and
//! scans the log tail — O(log-tail bytes), independent of database size.
//! Loading the image ([`Engine::materialize`]) is deferred, like page-cache
//! warm-up.
//!
//! Crash-matrix instrumentation: every write and fsync is routed through
//! an optional [`KillSwitch`], giving tests a deterministic kill point at
//! every sync boundary (page write, log append, root flip, each fsync).

use super::{frame_header, split_header, HEADER_LEN};
use crate::error::{Result, SagaError};
use crate::fault::{KillSwitch, WriteVerdict};
use crate::obs::{Counter, Scope};
use crate::text::fnv1a;
use std::collections::{HashMap, HashSet};
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Kill/fault site: a copy-on-write page (data or manifest) write.
pub const SITE_PAGE_WRITE: &str = "engine/page-write";
/// Kill/fault site: the fsync making checkpoint pages durable.
pub const SITE_PAGE_FSYNC: &str = "engine/page-fsync";
/// Kill/fault site: a transaction-log frame append.
pub const SITE_LOG_APPEND: &str = "engine/log-append";
/// Kill/fault site: the per-commit log fsync.
pub const SITE_LOG_FSYNC: &str = "engine/log-fsync";
/// Kill/fault site: the superblock (root pointer) write.
pub const SITE_ROOT_FLIP: &str = "engine/root-flip";
/// Kill/fault site: the fsync making the root flip durable.
pub const SITE_ROOT_FSYNC: &str = "engine/root-fsync";

const ENG_MAGIC: &[u8; 8] = b"SAGAENG1";
const ENG_VERSION: u32 = 1;
const SLOT_LEN: usize = 256;
const SLOT_BODY: usize = SLOT_LEN - 8; // checksum in the last 8 bytes
const LOG_START: u64 = 2 * SLOT_LEN as u64;
/// Log frame payload prefix: [log_gen: u64][seq: u64].
const FRAME_PREFIX: usize = 16;
/// Manifest chain-page header: [next_id: u64][next_len: u32][next_checksum: u64].
const CHAIN_HEADER: usize = 20;
const NO_PAGE: u64 = u64::MAX;

/// Geometry for [`Engine::create`].
#[derive(Debug, Clone, Copy)]
pub struct EngineOptions {
    /// Bytes per page slot in the heap (also the maximum CDC chunk size).
    pub page_size: u32,
    /// Bytes reserved for the transaction-log region. Once the region is
    /// full, [`Engine::append`] reports [`AppendOutcome::LogFull`] and the
    /// caller checkpoints, which logically resets the region.
    pub log_cap: u64,
}

impl Default for EngineOptions {
    fn default() -> Self {
        Self { page_size: 4096, log_cap: 1 << 20 }
    }
}

/// The root named by one superblock slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Root {
    epoch: u64,
    commit: u64,
    log_gen: u64,
    page_count: u64,
    manifest_id: u64,
    manifest_len: u32,
    manifest_checksum: u64,
}

impl Root {
    fn genesis() -> Self {
        Self {
            epoch: 1,
            commit: 0,
            log_gen: 1,
            page_count: 0,
            manifest_id: NO_PAGE,
            manifest_len: 0,
            manifest_checksum: 0,
        }
    }
}

fn encode_slot(root: &Root, page_size: u32, log_cap: u64) -> [u8; SLOT_LEN] {
    let mut buf = [0u8; SLOT_LEN];
    let mut w = Vec::with_capacity(SLOT_BODY);
    w.extend_from_slice(ENG_MAGIC);
    w.extend_from_slice(&ENG_VERSION.to_le_bytes());
    w.extend_from_slice(&root.epoch.to_le_bytes());
    w.extend_from_slice(&root.commit.to_le_bytes());
    w.extend_from_slice(&root.log_gen.to_le_bytes());
    w.extend_from_slice(&log_cap.to_le_bytes());
    w.extend_from_slice(&page_size.to_le_bytes());
    w.extend_from_slice(&root.page_count.to_le_bytes());
    w.extend_from_slice(&root.manifest_id.to_le_bytes());
    w.extend_from_slice(&root.manifest_len.to_le_bytes());
    w.extend_from_slice(&root.manifest_checksum.to_le_bytes());
    buf[..w.len()].copy_from_slice(&w);
    let checksum = fnv1a(&buf[..SLOT_BODY]);
    buf[SLOT_BODY..].copy_from_slice(&checksum.to_le_bytes());
    buf
}

/// Bounds-checked little-endian reader over a byte slice; every under-read
/// is a typed [`SagaError::Corrupt`], so decode paths cannot panic.
struct Rd<'a> {
    buf: &'a [u8],
    off: usize,
    what: &'static str,
}

impl<'a> Rd<'a> {
    fn new(buf: &'a [u8], what: &'static str) -> Self {
        Self { buf, off: 0, what }
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.buf.len() - self.off < n {
            return Err(SagaError::Corrupt(format!(
                "{} truncated at offset {}",
                self.what, self.off
            )));
        }
        let out = &self.buf[self.off..self.off + n];
        self.off += n;
        Ok(out)
    }

    fn u32(&mut self) -> Result<u32> {
        let b = self.bytes(4)?;
        let mut a = [0u8; 4];
        a.copy_from_slice(b);
        Ok(u32::from_le_bytes(a))
    }

    fn u64(&mut self) -> Result<u64> {
        let b = self.bytes(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.off
    }
}

/// `None` when the slot is invalid (bad checksum/magic/version/geometry) —
/// recovery falls back to the other slot rather than erroring.
fn decode_slot(buf: &[u8]) -> Option<(Root, u32, u64)> {
    if buf.len() < SLOT_LEN {
        return None;
    }
    let mut a = [0u8; 8];
    a.copy_from_slice(&buf[SLOT_BODY..SLOT_LEN]);
    if fnv1a(&buf[..SLOT_BODY]) != u64::from_le_bytes(a) {
        return None;
    }
    let mut r = Rd::new(&buf[..SLOT_BODY], "superblock");
    let ok = (|| -> Result<(Root, u32, u64)> {
        let magic = r.bytes(8)?;
        if magic != ENG_MAGIC {
            return Err(SagaError::Corrupt("bad engine magic".into()));
        }
        if r.u32()? != ENG_VERSION {
            return Err(SagaError::Corrupt("bad engine version".into()));
        }
        let epoch = r.u64()?;
        let commit = r.u64()?;
        let log_gen = r.u64()?;
        let log_cap = r.u64()?;
        let page_size = r.u32()?;
        let page_count = r.u64()?;
        let manifest_id = r.u64()?;
        let manifest_len = r.u32()?;
        let manifest_checksum = r.u64()?;
        if epoch == 0 || log_gen == 0 || page_size < 64 || log_cap < 256 {
            return Err(SagaError::Corrupt("bad engine geometry".into()));
        }
        Ok((
            Root {
                epoch,
                commit,
                log_gen,
                page_count,
                manifest_id,
                manifest_len,
                manifest_checksum,
            },
            page_size,
            log_cap,
        ))
    })();
    ok.ok()
}

// --------------------------------------------------- content-defined chunks

fn gear_table() -> &'static [u64; 256] {
    static TABLE: std::sync::OnceLock<[u64; 256]> = std::sync::OnceLock::new();
    TABLE.get_or_init(|| {
        // SplitMix64 stream from a fixed seed: the chunking (and therefore
        // the on-disk layout) must be identical across builds and runs.
        let mut state = 0x5A6A_0001_u64 ^ 0x9E37_79B9_7F4A_7C15;
        let mut t = [0u64; 256];
        for slot in t.iter_mut() {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            *slot = z ^ (z >> 31);
        }
        t
    })
}

/// Splits `data` into content-defined chunks of at most `max` bytes using a
/// gear rolling hash. Chunk boundaries depend only on local content, so an
/// edit moves at most a couple of chunk boundaries and the rest of the image
/// keeps its chunk identities — that is what makes checkpoint page reuse
/// effective. Returns `(start, len)` pairs covering `data` exactly.
fn cdc_chunks(data: &[u8], max: usize) -> Vec<(usize, usize)> {
    let gear = gear_table();
    let min = (max / 8).max(1);
    let mask = ((max / 2).max(2) as u64).next_power_of_two() - 1;
    let mut out = Vec::new();
    let mut start = 0usize;
    let mut hash = 0u64;
    for (i, &b) in data.iter().enumerate() {
        hash = (hash << 1).wrapping_add(gear[b as usize]);
        let len = i - start + 1;
        if (len >= min && (hash & mask) == mask) || len == max {
            out.push((start, len));
            start = i + 1;
            hash = 0;
        }
    }
    if start < data.len() {
        out.push((start, data.len() - start));
    }
    out
}

// ----------------------------------------------------------------- manifest

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Chunk {
    page: u64,
    len: u32,
    checksum: u64,
}

#[derive(Debug, Clone, Default)]
struct Manifest {
    image_len: u64,
    image_checksum: u64,
    chunks: Vec<Chunk>,
    /// Page ids storing the manifest itself (head first).
    chain: Vec<u64>,
}

impl Manifest {
    fn referenced(&self) -> HashSet<u64> {
        self.chunks.iter().map(|c| c.page).chain(self.chain.iter().copied()).collect()
    }
}

// ------------------------------------------------------------------- engine

/// Outcome of [`Engine::append`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppendOutcome {
    /// The transaction is durable; this is its commit sequence number.
    Committed(u64),
    /// The log region has no room for this record. Nothing was written;
    /// checkpoint (which resets the region) and retry, or bake the
    /// transaction into the checkpoint image directly.
    LogFull,
}

/// Integrity report from [`Engine::scrub`].
#[derive(Debug, Clone, Default)]
pub struct ScrubReport {
    /// Validity of superblock slots A and B.
    pub slots_valid: [bool; 2],
    /// Epoch of the selected root.
    pub epoch: u64,
    /// Commit covered by the checkpoint image.
    pub checkpoint_commit: u64,
    /// Last committed transaction (checkpoint + log tail).
    pub last_commit: u64,
    /// Data + manifest pages whose checksums were verified.
    pub pages_checked: u64,
    /// Bytes of the materialized image.
    pub image_bytes: u64,
    /// Transactions replayable from the log tail.
    pub tail_txns: u64,
    /// Everything found wrong, human-readable. Empty means clean.
    pub problems: Vec<String>,
}

impl ScrubReport {
    /// True when no problems were found.
    pub fn is_clean(&self) -> bool {
        self.problems.is_empty()
    }
}

/// Point-in-time engine statistics (geometry + recovery facts) for CLI and
/// observability consumers.
#[derive(Debug, Clone, Copy)]
pub struct EngineStats {
    /// Root epoch (number of checkpoints since creation + 1).
    pub epoch: u64,
    /// Commit covered by the checkpoint image.
    pub checkpoint_commit: u64,
    /// Last committed transaction.
    pub last_commit: u64,
    /// Current log generation.
    pub log_gen: u64,
    /// Page-slot high-water mark.
    pub page_count: u64,
    /// Bytes per page slot.
    pub page_size: u32,
    /// Log region capacity in bytes.
    pub log_cap: u64,
    /// Log bytes currently used by the tail.
    pub log_used: u64,
    /// Transactions in the log tail.
    pub tail_txns: u64,
    /// Microseconds spent in the last [`Engine::open`].
    pub recovery_micros: u64,
}

struct EngineCounters {
    pages_written: Arc<Counter>,
    pages_reused: Arc<Counter>,
    log_appends: Arc<Counter>,
    log_bytes_appended: Arc<Counter>,
    log_bytes_replayed: Arc<Counter>,
    txns_replayed: Arc<Counter>,
    checkpoints: Arc<Counter>,
    root_flips: Arc<Counter>,
    recovery_micros: Arc<Counter>,
}

/// The crash-safe MVCC storage engine. See the module docs for the design;
/// [`super::kg::KgStore`] wires the knowledge graph onto it.
///
/// The engine is a single-writer, byte-oriented substrate: callers append
/// opaque transaction payloads and checkpoint opaque state images. One
/// process at a time may hold an `Engine` on a given file.
pub struct Engine {
    file: File,
    path: PathBuf,
    kill: Option<Arc<KillSwitch>>,
    obs: Option<EngineCounters>,
    page_size: u32,
    log_cap: u64,
    root: Root,
    active_slot: usize,
    /// Next append offset within the log region.
    log_off: u64,
    last_commit: u64,
    /// The frames [`open`](Self::open) recovered, for the caller's replay;
    /// appends are not copied here.
    tail: Vec<(u64, Vec<u8>)>,
    replayed_bytes: u64,
    manifest: Option<Manifest>,
    free: Option<Vec<u64>>,
    recovery_micros: u64,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("path", &self.path)
            .field("epoch", &self.root.epoch)
            .field("last_commit", &self.last_commit)
            .finish()
    }
}

impl Engine {
    /// Creates a new engine file at `path` (failing if it already exists)
    /// and opens it. The file starts with an empty root: no image, commit 0.
    pub fn create(path: &Path, opts: &EngineOptions) -> Result<Self> {
        if opts.page_size < 64 {
            return Err(SagaError::InvalidArgument(format!(
                "page_size {} too small (min 64)",
                opts.page_size
            )));
        }
        if opts.log_cap < 256 {
            return Err(SagaError::InvalidArgument(format!(
                "log_cap {} too small (min 256)",
                opts.log_cap
            )));
        }
        let mut file =
            std::fs::OpenOptions::new().read(true).write(true).create_new(true).open(path)?;
        let slot = encode_slot(&Root::genesis(), opts.page_size, opts.log_cap);
        file.write_all(&slot)?;
        file.write_all(&[0u8; SLOT_LEN])?; // slot B starts invalid
        file.set_len(LOG_START + opts.log_cap)?;
        file.sync_all()?;
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                super::fsync_dir(parent)?;
            }
        }
        drop(file);
        Self::open(path)
    }

    /// Opens an existing engine file, recovering to the last committed
    /// transaction: picks the valid superblock slot with the higher epoch
    /// and replays the valid, in-generation log tail. Cost is O(log-tail
    /// bytes) — the image is loaded lazily by [`materialize`](Self::materialize).
    pub fn open(path: &Path) -> Result<Self> {
        let started = Instant::now();
        let mut file = std::fs::OpenOptions::new().read(true).write(true).open(path)?;
        let mut slots = [0u8; 2 * SLOT_LEN];
        file.seek(SeekFrom::Start(0))?;
        file.read_exact(&mut slots)
            .map_err(|_| SagaError::Corrupt("engine file too short for superblocks".into()))?;
        let a = decode_slot(&slots[..SLOT_LEN]);
        let b = decode_slot(&slots[SLOT_LEN..]);
        let (root, page_size, log_cap, active_slot) = match (a, b) {
            (Some((ra, ps, lc)), Some((rb, _, _))) if ra.epoch >= rb.epoch => (ra, ps, lc, 0),
            (_, Some((rb, ps, lc))) => (rb, ps, lc, 1),
            (Some((ra, ps, lc)), None) => (ra, ps, lc, 0),
            (None, None) => {
                return Err(SagaError::Corrupt("both superblock slots invalid".into()));
            }
        };

        // Replay the log tail: checksum-valid, current-generation, gap-free.
        let mut log = vec![0u8; log_cap as usize];
        file.seek(SeekFrom::Start(LOG_START))?;
        let mut filled = 0usize;
        while filled < log.len() {
            let n = file.read(&mut log[filled..])?;
            if n == 0 {
                break; // short file: rest of the region reads as zeros
            }
            filled += n;
        }
        let mut tail: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut off = 0usize;
        let mut expect = root.commit + 1;
        // Each frame is `persist`'s `[len][checksum]` header over a body.
        while let Some((len, checksum, rest)) = split_header(&log[off..]) {
            if len < FRAME_PREFIX || len > rest.len() {
                break; // torn header or garbage length
            }
            let body = &rest[..len];
            if fnv1a(body) != checksum {
                break; // torn or corrupt frame: truncation point
            }
            let mut a8 = [0u8; 8];
            a8.copy_from_slice(&body[..8]);
            let gen = u64::from_le_bytes(a8);
            a8.copy_from_slice(&body[8..16]);
            let seq = u64::from_le_bytes(a8);
            if gen > root.log_gen {
                // A newer generation committed transactions, so a newer
                // superblock existed and has been lost (e.g. bit rot in the
                // slot we could not validate). Falling back silently would
                // resurrect a stale root; refuse instead.
                return Err(SagaError::Corrupt(format!(
                    "log holds generation {gen} but newest valid root is generation {}: \
                     newest root lost",
                    root.log_gen
                )));
            }
            if gen < root.log_gen || seq != expect {
                break; // stale pre-checkpoint frame, or a gap: stop
            }
            tail.push((seq, body[FRAME_PREFIX..].to_vec()));
            expect += 1;
            off += HEADER_LEN + len;
        }
        let last_commit = root.commit + tail.len() as u64;
        let replayed_bytes = off as u64;

        let recovery_micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        Ok(Self {
            file,
            path: path.to_path_buf(),
            kill: None,
            obs: None,
            page_size,
            log_cap,
            root,
            active_slot,
            log_off: off as u64,
            last_commit,
            tail,
            replayed_bytes,
            manifest: None,
            free: None,
            recovery_micros,
        })
    }

    /// Installs a deterministic crash switch: every subsequent write and
    /// fsync consults it. Test-only in spirit, but safe in production (a
    /// fired switch just makes the engine return [`SagaError::Killed`]).
    pub fn set_kill(&mut self, kill: Arc<KillSwitch>) {
        self.kill = Some(kill);
    }

    /// Registers engine counters under `scope` (conventionally
    /// `persist/engine`) and records the recovery facts of the preceding
    /// [`open`](Self::open) into them.
    pub fn attach_obs(&mut self, scope: &Scope) {
        let c = EngineCounters {
            pages_written: scope.counter("pages_written"),
            pages_reused: scope.counter("pages_reused"),
            log_appends: scope.counter("log_appends"),
            log_bytes_appended: scope.counter("log_bytes_appended"),
            log_bytes_replayed: scope.counter("log_bytes_replayed"),
            txns_replayed: scope.counter("txns_replayed"),
            checkpoints: scope.counter("checkpoints"),
            root_flips: scope.counter("root_flips"),
            recovery_micros: scope.counter("recovery_micros"),
        };
        c.log_bytes_replayed.add(self.replayed_bytes);
        c.txns_replayed.add(self.tail.len() as u64);
        c.recovery_micros.add(self.recovery_micros);
        self.obs = Some(c);
    }

    // ------------------------------------------------------------ accessors

    /// Sequence number of the last committed transaction.
    pub fn last_commit(&self) -> u64 {
        self.last_commit
    }

    /// Commit sequence covered by the checkpoint image (0 = empty root).
    pub fn checkpoint_commit(&self) -> u64 {
        self.root.commit
    }

    /// Transactions recovered from the log tail at [`open`](Self::open)
    /// (empty after a [`checkpoint`](Self::checkpoint)). Transactions
    /// appended since are not kept.
    pub fn tail(&self) -> &[(u64, Vec<u8>)] {
        &self.tail
    }

    /// Transactions in the log since the checkpoint: recovered or appended.
    fn tail_txns(&self) -> u64 {
        self.last_commit - self.root.commit
    }

    /// Microseconds spent inside the last [`open`](Self::open).
    pub fn recovery_micros(&self) -> u64 {
        self.recovery_micros
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            epoch: self.root.epoch,
            checkpoint_commit: self.root.commit,
            last_commit: self.last_commit,
            log_gen: self.root.log_gen,
            page_count: self.root.page_count,
            page_size: self.page_size,
            log_cap: self.log_cap,
            log_used: self.log_off,
            tail_txns: self.tail_txns(),
            recovery_micros: self.recovery_micros,
        }
    }

    // ------------------------------------------------- instrumented raw I/O

    fn kw_write_at(&mut self, site: &str, off: u64, buf: &[u8]) -> Result<()> {
        if let Some(kill) = self.kill.clone() {
            match kill.on_write(site, buf.len())? {
                WriteVerdict::Full => {}
                WriteVerdict::Partial(n) => {
                    // Torn write: a prefix reaches the file, then the
                    // "process" dies — every later operation fails too.
                    self.file.seek(SeekFrom::Start(off))?;
                    self.file.write_all(&buf[..n])?;
                    let _ = self.file.sync_data(); // the kernel may flush anything
                    return Err(SagaError::Killed {
                        site: site.to_owned(),
                        op: kill.ops_seen().saturating_sub(1),
                    });
                }
            }
        }
        self.file.seek(SeekFrom::Start(off))?;
        self.file.write_all(buf)?;
        Ok(())
    }

    fn kw_sync(&mut self, site: &str) -> Result<()> {
        if let Some(kill) = &self.kill {
            kill.on_sync(site)?;
        }
        self.file.sync_data()?;
        Ok(())
    }

    fn page_offset(&self, id: u64) -> u64 {
        LOG_START + self.log_cap + id * self.page_size as u64
    }

    fn read_page(&mut self, id: u64, len: usize, checksum: u64, what: &str) -> Result<Vec<u8>> {
        if id >= self.root.page_count || len > self.page_size as usize {
            return Err(SagaError::Corrupt(format!("{what}: page reference out of bounds")));
        }
        let off = self.page_offset(id);
        let mut buf = vec![0u8; len];
        self.file.seek(SeekFrom::Start(off))?;
        self.file
            .read_exact(&mut buf)
            .map_err(|_| SagaError::Corrupt(format!("{what}: page {id} truncated")))?;
        if fnv1a(&buf) != checksum {
            return Err(SagaError::Corrupt(format!("{what}: page {id} checksum mismatch")));
        }
        Ok(buf)
    }

    // --------------------------------------------------------------- commit

    /// Appends one transaction payload and makes it durable (one fsync).
    /// Returns its commit sequence, or [`AppendOutcome::LogFull`] (without
    /// writing anything) when the log region cannot hold the record.
    pub fn append(&mut self, payload: &[u8]) -> Result<AppendOutcome> {
        let body_len = FRAME_PREFIX + payload.len();
        let frame_len = (HEADER_LEN + body_len) as u64;
        if self.log_off + frame_len > self.log_cap {
            return Ok(AppendOutcome::LogFull);
        }
        let seq = self.last_commit + 1;
        let mut body = Vec::with_capacity(body_len);
        body.extend_from_slice(&self.root.log_gen.to_le_bytes());
        body.extend_from_slice(&seq.to_le_bytes());
        body.extend_from_slice(payload);
        let header = frame_header(&body).ok_or_else(|| {
            SagaError::InvalidArgument(format!("transaction too large: {} bytes", payload.len()))
        })?;
        let mut frame = Vec::with_capacity(frame_len as usize);
        frame.extend_from_slice(&header);
        frame.extend_from_slice(&body);
        let off = LOG_START + self.log_off;
        self.kw_write_at(SITE_LOG_APPEND, off, &frame)?;
        self.kw_sync(SITE_LOG_FSYNC)?;
        self.log_off += frame_len;
        self.last_commit = seq;
        if let Some(o) = &self.obs {
            o.log_appends.inc();
            o.log_bytes_appended.add(frame_len);
        }
        Ok(AppendOutcome::Committed(seq))
    }

    // ----------------------------------------------------------- checkpoint

    fn load_manifest(&mut self) -> Result<()> {
        if self.manifest.is_some() {
            return Ok(());
        }
        if self.root.manifest_id == NO_PAGE {
            self.manifest = Some(Manifest::default());
            return Ok(());
        }
        let mut body = Vec::new();
        let mut chain = Vec::new();
        let (mut id, mut len, mut checksum) =
            (self.root.manifest_id, self.root.manifest_len, self.root.manifest_checksum);
        loop {
            if chain.len() as u64 > self.root.page_count {
                return Err(SagaError::Corrupt("manifest chain cycle".into()));
            }
            chain.push(id);
            let data = self.read_page(id, len as usize, checksum, "manifest")?;
            let mut r = Rd::new(&data, "manifest chain header");
            let next_id = r.u64()?;
            let next_len = r.u32()?;
            let next_checksum = r.u64()?;
            body.extend_from_slice(&data[CHAIN_HEADER..]);
            if next_id == NO_PAGE {
                break;
            }
            id = next_id;
            len = next_len;
            checksum = next_checksum;
        }
        let mut r = Rd::new(&body, "manifest body");
        let image_len = r.u64()?;
        let image_checksum = r.u64()?;
        let n = r.u32()? as usize;
        if r.remaining() != n * CHAIN_HEADER {
            return Err(SagaError::Corrupt(format!(
                "manifest body length mismatch: {} chunks, {} trailing bytes",
                n,
                r.remaining()
            )));
        }
        let mut chunks = Vec::with_capacity(n);
        for _ in 0..n {
            let page = r.u64()?;
            let len = r.u32()?;
            let checksum = r.u64()?;
            if page >= self.root.page_count || len as u64 > self.page_size as u64 {
                return Err(SagaError::Corrupt("manifest chunk reference out of bounds".into()));
            }
            chunks.push(Chunk { page, len, checksum });
        }
        self.manifest = Some(Manifest { image_len, image_checksum, chunks, chain });
        Ok(())
    }

    /// Loads, validates, and returns the checkpoint image. `None` when no
    /// checkpoint has ever been taken. Every page and the assembled image
    /// are checksum-verified; any mismatch is [`SagaError::Corrupt`].
    ///
    /// Note the returned image reflects the *checkpoint*; after
    /// [`open`](Self::open) the caller applies the [`tail`](Self::tail)
    /// transactions on top to reach [`last_commit`](Self::last_commit).
    pub fn materialize(&mut self) -> Result<Option<Vec<u8>>> {
        if self.root.manifest_id == NO_PAGE {
            return Ok(None);
        }
        self.load_manifest()?;
        let m = self.manifest.clone().unwrap_or_default();
        let mut image = Vec::with_capacity(m.image_len as usize);
        for c in &m.chunks {
            let data = self.read_page(c.page, c.len as usize, c.checksum, "image chunk")?;
            image.extend_from_slice(&data);
        }
        if image.len() as u64 != m.image_len || fnv1a(&image) != m.image_checksum {
            return Err(SagaError::Corrupt("image checksum mismatch".into()));
        }
        Ok(Some(image))
    }

    fn ensure_free(&mut self) -> Result<()> {
        if self.free.is_some() {
            return Ok(());
        }
        self.load_manifest()?;
        let referenced = self.manifest.as_ref().map(Manifest::referenced).unwrap_or_default();
        let free: Vec<u64> =
            (0..self.root.page_count).filter(|id| !referenced.contains(id)).collect();
        self.free = Some(free);
        Ok(())
    }

    fn alloc_page(&mut self) -> u64 {
        if let Some(free) = &mut self.free {
            if let Some(id) = free.pop() {
                return id;
            }
        }
        let id = self.root.page_count;
        self.root.page_count += 1;
        id
    }

    /// Writes a new checkpoint image covering `commit` and flips the root.
    ///
    /// `commit` must be ≥ [`last_commit`](Self::last_commit): a checkpoint
    /// may *bake in* transactions that never hit the log (the log-full
    /// path), but can never cover less than what the log already holds —
    /// the flip bumps the log generation, which logically empties the log.
    ///
    /// Durability order: (1) write chunk + manifest pages to unreferenced
    /// slots, (2) fsync, (3) write the stale superblock slot, (4) fsync.
    /// A crash anywhere leaves the previous root fully intact.
    pub fn checkpoint(&mut self, image: &[u8], commit: u64) -> Result<()> {
        if commit < self.last_commit {
            return Err(SagaError::InvalidArgument(format!(
                "checkpoint commit {commit} < last committed transaction {}",
                self.last_commit
            )));
        }
        self.ensure_free()?;
        let prev = self.manifest.clone().unwrap_or_default();
        let mut reuse: HashMap<(u32, u64), u64> =
            prev.chunks.iter().map(|c| ((c.len, c.checksum), c.page)).collect();

        // Data chunks: copy-on-write against the previous manifest.
        let mut chunks = Vec::new();
        for (start, len) in cdc_chunks(image, self.page_size as usize) {
            let data = &image[start..start + len];
            let checksum = fnv1a(data);
            let key = (len as u32, checksum);
            let page = match reuse.get(&key) {
                Some(&p) => {
                    if let Some(o) = &self.obs {
                        o.pages_reused.inc();
                    }
                    p
                }
                None => {
                    let p = self.alloc_page();
                    let off = self.page_offset(p);
                    self.kw_write_at(SITE_PAGE_WRITE, off, data)?;
                    if let Some(o) = &self.obs {
                        o.pages_written.inc();
                    }
                    reuse.insert(key, p);
                    p
                }
            };
            chunks.push(Chunk { page, len: len as u32, checksum });
        }

        // Manifest body, then the chain pages (built back-to-front so each
        // page's header can name its successor).
        let mut body = Vec::with_capacity(20 + chunks.len() * CHAIN_HEADER);
        body.extend_from_slice(&(image.len() as u64).to_le_bytes());
        body.extend_from_slice(&fnv1a(image).to_le_bytes());
        body.extend_from_slice(
            &u32::try_from(chunks.len())
                .map_err(|_| {
                    SagaError::InvalidArgument(format!("too many chunks: {}", chunks.len()))
                })?
                .to_le_bytes(),
        );
        for c in &chunks {
            body.extend_from_slice(&c.page.to_le_bytes());
            body.extend_from_slice(&c.len.to_le_bytes());
            body.extend_from_slice(&c.checksum.to_le_bytes());
        }
        let seg_cap = self.page_size as usize - CHAIN_HEADER;
        let segments: Vec<&[u8]> = body.chunks(seg_cap).collect();
        let ids: Vec<u64> = segments.iter().map(|_| self.alloc_page()).collect();
        let mut next = (NO_PAGE, 0u32, 0u64);
        let mut pages: Vec<(u64, Vec<u8>)> = Vec::with_capacity(segments.len());
        for i in (0..segments.len()).rev() {
            let mut data = Vec::with_capacity(CHAIN_HEADER + segments[i].len());
            data.extend_from_slice(&next.0.to_le_bytes());
            data.extend_from_slice(&next.1.to_le_bytes());
            data.extend_from_slice(&next.2.to_le_bytes());
            data.extend_from_slice(segments[i]);
            next = (ids[i], data.len() as u32, fnv1a(&data));
            pages.push((ids[i], data));
        }
        let (head_id, head_len, head_checksum) = next;
        for (id, data) in pages.into_iter().rev() {
            let off = self.page_offset(id);
            self.kw_write_at(SITE_PAGE_WRITE, off, &data)?;
            if let Some(o) = &self.obs {
                o.pages_written.inc();
            }
        }
        self.kw_sync(SITE_PAGE_FSYNC)?;

        // Atomic root flip into the stale slot.
        let new_root = Root {
            epoch: self.root.epoch + 1,
            commit,
            log_gen: self.root.log_gen + 1,
            page_count: self.root.page_count,
            manifest_id: head_id,
            manifest_len: head_len,
            manifest_checksum: head_checksum,
        };
        let slot = 1 - self.active_slot;
        let bytes = encode_slot(&new_root, self.page_size, self.log_cap);
        self.kw_write_at(SITE_ROOT_FLIP, (slot * SLOT_LEN) as u64, &bytes)?;
        self.kw_sync(SITE_ROOT_FSYNC)?;

        // The flip is durable: update in-memory state. Pages referenced only
        // by the previous root become reusable now — if this root ever rots,
        // recovery *detects* the stale fallback (checksums + log-generation
        // evidence) instead of silently serving it.
        let new_manifest = Manifest {
            image_len: image.len() as u64,
            image_checksum: fnv1a(image),
            chunks,
            chain: ids,
        };
        let now_referenced = new_manifest.referenced();
        if let Some(free) = &mut self.free {
            for page in prev.referenced() {
                if !now_referenced.contains(&page) {
                    free.push(page);
                }
            }
        }
        self.root = new_root;
        self.active_slot = slot;
        self.last_commit = commit;
        self.tail.clear();
        self.log_off = 0;
        self.manifest = Some(new_manifest);
        if let Some(o) = &self.obs {
            o.checkpoints.inc();
            o.root_flips.inc();
        }
        Ok(())
    }

    // ---------------------------------------------------------------- scrub

    /// Full integrity pass: validates both superblock slots, every manifest
    /// and data page reachable from the current root, the assembled image
    /// checksum, and the log tail. Collects problems instead of stopping at
    /// the first, so one scrub reports everything wrong with a file.
    pub fn scrub(&mut self) -> Result<ScrubReport> {
        let mut report = ScrubReport {
            epoch: self.root.epoch,
            checkpoint_commit: self.root.commit,
            last_commit: self.last_commit,
            tail_txns: self.tail_txns(),
            ..ScrubReport::default()
        };
        let mut slots = [0u8; 2 * SLOT_LEN];
        self.file.seek(SeekFrom::Start(0))?;
        self.file
            .read_exact(&mut slots)
            .map_err(|_| SagaError::Corrupt("engine file too short for superblocks".into()))?;
        report.slots_valid =
            [decode_slot(&slots[..SLOT_LEN]).is_some(), decode_slot(&slots[SLOT_LEN..]).is_some()];
        if !report.slots_valid[self.active_slot] {
            report.problems.push(format!("active superblock slot {} invalid", self.active_slot));
        }
        self.manifest = None; // force a fresh read from disk
        match self.materialize() {
            Ok(Some(image)) => {
                report.image_bytes = image.len() as u64;
                let m = self.manifest.clone().unwrap_or_default();
                report.pages_checked = (m.chunks.len() + m.chain.len()) as u64;
            }
            Ok(None) => {}
            Err(e) => report.problems.push(format!("image: {e}")),
        }
        Ok(report)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("saga-core-engine-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(format!("{}-{}", std::process::id(), name));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn small_opts() -> EngineOptions {
        EngineOptions { page_size: 128, log_cap: 2048 }
    }

    /// Deterministic non-periodic pseudo-random bytes (SplitMix64). Periodic
    /// patterns would degenerate content-defined chunking and hide reuse bugs.
    fn rand_bytes(n: usize, seed: u64) -> Vec<u8> {
        let mut state = seed;
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            out.extend_from_slice(&(z ^ (z >> 31)).to_le_bytes());
        }
        out.truncate(n);
        out
    }

    #[test]
    fn slot_codec_round_trips_and_rejects_flips() {
        let root = Root {
            epoch: 7,
            commit: 42,
            log_gen: 3,
            page_count: 99,
            manifest_id: 5,
            manifest_len: 120,
            manifest_checksum: 0xDEAD_BEEF,
        };
        let bytes = encode_slot(&root, 4096, 1 << 20);
        let (back, ps, lc) = decode_slot(&bytes).unwrap();
        assert_eq!(back, root);
        assert_eq!((ps, lc), (4096, 1 << 20));
        for off in 0..bytes.len() {
            let mut bad = bytes;
            bad[off] ^= 0x40;
            assert!(decode_slot(&bad).is_none(), "flip at {off} accepted");
        }
    }

    #[test]
    fn cdc_covers_input_and_respects_bounds() {
        let data = rand_bytes(10_000, 1);
        for max in [64usize, 128, 512] {
            let chunks = cdc_chunks(&data, max);
            let mut pos = 0usize;
            for (start, len) in &chunks {
                assert_eq!(*start, pos);
                assert!(*len >= 1 && *len <= max);
                pos += len;
            }
            assert_eq!(pos, data.len());
            assert_eq!(chunks, cdc_chunks(&data, max), "chunking must be deterministic");
        }
        assert!(cdc_chunks(&[], 64).is_empty());
    }

    #[test]
    fn cdc_localizes_edits() {
        let a = rand_bytes(20_000, 2);
        let mut b = a.clone();
        b[10_000] ^= 0xFF; // single-byte edit
        let ca: HashSet<u64> =
            cdc_chunks(&a, 256).iter().map(|(s, l)| fnv1a(&a[*s..s + l])).collect();
        let cb: Vec<u64> = cdc_chunks(&b, 256).iter().map(|(s, l)| fnv1a(&b[*s..s + l])).collect();
        let changed = cb.iter().filter(|c| !ca.contains(c)).count();
        assert!(changed <= 3, "a one-byte edit changed {changed} chunks");
    }

    #[test]
    fn create_append_reopen_recovers_tail() {
        let p = tmp("basic.db");
        let mut e = Engine::create(&p, &small_opts()).unwrap();
        assert_eq!(e.last_commit(), 0);
        assert_eq!(e.append(b"one").unwrap(), AppendOutcome::Committed(1));
        assert_eq!(e.append(b"two").unwrap(), AppendOutcome::Committed(2));
        drop(e);
        let e = Engine::open(&p).unwrap();
        assert_eq!(e.last_commit(), 2);
        assert_eq!(e.tail(), &[(1, b"one".to_vec()), (2, b"two".to_vec())]);
    }

    #[test]
    fn checkpoint_materialize_round_trip_and_log_reset() {
        let p = tmp("ckpt.db");
        let mut e = Engine::create(&p, &small_opts()).unwrap();
        let image: Vec<u8> = (0..1500u32).map(|i| (i * 31) as u8).collect();
        e.append(b"t1").unwrap();
        e.checkpoint(&image, e.last_commit()).unwrap();
        assert_eq!(e.materialize().unwrap().unwrap(), image);
        assert!(e.tail().is_empty());
        // New appends land in the reset log; reopen sees image + new tail.
        e.append(b"t2").unwrap();
        drop(e);
        let mut e = Engine::open(&p).unwrap();
        assert_eq!(e.checkpoint_commit(), 1);
        assert_eq!(e.last_commit(), 2);
        assert_eq!(e.materialize().unwrap().unwrap(), image);
        assert_eq!(e.tail(), &[(2, b"t2".to_vec())]);
    }

    #[test]
    fn stale_pre_checkpoint_frames_do_not_replay() {
        let p = tmp("gen.db");
        let mut e = Engine::create(&p, &small_opts()).unwrap();
        for i in 0..5u8 {
            e.append(&[i; 40]).unwrap();
        }
        e.checkpoint(b"image-state", e.last_commit()).unwrap();
        drop(e);
        // The old generation's frames are still physically in the region,
        // but replay must stop at the generation boundary.
        let e = Engine::open(&p).unwrap();
        assert_eq!(e.last_commit(), 5);
        assert!(e.tail().is_empty());
    }

    #[test]
    fn checkpoint_reuses_unchanged_pages() {
        let p = tmp("cow.db");
        let mut e = Engine::create(&p, &EngineOptions { page_size: 256, log_cap: 2048 }).unwrap();
        let base = rand_bytes(50_000, 3);
        e.append(b"x").unwrap();
        e.checkpoint(&base, e.last_commit()).unwrap();
        let pages_after_first = e.root.page_count;
        // Edit one byte: almost every chunk should be reused.
        let mut edited = base.clone();
        edited[25_000] ^= 0xFF;
        e.append(b"y").unwrap();
        e.checkpoint(&edited, e.last_commit()).unwrap();
        let grown = e.root.page_count - pages_after_first;
        // Manifest chain pages are rewritten every checkpoint, but the free
        // list absorbs the old chain, so growth stays far below a full
        // rewrite (which would double page_count).
        assert!(
            grown < pages_after_first / 4,
            "page heap grew by {grown} of {pages_after_first}: copy-on-write reuse broken"
        );
        assert_eq!(e.materialize().unwrap().unwrap(), edited);
    }

    #[test]
    fn log_full_is_reported_without_writing() {
        let p = tmp("full.db");
        let mut e = Engine::create(&p, &EngineOptions { page_size: 128, log_cap: 256 }).unwrap();
        let big = vec![7u8; 300];
        assert_eq!(e.append(&big).unwrap(), AppendOutcome::LogFull);
        assert_eq!(e.last_commit(), 0);
        // Checkpoint (baking the txn in) resets the log for future appends.
        e.checkpoint(&big, e.last_commit() + 1).unwrap();
        assert_eq!(e.last_commit(), 1);
        assert_eq!(e.append(&[1u8; 64]).unwrap(), AppendOutcome::Committed(2));
    }

    #[test]
    fn flipped_bit_in_active_slot_falls_back_or_errors() {
        let p = tmp("slotrot.db");
        let mut e = Engine::create(&p, &small_opts()).unwrap();
        e.append(b"a").unwrap();
        e.checkpoint(b"img1", 1).unwrap(); // root now in slot B, epoch 2
        drop(e);
        // Corrupt slot B (the newest root). No post-checkpoint appends, so
        // recovery falls back to the genesis root in slot A.
        let mut f = std::fs::OpenOptions::new().read(true).write(true).open(&p).unwrap();
        f.seek(SeekFrom::Start(SLOT_LEN as u64 + 20)).unwrap();
        f.write_all(&[0xFF]).unwrap();
        f.sync_all().unwrap();
        drop(f);
        let e = Engine::open(&p).unwrap();
        assert_eq!(e.root.epoch, 1, "must fall back to the older valid root");
        drop(e);
        // Corrupt slot A too: both roots gone -> typed error, not a panic.
        let mut f = std::fs::OpenOptions::new().read(true).write(true).open(&p).unwrap();
        f.seek(SeekFrom::Start(20)).unwrap();
        f.write_all(&[0xFF]).unwrap();
        f.sync_all().unwrap();
        drop(f);
        assert!(matches!(Engine::open(&p), Err(SagaError::Corrupt(_))));
    }

    #[test]
    fn lost_newest_root_with_log_evidence_is_detected() {
        let p = tmp("genloss.db");
        let mut e = Engine::create(&p, &small_opts()).unwrap();
        e.append(b"a").unwrap();
        e.checkpoint(b"img", 1).unwrap();
        e.append(b"post-checkpoint-txn").unwrap(); // generation-2 evidence
        drop(e);
        // Rot the newest slot: the gen-2 log frame proves a newer root
        // existed, so recovery must refuse rather than silently serve the
        // genesis root.
        let mut f = std::fs::OpenOptions::new().read(true).write(true).open(&p).unwrap();
        f.seek(SeekFrom::Start(SLOT_LEN as u64 + 20)).unwrap();
        f.write_all(&[0xFF]).unwrap();
        f.sync_all().unwrap();
        drop(f);
        match Engine::open(&p) {
            Err(SagaError::Corrupt(m)) => assert!(m.contains("newest root lost"), "{m}"),
            other => panic!("expected newest-root-lost, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_page_is_typed_error_on_materialize() {
        let p = tmp("pagerot.db");
        let mut e = Engine::create(&p, &small_opts()).unwrap();
        let image: Vec<u8> = (0..2000u32).map(|i| (i * 17) as u8).collect();
        e.append(b"a").unwrap();
        e.checkpoint(&image, 1).unwrap();
        let heap = LOG_START + e.log_cap;
        drop(e);
        let mut f = std::fs::OpenOptions::new().read(true).write(true).open(&p).unwrap();
        // Page 0 holds the image's first chunk; image[10] is 0xAA, so write
        // a different byte to guarantee an actual flip.
        f.seek(SeekFrom::Start(heap + 10)).unwrap();
        f.write_all(&[0x55]).unwrap();
        f.sync_all().unwrap();
        drop(f);
        let mut e = Engine::open(&p).unwrap(); // open is lazy: still succeeds
        match e.materialize() {
            Err(SagaError::Corrupt(_)) => {}
            other => panic!("expected Corrupt, got {:?}", other.map(|v| v.map(|i| i.len()))),
        }
        let report = e.scrub().unwrap();
        assert!(!report.is_clean());
    }

    #[test]
    fn scrub_reports_clean_store() {
        let p = tmp("scrub.db");
        let mut e = Engine::create(&p, &small_opts()).unwrap();
        e.append(b"a").unwrap();
        e.checkpoint(b"image-bytes", 1).unwrap();
        e.append(b"b").unwrap();
        let report = e.scrub().unwrap();
        assert!(report.is_clean(), "{:?}", report.problems);
        assert_eq!(report.last_commit, 2);
        assert_eq!(report.tail_txns, 1);
        assert!(report.pages_checked > 0);
    }

    #[test]
    fn create_refuses_existing_file_and_bad_geometry() {
        let p = tmp("exists.db");
        Engine::create(&p, &small_opts()).unwrap();
        assert!(Engine::create(&p, &small_opts()).is_err());
        let q = tmp("geom.db");
        assert!(Engine::create(&q, &EngineOptions { page_size: 8, log_cap: 2048 }).is_err());
        assert!(Engine::create(&q, &EngineOptions { page_size: 128, log_cap: 16 }).is_err());
    }
}
