//! Checksummed binary framing for on-disk artifacts.
//!
//! Frame layout (little-endian):
//! ```text
//! [magic: 8 bytes "SAGAFRM1"] — file header, written once
//! repeated frames:
//!   [len: u32] [checksum: u64 = fnv1a(payload)] [payload: len bytes]
//! ```
//!
//! Invariants:
//! - a reader never returns a payload whose checksum does not match;
//! - a truncated trailing frame (torn write) is reported as `Corrupt`,
//!   after every frame before the tear has been returned;
//! - library paths never panic: every fallible operation returns
//!   [`SagaError`] (enforced by the module-level `deny(clippy::unwrap_used)`).
//!
//! [`Wal`] builds an append-only write-ahead log on top of the framing:
//! opening a log replays every frame up to the last valid one and
//! truncates a torn or corrupt tail in place, so a process killed
//! mid-append resumes from a clean prefix instead of panicking.
//!
//! Every payload these frames carry is a [`codec`] encoding: the one byte
//! format of the workspace, for the engine's images and logs, the trainers'
//! checkpoint frames, on-device checkpoints and spill runs, and the files
//! the CLI writes. A value that is a file of its own goes through
//! [`save_value`] / [`load_value`]: one frame, written to a temp file that
//! is fsynced and renamed into place.
//!
//! [`engine`] builds the full crash-safe MVCC storage engine (dual-slot
//! superblock, circular transaction log, copy-on-write pages) on these
//! primitives, and [`kg`] wires the [`KnowledgeGraph`](crate::store) onto it.

#![deny(clippy::unwrap_used)]

pub mod codec;
pub mod engine;
pub mod kg;

use crate::error::{Result, SagaError};
use crate::text::fnv1a;
use codec::BinCodec;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"SAGAFRM1";
/// Bytes of a frame header, here and in the engine's log region.
const HEADER_LEN: usize = 12;

/// The `[len: u32][checksum: u64 = fnv1a(payload)]` header of a frame
/// carrying `payload`; `None` when `payload` overflows the length field.
fn frame_header(payload: &[u8]) -> Option<[u8; HEADER_LEN]> {
    let len = u32::try_from(payload.len()).ok()?;
    let mut header = [0u8; HEADER_LEN];
    header[..4].copy_from_slice(&len.to_le_bytes());
    header[4..].copy_from_slice(&fnv1a(payload).to_le_bytes());
    Some(header)
}

/// Splits a frame header off `bytes`: the payload length, the checksum and
/// the bytes after the header; `None` when `bytes` is shorter than a header.
fn split_header(bytes: &[u8]) -> Option<(usize, u64, &[u8])> {
    let (len, rest) = bytes.split_first_chunk::<4>()?;
    let (checksum, rest) = rest.split_first_chunk::<8>()?;
    Some((u32::from_le_bytes(*len) as usize, u64::from_le_bytes(*checksum), rest))
}

/// Fsyncs a directory so a just-created or just-renamed entry inside it
/// survives a crash. Creating or renaming a file makes the *data* durable
/// only after the file is synced AND the directory entry itself is synced;
/// without the latter, a crash immediately after `rename` can lose the file.
pub fn fsync_dir(dir: &Path) -> Result<()> {
    let f = File::open(dir)?;
    f.sync_all()?;
    Ok(())
}

/// Fsyncs the parent directory of `path`, if it has one.
fn fsync_parent(path: &Path) -> Result<()> {
    match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => fsync_dir(p),
        _ => Ok(()),
    }
}

/// Encodes one `[len][checksum][payload]` frame into `w`.
fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<()> {
    let header = frame_header(payload).ok_or_else(|| {
        SagaError::InvalidArgument(format!("frame too large: {} bytes", payload.len()))
    })?;
    w.write_all(&header)?;
    w.write_all(payload)?;
    Ok(())
}

/// Appends checksummed frames to a file.
pub struct FrameWriter {
    inner: BufWriter<File>,
}

impl FrameWriter {
    /// Creates (truncating) a new frame file with the magic header. The
    /// parent directory is fsynced so the file's *existence* survives a
    /// crash immediately after creation (the data inside becomes durable
    /// on [`sync`](Self::sync)).
    pub fn create(path: &Path) -> Result<Self> {
        let mut inner = BufWriter::new(File::create(path)?);
        inner.write_all(MAGIC)?;
        inner.flush()?;
        fsync_parent(path)?;
        Ok(Self { inner })
    }

    /// Writes one payload as a frame.
    pub fn write(&mut self, payload: &[u8]) -> Result<()> {
        write_frame(&mut self.inner, payload)
    }

    /// Flushes buffered frames to the OS.
    pub fn flush(&mut self) -> Result<()> {
        self.inner.flush()?;
        Ok(())
    }

    /// Flushes and syncs file data to stable storage.
    pub fn sync(&mut self) -> Result<()> {
        self.inner.flush()?;
        self.inner.get_ref().sync_data()?;
        Ok(())
    }
}

/// Reads checksummed frames from a file.
pub struct FrameReader {
    inner: BufReader<File>,
    /// File bytes not yet read, so a corrupt length field is caught before
    /// its payload is allocated.
    unread: u64,
}

impl FrameReader {
    /// Opens a frame file, validating the magic header.
    pub fn open(path: &Path) -> Result<Self> {
        let file = File::open(path)?;
        let unread = file.metadata()?.len().saturating_sub(MAGIC.len() as u64);
        let mut inner = BufReader::new(file);
        let mut magic = [0u8; 8];
        inner
            .read_exact(&mut magic)
            .map_err(|_| SagaError::Corrupt("missing file header".into()))?;
        if &magic != MAGIC {
            return Err(SagaError::Corrupt(format!("bad magic {magic:?}")));
        }
        Ok(Self { inner, unread })
    }

    /// Reads the next frame. `Ok(None)` at clean EOF; `Err(Corrupt)` on a
    /// torn or checksum-failing frame.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>> {
        let mut header = [0u8; HEADER_LEN];
        let mut filled = 0usize;
        while filled < header.len() {
            let n = self.inner.read(&mut header[filled..])?;
            if n == 0 {
                return if filled == 0 {
                    Ok(None) // clean EOF on a frame boundary
                } else {
                    Err(SagaError::Corrupt("torn frame header".into()))
                };
            }
            filled += n;
        }
        let (len, checksum, _) =
            split_header(&header).ok_or_else(|| SagaError::Corrupt("torn frame header".into()))?;
        self.unread = self.unread.saturating_sub(HEADER_LEN as u64);
        if len as u64 > self.unread {
            return Err(SagaError::Corrupt("torn frame payload".into()));
        }
        self.unread -= len as u64;
        let mut payload = vec![0u8; len];
        self.inner
            .read_exact(&mut payload)
            .map_err(|_| SagaError::Corrupt("torn frame payload".into()))?;
        if fnv1a(&payload) != checksum {
            return Err(SagaError::Corrupt("checksum mismatch".into()));
        }
        Ok(Some(payload))
    }
}

/// Writes `value`'s [`BinCodec`] encoding as the one frame of the file at
/// `path`, durably and atomically: the frame goes to a sibling temp file,
/// which is fsynced and renamed over `path`, and then the parent directory
/// is fsynced so the rename itself survives a crash. A reader sees the old
/// file or the new one, never a mix.
pub fn save_value<T: BinCodec>(path: &Path, value: &T) -> Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    let mut w = FrameWriter::create(&tmp)?;
    w.write(&codec::to_bytes(value))?;
    w.sync()?;
    drop(w);
    std::fs::rename(&tmp, path)?;
    fsync_parent(path)
}

/// Reads a value written by [`save_value`]. The file must be the magic
/// header and exactly one frame whose checksum matches, and the frame must
/// decode to one whole `T`; anything else — a flipped bit, a cut, trailing
/// bytes — is [`SagaError::Corrupt`].
pub fn load_value<T: BinCodec>(path: &Path) -> Result<T> {
    let bytes = std::fs::read(path)?;
    let corrupt = |what: &str| SagaError::Corrupt(format!("single-frame file: {what}"));
    let (magic, rest) = bytes.split_at_checked(MAGIC.len()).ok_or_else(|| corrupt("no header"))?;
    if magic != MAGIC {
        return Err(corrupt("bad magic"));
    }
    let (len, checksum, payload) =
        split_header(rest).ok_or_else(|| corrupt("torn frame header"))?;
    if payload.len() != len {
        return Err(corrupt("file is not one whole frame"));
    }
    if fnv1a(payload) != checksum {
        return Err(corrupt("checksum mismatch"));
    }
    codec::from_bytes(payload)
}

/// An append-only write-ahead log with crash recovery.
///
/// [`Wal::open`] replays every frame up to the last valid one and
/// *truncates* a torn or checksum-failing tail in place (the standard WAL
/// recovery contract: a record is durable once [`sync`](Self::sync)
/// returns, and a record half-written at the moment of a crash vanishes).
/// Subsequent [`append`](Self::append)s continue from the clean prefix.
pub struct Wal {
    inner: BufWriter<File>,
}

impl Wal {
    /// Opens (or creates) the log at `path`, returning the recovered
    /// payloads in append order. A file too short to hold the magic header
    /// (e.g. torn during creation) is reinitialized empty; a file with a
    /// *wrong* magic is rejected as [`SagaError::Corrupt`] rather than
    /// silently clobbered.
    pub fn open(path: &Path) -> Result<(Self, Vec<Vec<u8>>)> {
        let fresh = match std::fs::metadata(path) {
            Ok(m) => m.len() < MAGIC.len() as u64,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => true,
            Err(e) => return Err(e.into()),
        };
        if fresh {
            let mut inner = BufWriter::new(File::create(path)?);
            inner.write_all(MAGIC)?;
            inner.flush()?;
            // Make the file itself durable: sync its data, then sync the
            // directory entry so a crash right after creation cannot lose
            // the (empty but valid) log.
            inner.get_ref().sync_data()?;
            fsync_parent(path)?;
            return Ok((Self { inner }, Vec::new()));
        }

        // Replay the valid prefix, tracking its byte length so the torn
        // tail (if any) can be truncated away.
        let mut reader = FrameReader::open(path)?;
        let mut frames = Vec::new();
        let mut valid_len = MAGIC.len() as u64;
        loop {
            match reader.next_frame() {
                Ok(Some(payload)) => {
                    valid_len += (HEADER_LEN + payload.len()) as u64;
                    frames.push(payload);
                }
                Ok(None) => break,
                Err(_) => break, // torn/corrupt tail: recover to last valid frame
            }
        }
        drop(reader);

        let mut file = std::fs::OpenOptions::new().write(true).open(path)?;
        file.set_len(valid_len)?;
        // Make the truncation itself durable: a crash after recovery must
        // not resurrect the torn tail we just cut off.
        file.sync_data()?;
        file.seek(SeekFrom::End(0))?;
        Ok((Self { inner: BufWriter::new(file) }, frames))
    }

    /// Appends one record. Durable only after the next [`sync`](Self::sync).
    pub fn append(&mut self, payload: &[u8]) -> Result<()> {
        write_frame(&mut self.inner, payload)
    }

    /// Flushes buffered records and syncs file data to stable storage.
    pub fn sync(&mut self) -> Result<()> {
        self.inner.flush()?;
        self.inner.get_ref().sync_data()?;
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("saga-core-persist-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{}-{}", std::process::id(), name))
    }

    #[test]
    fn frames_round_trip() {
        let p = tmp("roundtrip.bin");
        let mut w = FrameWriter::create(&p).unwrap();
        w.write(b"hello").unwrap();
        w.write(b"").unwrap();
        w.write(&[0u8; 1024]).unwrap();
        w.flush().unwrap();
        let mut r = FrameReader::open(&p).unwrap();
        let mut frames = Vec::new();
        while let Some(frame) = r.next_frame().unwrap() {
            frames.push(frame);
        }
        assert_eq!(frames.len(), 3);
        assert_eq!(frames[0], b"hello");
        assert!(frames[1].is_empty());
        assert_eq!(frames[2].len(), 1024);
    }

    #[test]
    fn corrupted_payload_is_rejected() {
        let p = tmp("corrupt.bin");
        let mut w = FrameWriter::create(&p).unwrap();
        w.write(b"precious data").unwrap();
        w.flush().unwrap();
        drop(w);
        // Flip a payload byte.
        let mut f = std::fs::OpenOptions::new().write(true).open(&p).unwrap();
        f.seek(SeekFrom::Start(8 + 12 + 2)).unwrap();
        f.write_all(&[0xFF]).unwrap();
        drop(f);
        let mut r = FrameReader::open(&p).unwrap();
        match r.next_frame() {
            Err(SagaError::Corrupt(m)) => assert!(m.contains("checksum")),
            other => panic!("expected corruption, got {other:?}"),
        }
    }

    #[test]
    fn torn_tail_recovers_earlier_frames() {
        let p = tmp("torn.bin");
        let mut w = FrameWriter::create(&p).unwrap();
        w.write(b"frame-one").unwrap();
        w.write(b"frame-two-that-will-be-torn").unwrap();
        w.flush().unwrap();
        drop(w);
        let len = std::fs::metadata(&p).unwrap().len();
        let f = std::fs::OpenOptions::new().write(true).open(&p).unwrap();
        f.set_len(len - 5).unwrap(); // tear the last frame
        drop(f);
        // The frame before the tear reads back; the torn one is an error.
        let mut r = FrameReader::open(&p).unwrap();
        assert_eq!(r.next_frame().unwrap(), Some(b"frame-one".to_vec()));
        assert!(matches!(r.next_frame(), Err(SagaError::Corrupt(_))));
    }

    #[test]
    fn bad_magic_is_rejected() {
        let p = tmp("badmagic.bin");
        std::fs::write(&p, b"NOTSAGA0 somepayload").unwrap();
        assert!(matches!(FrameReader::open(&p), Err(SagaError::Corrupt(_))));
    }

    #[test]
    fn artifact_round_trip() {
        let p = tmp("artifact.bin");
        let value = vec![("a".to_string(), 1u32), ("b".to_string(), 2)];
        save_value(&p, &value).unwrap();
        let back: Vec<(String, u32)> = load_value(&p).unwrap();
        assert_eq!(back, value);
        // The temp sibling does not linger, and overwriting is atomic too.
        let mut tmp_path = p.as_os_str().to_owned();
        tmp_path.push(".tmp");
        assert!(!std::path::Path::new(&tmp_path).exists());
        save_value(&p, &vec![("c".to_string(), 3u32)]).unwrap();
        assert_eq!(load_value::<Vec<(String, u32)>>(&p).unwrap(), vec![("c".to_string(), 3)]);
    }

    #[test]
    fn wal_round_trip_and_append_across_reopens() {
        let p = tmp("wal.bin");
        let _ = std::fs::remove_file(&p);
        let (mut wal, recovered) = Wal::open(&p).unwrap();
        assert!(recovered.is_empty());
        wal.append(b"one").unwrap();
        wal.append(b"two").unwrap();
        wal.sync().unwrap();
        drop(wal);
        let (mut wal, recovered) = Wal::open(&p).unwrap();
        assert_eq!(recovered, vec![b"one".to_vec(), b"two".to_vec()]);
        wal.append(b"three").unwrap();
        wal.sync().unwrap();
        drop(wal);
        let (_, recovered) = Wal::open(&p).unwrap();
        assert_eq!(recovered.len(), 3);
        assert_eq!(recovered[2], b"three");
    }

    #[test]
    fn wal_recovers_to_last_valid_frame_on_torn_tail() {
        let p = tmp("wal-torn.bin");
        let _ = std::fs::remove_file(&p);
        let (mut wal, _) = Wal::open(&p).unwrap();
        wal.append(b"keep-me").unwrap();
        wal.append(b"torn-away").unwrap();
        wal.sync().unwrap();
        drop(wal);
        // Tear the last frame mid-payload.
        let len = std::fs::metadata(&p).unwrap().len();
        let f = std::fs::OpenOptions::new().write(true).open(&p).unwrap();
        f.set_len(len - 4).unwrap();
        drop(f);
        // Recovery keeps the valid prefix and appends continue cleanly.
        let (mut wal, recovered) = Wal::open(&p).unwrap();
        assert_eq!(recovered, vec![b"keep-me".to_vec()]);
        wal.append(b"after-recovery").unwrap();
        wal.sync().unwrap();
        drop(wal);
        let (_, recovered) = Wal::open(&p).unwrap();
        assert_eq!(recovered, vec![b"keep-me".to_vec(), b"after-recovery".to_vec()]);
        // The strict reader agrees the file is clean again.
        let mut r = FrameReader::open(&p).unwrap();
        for _ in 0..2 {
            assert!(r.next_frame().unwrap().is_some());
        }
        assert_eq!(r.next_frame().unwrap(), None);
    }

    #[test]
    fn wal_recovers_from_corrupt_tail_checksum() {
        let p = tmp("wal-corrupt.bin");
        let _ = std::fs::remove_file(&p);
        let (mut wal, _) = Wal::open(&p).unwrap();
        wal.append(b"good").unwrap();
        wal.append(b"bad-frame").unwrap();
        wal.sync().unwrap();
        drop(wal);
        // Flip a byte inside the second frame's payload.
        let len = std::fs::metadata(&p).unwrap().len();
        let mut f = std::fs::OpenOptions::new().write(true).open(&p).unwrap();
        f.seek(SeekFrom::Start(len - 2)).unwrap();
        f.write_all(&[0xEE]).unwrap();
        drop(f);
        let (_, recovered) = Wal::open(&p).unwrap();
        assert_eq!(recovered, vec![b"good".to_vec()]);
    }

    #[test]
    fn wal_short_file_reinitializes_and_bad_magic_rejected() {
        let p = tmp("wal-short.bin");
        std::fs::write(&p, b"SAG").unwrap(); // torn during creation
        let (mut wal, recovered) = Wal::open(&p).unwrap();
        assert!(recovered.is_empty());
        wal.append(b"x").unwrap();
        wal.sync().unwrap();
        drop(wal);
        let (_, recovered) = Wal::open(&p).unwrap();
        assert_eq!(recovered, vec![b"x".to_vec()]);

        let q = tmp("wal-badmagic.bin");
        std::fs::write(&q, b"NOTSAGA0 somepayload").unwrap();
        assert!(matches!(Wal::open(&q), Err(SagaError::Corrupt(_))), "never clobber foreign data");
    }

    #[test]
    fn empty_file_is_clean_eof() {
        let p = tmp("empty.bin");
        let w = FrameWriter::create(&p).unwrap();
        drop(w);
        let mut r = FrameReader::open(&p).unwrap();
        assert!(r.next_frame().unwrap().is_none());
    }
}
