//! Snapshot streams: the length-prefixed, checksummed record format the
//! engine's online `SNAPSHOT` export writes, the restore path loads, and
//! replica bootstrap ships over the wire (`PSYNC` → `+FULLRESYNC`).
//!
//! Layout (all integers little-endian; header/checksum framing shared
//! with the repl log via [`crate::repl::wire`]):
//!
//! ```text
//! header    16 B  SNAP_MAGIC, SNAP_VERSION, source shard count
//!                 (informational — a restore may target any shard
//!                 count; records re-partition)
//! records   *     u32 key_len, u32 value_len, u64 expire_at_ms,
//!                 key bytes, value bytes
//! end mark  u32   key_len = 0xFFFF_FFFF
//! count     u64   number of records
//! checksum  u64   FNV-1a over every preceding byte of the stream
//! ```
//!
//! `expire_at_ms` is the record's **absolute** expiry deadline in Unix
//! milliseconds (0 = none) — deadlines survive snapshot/restore verbatim
//! and are never re-derived from a clock. Only this version is read: a
//! version-1 stream (no expiry field) can only come from a store the
//! pool format stamp `0002` already refuses, and is refused with an
//! error naming the version.
//!
//! [`SnapshotStream`] writes that layout to any `Write` sink — a `Vec`
//! for the replication bootstrap payload, a [`DurableFile`] for disk
//! backups. `DurableFile` is the crate's one crash-safe publish — unique
//! tmp sibling, write, fsync the file, rename, fsync the directory —
//! shared with the cluster slot map: a crash mid-write can never leave a
//! half-written file under the real name, and a returned `Ok` means the
//! new file survives power loss.
//!
//! The readers ([`read_all`] / [`parse_all`]) verify structure, bounds,
//! record count and checksum **before** returning a single record, so a
//! corrupted snapshot is rejected with a clean error instead of
//! partially restored. They hold the whole record set in memory, which
//! is the right trade-off at the sizes this store targets per snapshot
//! (values are capped at [`MAX_VALUE_LEN`](crate::MAX_VALUE_LEN) and the
//! source pools are bounded); a streaming two-pass verify can replace it
//! if pools grow.

use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use dash_common::MAX_KEY_LEN;

use crate::engine::MAX_VALUE_LEN;
use crate::repl::wire::{FileHeader, Fnv, Parser};

/// `b"DASHSNP1"` as a little-endian u64.
pub const SNAP_MAGIC: u64 = u64::from_le_bytes(*b"DASHSNP1");
/// Current format version (v2 added the per-record expiry deadline),
/// and the only one read.
pub const SNAP_VERSION: u32 = 2;
/// `key_len` sentinel terminating the record stream.
const END_MARK: u32 = u32::MAX;

/// Why a snapshot could not be written or loaded.
#[derive(Debug)]
pub enum SnapshotError {
    Io(std::io::Error),
    /// Structural or checksum corruption; the message says what and where.
    Corrupt(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::Corrupt(s) => write!(f, "snapshot rejected: {s}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

fn corrupt(msg: impl Into<String>) -> SnapshotError {
    SnapshotError::Corrupt(msg.into())
}

pub type SnapshotResult<T> = Result<T, SnapshotError>;

/// One decoded record: `(key, value, expire_at_ms)` — expiry 0 means none.
pub type SnapshotEntry = (Vec<u8>, Vec<u8>, u64);

/// Streams snapshot-format records (header, records, checksummed
/// trailer) into any `Write` sink.
pub struct SnapshotStream<W: Write> {
    out: W,
    fnv: Fnv,
    count: u64,
}

impl<W: Write> SnapshotStream<W> {
    /// Start a stream: writes the header. `shards` is recorded for
    /// diagnostics.
    pub fn new(out: W, shards: u32) -> SnapshotResult<Self> {
        let mut s = SnapshotStream { out, fnv: Fnv::new(), count: 0 };
        let header = FileHeader { magic: SNAP_MAGIC, version: SNAP_VERSION, meta: shards };
        s.write_hashed(&header.encode())?;
        Ok(s)
    }

    fn write_hashed(&mut self, bytes: &[u8]) -> SnapshotResult<()> {
        self.fnv.update(bytes);
        self.out.write_all(bytes)?;
        Ok(())
    }

    /// Append one record. `expire_at_ms` is the absolute expiry deadline
    /// (0 = none).
    pub fn append(&mut self, key: &[u8], value: &[u8], expire_at_ms: u64) -> SnapshotResult<()> {
        let mut head = [0u8; 16];
        head[..4].copy_from_slice(&(key.len() as u32).to_le_bytes());
        head[4..8].copy_from_slice(&(value.len() as u32).to_le_bytes());
        head[8..].copy_from_slice(&expire_at_ms.to_le_bytes());
        self.write_hashed(&head)?;
        self.write_hashed(key)?;
        self.write_hashed(value)?;
        self.count += 1;
        Ok(())
    }

    /// Write the end mark, count and checksum; returns the sink and the
    /// record count.
    pub fn finish(mut self) -> SnapshotResult<(W, u64)> {
        let mut trailer = Vec::with_capacity(12);
        trailer.extend_from_slice(&END_MARK.to_le_bytes());
        trailer.extend_from_slice(&self.count.to_le_bytes());
        self.write_hashed(&trailer)?;
        let checksum = self.fnv.value();
        self.out.write_all(&checksum.to_le_bytes())?;
        Ok((self.out, self.count))
    }
}

/// A file that appears under its real name whole and durable, or not at
/// all: bytes written to `out` go to a tmp sibling, and
/// [`commit`](Self::commit) publishes them. Dropped uncommitted (or
/// failing to commit) it removes the tmp.
pub(crate) struct DurableFile {
    pub(crate) out: BufWriter<File>,
    tmp: PathBuf,
    path: PathBuf,
}

impl DurableFile {
    pub(crate) fn create(path: &Path) -> io::Result<Self> {
        // A unique tmp name per writer (pid + in-process sequence): two
        // concurrent writers to one path cannot interleave bytes in a
        // shared tmp file — the last rename wins with a complete file.
        static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let mut name = path
            .file_name()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?
            .to_os_string();
        let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
        name.push(format!(".tmp.{}.{seq}", std::process::id()));
        let tmp = path.with_file_name(name);
        Ok(DurableFile { out: BufWriter::new(File::create(&tmp)?), tmp, path: path.to_path_buf() })
    }

    /// Flush, fsync the file, rename it over the real name, fsync the
    /// directory (a rename is only as durable as its directory entry);
    /// every error is returned.
    pub(crate) fn commit(mut self) -> io::Result<()> {
        self.out.flush()?;
        self.out.get_ref().sync_all()?;
        std::fs::rename(&self.tmp, &self.path)?;
        let dir = self.path.parent().filter(|d| !d.as_os_str().is_empty());
        File::open(dir.unwrap_or(Path::new(".")))?.sync_all()
    }
}

impl Drop for DurableFile {
    fn drop(&mut self) {
        // Best effort; after a successful rename there is nothing here.
        let _ = std::fs::remove_file(&self.tmp);
    }
}

/// Fully verify and decode a snapshot byte stream. Every structural
/// check — magic, version, per-record length bounds, end marker, record
/// count, checksum, no trailing bytes — passes before any record is
/// returned.
pub fn parse_all(buf: &[u8]) -> SnapshotResult<Vec<SnapshotEntry>> {
    if buf.len() < FileHeader::LEN + 4 + 8 + 8 {
        return Err(corrupt(format!("stream of {} bytes is smaller than an empty snapshot", buf.len())));
    }
    let mut p = Parser::new(buf);
    FileHeader::read(&mut p, SNAP_MAGIC, SNAP_VERSION..=SNAP_VERSION, "snapshot")
        .map_err(corrupt)?;
    let mut records = Vec::new();
    loop {
        let klen = p.u32("key length").map_err(corrupt)?;
        if klen == END_MARK {
            break;
        }
        let vlen = p.u32("value length").map_err(corrupt)?;
        let expire_at_ms = p.u64("expiry deadline").map_err(corrupt)?;
        if klen as usize > MAX_KEY_LEN {
            return Err(corrupt(format!("key length {klen} exceeds limit")));
        }
        if vlen as usize > MAX_VALUE_LEN {
            return Err(corrupt(format!("value length {vlen} exceeds limit")));
        }
        let key = p.take(klen as usize, "key bytes").map_err(corrupt)?.to_vec();
        let value = p.take(vlen as usize, "value bytes").map_err(corrupt)?.to_vec();
        records.push((key, value, expire_at_ms));
    }
    let count = p.u64("record count").map_err(corrupt)?;
    if count != records.len() as u64 {
        return Err(corrupt(format!(
            "trailer claims {count} records, stream holds {}",
            records.len()
        )));
    }
    let hashed_end = p.pos();
    let checksum = p.u64("checksum").map_err(corrupt)?;
    if p.remaining() != 0 {
        return Err(corrupt(format!("{} trailing bytes after checksum", p.remaining())));
    }
    let mut fnv = Fnv::new();
    fnv.update(&buf[..hashed_end]);
    if fnv.value() != checksum {
        return Err(corrupt(format!(
            "checksum mismatch: stream says {checksum:#018x}, computed {:#018x}",
            fnv.value()
        )));
    }
    Ok(records)
}

/// [`parse_all`] over a file on disk.
pub fn read_all(path: &Path) -> SnapshotResult<Vec<SnapshotEntry>> {
    let mut buf = Vec::new();
    File::open(path)?.read_to_end(&mut buf)?;
    parse_all(&buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TempPath(PathBuf);

    impl TempPath {
        fn new(tag: &str) -> Self {
            let mut p = std::env::temp_dir();
            p.push(format!("dash-snap-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_file(&p);
            TempPath(p)
        }
    }

    impl Drop for TempPath {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    /// Any leftover `<name>.tmp.*` files next to `path`?
    fn tmp_debris(path: &Path) -> bool {
        let stem = format!("{}.tmp", path.file_name().unwrap().to_str().unwrap());
        std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .filter_map(|e| e.ok())
            .any(|e| e.file_name().to_str().is_some_and(|n| n.starts_with(&stem)))
    }

    fn write_sample(path: &Path, n: u32) -> u64 {
        let mut file = DurableFile::create(path).unwrap();
        let mut w = SnapshotStream::new(&mut file.out, 4).unwrap();
        for i in 0..n {
            // Every third record carries a deadline, exercising both
            // record shapes in one stream.
            let expire = if i % 3 == 0 { 1_700_000_000_000 + u64::from(i) } else { 0 };
            w.append(format!("key-{i}").as_bytes(), format!("value-{i}").as_bytes(), expire)
                .unwrap();
        }
        let count = w.finish().unwrap().1;
        file.commit().unwrap();
        count
    }

    #[test]
    fn roundtrip() {
        let p = TempPath::new("roundtrip");
        assert_eq!(write_sample(&p.0, 100), 100);
        let records = read_all(&p.0).unwrap();
        assert_eq!(records.len(), 100);
        for (i, (k, v, e)) in records.iter().enumerate() {
            assert_eq!(k, format!("key-{i}").as_bytes());
            assert_eq!(v, format!("value-{i}").as_bytes());
            let expect = if i % 3 == 0 { 1_700_000_000_000 + i as u64 } else { 0 };
            assert_eq!(*e, expect, "deadline must survive the roundtrip verbatim");
        }
        assert!(!tmp_debris(&p.0), "tmp must be renamed away");
    }

    /// A version-1 stream could only come from a store the pool format
    /// stamp already refuses: it is refused at its header, naming the
    /// version, whatever follows.
    #[test]
    fn a_v1_stream_is_refused_naming_its_version() {
        let mut buf = SnapshotStream::new(Vec::new(), 4).unwrap().finish().unwrap().0;
        buf[..FileHeader::LEN]
            .copy_from_slice(&FileHeader { magic: SNAP_MAGIC, version: 1, meta: 4 }.encode());
        let err = parse_all(&buf).unwrap_err();
        assert!(err.to_string().contains("version 1"), "{err}");
    }

    #[test]
    fn in_memory_stream_matches_file_format() {
        let p = TempPath::new("memstream");
        write_sample(&p.0, 10);
        let mut s = SnapshotStream::new(Vec::new(), 4).unwrap();
        for i in 0..10u32 {
            let expire = if i % 3 == 0 { 1_700_000_000_000 + u64::from(i) } else { 0 };
            s.append(format!("key-{i}").as_bytes(), format!("value-{i}").as_bytes(), expire)
                .unwrap();
        }
        let (bytes, count) = s.finish().unwrap();
        assert_eq!(count, 10);
        assert_eq!(bytes, std::fs::read(&p.0).unwrap(), "Vec sink and file must be byte-identical");
        assert_eq!(parse_all(&bytes).unwrap().len(), 10);
    }

    #[test]
    fn empty_snapshot_roundtrips() {
        let p = TempPath::new("empty");
        assert_eq!(write_sample(&p.0, 0), 0);
        assert_eq!(read_all(&p.0).unwrap(), Vec::new());
    }

    #[test]
    fn binary_keys_and_values() {
        let p = TempPath::new("binary");
        let key: Vec<u8> = (0..=255u8).collect();
        let value = vec![0u8; 10_000];
        let mut file = DurableFile::create(&p.0).unwrap();
        let mut w = SnapshotStream::new(&mut file.out, 1).unwrap();
        w.append(&key, &value, 0).unwrap();
        w.finish().unwrap();
        file.commit().unwrap();
        assert_eq!(read_all(&p.0).unwrap(), vec![(key, value, 0)]);
    }

    #[test]
    fn every_corrupted_byte_is_detected() {
        let p = TempPath::new("corrupt");
        write_sample(&p.0, 10);
        let original = std::fs::read(&p.0).unwrap();
        // Flipping any single byte must fail verification (length fields
        // may shift parsing, data bytes break the checksum — either way
        // read_all must reject, never mis-restore).
        for pos in (0..original.len()).step_by(7) {
            let mut bad = original.clone();
            bad[pos] ^= 0x40;
            std::fs::write(&p.0, &bad).unwrap();
            assert!(read_all(&p.0).is_err(), "flip at byte {pos} went undetected");
        }
    }

    #[test]
    fn truncation_is_detected() {
        let p = TempPath::new("trunc");
        write_sample(&p.0, 10);
        let original = std::fs::read(&p.0).unwrap();
        for cut in [1, original.len() / 2, original.len() - 1] {
            std::fs::write(&p.0, &original[..cut]).unwrap();
            assert!(read_all(&p.0).is_err(), "truncation to {cut} bytes went undetected");
        }
    }

    #[test]
    fn unfinished_writer_leaves_no_file() {
        let p = TempPath::new("drop");
        {
            let mut f = DurableFile::create(&p.0).unwrap();
            f.out.write_all(b"half a file").unwrap();
            assert!(tmp_debris(&p.0), "bytes go to a tmp sibling");
            // Dropped without commit(): simulated crash mid-write.
        }
        assert!(!p.0.exists(), "an uncommitted file must not appear under the real name");
        assert!(!tmp_debris(&p.0), "tmp file must be cleaned up");
        // A failed commit (the real name is a directory) is returned, not
        // swallowed, and cleans up after itself too.
        std::fs::create_dir(&p.0).unwrap();
        assert!(DurableFile::create(&p.0).unwrap().commit().is_err());
        assert!(!tmp_debris(&p.0));
        std::fs::remove_dir(&p.0).unwrap();
    }

    #[test]
    fn concurrent_writers_to_one_path_publish_a_valid_file() {
        let p = TempPath::new("concurrent");
        // Interleaved writers with distinct tmp files: whichever rename
        // lands last, the published file must be one writer's, whole.
        let mut a = DurableFile::create(&p.0).unwrap();
        let mut b = DurableFile::create(&p.0).unwrap();
        for _ in 0..50 {
            a.out.write_all(b"aaaa").unwrap();
            b.out.write_all(b"bbbb").unwrap();
        }
        a.commit().unwrap();
        b.commit().unwrap();
        assert_eq!(std::fs::read(&p.0).unwrap(), b"bbbb".repeat(50), "last rename wins");
        assert!(!tmp_debris(&p.0));
    }
}
