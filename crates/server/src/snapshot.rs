//! Snapshots: a whole store as one stream of the redo log's own records
//! ([`crate::repl::wire`]) — what `SNAPSHOT` writes to a file,
//! `--restore` loads, and `PSYNC` sends a replica ahead of the live tail.
//!
//! ```text
//! header    16 B  SNAP_MAGIC, SNAP_VERSION, source shard count
//!                 (records re-partition on restore)
//! positions 21 B  one BASE record per source shard: that shard's redo-log
//!           each  record count when the scan started
//! records   *     one SET or SETEX record per live key
//! end       29 B  an END record: the op record count, and a digest
//!                 folding the header bytes and every record's checksum
//!                 in order, positions included
//! ```
//!
//! A `SETEX` record carries the key's **absolute** deadline, so deadlines
//! survive snapshot/restore verbatim. `END` catches what per-record
//! checksums cannot: a record dropped, duplicated or reordered, and a
//! damaged header. The engine's `snapshot_into` is the one writer.
//!
//! The positions are where `--replay-logs` starts each shard's chain:
//! every op below a position is in the snapshot, so the snapshot plus
//! the log from its positions on rebuilds the store. **Version 3** is the
//! same stream without them. A store with no redo log (a volatile one)
//! still writes it, and the reader takes a version-3 file's positions as
//! 0 — replay from the start of each chain. Versions 1 and 2, and
//! unknown ones, are refused naming their version.
//!
//! [`Reader`] is the one decoder, and it is incremental: a replica feeds
//! it each socket read, and past `END` it reads on into the tail — ops,
//! each traced one preceded by a `MARK` of its trace id (`MARK 0`: the
//! idle heartbeat). A file is that stream stopped at `END`, and
//! [`Snapshot`] makes two passes of the decoder over it, like the log's
//! scan and parse: the first verifies everything, so a damaged file is
//! refused before a single record is applied; the second applies.
//!
//! [`DurableFile`] is the crate's one crash-safe publish — unique tmp
//! sibling, write, fsync the file, rename, fsync the directory — shared
//! with the cluster slot map: a crash mid-write can never leave a
//! half-written file under the real name, and a returned `Ok` means the
//! new file survives power loss.

use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::repl::wire::{decode, Decoded, Digest, FileHeader, Parser, Record};
use crate::repl::OpRef;

/// `b"DASHSNP1"` as a little-endian u64.
pub const SNAP_MAGIC: u64 = u64::from_le_bytes(*b"DASHSNP1");
/// The version written, with log positions.
pub const SNAP_VERSION: u32 = 4;
/// The version before positions: still read, and written by a store
/// without redo logs.
pub const SNAP_VERSION_UNPOSITIONED: u32 = 3;

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

/// Where a [`Reader`] is: before the header, in a version-4 snapshot's
/// log positions (this many still to come), in its records (folding the
/// digest its `END` must match), or in the tail.
#[derive(Debug, Clone, Copy, Default)]
enum State {
    #[default]
    Header,
    Positions(Digest, u32),
    Records(Digest),
    Tail,
}

/// The incremental decoder of a snapshot stream, and of the replication
/// tail that follows it on a `PSYNC` connection.
#[derive(Debug, Clone, Copy, Default)]
pub struct Reader {
    state: State,
    /// Stream bytes consumed, for error messages.
    consumed: u64,
}

/// One decoded item of a [`Reader`]'s stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Item<'a> {
    /// A key mutation: a snapshot's `SET`/`SETEX`, or any op of the tail.
    Op(OpRef<'a>),
    /// A source shard's log position, in shard order.
    Position(u64),
    /// The snapshot's `END`, verified against everything before it.
    End { records: u64 },
    /// A tail `MARK`: the next op was traced on the primary under this
    /// id (0: none).
    Mark(u64),
}

impl Reader {
    /// Decode the next item from `buf`, the stream's unread bytes:
    /// `Ok(Some((item, used)))` when `buf` starts with a whole item,
    /// `Ok(None)` when it holds only part of one (call again once more
    /// bytes have arrived), `Err` when the stream is damaged here.
    pub fn next<'a>(&mut self, buf: &'a [u8]) -> SnapshotResult<Option<(Item<'a>, usize)>> {
        // The header is taken with the first record, so a state change
        // is only ever committed together with an item.
        let (state, skip) = match self.state {
            State::Header => {
                let Some(header) = buf.first_chunk::<{ FileHeader::LEN }>() else {
                    return Ok(None);
                };
                let versions = SNAP_VERSION_UNPOSITIONED..=SNAP_VERSION;
                let read =
                    FileHeader::read(&mut Parser::new(header), SNAP_MAGIC, versions, "snapshot")
                        .map_err(corrupt)?;
                let digest = Digest::new(header);
                let state = match read.meta {
                    shards if read.version == SNAP_VERSION && shards > 0 => {
                        State::Positions(digest, shards)
                    }
                    _ => State::Records(digest),
                };
                (state, FileHeader::LEN)
            }
            state => (state, 0),
        };
        let at = self.consumed + skip as u64;
        let (record, checksum, used) = match decode(&buf[skip..]) {
            Decoded::Record(record, checksum, used) => (record, checksum, used),
            Decoded::Incomplete => return Ok(None),
            Decoded::Invalid => return Err(corrupt(format!("damaged record at byte {at}"))),
        };
        let (item, state) = match (state, record) {
            (State::Positions(mut digest, left), Record::Base(position)) => {
                digest.cover(checksum);
                let state =
                    if left > 1 { State::Positions(digest, left - 1) } else { State::Records(digest) };
                (Item::Position(position), state)
            }
            // A snapshot is SET/SETEX only: a DEL falls to the last arm.
            (State::Records(mut digest), Record::Op(op)) if !matches!(op, OpRef::Del { .. }) => {
                digest.add(checksum);
                (Item::Op(op), State::Records(digest))
            }
            (State::Records(digest), Record::End(claimed)) if claimed == digest => {
                (Item::End { records: digest.records }, State::Tail)
            }
            (State::Tail, Record::Op(op)) => (Item::Op(op), State::Tail),
            (State::Tail, Record::Mark(id)) => (Item::Mark(id), State::Tail),
            (State::Records(digest), Record::End(_)) => {
                let n = digest.records;
                return Err(corrupt(format!("END at byte {at} does not match the {n} records before")));
            }
            _ => return Err(corrupt(format!("misplaced record at byte {at}"))),
        };
        self.state = state;
        self.consumed = at + used as u64;
        Ok(Some((item, skip + used)))
    }
}

/// A snapshot file, read whole and verified: [`read`](Snapshot::read)
/// refuses a damaged file before [`try_for_each`](Snapshot::try_for_each)
/// can hand out a single op.
pub struct Snapshot {
    buf: Vec<u8>,
    records: usize,
    positions: Vec<u64>,
}

impl Snapshot {
    pub fn read(path: &Path) -> SnapshotResult<Snapshot> {
        Snapshot::parse(std::fs::read(path)?)
    }

    /// Verify a snapshot's bytes: header, every record, the count and the
    /// digest, and nothing after them.
    pub fn parse(buf: Vec<u8>) -> SnapshotResult<Snapshot> {
        let versions = SNAP_VERSION_UNPOSITIONED..=SNAP_VERSION;
        let header = FileHeader::read(&mut Parser::new(&buf), SNAP_MAGIC, versions, "snapshot")
            .map_err(corrupt)?;
        let mut snapshot = Snapshot { buf, records: 0, positions: Vec::new() };
        let (mut records, mut positions) = (0, Vec::new());
        snapshot.walk(|item| {
            match item {
                Item::Op(_) => records += 1,
                Item::Position(position) => positions.push(position),
                Item::End { .. } | Item::Mark(_) => {}
            }
            SnapshotResult::Ok(())
        })?;
        if header.version == SNAP_VERSION_UNPOSITIONED {
            positions = vec![0; header.meta as usize];
        }
        (snapshot.records, snapshot.positions) = (records, positions);
        Ok(snapshot)
    }

    /// Records (live keys) in the snapshot.
    pub fn len(&self) -> usize {
        self.records
    }

    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// Each source shard's log position, in shard order: where replaying
    /// that shard's redo log resumes (0 for every shard of a version-3
    /// file).
    pub fn positions(&self) -> &[u64] {
        &self.positions
    }

    /// One pass of the decoder: hand every record, as the op that loads
    /// it, to `f` in file order; returns how many.
    pub fn try_for_each<'a, E: From<SnapshotError>>(
        &'a self,
        mut f: impl FnMut(OpRef<'a>) -> Result<(), E>,
    ) -> Result<u64, E> {
        let mut seen = 0;
        self.walk(|item| match item {
            Item::Op(op) => {
                seen += 1;
                f(op)
            }
            _ => Ok(()),
        })?;
        Ok(seen)
    }

    /// One pass of the decoder up to `END`, handing `f` each position and
    /// op; anything after `END` is damage.
    fn walk<'a, E: From<SnapshotError>>(
        &'a self,
        mut f: impl FnMut(Item<'a>) -> Result<(), E>,
    ) -> Result<(), E> {
        let (mut reader, mut pos) = (Reader::default(), 0);
        loop {
            let Some((item, used)) = reader.next(&self.buf[pos..])? else {
                return Err(corrupt(format!("truncated: no END after byte {pos}")).into());
            };
            pos += used;
            match item {
                Item::End { .. } if pos == self.buf.len() => return Ok(()),
                Item::End { .. } => {
                    let after = self.buf.len() - pos;
                    return Err(corrupt(format!("{after} bytes after END")).into());
                }
                item => f(item)?,
            }
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repl::wire::{encode, encode_op};
    use crate::{EngineConfig, ShardedDash};

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

    /// The record of a key as `SNAPSHOT` writes it (expiry 0 = none).
    fn set<'a>(key: &'a [u8], value: &'a [u8], expire_at_ms: u64) -> OpRef<'a> {
        OpRef::set(key, value, expire_at_ms)
    }

    /// A v4 stream of `ops` under a header naming `shards`, shard `i`'s
    /// log at position `1000 * i + 7`: what the engine's writer produces
    /// for a file-backed store holding exactly them.
    fn stream(shards: u32, ops: &[OpRef<'_>]) -> Vec<u8> {
        let positions: Vec<u64> = (0..shards).map(|i| 1000 * u64::from(i) + 7).collect();
        stream_of(SNAP_VERSION, shards, &positions, ops)
    }

    fn stream_of(version: u32, shards: u32, positions: &[u64], ops: &[OpRef<'_>]) -> Vec<u8> {
        let header = FileHeader { magic: SNAP_MAGIC, version, meta: shards }.encode();
        let mut out = header.to_vec();
        let mut digest = Digest::new(&header);
        for &position in positions {
            digest.cover(encode(Record::Base(position), &mut out));
        }
        for &op in ops {
            digest.add(encode_op(op, &mut out));
        }
        encode(Record::End(digest), &mut out);
        out
    }

    /// Where a stream's first op record starts: past the header and the
    /// positions.
    fn first_op(buf: &[u8]) -> usize {
        let mut at = FileHeader::LEN;
        while let Decoded::Record(Record::Base(_), _, used) = decode(&buf[at..]) {
            at += used;
        }
        at
    }

    fn sample(n: u32) -> Vec<(Vec<u8>, Vec<u8>, u64)> {
        // Every third record carries a deadline, exercising both record
        // shapes in one stream.
        (0..n)
            .map(|i| {
                let expire = if i % 3 == 0 { 4_000_000_000_000 + u64::from(i) } else { 0 };
                (format!("key-{i}").into_bytes(), format!("value-{i}").into_bytes(), expire)
            })
            .collect()
    }

    fn write_sample(path: &Path, n: u32) -> usize {
        let records = sample(n);
        let ops: Vec<OpRef<'_>> = records.iter().map(|(k, v, e)| set(k, v, *e)).collect();
        let mut file = DurableFile::create(path).unwrap();
        file.out.write_all(&stream(4, &ops)).unwrap();
        file.commit().unwrap();
        ops.len()
    }

    /// The verified ops, in file order.
    fn ops_of(snap: &Snapshot) -> Vec<OpRef<'_>> {
        let mut ops = Vec::new();
        snap.try_for_each(|op| {
            ops.push(op);
            SnapshotResult::Ok(())
        })
        .unwrap();
        ops
    }

    fn owned(snap: &Snapshot) -> Vec<crate::ReplOp> {
        ops_of(snap).into_iter().map(OpRef::to_owned).collect()
    }

    #[test]
    fn roundtrip() {
        let p = TempPath::new("roundtrip");
        assert_eq!(write_sample(&p.0, 100), 100);
        let snap = Snapshot::read(&p.0).unwrap();
        assert_eq!(snap.len(), 100);
        assert_eq!(snap.positions(), [7, 1007, 2007, 3007]);
        for (op, (k, v, e)) in ops_of(&snap).into_iter().zip(sample(100)) {
            assert_eq!(op, set(&k, &v, e), "deadline must survive the roundtrip verbatim");
        }
        assert!(!tmp_debris(&p.0), "tmp must be renamed away");
    }

    /// Version 1 could only come from a store the pool format stamp
    /// already refuses, and a version this build does not know from a
    /// newer one: both are refused at the header, naming the version,
    /// whatever follows.
    #[test]
    fn a_v1_stream_is_refused_naming_its_version() {
        for version in [1, 2, SNAP_VERSION + 1] {
            let mut buf = stream(4, &[]);
            buf[..FileHeader::LEN]
                .copy_from_slice(&FileHeader { magic: SNAP_MAGIC, version, meta: 4 }.encode());
            let err = Snapshot::parse(buf).err().unwrap();
            assert!(err.to_string().contains(&format!("version {version}")), "{err}");
        }
    }

    /// A version-2 file — the layout before the log's record, from a
    /// build two formats back — is refused at its header, naming the
    /// version: re-take it with a build that writes version 3 or 4.
    #[test]
    fn a_v2_snapshot_is_refused_naming_its_version() {
        let mut v2 = FileHeader { magic: SNAP_MAGIC, version: 2, meta: 3 }.encode().to_vec();
        // One v2 record (lengths, no deadline, key, value), then its trailer.
        for word in [5u32, 2, 0, 0] {
            v2.extend_from_slice(&word.to_le_bytes());
        }
        v2.extend_from_slice(b"plainv1");
        v2.extend_from_slice(&u32::MAX.to_le_bytes());
        v2.extend_from_slice(&[0; 16]);
        let p = TempPath::new("v2-refused");
        std::fs::write(&p.0, &v2).unwrap();
        let err = Snapshot::read(&p.0).err().unwrap().to_string();
        assert!(err.contains("version 2"), "{err}");
        let cfg = EngineConfig { shards: 2, shard_bytes: 4 << 20, ..EngineConfig::default() };
        let err = ShardedDash::restore(&cfg, &p.0).err().unwrap().to_string();
        assert!(err.contains("version 2"), "{err}");
    }

    /// The one writer serves both sinks: the engine's snapshot of a store
    /// into memory (what `PSYNC` sends) is the file `SNAPSHOT` publishes.
    #[test]
    fn in_memory_stream_matches_file_format() {
        let p = TempPath::new("memstream");
        let cfg = EngineConfig { shards: 2, shard_bytes: 4 << 20, ..EngineConfig::default() };
        let store = ShardedDash::open(&cfg).unwrap();
        for (k, v, e) in sample(10) {
            store.apply(set(&k, &v, e)).unwrap();
        }
        let mut bytes = Vec::new();
        assert_eq!(store.snapshot_into(&mut bytes).unwrap(), 10);
        assert_eq!(store.snapshot_to(&p.0).unwrap(), 10);
        assert_eq!(bytes, std::fs::read(&p.0).unwrap(), "Vec sink and file must be byte-identical");
        let mut loaded = owned(&Snapshot::parse(bytes).unwrap());
        loaded.sort_by(|a, b| a.key().cmp(b.key()));
        let mut want: Vec<_> =
            sample(10).iter().map(|(k, v, e)| set(k, v, *e).to_owned()).collect();
        want.sort_by(|a, b| a.key().cmp(b.key()));
        assert_eq!(loaded, want);
    }

    #[test]
    fn empty_snapshot_roundtrips() {
        let p = TempPath::new("empty");
        assert_eq!(write_sample(&p.0, 0), 0);
        let snap = Snapshot::read(&p.0).unwrap();
        assert!(snap.is_empty());
        assert_eq!(ops_of(&snap), []);
    }

    #[test]
    fn binary_keys_and_values() {
        let p = TempPath::new("binary");
        let key: Vec<u8> = (0..=255u8).collect();
        let value = vec![0u8; 10_000];
        let mut file = DurableFile::create(&p.0).unwrap();
        file.out.write_all(&stream(1, &[set(&key, &value, 0)])).unwrap();
        file.commit().unwrap();
        assert_eq!(owned(&Snapshot::read(&p.0).unwrap()), [set(&key, &value, 0).to_owned()]);
    }

    /// Every single-byte flip — header and positions included: the shard
    /// count no record covers says how many positions follow, and falls
    /// to the digest besides — is refused by the verifying pass, so
    /// nothing of a damaged file is ever applied.
    #[test]
    fn every_corrupted_byte_is_detected() {
        let p = TempPath::new("corrupt");
        write_sample(&p.0, 10);
        let original = std::fs::read(&p.0).unwrap();
        for pos in 0..original.len() {
            let mut bad = original.clone();
            bad[pos] ^= 0x40;
            assert!(Snapshot::parse(bad).is_err(), "flip at byte {pos} went undetected");
        }
    }

    #[test]
    fn truncation_is_detected() {
        let p = TempPath::new("trunc");
        write_sample(&p.0, 10);
        let original = std::fs::read(&p.0).unwrap();
        for cut in 0..original.len() {
            assert!(
                Snapshot::parse(original[..cut].to_vec()).is_err(),
                "truncation to {cut} bytes went undetected"
            );
        }
        let mut longer = original.clone();
        longer.push(0);
        assert!(Snapshot::parse(longer).is_err(), "a trailing byte went undetected");
    }

    /// What each record is intact on its own but the stream is not:
    /// dropped, duplicated or swapped records are the digest's to catch.
    #[test]
    fn dropped_duplicated_and_swapped_records_are_detected() {
        let records = sample(4);
        let ops: Vec<OpRef<'_>> = records.iter().map(|(k, v, e)| set(k, v, *e)).collect();
        let good = stream(4, &ops);
        // Each record's byte range, from the decoder.
        let mut spans = Vec::new();
        let head = first_op(&good);
        let mut at = head;
        while let Decoded::Record(Record::Op(_), _, used) = decode(&good[at..]) {
            spans.push(at..at + used);
            at += used;
        }
        assert_eq!(spans.len(), 4);
        let end = &good[at..];
        let rebuilt = |order: &[usize]| {
            let mut out = good[..head].to_vec();
            for &i in order {
                out.extend_from_slice(&good[spans[i].clone()]);
            }
            out.extend_from_slice(end);
            out
        };
        assert!(Snapshot::parse(rebuilt(&[0, 1, 2, 3])).is_ok());
        // Dropped, duplicated (alone and in place of another), swapped.
        let damaged: [&[usize]; 5] =
            [&[0, 1, 3], &[0, 1, 2, 3, 3], &[0, 1, 1, 3], &[0, 2, 1, 3], &[3, 1, 2, 0]];
        for order in damaged {
            assert!(Snapshot::parse(rebuilt(order)).is_err(), "order {order:?} went undetected");
        }
        // The positions are records like any other: swapped, dropped or
        // duplicated, the digest or the count of them gives it away.
        let positions: Vec<_> = (FileHeader::LEN..head).step_by(21).map(|at| at..at + 21).collect();
        assert_eq!(positions.len(), 4);
        for order in [[1, 0, 2, 3], [0, 1, 2, 2], [0, 0, 1, 2]] {
            let mut out = good[..FileHeader::LEN].to_vec();
            for i in order {
                out.extend_from_slice(&good[positions[i].clone()]);
            }
            out.extend_from_slice(&good[head..]);
            assert!(Snapshot::parse(out).is_err(), "positions {order:?} went undetected");
        }
        let mut three = good[..FileHeader::LEN].to_vec();
        three.extend_from_slice(&good[FileHeader::LEN..head - 21]);
        three.extend_from_slice(&good[head..]);
        assert!(Snapshot::parse(three).is_err(), "a dropped position went undetected");
    }

    /// A snapshot holds its positions and then one `SET`/`SETEX` per key
    /// and nothing else: a `DEL`, a `BASE` past the positions or a
    /// tail's `MARK` — each intact and counted in the digest, as a writer
    /// that produced it would have — is refused, as is a second `END`.
    #[test]
    fn del_base_and_mark_records_are_refused_inside_a_snapshot() {
        let header = FileHeader { magic: SNAP_MAGIC, version: SNAP_VERSION, meta: 1 }.encode();
        for stray in [Record::Op(OpRef::Del { key: b"k" }), Record::Base(0), Record::Mark(7)] {
            let mut buf = header.to_vec();
            let mut digest = Digest::new(&header);
            digest.cover(encode(Record::Base(3), &mut buf));
            digest.add(encode_op(set(b"a", b"1", 0), &mut buf));
            let at = buf.len();
            digest.add(encode(stray, &mut buf));
            encode(Record::End(digest), &mut buf);
            let err = Snapshot::parse(buf).err().unwrap().to_string();
            assert!(err.contains(&format!("misplaced record at byte {at}")), "{stray:?}: {err}");
        }
        let mut twice = stream(1, &[]);
        twice.extend_from_within(FileHeader::LEN..);
        assert!(Snapshot::parse(twice).is_err());
        // Where a position belongs, only a position will do.
        let mut buf = header.to_vec();
        let mut digest = Digest::new(&header);
        digest.add(encode_op(set(b"a", b"1", 0), &mut buf));
        encode(Record::End(digest), &mut buf);
        let err = Snapshot::parse(buf).err().unwrap().to_string();
        assert!(err.contains(&format!("misplaced record at byte {}", FileHeader::LEN)), "{err}");
    }

    /// The v3 snapshot encoding, byte for byte: header, a `SET`, a
    /// `SETEX` and the `END`. A change to the layout, a checksum or the
    /// digest fails here instead of silently misreading old snapshots.
    /// A v3 file names no positions: replay reads each as 0.
    #[test]
    fn the_v3_snapshot_encoding_is_pinned() {
        let ops = [set(b"k1", b"val", 0), set(b"k2", b"v", 1_700_000_000_000)];
        let buf = stream_of(SNAP_VERSION_UNPOSITIONED, 3, &[], &ops);
        let hex: String = buf.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, GOLDEN_V3);
        let snap = Snapshot::parse(buf).unwrap();
        assert_eq!((ops_of(&snap), snap.positions()), (ops.to_vec(), &[0, 0, 0][..]));
    }

    /// One line per piece: the header, then each record as length ‖ body
    /// ‖ MurmurHash64A of the two before it; END's body is its tag, the
    /// count and the digest. The `SET` and `SETEX` records are the redo
    /// log's, byte for byte (`repl::log`'s pinned v3 encoding).
    const GOLDEN_V3: &str = concat!(
        "44415348534e50310300000003000000",
        "0a000000", "01020000006b3176616c", "469632bb11508ad8",
        "10000000", "03020000006b320068e5cf8b01000076", "f4e3f4ae44e407d1",
        "11000000", "0502000000000000009718f3662d05c015", "1ba54f4664c8dafa",
    );

    /// The v4 encoding, byte for byte: the v3 stream with two shards'
    /// log positions between the header and the records, folded into
    /// END's digest but not its count.
    #[test]
    fn the_v4_snapshot_encoding_is_pinned() {
        let ops = [set(b"k1", b"val", 0), set(b"k2", b"v", 1_700_000_000_000)];
        let buf = stream_of(SNAP_VERSION, 2, &[0x0102_0304, 0], &ops);
        let hex: String = buf.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, GOLDEN_V4);
        let snap = Snapshot::parse(buf).unwrap();
        assert_eq!((ops_of(&snap), snap.positions()), (ops.to_vec(), &[0x0102_0304, 0][..]));
    }

    /// As [`GOLDEN_V3`], with the two `BASE` records (the log's own,
    /// `repl::log`'s pinned prelude) after the header.
    const GOLDEN_V4: &str = concat!(
        "44415348534e50310400000002000000",
        "09000000", "040403020100000000", "cbfc8364934b38c4",
        "09000000", "040000000000000000", "8809c10f1a18fe65",
        "0a000000", "01020000006b3176616c", "469632bb11508ad8",
        "10000000", "03020000006b320068e5cf8b01000076", "f4e3f4ae44e407d1",
        "11000000", "0502000000000000003090ba309e6f85ae", "7554a729d273a993",
    );

    /// The incremental reader over a stream cut anywhere: every prefix
    /// yields the items of a whole feed up to its cut, and nothing else.
    #[test]
    fn the_reader_waits_on_a_prefix_and_reads_on_into_the_tail() {
        let mut buf = stream(2, &[set(b"a", b"1", 0), set(b"b", b"2", 9)]);
        encode(Record::Mark(5), &mut buf);
        encode_op(OpRef::Del { key: b"a" }, &mut buf);
        let items = |buf: &[u8]| {
            let (mut reader, mut at, mut items) = (Reader::default(), 0, Vec::new());
            while let Some((item, used)) = reader.next(&buf[at..]).unwrap() {
                items.push(format!("{item:?}"));
                at += used;
            }
            items
        };
        let whole = items(&buf);
        assert_eq!(whole.len(), 7, "{whole:?}");
        assert_eq!(whole[..2], ["Position(7)", "Position(1007)"], "{whole:?}");
        assert!(whole[4].starts_with("End") && whole[5] == "Mark(5)", "{whole:?}");
        for cut in 0..buf.len() {
            let got = items(&buf[..cut]);
            assert_eq!(got, whole[..got.len()], "cut {cut}");
            assert!(got.len() < whole.len(), "cut {cut}");
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
