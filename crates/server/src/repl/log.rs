//! The per-shard redo log: an append-only chain of files of checksummed
//! mutation records, written under the shard's existing write
//! serialization.
//!
//! Layout, version 3 (all integers little-endian):
//!
//! ```text
//! header    16 B  LOG_MAGIC, LOG_VERSION, shard index (wire::FileHeader)
//! base      21 B  a BASE record: u64 records before this file
//! record    *     SET, DEL and SETEX records
//! ```
//!
//! Records are [`crate::repl::wire`]'s, the one encoding of a key
//! mutation, which snapshots and the replication stream use too. The
//! checksum is the table's own hash ([`dash_common::hash64`]), which
//! consumes the framed record eight bytes per step; version 2 had the
//! same layout under byte-serial FNV-1a, several times slower to validate.
//!
//! **Always segmented.** The active file `repl-N.log` is sealed —
//! renamed to `repl-N.seg{K}.log` with a monotonically increasing K —
//! once it crosses [`SEGMENT_BYTES`] (`--repl-log-max-bytes` lowers the
//! cap), and a fresh active file starts. Sealed segments are immutable.
//! Every file opens with a **base record**: the count of records in the
//! files before it — the file's **position** in the shard's op stream.
//! The op records are the ground truth; the base is derived state,
//! written once per file so that it never has to be recounted.
//!
//! **A window, not a history.** The pools recover themselves; the log is
//! the replication and backup feed, and only its recent end is kept. The
//! engine calls [`LogWriter::retain`] at every seal, under the shard's
//! write lock, with the shard's window: max([`SEGMENT_BYTES`], the shard
//! pool's `mem_used` / [`WINDOW_DIVISOR`]), or `--repl-log-max-bytes`
//! when given. The oldest sealed segments go until the log fits, the one
//! just sealed excepted, so a shard's log is at most max(window, one
//! segment) plus the active file's one segment, and which files exist is
//! a function of the op stream alone.
//! A writer opened on its own (tools, tests) never deletes anything.
//!
//! **What reopen reads.** [`LogWriter::open`] lists the directory (for
//! [`LogWriter::bytes`] and the next K) and reads exactly one file, the
//! active one: its base record plus its own intact records *is* the
//! store-wide record count that seeds the replication offset, and it is
//! the only file a crash can have torn. Of that file it reads only what
//! the last **stamp** does not cover. The stamp, `repl-N.stamp` next to
//! the log, is 32 bytes: the active file's base, a byte offset
//! into it, the count of op records between the prelude (header and base
//! record) and that offset, and a [`hash64`] over those three. The
//! writer lays it down on the write path, so a process kill leaves one
//! behind:
//!
//! - a [`flush`] whose `write` succeeded stamps the file's end, once
//!   [`STAMP_BYTES`] have reached the kernel since the last stamp — one
//!   `pwrite` per 64 KiB of log;
//! - sealing (`rotate`) stamps the new file (its base, at the
//!   prelude's end) *before* the rename;
//! - an open that did not take the stamp rewrites it with what it found
//!   (a full scan, a reset, a start-over) before the first append;
//! - [`sync`], the clean close, stamps the end after the log's fsync and
//!   then fsyncs the stamp.
//!
//! `Drop` never stamps: a process kill never runs it. So reopen reads the
//! prelude plus what follows the stamp — under [`STAMP_BYTES`] plus the
//! last flush (one record for a write-through [`append`], at most
//! [`BUFFER_BYTES`] plus one record for a group commit) — whatever the
//! active file's size.
//!
//! `open` takes the stamp only when its checksum verifies, the active
//! file's header and base record parse with this shard's index, the
//! file's base is the stamp's, and the offset lies between the prelude's
//! end and the file's length. It then scans from the offset to the end,
//! with the same decoder and the same torn-tail truncation as a full
//! scan. Anything else gets the full scan of the active file, exactly as
//! if there were no stamp: a missing stamp (a log written before stamps
//! existed opens as it always did), a damaged one, a stale one (a crash
//! inside `rotate` between its stamp and its rename), or one whose offset
//! is past the end. A reset that starts the active file over at the
//! *same* base rewrites the stamp before anything is appended, so a stale
//! offset is never taken into the new file's records.
//!
//! **Open trusts what a previous writer stamped; readers validate
//! everything they consume.** A byte flipped in the stamped range is not
//! seen by `open`, which neither reads nor truncates there; [`read_log`]
//! and [`replay_from`] find it, record by record, and stop at it. And
//! only [`sync`] fsyncs: after a power loss (not a process kill) the
//! stamp may be on disk while the data it covers is not. If its offset is
//! then past the end, `open` falls back to the full scan; if not, the
//! count that seeds `repl_offset` may over-count.
//!
//! No sealed segment's contents are read either, and that skips no safety
//! check: nothing is replayed into state at open, and sealed segments are
//! validated where they are consumed. Retention deleting old segments
//! cannot rewind the count: the base record carries it. One exception,
//! bounded too: the active file is missing, empty or has no intact base
//! record — a fresh log, a crash inside [`rotate`](LogWriter::rotate)
//! between the rename and the new file's first write, or a header reset.
//! The base is then recovered from the newest sealed segment (its base +
//! its records; one more bounded scan) and the active file starts over.
//!
//! Only this version is read. An older file — version 1 (before base
//! records) or version 2 (FNV-1a checksums) — is refused by the readers
//! with an error naming its version, and [`LogWriter::open`] starts the
//! active file over like any other unusable header (`reset`). A version-2
//! log can sit next to pools this build opens; those pools are the
//! store, so they serve every key as before and only the log's history —
//! the record count that seeds `repl_offset`, and what `--replay-logs`
//! could read from that directory — starts again.
//!
//! There is no trailer: each record carries its own checksum and the
//! valid prefix is whatever parses. The scan applies every check the
//! readers apply — it is the same decoder, borrowing from the file
//! buffer instead of copying out — and the first record that is
//! truncated, oversized, structurally invalid or checksum-mismatched, or
//! is any record but an op (a stream-only `END` or `MARK` included),
//! ends the valid prefix; the file is **truncated back to it**. A torn
//! tail from a crash mid-append disappears instead of poisoning later
//! appends, and a corrupt record can never be replayed into state. A
//! corrupt *header* (or another shard's) resets the active file (the
//! pools remain the authoritative store state; the log is the
//! replication/backup feed).
//!
//! **Replay from a position.** A snapshot records each shard's
//! [`LogWriter::records`] as it starts; [`replay_from`] hands out the
//! chain's records from such a position on, and refuses — before a
//! record is applied — a chain that cannot supply all of them: one whose
//! oldest retained file starts after the position (retention deleted
//! the records between), whose files do not follow on from each other,
//! or that ends before the position (a log that was reset, or another
//! store's).
//!
//! **What a write guarantees.** The pool is the ground truth and is
//! persisted per operation; this log is the derived replication and
//! backup feed, and its contract is *acknowledged ⇒ in the kernel*: a
//! record is in the page cache before the acknowledgement of its
//! mutation can leave the process, so a process kill (the failure mode
//! the service recovers from) loses nothing acknowledged. The writer
//! therefore separates the two halves of an append. [`buffer`] encodes a
//! record into the writer's memory, under the shard's write lock, so
//! buffer order is apply order whichever thread wrote; [`flush`] hands
//! everything buffered to the kernel in one `write`. Whoever is about to
//! acknowledge flushes first: a connection once per readiness tick,
//! before that tick's reply bytes go to the socket, and every other
//! caller (and [`append`], which is `buffer` + `flush`) before it
//! returns. The buffer is bounded (it flushes itself at
//! [`BUFFER_BYTES`]), and every entry point that looks at or moves the
//! file position — sealing, [`sync`], `Drop` — drains it first. A failed
//! `write` poisons the writer: the records it carried and every later
//! one are dropped and counted ([`dropped`]), so the file stays a clean
//! prefix of the op stream instead of acquiring a gap. [`sync`] (called
//! from the engine's clean close) makes the file durable against power
//! loss too. Sealing is a rename plus a create, neither fsynced:
//! process-death-safe like the writes around it.
//!
//! [`buffer`]: LogWriter::buffer
//! [`hash64`]: dash_common::hash64
//! [`flush`]: LogWriter::flush
//! [`append`]: LogWriter::append
//! [`dropped`]: LogWriter::dropped
//! [`sync`]: LogWriter::sync

use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use dash_common::hash64;

use crate::repl::wire::{decode, encode, encode_op, Decoded, FileHeader, Parser, Record};
use crate::repl::{OpRef, ReplOp};

/// `b"DASHLOG1"` as a little-endian u64.
pub const LOG_MAGIC: u64 = u64::from_le_bytes(*b"DASHLOG1");
/// Current format version, and the only one read.
pub const LOG_VERSION: u32 = 3;
/// Size at which the active file is sealed unless the caller lowers it:
/// the bound on what a reopen scans.
pub const SEGMENT_BYTES: u64 = 4 << 20;
/// A shard's default log window is its pool's `mem_used` divided by
/// this (never less than [`SEGMENT_BYTES`]): the log a store keeps is at
/// most a quarter of what its pools hold, plus one segment.
pub const WINDOW_DIVISOR: u64 = 4;
/// Buffered bytes at which [`LogWriter::buffer`] flushes on its own: the
/// bound on what a writer holds however long its caller defers.
pub const BUFFER_BYTES: usize = 64 << 10;

/// Log bytes that reach the kernel between two stamps on the write path:
/// what a reopen may have to scan past the stamp, plus the last flush.
pub const STAMP_BYTES: u64 = 64 << 10;
/// Size of the stamp file's one record.
const STAMP_LEN: usize = 32;

/// Length of every file's prelude: the header, then the base record
/// framed (length, tag, count, checksum).
pub const PRELUDE_LEN: usize = FileHeader::LEN + 4 + 1 + 8 + 8;

/// What every file starts with: the header and the base record.
fn encode_prelude(shard: u32, records_before: u64) -> Vec<u8> {
    let mut out =
        FileHeader { magic: LOG_MAGIC, version: LOG_VERSION, meta: shard }.encode().to_vec();
    encode(Record::Base(records_before), &mut out);
    out
}

/// What one log file's bytes hold.
struct Scan {
    shard: u32,
    /// Records before this file, from its base record. `None`: the base
    /// record is missing or damaged — nothing after the header is
    /// trusted.
    base: Option<u64>,
    /// Intact op records in this file.
    records: u64,
    /// Byte length of the valid prefix, header included.
    valid_len: usize,
}

/// Validate one log file's bytes, handing each op record of the valid
/// prefix to `on_op`. `Err` only when the header itself is unusable.
fn scan<'a>(buf: &'a [u8], on_op: impl FnMut(OpRef<'a>)) -> Result<Scan, String> {
    let header =
        FileHeader::read(&mut Parser::new(buf), LOG_MAGIC, LOG_VERSION..=LOG_VERSION, "repl log")?;
    let mut scan = Scan { shard: header.meta, base: None, records: 0, valid_len: FileHeader::LEN };
    let Decoded::Record(Record::Base(records_before), _, used) = decode(&buf[scan.valid_len..])
    else {
        return Ok(scan);
    };
    scan.base = Some(records_before);
    scan.valid_len += used;
    let (records, used) = scan_ops(&buf[scan.valid_len..], on_op);
    scan.records = records;
    scan.valid_len += used;
    Ok(scan)
}

/// Validate the op records that open `buf`, handing each to `on_op`:
/// how many, and the bytes they span. Only op records follow a prelude:
/// a second base record, or a stream-only END or MARK, is not something
/// the writer produces.
fn scan_ops<'a>(buf: &'a [u8], mut on_op: impl FnMut(OpRef<'a>)) -> (u64, usize) {
    let (mut records, mut valid_len) = (0, 0);
    while let Decoded::Record(Record::Op(op), _, used) = decode(&buf[valid_len..]) {
        on_op(op);
        records += 1;
        valid_len += used;
    }
    (records, valid_len)
}

/// What the stamp file records of the active file (module doc).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Stamp {
    /// The active file's base record.
    base: u64,
    /// A record boundary in the active file, at or past the prelude.
    offset: u64,
    /// Op records between the prelude and `offset`.
    records: u64,
}

impl Stamp {
    /// The three fields little-endian, then `hash64` of them.
    fn encode(&self) -> [u8; STAMP_LEN] {
        let mut out = [0u8; STAMP_LEN];
        for (i, field) in [self.base, self.offset, self.records].into_iter().enumerate() {
            out[i * 8..i * 8 + 8].copy_from_slice(&field.to_le_bytes());
        }
        let checksum = hash64(&out[..24]);
        out[24..].copy_from_slice(&checksum.to_le_bytes());
        out
    }

    /// The stamp in `file`, if it is whole and its checksum verifies.
    fn read(file: &File) -> Option<Stamp> {
        let mut raw = [0u8; STAMP_LEN];
        file.read_exact_at(&mut raw, 0).ok()?;
        let word = |i: usize| u64::from_le_bytes(raw[i * 8..i * 8 + 8].try_into().unwrap());
        (hash64(&raw[..24]) == word(3))
            .then(|| Stamp { base: word(0), offset: word(1), records: word(2) })
    }
}

/// The stamp file next to the active log at `path`:
/// `repl-N.log` → `repl-N.stamp`.
fn stamp_path(path: &Path) -> PathBuf {
    path.with_extension("stamp")
}

/// The active file as [`LogWriter::open`] keeps it.
struct Active {
    /// Records before this file: its base record.
    base: u64,
    /// Intact op records in it.
    records: u64,
    /// Its valid length, prelude included: where appends continue.
    len: u64,
}

/// The active file from `stamp` and a scan of what follows its offset,
/// its torn tail truncated — if `open` may take the stamp (module doc);
/// `None`, with nothing touched, if it may not.
fn resume(file: &File, shard: u32, stamp: Stamp) -> io::Result<Option<(Active, LogRecovery)>> {
    let len = file.metadata()?.len();
    if stamp.offset < PRELUDE_LEN as u64 || stamp.offset > len {
        return Ok(None);
    }
    let mut prelude = [0u8; PRELUDE_LEN];
    file.read_exact_at(&mut prelude, 0)?;
    match scan(&prelude, |_| {}) {
        Ok(found) if found.shard == shard && found.base == Some(stamp.base) => {}
        _ => return Ok(None),
    }
    let mut tail = vec![0u8; (len - stamp.offset) as usize];
    file.read_exact_at(&mut tail, stamp.offset)?;
    let (records, used) = scan_ops(&tail, |_| {});
    let active = Active {
        base: stamp.base,
        records: stamp.records + records,
        len: stamp.offset + used as u64,
    };
    if active.len < len {
        file.set_len(active.len)?;
    }
    let recovery = LogRecovery {
        records: active.base + active.records,
        truncated_bytes: len - active.len,
        reset: false,
        scanned_bytes: (PRELUDE_LEN + tail.len()) as u64,
    };
    Ok(Some((active, recovery)))
}

/// The stamp-less open: read and validate the whole active file,
/// truncate its torn tail, or start it over.
fn scan_whole(
    file: &mut File,
    shard: u32,
    segs: &[(u64, PathBuf)],
) -> io::Result<(Active, LogRecovery)> {
    let mut buf = Vec::new();
    file.read_to_end(&mut buf)?;
    let mut scanned_bytes = buf.len() as u64;
    // The header's shard index is outside any record checksum; a
    // mismatch (corruption, or a file moved between shard slots)
    // makes the whole file as untrustworthy as an unusable header.
    let found = scan(&buf, |_| {}).ok().filter(|found| found.shard == shard);
    let active = match found.as_ref().and_then(|found| Some((found.base?, found))) {
        // A file worth keeping states its base.
        Some((base, found)) => {
            if found.valid_len < buf.len() {
                file.set_len(found.valid_len as u64)?;
            }
            Active { base, records: found.records, len: found.valid_len as u64 }
        }
        // Nothing to keep: a fresh log, a rotation that died before
        // the new file's prelude was whole, or a file that cannot be
        // trusted. Start the active file over rather than refuse to
        // open the store — the pools hold the authoritative state.
        None => {
            let base = records_in_segments(segs, &mut scanned_bytes);
            let prelude = encode_prelude(shard, base);
            file.set_len(0)?;
            file.write_all_at(&prelude, 0)?;
            Active { base, records: 0, len: prelude.len() as u64 }
        }
    };
    // A file started over for want of a base record still had a
    // usable header: only what followed it was cut.
    let valid_len = found.as_ref().map_or(0, |found| found.valid_len);
    let recovery = LogRecovery {
        records: active.base + active.records,
        truncated_bytes: (buf.len() - valid_len) as u64,
        reset: found.is_none() && !buf.is_empty(),
        scanned_bytes,
    };
    Ok((active, recovery))
}

/// What [`LogWriter::open`] found on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogRecovery {
    /// Intact records in the log so far, deleted segments included —
    /// this seeds the store-wide offset.
    pub records: u64,
    /// Bytes cut off the active file's tail (0 for a clean close).
    pub truncated_bytes: u64,
    /// The active file's header was unusable and it was reset to empty.
    /// The store itself is unaffected — but log-replay backups from
    /// before the reset no longer cover this shard.
    pub reset: bool,
    /// Log-file bytes read and validated to learn the above, however
    /// large the log. Under a stamp `open` takes: the prelude plus what
    /// follows the stamp, under [`STAMP_BYTES`] plus the last flush.
    /// Otherwise the whole active file, at most the segment cap plus one
    /// record (and on a start-over the newest sealed segment too).
    pub scanned_bytes: u64,
}

/// [`scan`], copying each op record out of the buffer.
fn parse(buf: &[u8]) -> Result<(Vec<ReplOp>, Scan), String> {
    let mut ops = Vec::new();
    let found = scan(buf, |op| ops.push(op.to_owned()))?;
    Ok((ops, found))
}

/// Read every intact record of a single log file. Rejects an unusable
/// header as an error; a torn tail simply ends the record list.
pub fn read_log(path: &Path) -> io::Result<(Vec<ReplOp>, LogRecovery)> {
    let buf = std::fs::read(path)?;
    let (ops, found) =
        parse(&buf).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    let recovery = LogRecovery {
        records: found.records,
        truncated_bytes: (buf.len() - found.valid_len) as u64,
        reset: false,
        scanned_bytes: buf.len() as u64,
    };
    Ok((ops, recovery))
}

/// One file of a replay: its path, and how many of its leading records
/// come before the replay's start position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayFile {
    pub path: PathBuf,
    pub skip: u64,
}

/// The files of the chain at `path` (the active log) that carry its
/// records from position `from` on. Every file is read and validated
/// first, so a chain that cannot supply those records is refused before
/// any of them is applied: its oldest retained file starts after `from`,
/// two files do not follow on from each other, or the chain ends before
/// `from`. A file without an intact base record holds nothing trusted
/// and is passed over; if records went with it, the next file's base
/// shows the gap.
pub fn replay_from(path: &Path, from: u64) -> io::Result<Vec<ReplayFile>> {
    let refuse = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let mut files: Vec<PathBuf> = segment_files(path)?.into_iter().map(|(_, p)| p).collect();
    files.push(path.to_path_buf());
    let mut plan = Vec::new();
    // Where the previous file ended: the position the next must start at.
    let mut end: Option<u64> = None;
    for file in files {
        let buf = std::fs::read(&file)?;
        let found = scan(&buf, |_| {}).map_err(|e| refuse(format!("{}: {e}", file.display())))?;
        let Some(base) = found.base else { continue };
        match end {
            None if base > from => {
                return Err(refuse(format!(
                    "records {from}..{base} are gone: replay starts at position {from}, but \
                     the oldest retained file, {}, has base {base}",
                    file.display()
                )));
            }
            Some(end) if base != end => {
                return Err(refuse(format!(
                    "{} has base {base}, but the file before it ends at record {end}",
                    file.display()
                )));
            }
            _ => {}
        }
        end = Some(base + found.records);
        if base + found.records > from {
            plan.push(ReplayFile { path: file, skip: from.saturating_sub(base) });
        }
    }
    let end = end.unwrap_or(0);
    if end < from {
        return Err(refuse(format!(
            "the log ends at record {end}, before position {from}: it was reset, or is \
             another store's"
        )));
    }
    Ok(plan)
}

/// Sealed-segment path for the active log at `path`:
/// `repl-N.log` → `repl-N.seg{K}.log`.
fn segment_path(path: &Path, seq: u64) -> PathBuf {
    let stem = path.file_stem().unwrap_or_default().to_string_lossy();
    path.with_file_name(format!("{stem}.seg{seq}.log"))
}

/// Sealed segments for the active log at `path`, sorted by sequence
/// number: the retained ones, oldest first. The sequence numbers say
/// nothing about continuity — retention deletes from the front, and the
/// base records are what [`replay_from`] checks.
pub fn segment_files(path: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let stem = path.file_stem().unwrap_or_default().to_string_lossy().into_owned();
    let prefix = format!("{stem}.seg");
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty()).unwrap_or(Path::new("."));
    let mut segs = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(mid) = name.strip_prefix(&prefix).and_then(|s| s.strip_suffix(".log")) else {
            continue;
        };
        if let Ok(seq) = mid.parse::<u64>() {
            segs.push((seq, entry.path()));
        }
    }
    segs.sort_unstable();
    Ok(segs)
}

/// Delete the log at `path` and everything it is made of: its sealed
/// segments, the active file and its stamp. Best effort: what cannot be
/// listed or removed stays.
pub fn remove_log(path: &Path) {
    for (_, seg) in segment_files(path).unwrap_or_default() {
        let _ = std::fs::remove_file(seg);
    }
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(stamp_path(path));
}

/// Records through the end of the newest sealed segment, for an active
/// file that cannot say so itself: walk back from the newest segment,
/// adding up records, until one supplies a base — the first intact one
/// does. A segment that cannot be read contributes nothing.
fn records_in_segments(segs: &[(u64, PathBuf)], scanned_bytes: &mut u64) -> u64 {
    let mut records = 0u64;
    for (_, seg) in segs.iter().rev() {
        let Ok(buf) = std::fs::read(seg) else { continue };
        *scanned_bytes += buf.len() as u64;
        let Ok(found) = scan(&buf, |_| {}) else { continue };
        records += found.records;
        if let Some(before) = found.base {
            return records + before;
        }
    }
    records
}

/// The append handle one shard holds. Creation recovers the active file
/// (torn-tail truncation) and continues the record count from its base
/// record.
pub struct LogWriter {
    file: File,
    path: PathBuf,
    shard: u32,
    /// Size at which the active file is sealed.
    cap: u64,
    /// Next sealed-segment sequence number.
    next_seq: u64,
    /// Records in the log so far (recovered + appended).
    records: u64,
    /// Records in the active file only (a rotation seals only these).
    active_records: u64,
    /// Sealed segments on disk, oldest first — sequence number and
    /// bytes — and their bytes summed (for size reporting).
    sealed: VecDeque<(u64, u64)>,
    segment_bytes: u64,
    /// Active file length (header + valid records + appends) — kept
    /// here so observing log growth never pays a stat() per scrape.
    bytes: u64,
    /// Encoded records not yet handed to the kernel, and how many. The
    /// counters above already include them: they are in the log as far
    /// as anyone who can observe them is concerned, because nothing is
    /// acknowledged before [`flush`](Self::flush).
    buf: Vec<u8>,
    buffered: u64,
    /// `write` calls issued for records (records ÷ flushes is the group
    /// commit's batching factor).
    flushes: u64,
    /// Records lost to a failed `write`, and every record offered since:
    /// non-zero means poisoned.
    dropped: u64,
    /// The stamp file, and the active-file offset it last recorded.
    stamp: File,
    stamped_at: u64,
}

impl LogWriter {
    /// Open (or create) the log at `path` for shard `shard`, sealing the
    /// active file at `max_bytes`, at most [`SEGMENT_BYTES`] (its
    /// default). Nothing is deleted: see [`retain`](Self::retain). The
    /// active file is scanned from its stamp, or whole when the stamp
    /// cannot be taken; its torn tail is truncated, and appends continue
    /// from the end of the valid prefix; the record count continues from
    /// its base record. Sealed segments are listed, not read (the module
    /// doc names the exception).
    pub fn open(
        path: &Path,
        shard: u32,
        max_bytes: Option<u64>,
    ) -> io::Result<(LogWriter, LogRecovery)> {
        let segs = segment_files(path)?;
        let sealed: VecDeque<(u64, u64)> = segs
            .iter()
            .map(|(seq, seg)| (*seq, std::fs::metadata(seg).map_or(0, |m| m.len())))
            .collect();
        // truncate(false): an existing log is recovered, not clobbered.
        let open_rw = |path: &Path| {
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(path)
        };
        let mut file = open_rw(path)?;
        let stamp_file = open_rw(&stamp_path(path))?;
        let stamp = Stamp::read(&stamp_file);
        let resumed = match stamp {
            Some(stamp) => resume(&file, shard, stamp)?,
            None => None,
        };
        // Where the stamp on disk points, if it was taken.
        let stamped_at = stamp.filter(|_| resumed.is_some()).map(|stamp| stamp.offset);
        let (active, recovery) = match resumed {
            Some(resumed) => resumed,
            None => scan_whole(&mut file, shard, &segs)?,
        };
        file.seek(SeekFrom::Start(active.len))?;
        let mut writer = LogWriter {
            file,
            path: path.to_path_buf(),
            shard,
            cap: max_bytes.map_or(SEGMENT_BYTES, |cap| cap.min(SEGMENT_BYTES)),
            next_seq: segs.last().map_or(0, |(seq, _)| seq + 1),
            records: recovery.records,
            active_records: active.records,
            segment_bytes: sealed.iter().map(|(_, len)| len).sum(),
            sealed,
            bytes: active.len,
            buf: Vec::new(),
            buffered: 0,
            flushes: 0,
            dropped: 0,
            stamp: stamp_file,
            stamped_at: stamped_at.unwrap_or(active.len),
        };
        // What a full scan found is stamped before anything is appended,
        // so a stamp is never taken into records it did not see.
        if stamped_at.is_none() {
            writer.stamp_end()?;
        }
        Ok((writer, recovery))
    }

    /// Seal the active file: rename it to the next `segK` name and start
    /// a fresh active file whose base record carries the count so far.
    /// On failure the active file keeps growing and the next append
    /// retries. A crash between the rename and the fresh file's prelude
    /// is repaired by [`open`](Self::open) from the segment just sealed.
    fn rotate(&mut self) -> io::Result<()> {
        // What is buffered belongs to the file being sealed; the stamp
        // below supersedes any a flush would write for it.
        self.drain()?;
        // Stamp the fresh file before it exists: a crash before the
        // rename leaves this stamp next to a file with another base (the
        // one being sealed holds records), which `open` does not take.
        let prelude = encode_prelude(self.shard, self.records);
        self.write_stamp(Stamp { base: self.records, offset: prelude.len() as u64, records: 0 })?;
        let seg = segment_path(&self.path, self.next_seq);
        let fresh = std::fs::rename(&self.path, &seg).and_then(|()| {
            OpenOptions::new()
                .read(true)
                .write(true)
                .create_new(true)
                .open(&self.path)
                .and_then(|mut fresh| fresh.write_all(&prelude).map(|()| fresh))
                .inspect_err(|_| {
                    // Undo so appends keep landing in a discoverable
                    // file; the rename replaces whatever the failed start
                    // left.
                    let _ = std::fs::rename(&seg, &self.path);
                })
        });
        let fresh = match fresh {
            Ok(fresh) => fresh,
            Err(e) => {
                // The file that keeps growing is stamped again.
                let _ = self.stamp_end();
                return Err(e);
            }
        };
        self.file = fresh;
        self.sealed.push_back((self.next_seq, self.bytes));
        self.next_seq += 1;
        self.segment_bytes += self.bytes;
        self.bytes = prelude.len() as u64;
        self.active_records = 0;
        Ok(())
    }

    /// Encode one record into the buffer; nothing reaches the file until
    /// [`flush`](Self::flush). Call under the shard's write lock, so that
    /// buffer order is apply order. Crossing the size cap seals the
    /// active file first (best-effort — a failed rotation leaves the log
    /// growing, to be retried on the next record); returns whether this
    /// call sealed it, which is when [`retain`](Self::retain) is due.
    /// Never fails: a poisoned writer counts the record in
    /// [`dropped`](Self::dropped).
    pub fn buffer(&mut self, op: OpRef<'_>) -> bool {
        let seal_due = self.active_records > 0 && self.bytes >= self.cap;
        let sealed = seal_due && self.dropped == 0 && self.rotate().is_ok();
        // Poisoned (possibly by the flush that sealing just tried).
        if self.dropped > 0 {
            self.dropped += 1;
            return sealed;
        }
        let start = self.buf.len();
        encode_op(op, &mut self.buf);
        self.records += 1;
        self.active_records += 1;
        self.bytes += (self.buf.len() - start) as u64;
        self.buffered += 1;
        if self.buf.len() >= BUFFER_BYTES {
            let _ = self.flush();
        }
        sealed
    }

    /// Hand everything buffered to the kernel — one `write`, after which
    /// it is safe against a process kill. A failure poisons the writer:
    /// the buffered records are dropped and counted, and so is every
    /// record offered afterwards.
    /// Once [`STAMP_BYTES`] have reached the kernel since the last stamp,
    /// a successful flush stamps the file's end (best effort: a stamp
    /// that did not land leaves the previous one, still true of this
    /// file, and the next flush tries again).
    pub fn flush(&mut self) -> io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        self.drain()?;
        if self.bytes - self.stamped_at >= STAMP_BYTES {
            let _ = self.stamp_end();
        }
        Ok(())
    }

    /// [`flush`](Self::flush) without the stamp.
    fn drain(&mut self) -> io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        self.flushes += 1;
        let written = self.file.write_all(&self.buf);
        if written.is_err() {
            self.records -= self.buffered;
            self.active_records -= self.buffered;
            self.bytes -= self.buf.len() as u64;
            self.dropped += self.buffered;
        }
        self.buf.clear();
        self.buffered = 0;
        written
    }

    /// Append one record write-through: [`buffer`](Self::buffer) then
    /// [`flush`](Self::flush), so it is in the page cache when this
    /// returns.
    pub fn append(&mut self, op: &ReplOp) -> io::Result<()> {
        self.buffer(op.as_ref());
        self.flush()?;
        if self.dropped > 0 {
            return Err(io::Error::other("redo log poisoned by an earlier failed write"));
        }
        Ok(())
    }

    /// `write` calls issued for records since open.
    pub fn flushes(&self) -> u64 {
        self.flushes
    }

    /// Records dropped since open: those a failed `write` carried, and
    /// every one offered after it.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Records in the log so far (recovered + appended, buffered ones
    /// included), deleted segments included: the position the next
    /// record takes, which a snapshot records.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Total log bytes: sealed segments + the active file, what is
    /// buffered for it included.
    pub fn bytes(&self) -> u64 {
        self.segment_bytes + self.bytes
    }

    /// Sealed segments on disk.
    pub fn segments(&self) -> u64 {
        self.sealed.len() as u64
    }

    /// Flush, then fsync the active file — durable against power loss,
    /// not just process death — then stamp its end and fsync the stamp,
    /// so that a reopen after a clean close scans nothing past the
    /// prelude.
    pub fn sync(&mut self) -> io::Result<()> {
        self.flush()?;
        self.file.sync_all()?;
        if self.stamped_at != self.bytes {
            self.stamp_end()?;
        }
        self.stamp.sync_all()
    }

    /// Stamp the end of everything written: one `pwrite`. Only with
    /// nothing buffered — the stamp must never cover what the kernel
    /// does not hold.
    fn stamp_end(&mut self) -> io::Result<()> {
        assert!(self.buf.is_empty(), "a stamp past the written bytes");
        let base = self.records - self.active_records;
        self.write_stamp(Stamp { base, offset: self.bytes, records: self.active_records })
    }

    fn write_stamp(&mut self, stamp: Stamp) -> io::Result<()> {
        self.stamp.write_all_at(&stamp.encode(), 0)?;
        self.stamped_at = stamp.offset;
        Ok(())
    }

    /// Keep the log within `window` bytes: delete the oldest sealed
    /// segments while [`bytes`](Self::bytes) exceeds it. The active file
    /// and the newest sealed segment always stay, so the log never holds
    /// less than one segment of history, whatever a record's overshoot
    /// past the cap. Returns how many went; a segment already gone counts
    /// as deleted. The record count is unaffected, now and after a
    /// reopen: the active file's base record carries it.
    pub fn retain(&mut self, window: u64) -> io::Result<u64> {
        let mut removed = 0;
        while self.bytes() > window && self.sealed.len() > 1 {
            let Some(&(seq, len)) = self.sealed.front() else { break };
            match std::fs::remove_file(segment_path(&self.path, seq)) {
                Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
                _ => {}
            }
            self.sealed.pop_front();
            self.segment_bytes -= len;
            removed += 1;
        }
        Ok(removed)
    }
}

impl Drop for LogWriter {
    /// Drains the buffer, and stamps nothing: a process kill never runs
    /// this, and a reopen must cost what it costs after one.
    fn drop(&mut self) {
        let _ = self.drain();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repl::wire::encode_record;
    use std::path::PathBuf;

    struct TempPath(PathBuf);

    impl TempPath {
        fn new(tag: &str) -> Self {
            let mut p = std::env::temp_dir();
            p.push(format!("dash-repl-log-{tag}-{}", std::process::id()));
            remove_log(&p);
            TempPath(p)
        }
    }

    impl Drop for TempPath {
        fn drop(&mut self) {
            remove_log(&self.0);
        }
    }

    fn sample_ops(n: u32) -> Vec<ReplOp> {
        (0..n)
            .map(|i| {
                if i % 4 == 3 {
                    ReplOp::Del { key: format!("key-{}", i - 1).into_bytes() }
                } else if i % 4 == 1 {
                    ReplOp::SetEx {
                        key: format!("key-{i}").into_bytes(),
                        value: format!("value-{i}").into_bytes(),
                        expire_at_ms: 1_700_000_000_000 + u64::from(i),
                    }
                } else {
                    ReplOp::Set {
                        key: format!("key-{i}").into_bytes(),
                        value: format!("value-{i}").into_bytes(),
                    }
                }
            })
            .collect()
    }

    /// A tiny cap: every few records seals a segment.
    const TINY_CAP: u64 = 256;

    /// The two shapes every recovery property must hold on: one file,
    /// and an active file behind a run of sealed segments.
    const LAYOUTS: [(&str, Option<u64>, u32); 2] =
        [("single", None, 12), ("sealed", Some(TINY_CAP), 60)];

    fn write_log(path: &Path, shard: u32, cap: Option<u64>, ops: &[ReplOp]) {
        let (mut w, _) = LogWriter::open(path, shard, cap).unwrap();
        for op in ops {
            w.append(op).unwrap();
        }
    }

    /// The base record of the file at `path`.
    fn base_of(path: &Path) -> Option<u64> {
        scan(&std::fs::read(path).unwrap(), |_| {}).unwrap().base
    }

    #[test]
    fn roundtrip_and_reopen_append() {
        let p = TempPath::new("roundtrip");
        let ops = sample_ops(20);
        let fresh = LogRecovery { records: 0, truncated_bytes: 0, reset: false, scanned_bytes: 0 };
        {
            let (mut w, rec) = LogWriter::open(&p.0, 7, None).unwrap();
            assert_eq!(rec, fresh);
            for op in &ops[..10] {
                w.append(op).unwrap();
            }
            w.sync().unwrap();
        }
        // Reopen continues where the valid prefix ends; the clean close
        // stamped that end, so only the prelude is read.
        let (mut w, rec) = LogWriter::open(&p.0, 7, None).unwrap();
        assert_eq!(rec, LogRecovery { records: 10, scanned_bytes: PRELUDE_LEN as u64, ..fresh });
        for op in &ops[10..] {
            w.append(op).unwrap();
        }
        drop(w);
        let (read, rec) = read_log(&p.0).unwrap();
        assert_eq!(read, ops);
        assert_eq!(rec.records, 20);
    }

    #[test]
    fn empty_and_binary_payloads() {
        let p = TempPath::new("binary");
        let ops = vec![
            ReplOp::Set { key: b"empty".to_vec(), value: Vec::new() },
            ReplOp::Set { key: (0..=255u8).collect(), value: vec![0u8; 10_000] },
            ReplOp::Del { key: vec![0u8, 13, 10, 255] },
        ];
        write_log(&p.0, 0, None, &ops);
        assert_eq!(read_log(&p.0).unwrap().0, ops);
    }

    #[test]
    fn torn_tail_is_truncated_on_reopen() {
        for (layout, cap, n) in LAYOUTS {
            let p = TempPath::new(&format!("torn-{layout}"));
            let ops = sample_ops(n);
            write_log(&p.0, 0, cap, &ops);
            assert_eq!(segment_files(&p.0).unwrap().len() >= 2, cap.is_some(), "{layout}");
            let full = std::fs::read(&p.0).unwrap();
            // Cut the file mid-record: reopen must drop the torn record,
            // truncate the file back to the valid prefix, and keep working.
            std::fs::write(&p.0, &full[..full.len() - 5]).unwrap();
            let (mut w, rec) = LogWriter::open(&p.0, 0, cap).unwrap();
            assert_eq!(rec.records, u64::from(n) - 1, "{layout}: the torn last record must go");
            assert!(rec.truncated_bytes > 0);
            assert!(!rec.reset);
            assert!(
                std::fs::metadata(&p.0).unwrap().len() < full.len() as u64,
                "{layout}: the file itself must shrink to the valid prefix"
            );
            w.append(ops.last().unwrap()).unwrap();
            drop(w);
            assert_eq!(
                replay_ops(&p.0, 0),
                ops,
                "{layout}: append after truncation must continue the sequence"
            );
        }
    }

    #[test]
    fn every_corrupted_byte_yields_only_a_valid_prefix() {
        for (layout, cap, n) in LAYOUTS {
            let p = TempPath::new(&format!("corrupt-{layout}"));
            let ops = sample_ops(n);
            write_log(&p.0, 3, cap, &ops);
            assert_eq!(segment_files(&p.0).unwrap().len() >= 2, cap.is_some(), "{layout}");
            let original = std::fs::read(&p.0).unwrap();
            let active = read_log(&p.0).unwrap().0;
            // Records sealed before the active file: what its base says.
            let sealed = ops.len() - active.len();
            assert_eq!(base_of(&p.0), Some(sealed as u64), "{layout}");
            let prelude_len = encode_prelude(3, sealed as u64).len();
            for pos in 0..original.len() {
                let at = format!("{layout}: flip at byte {pos}");
                let mut bad = original.clone();
                bad[pos] ^= 0x40;
                std::fs::write(&p.0, &bad).unwrap();
                if pos < FileHeader::LEN {
                    // Header corruption: the writer resets the active file
                    // (never an error, never data). Magic/version flips are
                    // also rejected by the reader; a flipped shard index
                    // (bytes 12..16) is informational to the reader but
                    // still a mismatch the writer refuses to append behind.
                    if pos < 12 {
                        assert!(read_log(&p.0).is_err(), "{at} accepted by reader");
                    }
                    let (w, rec) = LogWriter::open(&p.0, 3, cap).unwrap();
                    assert!(rec.reset && rec.records == sealed as u64, "{at} must reset");
                    assert_eq!(w.records(), sealed as u64);
                    continue;
                }
                // Record corruption (the base record is one): the result
                // must be an exact prefix of the original op sequence — a
                // flipped byte can never invent or alter a record.
                let (read, rec) = read_log(&p.0).unwrap();
                assert!(read.len() < active.len(), "{at} went undetected");
                assert_eq!(read, active[..read.len()], "{at} must yield a strict prefix");
                assert!(rec.truncated_bytes > 0);
                if pos < prelude_len {
                    assert!(read.is_empty(), "{at}: nothing follows a damaged base record");
                }
                // The writer agrees with the reader, and a damaged base
                // record is recovered from the newest sealed segment.
                let (_, rec) = LogWriter::open(&p.0, 3, cap).unwrap();
                assert!(!rec.reset, "{at}");
                assert_eq!(rec.records, (sealed + read.len()) as u64, "{at}");
                assert_eq!(base_of(&p.0), Some(sealed as u64), "{at}");
            }
            // Restore and confirm the pristine chain still reads fully.
            std::fs::write(&p.0, &original).unwrap();
            assert_eq!(replay_ops(&p.0, 0), ops);
        }
    }

    #[test]
    fn oversized_length_claims_are_rejected() {
        let p = TempPath::new("oversize");
        write_log(&p.0, 0, None, &[ReplOp::Set { key: b"k".to_vec(), value: b"v".to_vec() }]);
        // Append a record claiming a gigantic body: must end the prefix,
        // not trigger a gigantic allocation or a bogus record.
        let mut bytes = std::fs::read(&p.0).unwrap();
        bytes.extend_from_slice(&(u32::MAX).to_le_bytes());
        bytes.extend_from_slice(b"garbage");
        std::fs::write(&p.0, &bytes).unwrap();
        let (read, rec) = read_log(&p.0).unwrap();
        assert_eq!(read.len(), 1);
        assert!(rec.truncated_bytes > 0);
        let (_, rec) = LogWriter::open(&p.0, 0, None).unwrap();
        assert_eq!((rec.records, rec.truncated_bytes), (1, 4 + 7));
    }

    #[test]
    fn rotation_seals_segments_and_the_chain_replays_in_order() {
        let p = TempPath::new("rotate");
        let ops = sample_ops(200);
        {
            let (mut w, _) = LogWriter::open(&p.0, 0, Some(TINY_CAP)).unwrap();
            for op in &ops {
                w.append(op).unwrap();
            }
            assert_eq!(w.records(), 200);
            assert!(
                w.bytes() > TINY_CAP,
                "total bytes must count sealed segments, not just the active file"
            );
            assert_eq!(w.segments(), segment_files(&p.0).unwrap().len() as u64);
        }
        let segs = segment_files(&p.0).unwrap();
        assert!(segs.len() > 2, "a 256-byte cap over 200 records must seal many segments");
        let mut before = 0;
        for (_, seg) in &segs {
            assert!(
                std::fs::metadata(seg).unwrap().len() < 1024,
                "sealed segments must respect the cap up to one record of overshoot"
            );
            assert_eq!(base_of(seg), Some(before), "every file states the records before it");
            before += read_log(seg).unwrap().1.records;
        }
        assert_eq!(base_of(&p.0), Some(before));
        assert_eq!(replay_ops(&p.0, 0), ops, "segments-then-active must replay the exact sequence");
    }

    #[test]
    fn reopen_counts_segment_records_into_the_offset() {
        let p = TempPath::new("rotate-reopen");
        write_log(&p.0, 0, Some(TINY_CAP), &sample_ops(50));
        // Reopen under another cap: the recovered record count must
        // still span the sealed segments, or the store-wide replication
        // offset would jump backwards after a restart.
        let (mut w, rec) = LogWriter::open(&p.0, 0, None).unwrap();
        assert_eq!(rec.records, 50);
        w.append(&ReplOp::Del { key: b"k".to_vec() }).unwrap();
        assert_eq!(w.records(), 51);
        drop(w);
        assert_eq!(replay_ops(&p.0, 0).len(), 51);
    }

    /// Retention deletes the oldest sealed segments until the log fits
    /// its window, and nothing else: the count survives it and a reopen,
    /// and the retained chain replays as the tail of the op stream.
    #[test]
    fn retention_deletes_the_oldest_segments_and_the_count_survives() {
        let p = TempPath::new("retain");
        let ops = sample_ops(120);
        let (mut w, _) = LogWriter::open(&p.0, 0, Some(TINY_CAP)).unwrap();
        for op in &ops {
            w.append(op).unwrap();
        }
        let on_disk = |segs: &[(u64, PathBuf)]| -> u64 {
            segs.iter().map(|(_, seg)| std::fs::metadata(seg).unwrap().len()).sum()
        };
        let before = segment_files(&p.0).unwrap();
        assert!(before.len() > 6, "a 256-byte cap over 120 records seals many segments");
        let sizes: Vec<u64> = before.iter().map(|seg| on_disk(std::slice::from_ref(seg))).collect();
        let window = 3 * TINY_CAP;
        let removed = w.retain(window).unwrap() as usize;
        let after = segment_files(&p.0).unwrap();
        assert_eq!(after, before[removed..], "the oldest go, in order, and only they");
        assert!(w.bytes() <= window, "{} B left over a {window} B window", w.bytes());
        assert!(w.bytes() + sizes[removed - 1] > window, "the last one deleted was needed to fit");
        assert_eq!(w.bytes(), on_disk(&after) + std::fs::metadata(&p.0).unwrap().len());
        assert_eq!((w.segments(), w.records()), (after.len() as u64, 120));
        // The retained chain is the stream's tail from its oldest base.
        let first = base_of(&after[0].1).unwrap();
        assert_eq!(replay_ops(&p.0, first), ops[first as usize..]);
        assert_eq!(w.retain(window).unwrap(), 0, "a log within its window is left alone");
        drop(w);
        let (mut w, rec) = LogWriter::open(&p.0, 0, Some(TINY_CAP)).unwrap();
        assert_eq!(rec.records, 120, "a reopen continues the count: the base record carries it");
        assert_eq!(segment_files(&p.0).unwrap(), after, "and deletes nothing");
        w.retain(0).unwrap();
        assert_eq!(segment_files(&p.0).unwrap(), after[after.len() - 1..]);
        assert_eq!(w.segments(), 1, "the newest sealed segment and the active file always stay");
        // A segment already gone counts as deleted, and its bytes leave
        // the total with it: delete the oldest by hand, then seal again.
        std::fs::remove_file(&after[after.len() - 1].1).unwrap();
        let mut sealed = false;
        for op in &ops {
            sealed = w.buffer(op.as_ref());
            if sealed {
                break;
            }
        }
        assert!(sealed, "a segment's worth of records seals the active file");
        w.flush().unwrap();
        assert_eq!(w.segments(), 2, "the writer still counts the segment deleted by hand");
        assert_eq!(w.retain(0).unwrap(), 1);
        let left = segment_files(&p.0).unwrap();
        assert_eq!(left.len(), 1, "only the segment just sealed is on disk");
        assert_eq!(w.segments(), 1);
        assert_eq!(w.bytes(), on_disk(&left) + std::fs::metadata(&p.0).unwrap().len());
    }

    /// The records of a replay from `from`, in order.
    fn replay_ops(path: &Path, from: u64) -> Vec<ReplOp> {
        let mut all = Vec::new();
        for file in replay_from(path, from).unwrap() {
            all.extend(read_log(&file.path).unwrap().0.into_iter().skip(file.skip as usize));
        }
        all
    }

    /// Replay from a position hands out exactly the records from there
    /// on, and refuses — naming the numbers — a chain that cannot supply
    /// them: trimmed past the position, holed in the middle, or ending
    /// before it.
    #[test]
    fn replay_from_a_position_refuses_every_gap() {
        let p = TempPath::new("replay-from");
        let ops = sample_ops(60);
        write_log(&p.0, 0, Some(TINY_CAP), &ops);
        for from in [0, 1, 17, 59, 60] {
            assert_eq!(replay_ops(&p.0, from), ops[from as usize..], "from {from}");
        }
        let err = replay_from(&p.0, 61).unwrap_err().to_string();
        assert!(err.contains("ends at record 60, before position 61"), "{err}");
        let segs = segment_files(&p.0).unwrap();
        // A hole in the middle: a sealed segment gone.
        let hole = &segs[segs.len() / 2].1;
        let (hole_base, next_base) =
            (base_of(hole).unwrap(), base_of(&segs[segs.len() / 2 + 1].1).unwrap());
        std::fs::remove_file(hole).unwrap();
        let err = replay_from(&p.0, 0).unwrap_err().to_string();
        assert!(
            err.contains(&format!(
                "has base {next_base}, but the file before it ends at record {hole_base}"
            )),
            "{err}"
        );
        // Trimmed at the front: the oldest retained base is past the start.
        std::fs::remove_file(&segs[0].1).unwrap();
        let first = base_of(&segs[1].1).unwrap();
        let err = replay_from(&p.0, 0).unwrap_err().to_string();
        assert!(err.contains(&format!("records 0..{first} are gone")), "{err}");
        assert!(err.contains(&format!("has base {first}")), "{err}");
    }

    /// Size independence as a count: whatever the log's size, reopen
    /// reads the active file and nothing else.
    #[test]
    fn reopen_scans_one_bounded_file_whatever_the_log_size() {
        let p = TempPath::new("bounded");
        let cap = 4096u64;
        let ops = sample_ops(2000);
        write_log(&p.0, 0, Some(cap), &ops);
        let segs = segment_files(&p.0).unwrap();
        let mut on_disk = std::fs::metadata(&p.0).unwrap().len();
        // Sealed contents play no part in a reopen: make them garbage.
        for (_, seg) in &segs {
            let len = std::fs::metadata(seg).unwrap().len();
            on_disk += len;
            std::fs::write(seg, vec![0xAB; len as usize]).unwrap();
        }
        assert!(on_disk >= 10 * cap, "the log must dwarf the cap: {on_disk} B");
        let active_len = std::fs::metadata(&p.0).unwrap().len();
        let (w, rec) = LogWriter::open(&p.0, 0, Some(cap)).unwrap();
        assert_eq!(rec.records, 2000);
        assert_eq!(rec.scanned_bytes, active_len, "only the active file may be read");
        let largest_record = 64;
        assert!(rec.scanned_bytes <= cap + largest_record);
        assert_eq!(rec.truncated_bytes, 0);
        assert_eq!(w.bytes(), on_disk, "sizes come from the directory listing");
        assert_eq!(w.segments(), segs.len() as u64);
    }

    /// `rotate` renames, creates, then writes the prelude. A crash after
    /// any of those steps must reopen to the same count and keep going.
    #[test]
    fn a_crash_inside_rotate_reopens_to_the_right_count() {
        let prelude = encode_prelude(0, 0);
        let windows: [(&str, Option<&[u8]>); 4] = [
            ("renamed, no active file", None),
            ("active file created, nothing written", Some(&[])),
            ("header written, no base record", Some(&prelude[..FileHeader::LEN])),
            ("base record torn", Some(&prelude[..prelude.len() - 3])),
        ];
        for (window, left_behind) in windows {
            let p = TempPath::new("rotate-crash");
            let ops = sample_ops(60);
            write_log(&p.0, 0, Some(TINY_CAP), &ops);
            // What rotate()'s rename leaves: the active file under the
            // next segment name.
            let next = segment_files(&p.0).unwrap().last().unwrap().0 + 1;
            std::fs::rename(&p.0, segment_path(&p.0, next)).unwrap();
            if let Some(bytes) = left_behind {
                std::fs::write(&p.0, bytes).unwrap();
            }
            let (mut w, rec) = LogWriter::open(&p.0, 0, Some(TINY_CAP)).unwrap();
            assert_eq!(rec.records, 60, "{window}");
            assert!(!rec.reset, "{window}");
            assert!(rec.scanned_bytes <= 2 * (TINY_CAP + 64), "{window}: one segment, bounded");
            let post = ReplOp::Set { key: b"post".to_vec(), value: b"crash".to_vec() };
            w.append(&post).unwrap();
            assert_eq!(w.records(), 61);
            drop(w);
            assert_eq!(base_of(&p.0), Some(60), "{window}");
            let mut want = ops.clone();
            want.push(post);
            assert_eq!(replay_ops(&p.0, 0), want, "{window}");
        }
    }

    /// A v1 file (the layout before base records): the reader refuses it
    /// naming the version, and the writer starts it over, the path a
    /// corrupt header takes. A v2 file takes the same path
    /// (`tests/repl_log.rs` drives it through a whole store).
    #[test]
    fn a_v1_log_is_refused_naming_its_version() {
        let p = TempPath::new("v1");
        let mut v1 = FileHeader { magic: LOG_MAGIC, version: 1, meta: 0 }.encode().to_vec();
        for op in &sample_ops(3) {
            encode_record(op, &mut v1);
        }
        std::fs::write(&p.0, &v1).unwrap();
        let err = read_log(&p.0).unwrap_err();
        assert!(err.to_string().contains("version 1"), "{err}");
        let (w, rec) = LogWriter::open(&p.0, 0, None).unwrap();
        assert!(rec.reset, "{rec:?}");
        assert_eq!((rec.records, rec.truncated_bytes, w.records()), (0, v1.len() as u64, 0));
        assert_eq!(base_of(&p.0), Some(0), "started over as a current-format file");
    }

    /// The v3 encoding, byte for byte: a prelude and one record of each
    /// op kind. A change to the layout or the checksum that does not bump
    /// `LOG_VERSION` fails here instead of silently misreading old logs.
    #[test]
    fn the_v3_encoding_is_pinned() {
        let ops = [
            ReplOp::Set { key: b"k1".to_vec(), value: b"val".to_vec() },
            ReplOp::SetEx {
                key: b"k2".to_vec(),
                value: b"v".to_vec(),
                expire_at_ms: 1_700_000_000_000,
            },
            ReplOp::Del { key: b"k3".to_vec() },
        ];
        let mut buf = encode_prelude(5, 0x0102_0304);
        for op in &ops {
            encode_record(op, &mut buf);
        }
        let hex: String = buf.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, GOLDEN_V3);
        let (read, found) = parse(&buf).unwrap();
        assert_eq!((found.shard, found.base, found.valid_len), (5, Some(0x0102_0304), buf.len()));
        assert_eq!(read, ops);
    }

    /// One line per piece: header, then each record as length ‖ body ‖
    /// checksum, the last being MurmurHash64A (default seed) of the two
    /// pieces before it.
    const GOLDEN_V3: &str = concat!(
        "444153484c4f47310300000005000000",
        "09000000", "040403020100000000", "cbfc8364934b38c4",
        "0a000000", "01020000006b3176616c", "469632bb11508ad8",
        "10000000", "03020000006b320068e5cf8b01000076", "f4e3f4ae44e407d1",
        "07000000", "02020000006b33", "13852aab2ee4357e",
    );

    /// Buffered records are in the writer's counts but not in the file
    /// until `flush`, which writes them all, in order, in one call.
    #[test]
    fn buffered_records_reach_the_file_at_flush_in_order() {
        let p = TempPath::new("buffered");
        let ops = sample_ops(12);
        let (mut w, _) = LogWriter::open(&p.0, 0, None).unwrap();
        let empty = w.bytes();
        for op in &ops[..8] {
            w.buffer(op.as_ref());
        }
        assert_eq!((w.records(), w.flushes()), (8, 0));
        assert!(w.bytes() > empty, "sizes count what is buffered");
        assert_eq!(read_log(&p.0).unwrap().0, [], "nothing is written before a flush");
        w.flush().unwrap();
        assert_eq!(w.flushes(), 1, "eight records, one write");
        assert_eq!(read_log(&p.0).unwrap().0, ops[..8]);
        assert_eq!(std::fs::metadata(&p.0).unwrap().len(), w.bytes());
        w.flush().unwrap();
        assert_eq!(w.flushes(), 1, "an empty flush is not a write");
        // Write-through and buffered callers share the one buffer: an
        // `append` behind buffered records carries them out ahead of it.
        w.buffer(ops[8].as_ref());
        w.buffer(ops[9].as_ref());
        w.append(&ops[10]).unwrap();
        assert_eq!(w.flushes(), 2);
        assert_eq!(read_log(&p.0).unwrap().0, ops[..11]);
    }

    /// However long a caller defers, the writer holds at most the bound
    /// plus one record.
    #[test]
    fn the_buffer_flushes_itself_at_its_bound() {
        let p = TempPath::new("bounded-buffer");
        let big = ReplOp::Set { key: b"k".to_vec(), value: vec![7u8; 10_000] };
        let (mut w, _) = LogWriter::open(&p.0, 0, None).unwrap();
        for _ in 0..20 {
            w.buffer(big.as_ref());
            assert!(w.buf.len() < BUFFER_BYTES, "the buffer must not outgrow its bound");
        }
        assert_eq!(w.flushes(), 2, "200 KB through a 64 KiB buffer");
        drop(w);
        assert_eq!(read_log(&p.0).unwrap().0.len(), 20, "drop drains what is left");
    }

    /// Sealing moves the file out from under the buffer, so it drains
    /// first: a chain written without one explicit flush still replays
    /// in order, every record in the segment its base record says.
    #[test]
    fn sealing_and_drop_drain_the_buffer_first() {
        let p = TempPath::new("buffered-seal");
        let ops = sample_ops(60);
        {
            let (mut w, _) = LogWriter::open(&p.0, 0, Some(TINY_CAP)).unwrap();
            let mut seals = 0;
            for (i, op) in ops.iter().enumerate() {
                if w.buffer(op.as_ref()) {
                    seals += 1;
                    // The record that sealed is buffered for the new file.
                    assert_eq!(replay_ops(&p.0, 0), ops[..i], "a seal leaves nothing buffered");
                }
            }
            assert_eq!(seals, w.segments(), "buffer reports every seal");
        }
        assert!(segment_files(&p.0).unwrap().len() > 2);
        assert_eq!(replay_ops(&p.0, 0), ops);
        let (_, rec) = LogWriter::open(&p.0, 0, Some(TINY_CAP)).unwrap();
        assert_eq!((rec.records, rec.truncated_bytes), (60, 0));
    }

    /// A failed write drops what it carried and everything after it —
    /// counted, so the file stays a prefix of the op stream with a known
    /// number missing, never a stream with a hole.
    #[test]
    fn a_failed_write_poisons_the_writer_and_counts_every_dropped_record() {
        let p = TempPath::new("poison");
        let ops = sample_ops(10);
        let (mut w, _) = LogWriter::open(&p.0, 0, None).unwrap();
        for op in &ops[..3] {
            w.append(op).unwrap();
        }
        // The next write fails: a handle that was not opened for writing.
        w.file = File::open(&p.0).unwrap();
        for op in &ops[3..7] {
            w.buffer(op.as_ref());
        }
        assert_eq!(w.records(), 7);
        assert!(w.flush().is_err());
        assert_eq!((w.records(), w.dropped()), (3, 4), "the four buffered records are gone");
        w.buffer(ops[7].as_ref());
        assert!(w.append(&ops[8]).is_err(), "a poisoned writer refuses, and says so");
        assert_eq!((w.records(), w.dropped()), (3, 6));
        drop(w);
        assert_eq!(read_log(&p.0).unwrap().0, ops[..3], "a clean prefix");
    }

    /// The counting scan and the copying reader are one decoder: over
    /// every cut of a log they report the same prefix, and what they
    /// accept is exactly what the writer would have produced.
    #[test]
    fn scan_and_parse_accept_the_same_prefixes() {
        let ops = sample_ops(16);
        let mut buf = encode_prelude(9, 1234);
        let prelude_len = buf.len();
        for op in &ops {
            encode_record(op, &mut buf);
        }
        for cut in 0..=buf.len() {
            let counted = scan(&buf[..cut], |_| {});
            let copied = parse(&buf[..cut]);
            let (counted, (read, copied)) = match (counted, copied) {
                (Err(_), Err(_)) => {
                    assert!(cut < FileHeader::LEN);
                    continue;
                }
                (Ok(counted), Ok(copied)) => (counted, copied),
                _ => panic!("cut {cut}: one side rejected the header"),
            };
            assert_eq!(
                (counted.base, counted.records, counted.valid_len),
                (copied.base, read.len() as u64, copied.valid_len),
                "cut {cut}"
            );
            assert_eq!(read, ops[..read.len()], "cut {cut}");
            assert_eq!(counted.base.is_some(), cut >= prelude_len, "cut {cut}");
            // Canonical: re-encoding the accepted prefix gives its bytes.
            if let Some(before) = counted.base {
                let mut again = encode_prelude(counted.shard, before);
                for op in &read {
                    encode_record(op, &mut again);
                }
                assert_eq!(again, buf[..counted.valid_len], "cut {cut}");
            }
        }
    }

    /// The stream-only records share the codec but never belong in a log
    /// file: an intact `END` or `MARK` ends the valid prefix like damage.
    #[test]
    fn end_and_mark_records_end_a_log_files_valid_prefix() {
        let ops = sample_ops(4);
        let mut head = encode_prelude(0, 0);
        for op in &ops[..2] {
            encode_record(op, &mut head);
        }
        let end = Record::End(crate::repl::wire::Digest::new(&[0; FileHeader::LEN]));
        for stray in [end, Record::Mark(0)] {
            let mut buf = head.clone();
            encode(stray, &mut buf);
            for op in &ops[2..] {
                encode_record(op, &mut buf);
            }
            let (read, found) = parse(&buf).unwrap();
            assert_eq!((read.as_slice(), found.valid_len), (&ops[..2], head.len()), "{stray:?}");
        }
    }

    /// Records of about 1 KiB each: a hundred carry a log past a stamp.
    fn big_ops(n: u32) -> Vec<ReplOp> {
        (0..n)
            .map(|i| ReplOp::Set { key: format!("big-{i}").into_bytes(), value: vec![i as u8; 1000] })
            .collect()
    }

    /// The stamp next to the log at `path`, if one verifies.
    fn stamp_of(path: &Path) -> Option<Stamp> {
        Stamp::read(&File::open(stamp_path(path)).ok()?)
    }

    /// Write `ops` and close cleanly: the stamp covers the whole file.
    fn write_closed_log(path: &Path, ops: &[ReplOp]) {
        let (mut w, _) = LogWriter::open(path, 0, None).unwrap();
        for op in ops {
            w.append(op).unwrap();
        }
        w.sync().unwrap();
    }

    /// Open the log at `path` from the same bytes twice: with its stamp,
    /// and with the stamp deleted. Returns each recovery and the file as
    /// each open left it, stamped first.
    fn open_both_ways(path: &Path, cap: Option<u64>) -> [(LogRecovery, Vec<u8>); 2] {
        let log = std::fs::read(path).unwrap();
        let stamp = std::fs::read(stamp_path(path)).unwrap();
        std::fs::remove_file(stamp_path(path)).unwrap();
        let without = LogWriter::open(path, 0, cap).unwrap().1;
        let left = std::fs::read(path).unwrap();
        std::fs::write(path, &log).unwrap();
        std::fs::write(stamp_path(path), &stamp).unwrap();
        let with = LogWriter::open(path, 0, cap).unwrap().1;
        [(with, std::fs::read(path).unwrap()), (without, left)]
    }

    /// The write path lays the stamps down: a flush once 64 KiB have
    /// reached the kernel, the clean close at the end — `Drop` never.
    #[test]
    fn flushes_and_the_clean_close_stamp_and_drop_does_not() {
        let p = TempPath::new("stamp-write");
        let ops = big_ops(100);
        let (mut w, _) = LogWriter::open(&p.0, 0, None).unwrap();
        let opened = Stamp { base: 0, offset: PRELUDE_LEN as u64, records: 0 };
        assert_eq!(stamp_of(&p.0), Some(opened), "a fresh log is stamped at its prelude");
        let mut stamps = 0;
        for op in &ops {
            let before = stamp_of(&p.0);
            w.append(op).unwrap();
            let after = stamp_of(&p.0).unwrap();
            if Some(after) != before {
                stamps += 1;
                assert!(after.offset - before.unwrap().offset >= STAMP_BYTES);
                assert_eq!(after.offset, w.bytes(), "a flush stamps the end it wrote");
                assert_eq!(after.records, w.records());
            }
        }
        assert!(stamps >= 1, "100 KB of appends crossed the stamp interval");
        let last = stamp_of(&p.0).unwrap();
        w.buffer(ops[0].as_ref());
        drop(w);
        assert_eq!(stamp_of(&p.0), Some(last), "drop drains the buffer and stamps nothing");
        let (mut w, rec) = LogWriter::open(&p.0, 0, None).unwrap();
        assert_eq!(rec.records, 101);
        assert_eq!(
            rec.scanned_bytes,
            PRELUDE_LEN as u64 + std::fs::metadata(&p.0).unwrap().len() - last.offset,
            "the stamp is taken: the prelude and what follows it"
        );
        w.sync().unwrap();
        let end = Stamp { base: 0, offset: w.bytes(), records: 101 };
        assert_eq!(stamp_of(&p.0), Some(end), "sync stamps the end");
    }

    /// A torn tail behind a stamp more than 64 KiB into the file: the
    /// stamp is taken, and the tail is cut exactly where a full scan
    /// cuts it.
    #[test]
    fn a_torn_tail_after_a_stamp_is_truncated_under_the_stamp() {
        let p = TempPath::new("stamp-torn");
        write_log(&p.0, 0, None, &big_ops(100));
        let stamp = stamp_of(&p.0).unwrap();
        assert!(stamp.offset > STAMP_BYTES, "a flush stamped the file past 64 KiB");
        let full = std::fs::read(&p.0).unwrap();
        assert!(stamp.offset < full.len() as u64 - 5, "records follow the stamp");
        std::fs::write(&p.0, &full[..full.len() - 5]).unwrap();
        let [(with, with_file), (without, without_file)] = open_both_ways(&p.0, None);
        assert_eq!(with.records, 99, "the torn last record goes");
        assert_eq!((with.records, with.truncated_bytes), (without.records, without.truncated_bytes));
        assert_eq!(with_file, without_file, "the same truncation");
        assert_eq!(with.scanned_bytes, PRELUDE_LEN as u64 + full.len() as u64 - 5 - stamp.offset);
        assert!(with.scanned_bytes < without.scanned_bytes, "the stamp was taken");
    }

    /// A byte flipped before the stamp: `open` trusts the stamp and does
    /// not see it; the reader, which validates what it consumes, stops
    /// at it.
    #[test]
    fn a_flip_before_the_stamp_is_found_by_the_reader_not_by_open() {
        let p = TempPath::new("stamp-flip");
        let ops = sample_ops(40);
        write_closed_log(&p.0, &ops);
        let mut bad = std::fs::read(&p.0).unwrap();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x40;
        std::fs::write(&p.0, &bad).unwrap();
        let [(with, with_file), (without, _)] = open_both_ways(&p.0, None);
        assert_eq!(with, LogRecovery { records: 40, truncated_bytes: 0, reset: false, scanned_bytes: PRELUDE_LEN as u64 });
        assert_eq!(with_file, bad, "open neither reads nor truncates the stamped range");
        assert!(without.records < 40 && without.truncated_bytes > 0);
        let (read, _) = read_log(&p.0).unwrap();
        assert_eq!(read.len() as u64, without.records, "the reader stops at the flip");
        assert_eq!(read, ops[..read.len()]);
    }

    /// Every damaged stamp — each byte flipped, or cut short — is not
    /// taken: the open is exactly a stamp-less one.
    #[test]
    fn a_damaged_stamp_falls_back_to_the_full_scan() {
        let p = TempPath::new("stamp-damaged");
        write_closed_log(&p.0, &sample_ops(20));
        let log = std::fs::read(&p.0).unwrap();
        let stamp = std::fs::read(stamp_path(&p.0)).unwrap();
        assert_eq!(stamp.len(), STAMP_LEN);
        let mut damaged: Vec<Vec<u8>> = (0..STAMP_LEN)
            .map(|pos| {
                let mut bad = stamp.clone();
                bad[pos] ^= 0x01;
                bad
            })
            .collect();
        damaged.push(stamp[..STAMP_LEN - 1].to_vec());
        damaged.push(Vec::new());
        for bad in damaged {
            std::fs::write(&p.0, &log).unwrap();
            std::fs::write(stamp_path(&p.0), &bad).unwrap();
            let [with, without] = open_both_ways(&p.0, None);
            assert_eq!(with, without, "stamp {bad:02x?}");
            assert_eq!(with.0.scanned_bytes, log.len() as u64, "the whole file is read");
            assert_eq!(with.0.records, 20);
        }
    }

    /// A stamp whose offset is past the file's end — the file was cut
    /// after a clean close, or a power loss lost data the stamp covers —
    /// is not taken.
    #[test]
    fn a_stamp_past_the_end_falls_back_to_the_full_scan() {
        let p = TempPath::new("stamp-past-eof");
        write_closed_log(&p.0, &sample_ops(20));
        let full = std::fs::read(&p.0).unwrap();
        std::fs::write(&p.0, &full[..full.len() - 5]).unwrap();
        let [with, without] = open_both_ways(&p.0, None);
        assert_eq!(with, without);
        assert_eq!((with.0.records, with.0.scanned_bytes), (19, full.len() as u64 - 5));
        assert!(with.0.truncated_bytes > 0);
    }

    /// `rotate` stamps the new file, then renames. A crash between the
    /// two leaves a stamp for a file that does not exist yet next to the
    /// old active file, whose base is another: it is not taken.
    #[test]
    fn a_stale_stamp_from_inside_rotate_falls_back_to_the_full_scan() {
        let p = TempPath::new("stamp-stale");
        let ops = sample_ops(60);
        write_log(&p.0, 0, Some(TINY_CAP), &ops);
        let base = base_of(&p.0).unwrap();
        assert!(base > 0 && base < 60, "segments, then an active file with records");
        let fresh = Stamp { base: 60, offset: PRELUDE_LEN as u64, records: 0 };
        std::fs::write(stamp_path(&p.0), fresh.encode()).unwrap();
        let [with, without] = open_both_ways(&p.0, Some(TINY_CAP));
        assert_eq!(with, without);
        assert_eq!(with.0.records, 60);
        assert_eq!(with.0.scanned_bytes, std::fs::metadata(&p.0).unwrap().len());
        let expected = Stamp { base, offset: with.0.scanned_bytes, records: 60 - base };
        assert_eq!(stamp_of(&p.0), Some(expected), "the full scan stamps what it found");
    }

    /// A header reset that starts the active file over at the *same*
    /// base as the stale stamp: the reset rewrites the stamp before the
    /// first append, so the records appended past the old offset are
    /// counted from the prelude, never resynced mid-record.
    #[test]
    fn a_reset_at_the_same_base_never_resyncs_mid_record() {
        let p = TempPath::new("stamp-reset");
        let ops = sample_ops(60);
        write_log(&p.0, 0, Some(TINY_CAP), &ops);
        let (mut w, _) = LogWriter::open(&p.0, 0, None).unwrap();
        w.sync().unwrap();
        drop(w);
        let base = base_of(&p.0).unwrap();
        let stale = stamp_of(&p.0).unwrap();
        assert!(stale.offset > PRELUDE_LEN as u64 && stale.base == base);
        // The newest sealed segment ends where the active file begins:
        // the reset starts over at the same base.
        let mut bad = std::fs::read(&p.0).unwrap();
        bad[0] ^= 0x40;
        std::fs::write(&p.0, &bad).unwrap();
        let [with, without] = open_both_ways(&p.0, None);
        assert_eq!(with, without);
        assert!(with.0.reset && with.0.records == base);
        let restarted = Stamp { base, offset: PRELUDE_LEN as u64, records: 0 };
        assert_eq!(stamp_of(&p.0), Some(restarted), "rewritten before the first append");
        let (mut w, _) = LogWriter::open(&p.0, 0, None).unwrap();
        let more = big_ops(3);
        for op in &more {
            w.append(op).unwrap();
        }
        drop(w);
        assert!(std::fs::metadata(&p.0).unwrap().len() > stale.offset, "appends pass the old offset");
        let [with, without] = open_both_ways(&p.0, None);
        assert_eq!((with.0.records, with.0.truncated_bytes), (base + 3, 0));
        assert_eq!((with.0.records, with.1), (without.0.records, without.1));
        assert_eq!(read_log(&p.0).unwrap().0, more);
    }
}
