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
//! [`LogWriter::bytes`] and the next K) and scans exactly one file, the
//! active one: its base record plus its own intact records *is* the
//! store-wide record count that seeds the replication offset, and it is
//! the only file a crash can have torn. So reopen costs O(cap), whatever
//! the log's size, and retention deleting old segments cannot rewind the
//! count. No sealed segment's contents are read, and that skips no
//! safety check: nothing is replayed into state at open. Sealed segments
//! are validated where they are consumed ([`replay_from`], then
//! [`read_log`]), record by record. One exception, bounded too: the
//! active file is missing, empty or has no intact base record — a fresh
//! log, a crash inside [`rotate`](LogWriter::rotate) between the rename
//! and the new file's first write, or a header reset. The base is then
//! recovered from the newest sealed segment (its base + its records; one
//! more bounded scan) and the active file starts over.
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
//! [`flush`]: LogWriter::flush
//! [`append`]: LogWriter::append
//! [`dropped`]: LogWriter::dropped
//! [`sync`]: LogWriter::sync

use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

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
fn scan<'a>(buf: &'a [u8], mut on_op: impl FnMut(OpRef<'a>)) -> Result<Scan, String> {
    let header =
        FileHeader::read(&mut Parser::new(buf), LOG_MAGIC, LOG_VERSION..=LOG_VERSION, "repl log")?;
    let mut scan = Scan { shard: header.meta, base: None, records: 0, valid_len: FileHeader::LEN };
    let Decoded::Record(Record::Base(records_before), _, used) = decode(&buf[scan.valid_len..])
    else {
        return Ok(scan);
    };
    scan.base = Some(records_before);
    scan.valid_len += used;
    // Only op records follow: a second base record, or a stream-only
    // END or MARK, is not something the writer produces.
    while let Decoded::Record(Record::Op(op), _, used) = decode(&buf[scan.valid_len..]) {
        on_op(op);
        scan.records += 1;
        scan.valid_len += used;
    }
    Ok(scan)
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
    /// File bytes read and validated to learn the above: at most the
    /// segment cap plus one record, however large the log.
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
}

impl LogWriter {
    /// Open (or create) the log at `path` for shard `shard`, sealing the
    /// active file at `max_bytes`, at most [`SEGMENT_BYTES`] (its
    /// default). Nothing is deleted: see [`retain`](Self::retain). The active
    /// file is scanned, its torn tail truncated, and appends continue
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
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(path)?;
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)?;
        let mut scanned_bytes = buf.len() as u64;
        // The header's shard index is outside any record checksum; a
        // mismatch (corruption, or a file moved between shard slots)
        // makes the whole file as untrustworthy as an unusable header.
        let found = scan(&buf, |_| {}).ok().filter(|found| found.shard == shard);
        // A file worth keeping states its base.
        let keep = found.as_ref().filter(|found| found.base.is_some());
        let before = match keep.and_then(|found| found.base) {
            Some(before) => before,
            None => records_in_segments(&segs, &mut scanned_bytes),
        };
        let (active_records, bytes) = match keep {
            Some(found) => {
                if found.valid_len < buf.len() {
                    file.set_len(found.valid_len as u64)?;
                }
                file.seek(SeekFrom::Start(found.valid_len as u64))?;
                (found.records, found.valid_len)
            }
            // Nothing to keep: a fresh log, a rotation that died before
            // the new file's prelude was whole, or a file that cannot be
            // trusted. Start the active file over rather than refuse to
            // open the store — the pools hold the authoritative state.
            None => {
                let prelude = encode_prelude(shard, before);
                file.set_len(0)?;
                file.seek(SeekFrom::Start(0))?;
                file.write_all(&prelude)?;
                (0, prelude.len())
            }
        };
        // A file started over for want of a base record still had a
        // usable header: only what followed it was cut.
        let valid_len = found.as_ref().map_or(0, |found| found.valid_len);
        let recovery = LogRecovery {
            records: before + active_records,
            truncated_bytes: (buf.len() - valid_len) as u64,
            reset: found.is_none() && !buf.is_empty(),
            scanned_bytes,
        };
        let writer = LogWriter {
            file,
            path: path.to_path_buf(),
            shard,
            cap: max_bytes.map_or(SEGMENT_BYTES, |cap| cap.min(SEGMENT_BYTES)),
            next_seq: segs.last().map_or(0, |(seq, _)| seq + 1),
            records: recovery.records,
            active_records,
            segment_bytes: sealed.iter().map(|(_, len)| len).sum(),
            sealed,
            bytes: bytes as u64,
            buf: Vec::new(),
            buffered: 0,
            flushes: 0,
            dropped: 0,
        };
        Ok((writer, recovery))
    }

    /// Seal the active file: rename it to the next `segK` name and start
    /// a fresh active file whose base record carries the count so far.
    /// On failure the active file keeps growing and the next append
    /// retries. A crash between the rename and the fresh file's prelude
    /// is repaired by [`open`](Self::open) from the segment just sealed.
    fn rotate(&mut self) -> io::Result<()> {
        // What is buffered belongs to the file being sealed.
        self.flush()?;
        let seg = segment_path(&self.path, self.next_seq);
        std::fs::rename(&self.path, &seg)?;
        let prelude = encode_prelude(self.shard, self.records);
        let fresh = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&self.path)
            .and_then(|mut fresh| fresh.write_all(&prelude).map(|()| fresh));
        let fresh = match fresh {
            Ok(fresh) => fresh,
            Err(e) => {
                // Undo so appends keep landing in a discoverable file;
                // the rename replaces whatever the failed start left.
                let _ = std::fs::rename(&seg, &self.path);
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
    pub fn flush(&mut self) -> io::Result<()> {
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
    /// not just process death.
    pub fn sync(&mut self) -> io::Result<()> {
        self.flush()?;
        self.file.sync_all()
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
    fn drop(&mut self) {
        let _ = self.flush();
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
            let _ = std::fs::remove_file(&p);
            TempPath(p)
        }
    }

    impl Drop for TempPath {
        fn drop(&mut self) {
            if let Ok(segs) = segment_files(&self.0) {
                for (_, seg) in segs {
                    let _ = std::fs::remove_file(seg);
                }
            }
            let _ = std::fs::remove_file(&self.0);
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
        // Reopen continues where the valid prefix ends.
        let len = std::fs::metadata(&p.0).unwrap().len();
        let (mut w, rec) = LogWriter::open(&p.0, 7, None).unwrap();
        assert_eq!(rec, LogRecovery { records: 10, scanned_bytes: len, ..fresh });
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
}
