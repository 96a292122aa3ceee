//! The one encoding of a key mutation — the record the redo log, the
//! snapshot format and the replication stream all use — plus the 16-byte
//! versioned file header and a bounds-checked little-endian parser.
//!
//! ```text
//! u32 body_len
//! body: u8 tag, then by tag
//!       1 SET     u32 key_len, key, value…
//!       2 DEL     u32 key_len, key
//!       3 SETEX   u32 key_len, key, u64 expire_at_ms, value…
//!       4 BASE    u64 records before this log file      (log files; a
//!                 snapshot's per-shard log positions)
//!       5 END     u64 op record count, u64 digest       (snapshots only)
//!       6 MARK    u64 trace id                          (tails only)
//! u64 record_checksum(body_len ‖ body): MurmurHash64A
//! ```
//!
//! Each reader accepts only its own tags: a stray one ends a log's valid
//! prefix or breaks a stream.

use dash_common::{hash64, MAX_KEY_LEN};

use crate::engine::MAX_VALUE_LEN;
use crate::repl::{OpRef, ReplOp};

const TAG_SET: u8 = 1;
const TAG_DEL: u8 = 2;
const TAG_SET_EX: u8 = 3;
const TAG_BASE: u8 = 4;
const TAG_END: u8 = 5;
const TAG_MARK: u8 = 6;
/// Largest legal record body: tag + key_len field + max key + expiry
/// deadline + max value.
const MAX_BODY: usize = 1 + 4 + MAX_KEY_LEN + 8 + MAX_VALUE_LEN;

/// The checksum a record's trailer carries, over its framed bytes
/// (`body_len ‖ body`). Covering the length prefix too means a corrupted
/// length cannot masquerade as a differently-framed valid record.
pub fn record_checksum(framed: &[u8]) -> u64 {
    hash64(framed)
}

/// Append the checksum of the record framed at `out[start..]`; returns it.
fn seal(out: &mut Vec<u8>, start: usize) -> u64 {
    let checksum = record_checksum(&out[start..]);
    out.extend_from_slice(&checksum.to_le_bytes());
    checksum
}

/// Append the record of one key mutation to `out` (the log's hot path);
/// returns its checksum.
pub fn encode_op(op: OpRef<'_>, out: &mut Vec<u8>) -> u64 {
    let (tag, key, value, expire): (u8, &[u8], &[u8], u64) = match op {
        OpRef::Set { key, value } => (TAG_SET, key, value, 0),
        OpRef::SetEx { key, value, expire_at_ms } => (TAG_SET_EX, key, value, expire_at_ms),
        OpRef::Del { key } => (TAG_DEL, key, &[], 0),
    };
    let body_len =
        1 + 4 + key.len() + value.len() + if tag == TAG_SET_EX { 8 } else { 0 };
    let start = out.len();
    out.extend_from_slice(&(body_len as u32).to_le_bytes());
    out.push(tag);
    out.extend_from_slice(&(key.len() as u32).to_le_bytes());
    out.extend_from_slice(key);
    if tag == TAG_SET_EX {
        out.extend_from_slice(&expire.to_le_bytes());
    }
    out.extend_from_slice(value);
    seal(out, start)
}

/// [`encode_op`] for an owned op.
pub fn encode_record(op: &ReplOp, out: &mut Vec<u8>) {
    encode_op(op.as_ref(), out);
}

/// One record, an op's key and value borrowed. A `MARK` says the next op
/// was traced under its id on the primary (0: none — the idle heartbeat).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Record<'a> {
    Op(OpRef<'a>),
    Base(u64),
    End(Digest),
    Mark(u64),
}

/// Append `record` to `out`; returns its checksum.
pub fn encode(record: Record<'_>, out: &mut Vec<u8>) -> u64 {
    let (tag, words, n) = match record {
        Record::Op(op) => return encode_op(op, out),
        Record::Base(before) => (TAG_BASE, [before, 0], 1),
        Record::End(digest) => (TAG_END, [digest.records, digest.fold], 2),
        Record::Mark(trace_id) => (TAG_MARK, [trace_id, 0], 1),
    };
    let start = out.len();
    out.extend_from_slice(&(1 + 8 * n as u32).to_le_bytes());
    out.push(tag);
    for word in &words[..n] {
        out.extend_from_slice(&word.to_le_bytes());
    }
    seal(out, start)
}

/// What [`decode`] found at the start of a buffer.
#[derive(Debug, PartialEq, Eq)]
pub enum Decoded<'a> {
    /// A whole, valid record, its checksum, and the bytes it spans.
    Record(Record<'a>, u64, usize),
    /// The buffer ends inside what may still be a valid record.
    Incomplete,
    /// Not a record: an impossible length, a checksum mismatch, or a
    /// body no writer produces.
    Invalid,
}

/// Decode the record at the start of `buf`. A file reader treats
/// `Incomplete` like `Invalid` (its valid prefix ends there); a stream
/// reader waits for more bytes.
pub fn decode(buf: &[u8]) -> Decoded<'_> {
    let Some(len) = buf.first_chunk::<4>() else { return Decoded::Incomplete };
    let body_len = u32::from_le_bytes(*len) as usize;
    if !(1 + 4..=MAX_BODY).contains(&body_len) {
        return Decoded::Invalid;
    }
    let framed = 4 + body_len;
    let Some(trailer) = buf.get(framed..).and_then(<[u8]>::first_chunk::<8>) else {
        return Decoded::Incomplete;
    };
    let checksum = u64::from_le_bytes(*trailer);
    if record_checksum(&buf[..framed]) != checksum {
        return Decoded::Invalid;
    }
    match decode_body(&buf[4..framed]) {
        Some(record) => Decoded::Record(record, checksum, framed + 8),
        None => Decoded::Invalid,
    }
}

fn decode_body(body: &[u8]) -> Option<Record<'_>> {
    let mut b = Parser::new(body);
    let record = match b.u8("tag").ok()? {
        TAG_BASE => Record::Base(b.u64("base count").ok()?),
        TAG_END => {
            Record::End(Digest { records: b.u64("count").ok()?, fold: b.u64("digest").ok()? })
        }
        TAG_MARK => Record::Mark(b.u64("trace id").ok()?),
        tag => {
            let key_len = b.u32("key length").ok()? as usize;
            if key_len > MAX_KEY_LEN {
                return None;
            }
            let key = b.take(key_len, "key bytes").ok()?;
            let expire_at_ms = if tag == TAG_SET_EX { b.u64("expire deadline").ok()? } else { 0 };
            let value = b.take(b.remaining(), "value bytes").ok()?;
            if value.len() > MAX_VALUE_LEN {
                return None;
            }
            Record::Op(match tag {
                TAG_SET => OpRef::Set { key, value },
                TAG_SET_EX => OpRef::SetEx { key, value, expire_at_ms },
                TAG_DEL if value.is_empty() => OpRef::Del { key },
                _ => return None,
            })
        }
    };
    (b.remaining() == 0).then_some(record)
}

/// What an `END` record carries and checks a stream against: the op
/// records before it, and a fold of the stream's 16 header bytes and of
/// every record's checksum in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub(crate) records: u64,
    fold: u64,
}

impl Digest {
    pub fn new(header: &[u8; FileHeader::LEN]) -> Self {
        Digest { records: 0, fold: hash64(header) }
    }

    /// Fold in the next record, by its checksum, and count it.
    pub fn add(&mut self, checksum: u64) {
        self.cover(checksum);
        self.records += 1;
    }

    /// Fold in the next record without counting it: a snapshot's log
    /// positions are covered by its digest but are not keys.
    pub fn cover(&mut self, checksum: u64) {
        let mut pair = [0u8; 16];
        pair[..8].copy_from_slice(&self.fold.to_le_bytes());
        pair[8..].copy_from_slice(&checksum.to_le_bytes());
        self.fold = hash64(&pair);
    }
}

/// The 16-byte file header every checksummed format starts with: a
/// format magic, a format version, and one format-defined `meta` word
/// (the snapshot stores its source shard count there, the redo log its
/// shard index).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileHeader {
    pub magic: u64,
    pub version: u32,
    pub meta: u32,
}

impl FileHeader {
    pub const LEN: usize = 16;

    pub fn encode(&self) -> [u8; Self::LEN] {
        let mut out = [0u8; Self::LEN];
        out[..8].copy_from_slice(&self.magic.to_le_bytes());
        out[8..12].copy_from_slice(&self.version.to_le_bytes());
        out[12..].copy_from_slice(&self.meta.to_le_bytes());
        out
    }

    /// Parse a header and validate it against the expected magic and the
    /// versions this reader understands. `kind` names the format in
    /// error messages ("snapshot", "repl log").
    pub fn read(
        p: &mut Parser<'_>,
        magic: u64,
        versions: std::ops::RangeInclusive<u32>,
        kind: &str,
    ) -> Result<FileHeader, String> {
        if p.u64("magic")? != magic {
            return Err(format!("bad magic: not a dash {kind} file"));
        }
        let version = p.u32("version")?;
        if !versions.contains(&version) {
            return Err(format!("unsupported {kind} version {version}"));
        }
        Ok(FileHeader { magic, version, meta: p.u32("meta")? })
    }
}

/// Bounds-checked cursor over a byte buffer; every error message says
/// what was being read and where it fell off the end.
pub struct Parser<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Parser { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The bytes consumed since position `start`, as one contiguous
    /// slice of the buffer.
    pub fn since(&self, start: usize) -> &'a [u8] {
        &self.buf[start..self.pos]
    }

    pub fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], String> {
        if self.remaining() < n {
            return Err(format!("truncated file: {what} at offset {}", self.pos));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self, what: &str) -> Result<u8, String> {
        Ok(self.take(1, what)?[0])
    }

    pub fn u32(&mut self, what: &str) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    pub fn u64(&mut self, what: &str) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip_and_rejection() {
        let h = FileHeader { magic: 0x1122_3344_5566_7788, version: 3, meta: 9 };
        let bytes = h.encode();
        let mut p = Parser::new(&bytes);
        assert_eq!(FileHeader::read(&mut p, h.magic, 2..=3, "test").unwrap(), h);
        assert_eq!(p.remaining(), 0);
        let mut p = Parser::new(&bytes);
        assert!(FileHeader::read(&mut p, h.magic + 1, 3..=3, "test").unwrap_err().contains("magic"));
        let mut p = Parser::new(&bytes);
        assert!(FileHeader::read(&mut p, h.magic, 4..=5, "test").unwrap_err().contains("version"));
        let mut p = Parser::new(&bytes[..10]);
        assert!(FileHeader::read(&mut p, h.magic, 3..=3, "test").unwrap_err().contains("truncated"));
    }

    #[test]
    fn parser_bounds() {
        let mut p = Parser::new(&[1, 0, 0, 0, 2]);
        assert_eq!(p.u32("x").unwrap(), 1);
        assert_eq!(p.u8("y").unwrap(), 2);
        assert_eq!(p.remaining(), 0);
        assert_eq!(p.since(1), [0, 0, 0, 2]);
        let e = p.u8("z").unwrap_err();
        assert!(e.contains("z at offset 5"), "{e}");
    }

    /// A stream reader must tell "wait for more bytes" from "damaged":
    /// every proper prefix of a record is `Incomplete`, the whole record
    /// decodes, and a flipped byte anywhere in it is `Invalid` or — in
    /// the length prefix, claiming a longer record — `Incomplete`.
    #[test]
    fn decode_tells_a_prefix_from_damage() {
        let mut rec = Vec::new();
        let op = OpRef::SetEx { key: b"k", value: b"v", expire_at_ms: 7 };
        let checksum = encode_op(op, &mut rec);
        for cut in 0..rec.len() {
            assert_eq!(decode(&rec[..cut]), Decoded::Incomplete, "cut {cut}");
        }
        assert_eq!(decode(&rec), Decoded::Record(Record::Op(op), checksum, rec.len()));
        for pos in 0..rec.len() {
            let mut bad = rec.clone();
            bad[pos] ^= 0x01;
            match decode(&bad) {
                Decoded::Invalid => {}
                Decoded::Incomplete => assert!(pos < 4, "flip at {pos}"),
                Decoded::Record(..) => panic!("flip at {pos} went undetected"),
            }
        }
    }

    /// The two stream-only records, byte for byte: a `MARK` and the `END`
    /// of an empty stream under a fixed header.
    #[test]
    fn the_mark_and_end_encodings_are_pinned() {
        let end = Digest::new(&FileHeader { magic: 1, version: 3, meta: 2 }.encode());
        let records = [Record::Mark(0x0102_0304_0506_0708), Record::End(end)];
        let mut buf = Vec::new();
        for record in records {
            encode(record, &mut buf);
        }
        let hex: String = buf.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, GOLDEN_MARK_END);
        let mut rest = &buf[..];
        for record in records {
            let Decoded::Record(read, _, used) = decode(rest) else { panic!("{record:?}") };
            assert_eq!(read, record);
            rest = &rest[used..];
        }
        assert!(rest.is_empty());
    }

    /// Length ‖ body ‖ MurmurHash64A (default seed) of the two before it.
    const GOLDEN_MARK_END: &str = concat!(
        "09000000", "060807060504030201", "4acfd89d7877309c",
        "11000000", "050000000000000000d12759fc3c05c6c1", "6da8935a3b970f2c",
    );
}
