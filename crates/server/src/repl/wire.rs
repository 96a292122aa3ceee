//! The on-disk framing shared by `dash-server`'s checksummed file
//! formats (the snapshot format and the replication redo log): a 16-byte
//! versioned header, FNV-1a integrity checksums, and a bounds-checked
//! little-endian parser. Each format keeps its own record layout; what
//! lives here is everything they would otherwise duplicate.

/// Running FNV-1a 64 (not cryptographic — an integrity check against
/// torn writes and bit rot, not an authenticity check).
#[derive(Clone, Copy, Default)]
pub struct Fnv(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Fnv {
    pub fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

/// One-shot FNV-1a of `bytes`.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut f = Fnv::new();
    f.update(bytes);
    f.value()
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

    pub fn pos(&self) -> usize {
        self.pos
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
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
    fn fnv_matches_known_vector() {
        // FNV-1a 64 of "a" is a published test vector.
        assert_eq!(fnv64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv64(b""), FNV_OFFSET);
        let mut split = Fnv::new();
        split.update(b"hello ");
        split.update(b"world");
        assert_eq!(split.value(), fnv64(b"hello world"), "incremental == one-shot");
    }

    #[test]
    fn header_roundtrip_and_rejection() {
        let h = FileHeader { magic: 0x1122_3344_5566_7788, version: 3, meta: 9 };
        let bytes = h.encode();
        let mut p = Parser::new(&bytes);
        assert_eq!(FileHeader::read(&mut p, h.magic, 2..=3, "test").unwrap(), h);
        assert_eq!(p.pos(), FileHeader::LEN);
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
        let e = p.u8("z").unwrap_err();
        assert!(e.contains("z at offset 5"), "{e}");
    }
}
