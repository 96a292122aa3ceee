//! Input generation: keys, values and op streams, all pure functions of
//! `--seed`. The program under test only ever sees the generated
//! requests; the generator keeps a model of what it wrote so every read
//! can be checked byte-exact.

use dash_common::mix64;

/// `key:` + 16 hex digits.
pub const KEY_LEN: usize = 20;

/// Index bit marking a key that is never written (negative lookups).
const ABSENT: u64 = 1 << 62;

/// Sequential SplitMix64: the same mixer the repo's workload generators
/// use, so op streams here are as uniform as theirs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(mix64(seed))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        mix64(self.0)
    }

    /// Uniform in `0..n` (n far below 2^64, so modulo bias is nil).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The key universe of one seed. `mix64` is bijective and the inputs
/// `base + i` are distinct, so distinct indices give distinct keys
/// without a dedup pass.
#[derive(Clone, Copy)]
pub struct KeySpace {
    base: u64,
}

impl KeySpace {
    pub fn new(seed: u64) -> Self {
        KeySpace { base: mix64(seed ^ 0xDA5B_BE7C) }
    }

    pub fn stem(&self, idx: u64) -> u64 {
        mix64(self.base.wrapping_add(idx))
    }

    pub fn key(&self, idx: u64) -> [u8; KEY_LEN] {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let stem = self.stem(idx);
        let mut out = *b"key:0000000000000000";
        for (i, b) in out[4..].iter_mut().enumerate() {
            *b = HEX[((stem >> (60 - 4 * i)) & 0xF) as usize];
        }
        out
    }
}

/// The value stored under `stem` by its `version`-th write: a pure
/// function, so the reader needs only the version to know every byte.
pub fn fill_value(out: &mut Vec<u8>, stem: u64, version: u32, len: usize) {
    out.clear();
    let base = stem ^ mix64(u64::from(version));
    let mut i = 0u64;
    while out.len() < len {
        let word = mix64(base.wrapping_add(i)).to_le_bytes();
        let take = (len - out.len()).min(8);
        out.extend_from_slice(&word[..take]);
        i += 1;
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Read a key that was written.
    Get,
    /// Read a key that never was (the reply must be a miss).
    GetAbsent,
    /// Write a key that exists.
    Overwrite,
    /// Write a key that does not exist yet.
    Insert,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub kind: OpKind,
    pub idx: u64,
}

/// The shape of one workload's op stream.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Percent of ops that read.
    pub get_pct: u64,
    /// One read in this many targets an absent key (0 = none).
    pub absent_one_in: u64,
    /// Percent of writes that create a fresh key.
    pub fresh_pct: u64,
}

/// The generator's model of the store: which keys exist and which write
/// each one holds. Doubles as the op source, so an op and the expected
/// reply come from the same state.
pub struct Model {
    pub keys: KeySpace,
    pub value_len: usize,
    mix: Mix,
    rng: Rng,
    /// Write version per preloaded key (fresh keys are written once).
    versions: Vec<u32>,
    fresh: u64,
    /// FNV-1a over every op drawn: two runs saw the same inputs exactly
    /// when these agree.
    stream_hash: u64,
}

impl Model {
    pub fn new(seed: u64, preload: u64, value_len: usize, mix: Mix) -> Self {
        Model {
            keys: KeySpace::new(seed),
            value_len,
            mix,
            rng: Rng::new(seed),
            versions: vec![0; preload as usize],
            fresh: 0,
            stream_hash: 0xcbf2_9ce4_8422_2325,
        }
    }

    pub fn preloaded(&self) -> u64 {
        self.versions.len() as u64
    }

    /// Keys the store must hold: preloaded plus fresh inserts so far.
    pub fn live_keys(&self) -> u64 {
        self.preloaded() + self.fresh
    }

    pub fn stream_hash(&self) -> u64 {
        self.stream_hash
    }

    /// Draw the next op and advance the model past it.
    pub fn next_op(&mut self) -> Op {
        let roll = self.rng.below(100);
        let op = if roll < self.mix.get_pct {
            if self.mix.absent_one_in > 0 && self.rng.below(self.mix.absent_one_in) == 0 {
                Op { kind: OpKind::GetAbsent, idx: ABSENT | self.rng.below(self.preloaded()) }
            } else {
                Op { kind: OpKind::Get, idx: self.rng.below(self.preloaded()) }
            }
        } else if self.rng.below(100) < self.mix.fresh_pct {
            self.fresh += 1;
            Op { kind: OpKind::Insert, idx: self.live_keys() - 1 }
        } else {
            let idx = self.rng.below(self.preloaded());
            self.versions[idx as usize] += 1;
            Op { kind: OpKind::Overwrite, idx }
        };
        for word in [op.kind as u64, op.idx] {
            self.stream_hash = (self.stream_hash ^ word).wrapping_mul(0x0000_0100_0000_01B3);
        }
        op
    }

    /// The bytes key `idx` holds now (for a write op just drawn: the
    /// bytes to send).
    pub fn value(&self, idx: u64, out: &mut Vec<u8>) {
        let version = self.versions.get(idx as usize).copied().unwrap_or(0);
        fill_value(out, self.keys.stem(idx), version, self.value_len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIXED: Mix = Mix { get_pct: 50, absent_one_in: 4, fresh_pct: 30 };

    fn draw(seed: u64, n: usize) -> (Vec<Op>, u64) {
        let mut m = Model::new(seed, 1000, 16, MIXED);
        let ops = (0..n).map(|_| m.next_op()).collect();
        (ops, m.stream_hash())
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        assert_eq!(draw(42, 5000), draw(42, 5000));
        let (a, ha) = draw(42, 5000);
        let (b, hb) = draw(43, 5000);
        assert_ne!(a, b);
        assert_ne!(ha, hb);
        assert_ne!(KeySpace::new(42).key(7), KeySpace::new(43).key(7));
    }

    #[test]
    fn keys_are_distinct_and_well_formed() {
        let ks = KeySpace::new(1);
        let mut seen = std::collections::HashSet::new();
        for i in (0..10_000).chain((0..10).map(|i| ABSENT | i)) {
            let k = ks.key(i);
            assert_eq!(&k[..4], b"key:");
            assert_eq!(k, format!("key:{:016x}", ks.stem(i)).as_bytes());
            assert!(seen.insert(k));
        }
    }

    #[test]
    fn model_tracks_versions_and_fresh_keys() {
        let mut m = Model::new(7, 100, 24, MIXED);
        let (mut inserts, mut buf, mut before) = (0, Vec::new(), Vec::new());
        for _ in 0..2000 {
            let probe = m.versions.clone();
            let op = m.next_op();
            match op.kind {
                OpKind::Insert => {
                    assert_eq!(op.idx, 100 + inserts);
                    inserts += 1;
                }
                OpKind::Overwrite => {
                    assert_eq!(m.versions[op.idx as usize], probe[op.idx as usize] + 1);
                    fill_value(&mut before, m.keys.stem(op.idx), probe[op.idx as usize], 24);
                    m.value(op.idx, &mut buf);
                    assert_ne!(buf, before, "a new version is new bytes");
                }
                OpKind::Get => assert!(op.idx < 100),
                OpKind::GetAbsent => assert!(op.idx >= ABSENT),
            }
        }
        assert_eq!(m.live_keys(), 100 + inserts);
        m.value(3, &mut buf);
        assert_eq!(buf.len(), 24);
    }
}
