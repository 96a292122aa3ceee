//! The record: the only variable-length object the engine stores, and
//! the one place that knows its layout.
//!
//! A key costs one pool block, holding its header, its bytes and its
//! value together:
//!
//! ```text
//! u32 klen << 21 | vlen   u32 access   u64 expire_at_ms   key…   value…
//! ```
//!
//! The owning shard's table is a `DashEh<RecKey>` whose slot **key word
//! is the record's pool offset — the single authoritative pointer**; the
//! slot's value word is written 0 and reserved. A probe compares the key
//! bytes inside the record ([`KeyProbe::matches`]) and then reads the
//! header and the value from the same and the following lines, so a
//! lookup follows one pointer out of the table, not two.
//!
//! Everything but `access` is immutable for the life of a record: an
//! overwrite, `EXPIRE` and `PERSIST` write a *new* record, persist it
//! whole, and only then swap the slot's key word to it (one persisted
//! 8-byte store — `DashEh::rekey`), so neither a lock-free reader nor a
//! crash can observe a torn value or deadline, or a key with no record.
//! `access` is the advisory LRU/LFU word the sampled evictor scores by,
//! updated with relaxed atomics and never flushed. Retired records go
//! back to the allocator through the pool's epoch manager, so a reader
//! that found one under its pin never sees it recycled.
//!
//! Nothing here trusts an offset: [`Rec::at`] bounds- and alignment-checks
//! the header and both lengths before anything is dereferenced, so a
//! stale, torn or corrupt key word reads as "no such record".

use std::borrow::Borrow;
use std::sync::atomic::{AtomicU32, Ordering};

use dash_common::{hash64, Key, KeyProbe, MAX_KEY_LEN};
use pmem::{PmOffset, PmemPool, Result as PmResult, CACHELINE};

use crate::engine::MAX_VALUE_LEN;

/// Header bytes ahead of the key: `u32 lens | u32 access | u64 expire_at_ms`.
const HDR: usize = 16;
/// Offset of the access word within the header.
const ACCESS_AT: usize = 4;
/// `lens` packs the value length in its low 21 bits under the key length.
const VLEN_BITS: u32 = 21;
const _: () = assert!(MAX_VALUE_LEN < 1 << VLEN_BITS && MAX_KEY_LEN < 1 << (32 - VLEN_BITS));

/// Lines of a record past its first that [`Rec::prefetch_tail`] asks
/// for: 1 KiB, past which the copy is sequential for long enough that
/// the hardware streamer has taken it over.
const PREFETCH_TAIL_LINES: usize = 16;

/// Bytes a record of `key` and `value` takes (what [`write`] asks the
/// allocator for; the pool charges `pmem::block_bytes` of it).
pub(crate) fn len_of(key: &[u8], value: &[u8]) -> usize {
    HDR + key.len() + value.len()
}

/// Could a record header start at `off`: non-null, 16-aligned, and
/// wholly inside the pool?
pub(crate) fn header_in_pool(pool: &PmemPool, off: u64) -> bool {
    off != 0
        && off.is_multiple_of(16)
        && off.checked_add(HDR as u64).is_some_and(|end| end <= pool.size() as u64)
}

/// A record whose header has been decoded and found to lie, with its key
/// and value, inside the pool. The bytes it hands out are valid for as
/// long as the caller's epoch pin: they are immutable per record, and a
/// retired record is not recycled while a pin that could have seen it is
/// held.
#[derive(Clone, Copy)]
pub(crate) struct Rec<'a> {
    pool: &'a PmemPool,
    off: u64,
    klen: usize,
    vlen: usize,
    /// The advisory LRU/LFU access word (see [`crate::expire::policy`]).
    pub access: u32,
    /// Absolute expiry deadline in Unix ms; 0 = no expiry.
    pub expire_at_ms: u64,
}

impl<'a> Rec<'a> {
    /// Decode and bounds-check the record at `off`. `None` means the
    /// offset cannot be a valid record in this pool (corrupt table /
    /// stale pointer) — the single gate every read and release of a
    /// record goes through. Every block is 16-aligned, so the alignment
    /// check is strict for any corrupt offset that isn't.
    pub fn at(pool: &'a PmemPool, off: u64) -> Option<Rec<'a>> {
        if !header_in_pool(pool, off) {
            return None;
        }
        // SAFETY: bounds checked above; off is 16-aligned so every field
        // is naturally aligned. The lengths and `expire_at_ms` are
        // immutable per record and the access word is read through its
        // atomic home, so plain reads here cannot tear.
        let (lens, access, expire_at_ms) = unsafe {
            let p = pool.base().add(off as usize);
            (
                (p as *const u32).read(),
                (*(p.add(ACCESS_AT) as *const AtomicU32)).load(Ordering::Relaxed),
                (p.add(8) as *const u64).read(),
            )
        };
        let (klen, vlen) = ((lens >> VLEN_BITS) as usize, (lens & ((1 << VLEN_BITS) - 1)) as usize);
        let rec = Rec { pool, off, klen, vlen, access, expire_at_ms };
        let fits = off + rec.len() as u64 <= pool.size() as u64;
        (klen <= MAX_KEY_LEN && vlen <= MAX_VALUE_LEN && fits).then_some(rec)
    }

    /// The record's pool offset — the key word of the slot that owns it.
    pub fn off(&self) -> u64 {
        self.off
    }

    /// The record's whole length, header included.
    pub fn len(&self) -> usize {
        HDR + self.klen + self.vlen
    }

    fn bytes(&self, at: usize, len: usize) -> &'a [u8] {
        // SAFETY: `at + len <= self.len()`, which `at` found in the pool.
        unsafe { std::slice::from_raw_parts(self.pool.base().add(self.off as usize + at), len) }
    }

    /// The key, in place. Metered as one PM read of header and key; the
    /// value is its own read.
    pub fn key(&self) -> &'a [u8] {
        self.pool.note_pm_read(HDR + self.klen);
        self.bytes(HDR, self.klen)
    }

    /// The value, in place.
    pub fn value(&self) -> &'a [u8] {
        self.pool.note_pm_read(self.vlen);
        self.bytes(HDR + self.klen, self.vlen)
    }

    /// Store the advisory access word. Relaxed and never flushed.
    pub fn set_access(&self, word: u32) {
        // SAFETY: the header is in the pool and off + 4 is 4-aligned.
        let cell =
            unsafe { &*(self.pool.base().add(self.off as usize + ACCESS_AT) as *const AtomicU32) };
        cell.store(word, Ordering::Relaxed);
    }

    /// Retire the record once no epoch-pinned reader can still see it:
    /// the caller has unlinked it from the table (or never linked it).
    /// Returns the record bytes retired.
    pub fn retire(self) -> usize {
        self.pool.defer_free(PmOffset::new(self.off), self.len());
        self.len()
    }

    /// The lookup hint's last pass, once the record's first line is on
    /// its way: start loading the lines after it that a key compare and
    /// a value copy will touch. Reads nothing more.
    pub fn prefetch_tail(&self) {
        let first = self.off as usize & !(CACHELINE - 1);
        let last = (self.off as usize + self.len() - 1) & !(CACHELINE - 1);
        for line in (first + CACHELINE..=last).step_by(CACHELINE).take(PREFETCH_TAIL_LINES) {
            pmem::prefetch(self.pool.base().wrapping_add(line));
        }
    }
}

/// Allocate, fill and persist a record; returns its offset, which no
/// table slot holds yet. One allocation, one persist.
pub(crate) fn write(
    pool: &PmemPool,
    key: &[u8],
    value: &[u8],
    expire_at_ms: u64,
    access: u32,
) -> PmResult<u64> {
    assert!(key.len() <= MAX_KEY_LEN && value.len() <= MAX_VALUE_LEN, "record over its bounds");
    let total = len_of(key, value);
    let off = pool.alloc(total)?;
    // SAFETY: freshly allocated, 16-aligned block of at least `total` bytes.
    unsafe {
        let p = pool.base().add(off.get() as usize);
        (p as *mut u32).write((key.len() as u32) << VLEN_BITS | value.len() as u32);
        (p.add(ACCESS_AT) as *mut u32).write(access);
        (p.add(8) as *mut u64).write(expire_at_ms);
        std::ptr::copy_nonoverlapping(key.as_ptr(), p.add(HDR), key.len());
        std::ptr::copy_nonoverlapping(value.as_ptr(), p.add(HDR + key.len()), value.len());
    }
    pool.persist(off, total);
    Ok(off.get())
}

/// The owned key of a shard table: the key's bytes, and the record they
/// were decoded from — what a scan hands back, so its caller can read
/// that record's deadline, access word and value without a second probe.
#[derive(Debug, Clone)]
pub(crate) struct RecKey {
    pub bytes: Box<[u8]>,
    /// Offset of the record (the slot's key word) at decode time.
    pub rec: u64,
}

/// The borrowed form of a [`RecKey`]: the key's bytes, wherever they
/// live. What every engine call probes with — no owned key is built.
#[repr(transparent)]
pub(crate) struct RecProbe([u8]);

impl RecProbe {
    pub fn new(key: &[u8]) -> &RecProbe {
        // SAFETY: `RecProbe` is a transparent wrapper of `[u8]`, so the
        // two references have one layout and one validity.
        unsafe { &*(key as *const [u8] as *const RecProbe) }
    }
}

impl Borrow<RecProbe> for RecKey {
    fn borrow(&self) -> &RecProbe {
        RecProbe::new(&self.bytes)
    }
}

impl KeyProbe for RecProbe {
    #[inline]
    fn hash64(&self) -> u64 {
        hash64(&self.0)
    }

    /// The record a bare key stands for: the key with an empty value and
    /// no deadline. The engine never inserts through this — it writes the
    /// record it means and hands the table its offset (`insert_encoded`).
    fn encode(&self, pool: &PmemPool) -> PmResult<u64> {
        write(pool, &self.0, &[], 0, 0)
    }

    fn matches(&self, pool: &PmemPool, stored: u64) -> bool {
        Rec::at(pool, stored).is_some_and(|rec| rec.key() == &self.0)
    }
}

impl KeyProbe for RecKey {
    fn hash64(&self) -> u64 {
        RecProbe::new(&self.bytes).hash64()
    }

    fn encode(&self, pool: &PmemPool) -> PmResult<u64> {
        RecProbe::new(&self.bytes).encode(pool)
    }

    fn matches(&self, pool: &PmemPool, stored: u64) -> bool {
        RecProbe::new(&self.bytes).matches(pool, stored)
    }
}

impl Key for RecKey {
    const INLINE: bool = false;

    fn hash_stored(pool: &PmemPool, stored: u64) -> u64 {
        Rec::at(pool, stored).map_or(0, |rec| hash64(rec.key()))
    }

    fn decode_stored(pool: &PmemPool, stored: u64) -> Option<Self> {
        Rec::at(pool, stored).map(|rec| RecKey { bytes: rec.key().into(), rec: stored })
    }

    /// A removed slot's record goes with it: the whole block, deferred.
    fn release(pool: &PmemPool, stored: u64) {
        if let Some(rec) = Rec::at(pool, stored) {
            rec.retire();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineConfig, ShardedDash};
    use pmem::PoolConfig;

    #[test]
    fn a_record_reads_back_what_was_written() {
        let pool = PmemPool::create(PoolConfig::with_size(1 << 20)).unwrap();
        for (key, value) in [
            (&b"k"[..], &b"v"[..]),
            (b"", b""),
            (&[7u8; MAX_KEY_LEN], &[9u8; 70_000]),
            (b"user:000042", &[0xA5; 512]),
        ] {
            let off = write(&pool, key, value, 1_234_567_890_123, 77).unwrap();
            let rec = Rec::at(&pool, off).expect("a written record decodes");
            assert_eq!((rec.key(), rec.value()), (key, value));
            assert_eq!((rec.expire_at_ms, rec.access, rec.off()), (1_234_567_890_123, 77, off));
            assert_eq!(rec.len(), len_of(key, value));
            rec.set_access(78);
            assert_eq!(Rec::at(&pool, off).unwrap().access, 78);
            assert!(RecProbe::new(key).matches(&pool, off));
            assert!(!RecProbe::new(b"another key").matches(&pool, off));
            assert_eq!(RecKey::hash_stored(&pool, off), RecProbe::new(key).hash64());
            let decoded = RecKey::decode_stored(&pool, off).unwrap();
            assert_eq!((&*decoded.bytes, decoded.rec), (key, off));
        }
        // The sizes the layout was budgeted for: a 20-byte key with a
        // 64-byte value takes a 112 B block, with a 512-byte value 640 B.
        assert_eq!(pmem::block_bytes(len_of(&[0; 20], &[0; 64])), 112);
        assert_eq!(pmem::block_bytes(len_of(&[0; 20], &[0; 512])), 640);
    }

    /// Offsets that cannot be a record — null, misaligned, out of the
    /// pool, or in it with lengths that run past its end — decode to
    /// nothing, match nothing, hash to 0 and release nothing.
    #[test]
    fn an_offset_that_is_no_record_is_refused_before_it_is_followed() {
        let pool = PmemPool::create(PoolConfig::with_size(1 << 20)).unwrap();
        let size = pool.size() as u64;
        let torn = write(&pool, b"key", &[1; 100], 0, 0).unwrap();
        // SAFETY: the block is this test's; lengths of 2047 B + 2 MiB − 1.
        unsafe { (pool.base().add(torn as usize) as *mut u32).write(u32::MAX) };
        let near_end = size - 32;
        // SAFETY: in the pool, 16-aligned; a 512 B key 32 B from the end.
        unsafe { (pool.base().add(near_end as usize) as *mut u32).write(512 << VLEN_BITS) };
        let frees = pool.stats().frees;
        for off in [0, 8, 24, u64::MAX, u64::MAX - 15, size, size - 8, size + 64, torn, near_end] {
            assert!(Rec::at(&pool, off).is_none(), "offset {off:#x}");
            assert!(!RecProbe::new(b"key").matches(&pool, off), "offset {off:#x}");
            assert_eq!(RecKey::hash_stored(&pool, off), 0);
            assert!(RecKey::decode_stored(&pool, off).is_none());
            RecKey::release(&pool, off);
        }
        pool.epoch_collect();
        assert_eq!(pool.stats().frees, frees, "nothing was handed to the allocator");
    }

    fn engine() -> ShardedDash {
        ShardedDash::open(&EngineConfig { shards: 1, shard_bytes: 32 << 20, ..Default::default() })
            .unwrap()
    }

    /// One record, one pointer. A `SET` of a fresh key makes exactly one
    /// allocation beyond any the table's own growth made; an overwrite is
    /// one allocation and three persists — the allocator's own word, the
    /// record, and the slot's 8-byte key word — and never touches the
    /// table's metadata; a `GET` reads the table, then one record.
    #[test]
    fn a_set_is_one_allocation_and_an_overwrite_one_slot_persist() {
        let e = engine();
        let pool = e.pool_of(b"");
        let key = |i: u32| format!("rec-key-{i:06}").into_bytes();
        let grown = |e: &ShardedDash| {
            let t = e.shard_telemetry()[0];
            t.eh_splits + t.eh_doublings
        };
        for i in 0..5_000 {
            let (before, structure) = (pool.stats(), grown(&e));
            e.set(&key(i), &[i as u8; 64]).unwrap();
            let own = pool.stats().since(&before).allocs - (grown(&e) - structure);
            assert_eq!(own, 1, "fresh key {i}: one record, no second blob");
        }
        assert!(grown(&e) > 0, "the load must have split segments");
        // Fewer overwrites than the epoch manager batches before it
        // collects, so no deferred free's flushes land in the counts.
        pool.epoch_collect();
        for i in 0..100 {
            let before = pool.stats();
            e.set(&key(i * 37), &[0xEE; 64]).unwrap();
            let d = pool.stats().since(&before);
            assert_eq!((d.allocs, d.flushes, d.fences), (1, 3, 3), "overwrite {i}: {d:?}");
            assert_eq!(d.flush_bytes, 64 + 128 + 64, "bump word, 95 B record, slot line");
        }
        for i in 0..100 {
            let before = pool.stats();
            assert!(e.exists(&key(i)).unwrap());
            let probe = pool.stats().since(&before);
            let before = pool.stats();
            assert!(e.get(&key(i)).unwrap().is_some());
            let get = pool.stats().since(&before);
            assert_eq!(get.pm_reads, probe.pm_reads + 1, "key {i}: the probe, then the value");
            assert_eq!(get.pm_read_bytes, probe.pm_read_bytes + 64, "key {i}");
            assert_eq!((get.allocs, get.flushes), (0, 0));
        }
    }
}
