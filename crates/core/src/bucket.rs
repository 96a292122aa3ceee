//! The 256-byte Dash bucket (§4.1, fig. 4): 32 bytes of probing metadata
//! followed by fourteen 16-byte record slots. Four cachelines — DCPMM's
//! internal block size — so one bucket probe is one PM block read.
//!
//! Metadata layout (field-packed into atomics so lock-free optimistic
//! readers are data-race-free):
//!
//! ```text
//!  0  version_lock  u32   bit 31 = lock, bits 0..31 = version
//!  4  word          u32   alloc bitmap (14) | membership bitmap (14) | counter (4)
//!  8  fpw0          u64   fingerprints of slots 0..8
//! 16  fpw1          u64   fingerprints of slots 8..14 (bytes 0..6),
//!                         byte 6 = overflow-fp occupancy bitmap (bits 0..4)
//!                                  + overflow bit (bit 7),
//!                         byte 7 = overflow-fp membership bits (0..4)
//! 24  ovf_fp        u32   4 overflow fingerprints (records in the stash)
//! 28  ovf_aux       u32   byte 0 = stash indices (2 bits × 4 slots),
//!                         byte 1 = overflow counter
//! 32  records       14 × {key u64, value u64}
//! ```

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use dash_common::KeyProbe;
use pmem::{PmOffset, PmemPool};

/// Record slots per bucket.
pub const SLOTS: usize = 14;
/// Overflow-fingerprint slots per bucket (§4.3).
pub const OVF_SLOTS: usize = 4;
/// Bucket size in bytes (= Optane's 256 B internal block, §4.1).
pub const BUCKET_SIZE: usize = 256;
/// Byte offset of the record array inside a bucket.
pub const RECORDS_OFFSET: usize = 32;

const LOCK_BIT: u32 = 1 << 31;

/// Bit-packing helpers for the alloc/membership/counter word.
pub(crate) mod word {
    use super::SLOTS;

    const ALLOC_MASK: u32 = (1 << SLOTS) - 1;

    #[inline]
    pub fn alloc_mask(w: u32) -> u32 {
        w & ALLOC_MASK
    }

    #[inline]
    pub fn member_mask(w: u32) -> u32 {
        (w >> 14) & ALLOC_MASK
    }

    #[inline]
    pub fn count(w: u32) -> u32 {
        w >> 28
    }

    /// Set `slot`'s alloc bit (and membership bit if `member`), bump the
    /// counter. The caller guarantees the slot is free.
    #[inline]
    pub fn with_slot_set(w: u32, slot: usize, member: bool) -> u32 {
        debug_assert!(slot < SLOTS);
        debug_assert_eq!(alloc_mask(w) & (1 << slot), 0);
        let mut w = w | (1 << slot);
        if member {
            w |= 1 << (14 + slot);
        }
        w.wrapping_add(1 << 28)
    }

    /// Clear `slot`'s alloc and membership bits, decrement the counter.
    #[inline]
    pub fn with_slot_cleared(w: u32, slot: usize) -> u32 {
        debug_assert!(slot < SLOTS);
        debug_assert_ne!(alloc_mask(w) & (1 << slot), 0);
        debug_assert!(count(w) > 0);
        (w & !(1 << slot) & !(1 << (14 + slot))).wrapping_sub(1 << 28)
    }
}

/// SWAR zero-byte detector. May report a false positive for the byte just
/// above a true zero byte; callers always confirm with a key comparison,
/// so false positives only cost an extra compare (the same contract as the
/// paper's SIMD fingerprint pre-filter).
#[inline]
fn zero_byte_flags(x: u64) -> u64 {
    x.wrapping_sub(0x0101_0101_0101_0101) & !x & 0x8080_8080_8080_8080
}

/// Slots (bitmask over 0..14) whose fingerprint byte equals `fp`.
#[inline]
pub(crate) fn fp_match_mask(fpw0: u64, fpw1: u64, fp: u8) -> u32 {
    let pat = u64::from(fp).wrapping_mul(0x0101_0101_0101_0101);
    let mut mask = 0u32;
    let mut flags = zero_byte_flags(fpw0 ^ pat);
    while flags != 0 {
        mask |= 1 << (flags.trailing_zeros() / 8);
        flags &= flags - 1;
    }
    // Bytes 6..8 of fpw1 are overflow metadata, not slot fingerprints:
    // force them to mismatch.
    let mut flags = zero_byte_flags((fpw1 ^ pat) | (0xFFFF << 48));
    while flags != 0 {
        mask |= 1 << (8 + flags.trailing_zeros() / 8);
        flags &= flags - 1;
    }
    mask
}

#[repr(C)]
pub(crate) struct RecordSlot {
    pub key: AtomicU64,
    pub value: AtomicU64,
}

/// The bucket itself. Lives in the pool; obtained via `PmemPool::at_ref`.
#[repr(C, align(64))]
pub(crate) struct Bucket {
    version_lock: AtomicU32,
    word: AtomicU32,
    fpw0: AtomicU64,
    fpw1: AtomicU64,
    ovf_fp: AtomicU32,
    ovf_aux: AtomicU32,
    pub records: [RecordSlot; SLOTS],
}

const _SIZE_OK: () = assert!(std::mem::size_of::<Bucket>() == BUCKET_SIZE);

impl Bucket {
    // ---- optimistic version lock (§4.4) -------------------------------

    /// Acquire the writer lock (spin). Debug builds panic on a hopeless
    /// spin (a leaked or crash-persisted lock) instead of hanging.
    pub fn lock(&self) {
        let mut spins = 0u64;
        loop {
            if self.try_lock() {
                return;
            }
            spins += 1;
            if cfg!(debug_assertions) && spins > 500_000_000 {
                panic!("bucket writer lock spin exceeded: lock word {:#x}", self.version());
            }
            std::hint::spin_loop();
        }
    }

    pub fn try_lock(&self) -> bool {
        let v = self.version_lock.load(Ordering::Acquire);
        v & LOCK_BIT == 0
            && self
                .version_lock
                .compare_exchange(v, v | LOCK_BIT, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
    }

    /// Release: clear the lock bit and advance the version in one store.
    pub fn unlock(&self) {
        let v = self.version_lock.load(Ordering::Relaxed);
        debug_assert_ne!(v & LOCK_BIT, 0, "unlock of unlocked bucket");
        self.version_lock.store((v & !LOCK_BIT).wrapping_add(1) & !LOCK_BIT, Ordering::Release);
    }

    /// Snapshot the lock word for later validation.
    #[inline]
    pub fn version(&self) -> u32 {
        self.version_lock.load(Ordering::Acquire)
    }

    #[inline]
    pub fn is_locked(v: u32) -> bool {
        v & LOCK_BIT != 0
    }

    /// Recovery: force-clear the lock (crashed holders, §4.8 step 1).
    pub fn force_clear_lock(&self) {
        self.version_lock.store(0, Ordering::Release);
    }

    // ---- pessimistic reader-writer spinlock (fig. 13 mode) -------------
    //
    // Reuses the same word: bit 31 = writer, bits 0..31 = reader count.
    // Reader lock/unlock dirties a PM cacheline — the PM-write traffic
    // that makes this mode stop scaling (§6.7).

    pub fn read_lock(&self, pool: &PmemPool) {
        loop {
            let v = self.version_lock.load(Ordering::Acquire);
            if v & LOCK_BIT == 0
                && self
                    .version_lock
                    .compare_exchange(v, v + 1, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                pool.note_pm_write(64);
                return;
            }
            std::hint::spin_loop();
        }
    }

    pub fn read_unlock(&self, pool: &PmemPool) {
        self.version_lock.fetch_sub(1, Ordering::Release);
        pool.note_pm_write(64);
    }

    /// Writer lock in pessimistic mode: wait for zero readers.
    pub fn write_lock_pessimistic(&self) {
        loop {
            if self
                .version_lock
                .compare_exchange(0, LOCK_BIT, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                return;
            }
            std::hint::spin_loop();
        }
    }

    pub fn write_unlock_pessimistic(&self) {
        self.version_lock.store(0, Ordering::Release);
    }

    // ---- probing --------------------------------------------------------

    #[inline]
    pub fn count(&self) -> u32 {
        word::count(self.word.load(Ordering::Acquire))
    }

    #[inline]
    pub fn is_full(&self) -> bool {
        self.count() as usize >= SLOTS
    }

    #[inline]
    pub fn free_slot(&self) -> Option<usize> {
        let alloc = word::alloc_mask(self.word.load(Ordering::Acquire));
        let free = !alloc & ((1 << SLOTS) - 1);
        if free == 0 {
            None
        } else {
            Some(free.trailing_zeros() as usize)
        }
    }

    /// Allocated slots whose fingerprint matches (all allocated slots when
    /// fingerprinting is disabled — the fig. 9 ablation).
    #[inline]
    pub fn fp_candidates(&self, fp: u8, use_fp: bool) -> u32 {
        let alloc = word::alloc_mask(self.word.load(Ordering::Acquire));
        if !use_fp {
            return alloc;
        }
        fp_match_mask(self.fpw0.load(Ordering::Acquire), self.fpw1.load(Ordering::Acquire), fp)
            & alloc
    }

    /// 64-byte line (0..4) holding record slot `i`. Records are 16 bytes at
    /// offset 32 + 16·i, so none straddles a line boundary.
    #[inline]
    fn line_of_slot(i: usize) -> u32 {
        ((RECORDS_OFFSET + i * 16) / 64) as u32
    }

    /// Search for `key`: the slot that holds it, with the key word that
    /// matched and the slot's value word.
    ///
    /// PM metering is line-granular (§2.1, §4.2): the probe always reads the
    /// 64-byte metadata line; each candidate slot it must compare adds that
    /// slot's record line. With fingerprints, a negative probe costs a single
    /// line; without them, the scan walks every allocated slot and pays for
    /// up to the whole 256-byte block. Continuation lines within the block
    /// are charged as bandwidth only — the media fetch latency is paid once
    /// per probe, matching DCPMM's internal 256-byte block buffering.
    pub fn search_key<K: KeyProbe + ?Sized>(
        &self,
        pool: &PmemPool,
        fp: u8,
        key: &K,
        use_fp: bool,
    ) -> Option<(usize, u64, u64)> {
        let mut m = self.fp_candidates(fp, use_fp);
        let mut lines: u32 = 0b0001; // metadata line, always touched
        let mut hit = None;
        while m != 0 {
            let i = m.trailing_zeros() as usize;
            m &= m - 1;
            lines |= 1 << Self::line_of_slot(i);
            let stored = self.records[i].key.load(Ordering::Acquire);
            if key.matches(pool, stored) {
                hit = Some((i, stored, self.records[i].value.load(Ordering::Acquire)));
                break;
            }
        }
        pool.note_pm_read(64 * lines.count_ones() as usize);
        hit
    }

    // ---- lookup hints (unmetered, read-only) ---------------------------

    /// Start loading all four cachelines of this bucket.
    #[inline]
    pub fn prefetch_lines(&self) {
        let base = (self as *const Bucket).cast::<u8>();
        for at in (0..BUCKET_SIZE).step_by(pmem::CACHELINE) {
            pmem::prefetch(base.wrapping_add(at));
        }
    }

    /// The `(key word, value word)` of every slot a probe for `fp` would
    /// compare. For hints only: no version check, no PM metering, and
    /// the words may be torn against a concurrent writer.
    #[inline]
    pub fn hint_candidates(&self, fp: u8, use_fp: bool, mut f: impl FnMut(u64, u64)) {
        let mut m = self.fp_candidates(fp, use_fp);
        while m != 0 {
            let (key, value) = self.record(m.trailing_zeros() as usize);
            m &= m - 1;
            f(key, value);
        }
    }

    #[inline]
    pub fn slot_fp(&self, slot: usize) -> u8 {
        if slot < 8 {
            (self.fpw0.load(Ordering::Acquire) >> (8 * slot)) as u8
        } else {
            (self.fpw1.load(Ordering::Acquire) >> (8 * (slot - 8))) as u8
        }
    }

    #[inline]
    pub fn record(&self, slot: usize) -> (u64, u64) {
        (
            self.records[slot].key.load(Ordering::Acquire),
            self.records[slot].value.load(Ordering::Acquire),
        )
    }

    #[inline]
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn slot_is_member(&self, slot: usize) -> bool {
        word::member_mask(self.word.load(Ordering::Acquire)) & (1 << slot) != 0
    }

    #[inline]
    pub fn alloc_mask(&self) -> u32 {
        word::alloc_mask(self.word.load(Ordering::Acquire))
    }

    #[inline]
    pub fn member_mask(&self) -> u32 {
        word::member_mask(self.word.load(Ordering::Acquire))
    }

    // ---- mutation (caller holds the bucket lock) -----------------------

    fn set_fp(&self, slot: usize, fp: u8) {
        if slot < 8 {
            let shift = 8 * slot;
            let w = self.fpw0.load(Ordering::Relaxed);
            self.fpw0
                .store((w & !(0xFFu64 << shift)) | (u64::from(fp) << shift), Ordering::Release);
        } else {
            let shift = 8 * (slot - 8);
            let w = self.fpw1.load(Ordering::Relaxed);
            self.fpw1
                .store((w & !(0xFFu64 << shift)) | (u64::from(fp) << shift), Ordering::Release);
        }
    }

    /// Insert a record into a free slot with the persistence protocol of
    /// Algorithm 2: record first (flush+fence), then fingerprint + word
    /// (alloc bit = commit point) in one flushed cacheline.
    #[allow(clippy::too_many_arguments)]
    pub fn insert_record(
        &self,
        pool: &PmemPool,
        self_off: PmOffset,
        key_repr: u64,
        value: u64,
        fp: u8,
        member: bool,
        use_fp: bool,
    ) -> Option<usize> {
        let slot = self.free_slot()?;
        self.records[slot].key.store(key_repr, Ordering::Relaxed);
        self.records[slot].value.store(value, Ordering::Relaxed);
        pool.flush(self_off.add((RECORDS_OFFSET + slot * 16) as u64), 16);
        pool.fence();
        if use_fp {
            self.set_fp(slot, fp);
        }
        let w = self.word.load(Ordering::Relaxed);
        self.word.store(word::with_slot_set(w, slot, member), Ordering::Release);
        // Fingerprint + bitmap + counter share the first 32 bytes (one
        // cacheline): a single flush persists them together.
        pool.flush(self_off, 32);
        pool.fence();
        Some(slot)
    }

    /// Delete by clearing the alloc bit (counter in the same word); the
    /// record bytes themselves stay as garbage.
    pub fn delete_slot(&self, pool: &PmemPool, self_off: PmOffset, slot: usize) {
        let w = self.word.load(Ordering::Relaxed);
        self.word.store(word::with_slot_cleared(w, slot), Ordering::Release);
        pool.flush(self_off, 32);
        pool.fence();
    }

    /// Overwrite a value in place; an 8-byte atomic, crash-consistent
    /// store (update operation).
    pub fn update_value(&self, pool: &PmemPool, self_off: PmOffset, slot: usize, value: u64) {
        self.records[slot].value.store(value, Ordering::Release);
        pool.persist(self_off.add((RECORDS_OFFSET + slot * 16 + 8) as u64), 8);
    }

    /// Replace a slot's key word in place with another representation of
    /// the same key: like [`Self::update_value`], one 8-byte atomic,
    /// crash-consistent store — the fingerprint and the value word stand.
    pub fn update_key(&self, pool: &PmemPool, self_off: PmOffset, slot: usize, key_repr: u64) {
        self.records[slot].key.store(key_repr, Ordering::Release);
        pool.persist(self_off.add((RECORDS_OFFSET + slot * 16) as u64), 8);
    }

    /// Pick a record to displace (§4.3): `member_set` selects records whose
    /// membership bit is set (can move back to their target bucket) or
    /// unset (can move forward to their probing bucket).
    pub fn displace_candidate(&self, member_set: bool) -> Option<usize> {
        let w = self.word.load(Ordering::Acquire);
        let alloc = word::alloc_mask(w);
        let mem = word::member_mask(w);
        let m = if member_set { alloc & mem } else { alloc & !mem };
        if m == 0 {
            None
        } else {
            Some(m.trailing_zeros() as usize)
        }
    }

    // ---- overflow metadata (§4.3) --------------------------------------
    //
    // Deliberately *not* persisted (the paper relies on lazy recovery to
    // rebuild it): no flushes below.

    #[inline]
    #[cfg_attr(not(test), allow(dead_code))]
    fn ovf_bitmap(&self) -> u8 {
        (self.fpw1.load(Ordering::Acquire) >> 48) as u8
    }

    /// Any record from this bucket has ever overflowed to the stash.
    #[inline]
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn has_overflow(&self) -> bool {
        self.ovf_bitmap() & 0x80 != 0 || self.ovf_count() > 0
    }

    #[inline]
    pub fn ovf_count(&self) -> u8 {
        (self.ovf_aux.load(Ordering::Acquire) >> 8) as u8
    }

    /// Register an overflow record's fingerprint. Returns false when all
    /// four slots are taken (caller falls back to the overflow counter).
    pub fn ovf_try_set(&self, fp: u8, stash_idx: usize, member: bool) -> bool {
        debug_assert!(stash_idx < 4);
        let w1 = self.fpw1.load(Ordering::Relaxed);
        let bitmap = ((w1 >> 48) & 0x0F) as u8;
        let free = (!bitmap) & 0x0F;
        if free == 0 {
            return false;
        }
        let j = free.trailing_zeros() as usize;
        // Fingerprint and stash index first...
        let of = self.ovf_fp.load(Ordering::Relaxed);
        let shift = 8 * j as u32;
        self.ovf_fp
            .store((of & !(0xFFu32 << shift)) | (u32::from(fp) << shift), Ordering::Release);
        let aux = self.ovf_aux.load(Ordering::Relaxed);
        let idx_shift = 2 * j as u32;
        self.ovf_aux.store(
            (aux & !(0b11u32 << idx_shift)) | ((stash_idx as u32) << idx_shift),
            Ordering::Release,
        );
        // ...then occupancy + membership + overflow bit in one store, so a
        // concurrent reader only sees fully formed entries.
        let mut nw1 = w1 | (1u64 << (48 + j)) | (1u64 << 55);
        if member {
            nw1 |= 1u64 << (56 + j);
        } else {
            nw1 &= !(1u64 << (56 + j));
        }
        self.fpw1.store(nw1, Ordering::Release);
        true
    }

    /// Matching overflow-fp slots for `fp` (bitmask over 0..4).
    pub fn ovf_matches(&self, fp: u8) -> u8 {
        let w1 = self.fpw1.load(Ordering::Acquire);
        let bitmap = ((w1 >> 48) & 0x0F) as u8;
        if bitmap == 0 {
            return 0;
        }
        let fps = self.ovf_fp.load(Ordering::Acquire);
        let mut m = 0u8;
        for j in 0..OVF_SLOTS {
            if bitmap & (1 << j) != 0 && ((fps >> (8 * j)) & 0xFF) as u8 == fp {
                m |= 1 << j;
            }
        }
        m
    }

    #[inline]
    pub fn ovf_slot_stash_idx(&self, j: usize) -> usize {
        ((self.ovf_aux.load(Ordering::Acquire) >> (2 * j)) & 0b11) as usize
    }

    #[inline]
    pub fn ovf_slot_member(&self, j: usize) -> bool {
        self.fpw1.load(Ordering::Acquire) >> (56 + j) & 1 == 1
    }

    /// Clear one overflow-fp slot (delete of a stash record).
    pub fn ovf_clear_slot(&self, j: usize) {
        let w1 = self.fpw1.load(Ordering::Relaxed);
        self.fpw1.store(w1 & !(1u64 << (48 + j)) & !(1u64 << (56 + j)), Ordering::Release);
    }

    pub fn ovf_count_inc(&self) {
        let aux = self.ovf_aux.load(Ordering::Relaxed);
        let c = ((aux >> 8) & 0xFF).saturating_add(1).min(0xFF);
        self.ovf_aux.store((aux & !(0xFFu32 << 8)) | (c << 8), Ordering::Release);
        // Overflow bit lives in fpw1; set it too.
        let w1 = self.fpw1.load(Ordering::Relaxed);
        self.fpw1.store(w1 | (1u64 << 55), Ordering::Release);
    }

    pub fn ovf_count_dec(&self) {
        let aux = self.ovf_aux.load(Ordering::Relaxed);
        let c = ((aux >> 8) & 0xFF).saturating_sub(1);
        self.ovf_aux.store((aux & !(0xFFu32 << 8)) | (c << 8), Ordering::Release);
    }

    /// Recovery (§4.8 step 3): wipe all overflow metadata before rebuild.
    pub fn clear_ovf_all(&self) {
        let w1 = self.fpw1.load(Ordering::Relaxed);
        self.fpw1.store(w1 & 0x0000_FFFF_FFFF_FFFF, Ordering::Release);
        self.ovf_fp.store(0, Ordering::Release);
        self.ovf_aux.store(0, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::PoolConfig;
    use std::sync::Arc;

    fn pool_with_bucket() -> (Arc<PmemPool>, PmOffset) {
        let pool = PmemPool::create(PoolConfig::with_size(1 << 20)).unwrap();
        let off = pool.alloc_zeroed(BUCKET_SIZE).unwrap();
        (pool, off)
    }

    fn bucket(pool: &PmemPool, off: PmOffset) -> &Bucket {
        // SAFETY: freshly allocated, zeroed, bucket-sized block.
        unsafe { pool.at_ref::<Bucket>(off) }
    }

    #[test]
    fn word_packing_roundtrip() {
        let mut w = 0u32;
        w = word::with_slot_set(w, 3, true);
        w = word::with_slot_set(w, 0, false);
        assert_eq!(word::alloc_mask(w), 0b1001);
        assert_eq!(word::member_mask(w), 0b1000);
        assert_eq!(word::count(w), 2);
        w = word::with_slot_cleared(w, 3);
        assert_eq!(word::alloc_mask(w), 0b0001);
        assert_eq!(word::member_mask(w), 0);
        assert_eq!(word::count(w), 1);
    }

    #[test]
    fn fp_match_mask_finds_all_slots() {
        for slot in 0..SLOTS {
            let (mut fpw0, mut fpw1) = (0u64, 0u64);
            let fp = 0xAB;
            if slot < 8 {
                fpw0 |= u64::from(fp) << (8 * slot);
            } else {
                fpw1 |= u64::from(fp) << (8 * (slot - 8));
            }
            let m = fp_match_mask(fpw0, fpw1, fp);
            assert_ne!(m & (1 << slot), 0, "slot {slot} must match");
        }
    }

    #[test]
    fn fp_match_mask_ignores_overflow_bytes() {
        // Put the pattern into the overflow-metadata bytes of fpw1: no
        // slot may match.
        let fpw1 = (0xABu64 << 48) | (0xABu64 << 56);
        assert_eq!(fp_match_mask(0, fpw1, 0xAB) & 0x3F00, 0);
    }

    #[test]
    fn zero_fp_does_not_match_empty_slots_via_alloc_mask() {
        let (pool, off) = pool_with_bucket();
        let b = bucket(&pool, off);
        // fingerprint bytes are all zero; a key with fp 0 must not probe
        // unallocated slots because candidates are masked by alloc bits.
        assert_eq!(b.fp_candidates(0, true), 0);
    }

    #[test]
    fn lock_unlock_bumps_version() {
        let (pool, off) = pool_with_bucket();
        let b = bucket(&pool, off);
        let v0 = b.version();
        b.lock();
        assert!(Bucket::is_locked(b.version()));
        assert!(!b.try_lock());
        b.unlock();
        let v1 = b.version();
        assert!(!Bucket::is_locked(v1));
        assert_ne!(v0, v1);
    }

    #[test]
    fn insert_search_delete_roundtrip() {
        let (pool, off) = pool_with_bucket();
        let b = bucket(&pool, off);
        let key = 42u64;
        let fp = 0x99;
        let slot = b.insert_record(&pool, off, key, 4242, fp, false, true).unwrap();
        assert_eq!(b.count(), 1);
        let (s, _, v) = b.search_key(&pool, fp, &key, true).unwrap();
        assert_eq!((s, v), (slot, 4242));
        assert!(b.search_key(&pool, fp, &43u64, true).is_none());
        b.delete_slot(&pool, off, slot);
        assert_eq!(b.count(), 0);
        assert!(b.search_key(&pool, fp, &key, true).is_none());
    }

    #[test]
    fn search_without_fingerprints_still_works() {
        let (pool, off) = pool_with_bucket();
        let b = bucket(&pool, off);
        b.insert_record(&pool, off, 7, 70, 0xAA, false, false).unwrap();
        assert_eq!(b.search_key(&pool, 0xAA, &7u64, false).unwrap().2, 70);
    }

    #[test]
    fn fills_to_fourteen() {
        let (pool, off) = pool_with_bucket();
        let b = bucket(&pool, off);
        for i in 0..SLOTS as u64 {
            assert!(b.insert_record(&pool, off, i, i, i as u8, false, true).is_some());
        }
        assert!(b.is_full());
        assert!(b.insert_record(&pool, off, 99, 99, 0x99, false, true).is_none());
    }

    #[test]
    fn update_value_in_place() {
        let (pool, off) = pool_with_bucket();
        let b = bucket(&pool, off);
        let slot = b.insert_record(&pool, off, 1, 10, 0x01, false, true).unwrap();
        b.update_value(&pool, off, slot, 20);
        assert_eq!(b.search_key(&pool, 0x01, &1u64, true).unwrap().2, 20);
        // The key word too: the slot, its fingerprint and its value stand.
        b.update_key(&pool, off, slot, 2);
        assert!(b.search_key(&pool, 0x01, &1u64, true).is_none());
        assert_eq!(b.search_key(&pool, 0x01, &2u64, true), Some((slot, 2, 20)));
    }

    #[test]
    fn displacement_candidates_respect_membership() {
        let (pool, off) = pool_with_bucket();
        let b = bucket(&pool, off);
        let s0 = b.insert_record(&pool, off, 1, 1, 1, false, true).unwrap();
        let s1 = b.insert_record(&pool, off, 2, 2, 2, true, true).unwrap();
        assert_eq!(b.displace_candidate(false), Some(s0));
        assert_eq!(b.displace_candidate(true), Some(s1));
        assert!(b.slot_is_member(s1));
        assert!(!b.slot_is_member(s0));
    }

    #[test]
    fn overflow_metadata_roundtrip() {
        let (pool, off) = pool_with_bucket();
        let b = bucket(&pool, off);
        assert!(!b.has_overflow());
        assert!(b.ovf_try_set(0x42, 1, false));
        assert!(b.ovf_try_set(0x42, 3, true));
        assert!(b.has_overflow());
        let m = b.ovf_matches(0x42);
        assert_eq!(m, 0b11);
        assert_eq!(b.ovf_slot_stash_idx(0), 1);
        assert_eq!(b.ovf_slot_stash_idx(1), 3);
        assert!(!b.ovf_slot_member(0));
        assert!(b.ovf_slot_member(1));
        assert_eq!(b.ovf_matches(0x43), 0);
        b.ovf_clear_slot(0);
        assert_eq!(b.ovf_matches(0x42), 0b10);
    }

    #[test]
    fn overflow_slots_exhaust_to_counter() {
        let (pool, off) = pool_with_bucket();
        let b = bucket(&pool, off);
        for j in 0..OVF_SLOTS {
            assert!(b.ovf_try_set(j as u8, j % 4, false));
        }
        assert!(!b.ovf_try_set(0xFF, 0, false), "fifth registration must fail");
        assert_eq!(b.ovf_count(), 0);
        b.ovf_count_inc();
        assert_eq!(b.ovf_count(), 1);
        assert!(b.has_overflow());
        b.ovf_count_dec();
        assert_eq!(b.ovf_count(), 0);
    }

    #[test]
    fn clear_ovf_resets_everything_but_fps() {
        let (pool, off) = pool_with_bucket();
        let b = bucket(&pool, off);
        b.insert_record(&pool, off, 5, 50, 0x55, false, true).unwrap();
        b.ovf_try_set(0x11, 2, true);
        b.ovf_count_inc();
        b.clear_ovf_all();
        assert!(!b.has_overflow());
        assert_eq!(b.ovf_count(), 0);
        assert_eq!(b.ovf_matches(0x11), 0);
        // Slot fingerprints survive.
        assert_eq!(b.search_key(&pool, 0x55, &5u64, true).unwrap().2, 50);
    }

    #[test]
    fn slot_fp_readback() {
        let (pool, off) = pool_with_bucket();
        let b = bucket(&pool, off);
        for i in 0..SLOTS as u64 {
            let slot = b.insert_record(&pool, off, i, i, (i as u8) ^ 0xC3, false, true).unwrap();
            assert_eq!(b.slot_fp(slot), (i as u8) ^ 0xC3);
        }
    }

    #[test]
    fn pessimistic_rwlock_counts_pm_writes() {
        let (pool, off) = pool_with_bucket();
        let b = bucket(&pool, off);
        let before = pool.stats();
        b.read_lock(&pool);
        b.read_lock(&pool);
        b.read_unlock(&pool);
        b.read_unlock(&pool);
        let d = pool.stats().since(&before);
        assert_eq!(d.pm_writes, 4, "each read lock/unlock is a PM write");
        b.write_lock_pessimistic();
        assert!(Bucket::is_locked(b.version()));
        b.write_unlock_pessimistic();
    }

    mod props {
        use super::super::*;
        use proptest::prelude::*;

        proptest! {
            /// The SWAR pre-filter may report false positives but NEVER a
            /// false negative: every slot whose fingerprint equals the
            /// probe byte must be in the mask.
            #[test]
            fn fp_match_has_no_false_negatives(fps in proptest::array::uniform16(any::<u8>()), probe: u8) {
                let mut fpw0 = 0u64;
                let mut fpw1 = 0u64;
                for (i, fp) in fps.iter().take(SLOTS).enumerate() {
                    if i < 8 {
                        fpw0 |= u64::from(*fp) << (8 * i);
                    } else {
                        fpw1 |= u64::from(*fp) << (8 * (i - 8));
                    }
                }
                let mask = fp_match_mask(fpw0, fpw1, probe);
                for (i, fp) in fps.iter().take(SLOTS).enumerate() {
                    if *fp == probe {
                        prop_assert_ne!(mask & (1 << i), 0, "slot {} missed", i);
                    }
                }
            }

            /// Word packing: any interleaving of sets and clears keeps the
            /// counter equal to the popcount of the alloc bitmap and the
            /// membership bitmap a subset of it.
            #[test]
            fn word_counter_tracks_popcount(ops in proptest::collection::vec((0usize..SLOTS, any::<bool>()), 0..64)) {
                let mut w = 0u32;
                for (slot, member) in ops {
                    if word::alloc_mask(w) & (1 << slot) == 0 {
                        w = word::with_slot_set(w, slot, member);
                    } else {
                        w = word::with_slot_cleared(w, slot);
                    }
                    prop_assert_eq!(word::count(w), word::alloc_mask(w).count_ones());
                    prop_assert_eq!(word::member_mask(w) & !word::alloc_mask(w), 0);
                }
            }

            /// Bucket search finds exactly the inserted keys, for any set
            /// of key/fingerprint pairs (incl. colliding fingerprints).
            #[test]
            fn bucket_search_exact(keys in proptest::collection::btree_set(any::<u64>(), 1..SLOTS)) {
                let pool = PmemPool::create(pmem::PoolConfig::with_size(1 << 20)).unwrap();
                let off = pool.alloc_zeroed(BUCKET_SIZE).unwrap();
                // SAFETY: fresh zeroed bucket.
                let b = unsafe { pool.at_ref::<Bucket>(off) };
                for (i, k) in keys.iter().enumerate() {
                    // Deliberately collide fingerprints across slots.
                    let fp = (i % 2) as u8;
                    b.insert_record(&pool, off, *k, k.wrapping_mul(3), fp, false, true).unwrap();
                }
                for (i, k) in keys.iter().enumerate() {
                    let fp = (i % 2) as u8;
                    let got = b.search_key(&pool, fp, k, true);
                    prop_assert_eq!(got.map(|(_, _, v)| v), Some(k.wrapping_mul(3)));
                }
                // A key not present must miss even when its fp collides.
                let absent = keys.iter().max().unwrap().wrapping_add(1);
                prop_assert!(b.search_key(&pool, 0, &absent, true).is_none());
            }
        }
    }

    #[test]
    fn negative_fp_probe_meters_one_line() {
        let (pool, off) = pool_with_bucket();
        let b = bucket(&pool, off);
        let before = pool.stats();
        let _ = b.search_key(&pool, 0x01, &1u64, true);
        let d = pool.stats().since(&before);
        assert_eq!(d.pm_reads, 1);
        assert_eq!(d.pm_read_bytes, 64, "no fp match: metadata line only");
    }

    #[test]
    fn blind_scan_of_full_bucket_meters_whole_block() {
        let (pool, off) = pool_with_bucket();
        let b = bucket(&pool, off);
        for i in 0..SLOTS as u64 {
            b.insert_record(&pool, off, i, i, i as u8, false, false).unwrap();
        }
        let before = pool.stats();
        let _ = b.search_key(&pool, 0xEE, &u64::MAX, false);
        let d = pool.stats().since(&before);
        assert_eq!(d.pm_read_bytes, BUCKET_SIZE as u64, "14 candidates touch all 4 lines");
    }

    #[test]
    fn positive_fp_probe_meters_metadata_plus_record_line() {
        let (pool, off) = pool_with_bucket();
        let b = bucket(&pool, off);
        // Slot 0 lives in the metadata line; slot 13 in the last line.
        for i in 0..SLOTS as u64 {
            b.insert_record(&pool, off, i, i * 10, 0xA0 | i as u8, false, true).unwrap();
        }
        let before = pool.stats();
        assert_eq!(b.search_key(&pool, 0xA0, &0u64, true).unwrap().2, 0);
        let d = pool.stats().since(&before);
        assert_eq!(d.pm_read_bytes, 64, "slot 0 shares the metadata line");
        let before = pool.stats();
        assert_eq!(b.search_key(&pool, 0xAD, &13u64, true).unwrap().2, 130);
        let d = pool.stats().since(&before);
        assert_eq!(d.pm_read_bytes, 128, "slot 13 adds exactly one more line");
    }
}
