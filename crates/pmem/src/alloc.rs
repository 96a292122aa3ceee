//! The pool's allocator: size-class free lists over a bump pointer.
//!
//! **The class rule.** Block sizes come four to a doubling — 32, 48, then
//! `2^k · {1, 1¼, 1½, 1¾}` for every `2^k` from 64 B up to the single
//! 64 MiB class that ends the table: 64, 80, 96, 112, 128, 160, 192, 224,
//! 256, 320 … Every class is a multiple of 16, and of 64 from 256 up. A
//! request is rounded up to the next class, so a block wastes under a
//! quarter of the request above 64 B (about a tenth on average) where
//! power-of-two classes waste up to all of it again. The table is
//! persistent state — `PoolHeader::free_heads` is indexed by class and
//! `InflightEntry::class` stores one — so changing it changes the pool
//! format (`pool::MAGIC` carries the stamp).
//!
//! **The alignment rule.** A fresh block is aligned to the largest power
//! of two dividing its class size, capped at 64. 64 is enough because it
//! is the most anything stored in a pool asks for: segments, buckets and
//! stash nodes are `#[repr(align(64))]` and their sizes are multiples of
//! 64, so their classes are too; everything else (directories, roots, key
//! blobs, the server's 16-aligned record header) needs 8 or 16, which
//! every class gives. Aligning a block to its own size instead — what a
//! buddy allocator needs and this one never did — skips up to a block's
//! worth of pool before every block larger than its predecessor, space
//! that is on no free list and can never be handed out.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::error::{PmError, Result};
use crate::layout::{align_up, PmOffset, CACHELINE};
use crate::pool::{PmemPool, MAX_INFLIGHT};

/// The two classes below the first four-to-a-doubling group: 32 and 48.
const SMALL_CLASSES: usize = 2;
/// `log2` of the first class with quarter steps (64 B) and of the last
/// class (64 MiB).
const MIN_QUARTERED_SHIFT: u32 = 6;
const MAX_CLASS_SHIFT: u32 = 26;
/// 32, 48, four classes for each of the 20 doublings 64 B .. 32 MiB, and
/// 64 MiB: 83 classes.
pub(crate) const NUM_CLASSES: usize =
    SMALL_CLASSES + 4 * (MAX_CLASS_SHIFT - MIN_QUARTERED_SHIFT) as usize + 1;

/// Allocator behaviour, for the fig. 15 PM-software-infrastructure study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocMode {
    /// PMDK-like allocator: each allocation pays the cost model's
    /// `alloc_latency_ns` (page faults, heap bookkeeping).
    Pmdk,
    /// Pre-faulting custom allocator (§6.9): allocation cost removed.
    Prefault,
}

/// Size class for an allocation of `size` bytes: the smallest class that
/// holds it.
#[inline]
pub(crate) fn size_class(size: usize) -> Result<usize> {
    if size <= 64 {
        return Ok(if size <= 32 { 0 } else { size.div_ceil(16) - 2 });
    }
    // 2^e < size <= 2^(e+1), e >= 6: the class is 2^e plus 1..=4 quarters.
    let e = usize::BITS - 1 - (size - 1).leading_zeros();
    let quarters = (size - (1 << e)).div_ceil(1 << (e - 2));
    let class = SMALL_CLASSES + 4 * (e - MIN_QUARTERED_SHIFT) as usize + quarters;
    if class >= NUM_CLASSES {
        return Err(PmError::OutOfMemory { requested: size });
    }
    Ok(class)
}

/// Block size of a class.
#[inline]
pub(crate) fn class_size(class: usize) -> usize {
    if class < SMALL_CLASSES {
        return 32 + 16 * class;
    }
    let c = class - SMALL_CLASSES;
    (4 + c % 4) << (MIN_QUARTERED_SHIFT as usize - 2 + c / 4)
}

/// The bytes of pool an allocation of `size` occupies — its class's whole
/// block, which is what [`PmemPool::mem_used`] is charged and a free
/// returns (0 if `size` is beyond the largest class).
#[inline]
pub fn block_bytes(size: usize) -> u64 {
    size_class(size).map(|c| class_size(c) as u64).unwrap_or(0)
}

/// A pending allocate–activate sequence (PMDK's "reserve, initialize,
/// publish" pattern, §2.3/§4.7). Holding a ticket means the block is
/// registered in the persistent in-flight table: after a crash it is
/// returned to the allocator unless the owner slot was published.
#[must_use = "commit or abort the allocation"]
pub struct AllocTicket {
    pub block: PmOffset,
    pub(crate) owner_slot: PmOffset,
    pub(crate) entry: usize,
    pub(crate) class: usize,
}

impl PmemPool {
    /// Allocate `size` bytes (rounded up to its size class).
    /// The returned block may contain stale data from a previous life;
    /// callers initialize and persist it before publishing.
    pub fn alloc(&self, size: usize) -> Result<PmOffset> {
        let class = size_class(size)?;
        self.note_alloc_event();
        if let Some(off) = self.pop_free(class) {
            return Ok(off);
        }
        self.bump_alloc(class)
    }

    /// Allocate and zero.
    pub fn alloc_zeroed(&self, size: usize) -> Result<PmOffset> {
        let off = self.alloc(size)?;
        self.zero(off, class_size(size_class(size)?));
        Ok(off)
    }

    fn bump_alloc(&self, class: usize) -> Result<PmOffset> {
        let block = class_size(class);
        self.note_fresh_alloc(block);
        let align = (1u64 << block.trailing_zeros()).min(CACHELINE as u64);
        let h = self.header();
        let mut cur = h.bump.load(Ordering::Relaxed);
        loop {
            let start = align_up(cur, align);
            let end = start + block as u64;
            if end > self.size() as u64 {
                return Err(PmError::OutOfMemory { requested: block });
            }
            match h.bump.compare_exchange_weak(cur, end, Ordering::SeqCst, Ordering::Relaxed) {
                Ok(_) => {
                    // Persist the bump pointer before the block is used so a
                    // crash can never hand the same space out twice. The
                    // line content is monotone (bump only grows), so any
                    // later flush also covers us.
                    let field = self.offset_of(&h.bump);
                    self.persist(field, 8);
                    return Ok(PmOffset::new(start));
                }
                Err(v) => cur = v,
            }
        }
    }

    fn pop_free(&self, class: usize) -> Option<PmOffset> {
        let h = self.header();
        let head_field = &h.free_heads[class];
        if head_field.load(Ordering::Relaxed) == 0 {
            return None;
        }
        let _g = self.class_locks[class].lock();
        let head = head_field.load(Ordering::Relaxed);
        if head == 0 {
            return None;
        }
        let off = PmOffset::new(head);
        // SAFETY: free blocks store their next pointer in their first word.
        let next = unsafe { (*self.at::<AtomicU64>(off)).load(Ordering::Relaxed) };
        head_field.store(next, Ordering::SeqCst);
        self.persist(self.offset_of(head_field), 8);
        self.free_list_bytes.fetch_sub(class_size(class) as u64, Ordering::Relaxed);
        Some(off)
    }

    /// Sum the bytes currently on the per-class free lists by walking
    /// them (open-time seeding of the volatile gauge; single-threaded).
    pub(crate) fn walk_free_lists(&self) -> u64 {
        let h = self.header();
        let mut bytes = 0u64;
        for class in 0..NUM_CLASSES {
            let block = class_size(class) as u64;
            // A list can hold at most pool/block blocks; bound the walk
            // so a corrupt next pointer cannot loop forever.
            let mut budget = self.size() as u64 / block + 1;
            let mut head = h.free_heads[class].load(Ordering::Relaxed);
            while head != 0 && budget > 0 {
                if head as usize + 8 > self.size() {
                    break; // corrupt tail; count what we saw
                }
                bytes += block;
                budget -= 1;
                // SAFETY: bounds checked above.
                head = unsafe { (*self.at::<AtomicU64>(PmOffset::new(head))).load(Ordering::Relaxed) };
            }
        }
        bytes
    }

    /// Return a block to its size-class free list. The caller must ensure
    /// no thread can still reach the block (use [`PmemPool::defer_free`]
    /// when optimistic readers may hold references).
    pub fn free_now(&self, off: PmOffset, size: usize) {
        let class = match size_class(size) {
            Ok(c) => c,
            Err(_) => return,
        };
        self.note_free_event();
        let h = self.header();
        let head_field = &h.free_heads[class];
        let _g = self.class_locks[class].lock();
        let head = head_field.load(Ordering::Relaxed);
        // SAFETY: block is exclusively owned by the allocator now.
        unsafe { (*self.at::<AtomicU64>(off)).store(head, Ordering::Relaxed) };
        self.persist(off, 8);
        head_field.store(off.get(), Ordering::SeqCst);
        self.persist(self.offset_of(head_field), 8);
        self.free_list_bytes.fetch_add(class_size(class) as u64, Ordering::Relaxed);
        // If a crash lands between the two persists the block is leaked
        // (not corrupted) — same bounded window PMDK's allocator closes
        // with an internal redo; acceptable for this emulation and noted
        // in DESIGN.md.
    }

    /// Begin a crash-safe allocate–activate sequence: the new block is
    /// registered in the in-flight table against `owner_slot` (an 8-byte
    /// pool location that will point to the block once published).
    pub fn prepare_alloc(&self, size: usize, owner_slot: PmOffset) -> Result<AllocTicket> {
        let class = size_class(size)?;
        let block = self.alloc(size)?;
        let h = self.header();
        for (i, e) in h.inflight.iter().enumerate() {
            if e.block
                .compare_exchange(0, block.get(), Ordering::SeqCst, Ordering::Relaxed)
                .is_ok()
            {
                e.owner_slot.store(owner_slot.get(), Ordering::Relaxed);
                e.class.store(class as u64, Ordering::Relaxed);
                self.persist(self.offset_of(e), std::mem::size_of_val(e));
                return Ok(AllocTicket { block, owner_slot, entry: i, class });
            }
        }
        self.free_now(block, class_size(class));
        Err(PmError::TooManyInflightAllocs)
    }

    /// Publish the block into its owner slot (atomically, persisted) and
    /// retire the in-flight entry. After this the application owns it.
    pub fn commit_alloc(&self, ticket: AllocTicket) {
        // SAFETY: owner_slot is a valid 8-byte slot per prepare contract.
        unsafe {
            (*self.at::<AtomicU64>(ticket.owner_slot)).store(ticket.block.get(), Ordering::Release)
        };
        self.persist(ticket.owner_slot, 8);
        let e = &self.header().inflight[ticket.entry];
        e.block.store(0, Ordering::SeqCst);
        self.persist(self.offset_of(e), 8);
    }

    /// Abort: the block returns to the allocator.
    pub fn abort_alloc(&self, ticket: AllocTicket) {
        self.free_now(ticket.block, class_size(ticket.class));
        let e = &self.header().inflight[ticket.entry];
        e.block.store(0, Ordering::SeqCst);
        self.persist(self.offset_of(e), 8);
    }

    /// Recovery: resolve in-flight allocations. If the owner slot points
    /// at the block the allocation completed; otherwise the block goes
    /// back to the allocator. Either way nothing leaks.
    pub(crate) fn recover_inflight(&self) -> usize {
        let h = self.header();
        let mut resolved = 0;
        for i in 0..MAX_INFLIGHT {
            let e = &h.inflight[i];
            let block = e.block.load(Ordering::Relaxed);
            if block == 0 {
                continue;
            }
            resolved += 1;
            let owner_slot = PmOffset::new(e.owner_slot.load(Ordering::Relaxed));
            let published = !owner_slot.is_null()
                && owner_slot.get() as usize + 8 <= self.size()
                // SAFETY: bounds checked above.
                && unsafe { (*self.at::<AtomicU64>(owner_slot)).load(Ordering::Relaxed) } == block;
            if !published {
                let class = e.class.load(Ordering::Relaxed) as usize;
                self.free_now(PmOffset::new(block), class_size(class.min(NUM_CLASSES - 1)));
            }
            e.block.store(0, Ordering::Relaxed);
            self.persist(self.offset_of(e), 8);
        }
        resolved
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::PoolConfig;

    fn pool() -> std::sync::Arc<PmemPool> {
        PmemPool::create(PoolConfig { size: 1 << 20, ..Default::default() }).unwrap()
    }

    /// The class table's contract, over every size to 64 KiB and a
    /// sample of the sizes up to the 64 MiB limit.
    #[test]
    fn size_classes() {
        let sampled = (16..=26u32).flat_map(|k| {
            let p = 1usize << k;
            [p - 1, p, p + 1, p + p / 4, p + p / 4 + 1, p + p / 2 - 1, p + p / 3]
        });
        for s in (1..=64usize << 10).chain(sampled).filter(|&s| s <= 64 << 20) {
            let block = class_size(size_class(s).unwrap());
            assert!(block >= s, "{s} B does not fit its {block} B class");
            assert_eq!(block_bytes(s), block as u64);
            if s > 64 {
                assert!((block - s) * 4 <= s, "{s} B wastes over 25 % of itself in {block} B");
            }
        }
        assert_eq!(class_size(0), 32);
        assert_eq!(class_size(NUM_CLASSES - 1), 64 << 20);
        for c in 0..NUM_CLASSES {
            let block = class_size(c);
            assert_eq!(size_class(block).unwrap(), c, "class {c} ({block} B) is its own class");
            assert_eq!(block % 16, 0, "class {c} ({block} B)");
            assert!(block < 256 || block.is_multiple_of(64), "class {c} ({block} B)");
            assert!(c == 0 || class_size(c - 1) < block, "class {c} ({block} B) must grow");
        }
        assert!(size_class((64 << 20) + 1).is_err());
        assert!(size_class(1 << 30).is_err());
        assert_eq!(block_bytes(1 << 30), 0);
    }

    /// Every block is 16-aligned, and 64-aligned when its class is a
    /// multiple of 64 — whatever was allocated before it.
    #[test]
    fn blocks_are_aligned_to_what_their_class_divides() {
        let p = PmemPool::create(PoolConfig { size: 4 << 20, ..Default::default() }).unwrap();
        // A Dash segment, a stash node, a bucket, a cacheline; and sizes
        // whose classes (48, 80, 112, 160, 224) are not multiples of 64.
        for size in [16_960, 40, 320, 72, 256, 100, 64, 150, 16_960, 200, 320, 24] {
            let off = p.alloc(size).unwrap().get();
            let block = block_bytes(size);
            assert_eq!(off % 16, 0, "{size} B at {off:#x}");
            if block.is_multiple_of(64) {
                assert_eq!(off % 64, 0, "{size} B ({block} B class) at {off:#x}");
            }
        }
    }

    /// A small block followed by a large one costs the two blocks and at
    /// most one alignment pad below 64 — not the large block's size again
    /// (24 B + 528 B took 32 + 992 + 1024 when blocks aligned to their
    /// own power-of-two size).
    #[test]
    fn interleaved_small_and_large_blocks_pack() {
        let p = pool();
        for _ in 0..100 {
            let before = p.bump_used();
            let (small, large) = (p.alloc(24).unwrap(), p.alloc(528).unwrap());
            assert!(small.get() + 32 <= large.get());
            let took = p.bump_used() - before;
            assert!(took <= 32 + 640 + 63, "a 24 B + 528 B pair took {took} B of pool");
        }
    }

    #[test]
    fn alloc_distinct_and_aligned() {
        let p = pool();
        let a = p.alloc(256).unwrap();
        let b = p.alloc(256).unwrap();
        assert_ne!(a, b);
        assert_eq!(a.get() % 64, 0);
        assert_eq!(b.get() % 64, 0);
    }

    /// A freed block serves any later request of its class, and no
    /// request of a neighbouring class.
    #[test]
    fn free_list_reuse() {
        let p = pool();
        for (freed, same_class, next_class) in [(256, 225, 257), (81, 96, 97), (640, 513, 512)] {
            let a = p.alloc(freed).unwrap();
            p.free_now(a, freed);
            assert_ne!(p.alloc(next_class).unwrap(), a, "{next_class} B is another class");
            assert_eq!(p.alloc(same_class).unwrap(), a, "{same_class} B recycles a {freed} B block");
        }
    }

    #[test]
    fn oom_reported() {
        let p = PmemPool::create(PoolConfig { size: 64 * 1024, ..Default::default() }).unwrap();
        let mut n = 0;
        loop {
            match p.alloc(4096) {
                Ok(_) => n += 1,
                Err(PmError::OutOfMemory { .. }) => break,
                Err(e) => panic!("unexpected error {e}"),
            }
            assert!(n < 100);
        }
        assert!(n >= 10);
    }

    #[test]
    fn allocate_activate_commit_survives_crash() {
        let cfg = PoolConfig { size: 1 << 20, shadow: true, ..Default::default() };
        let p = PmemPool::create(cfg).unwrap();
        let slot = p.alloc(8).unwrap();
        p.zero(slot, 8);
        p.persist(slot, 8);
        let ticket = p.prepare_alloc(1024, slot).unwrap();
        let block = ticket.block;
        p.commit_alloc(ticket);
        let img = p.crash_image();
        let p2 = PmemPool::open(img, cfg).unwrap();
        // Owner slot still points at the block; allocator did not reclaim.
        let owner = unsafe { (*p2.at::<AtomicU64>(slot)).load(Ordering::Relaxed) };
        assert_eq!(owner, block.get());
        assert_eq!(p2.recovery_outcome().inflight_resolved, 0);
    }

    #[test]
    fn allocate_activate_uncommitted_is_reclaimed() {
        let cfg = PoolConfig { size: 1 << 20, shadow: true, ..Default::default() };
        let p = PmemPool::create(cfg).unwrap();
        let slot = p.alloc(8).unwrap();
        p.zero(slot, 8);
        p.persist(slot, 8);
        let ticket = p.prepare_alloc(1024, slot).unwrap();
        let block = ticket.block;
        #[allow(clippy::forget_non_drop)] // simulate a crash before commit, even if AllocTicket grows a Drop impl
        std::mem::forget(ticket);
        let img = p.crash_image();
        let p2 = PmemPool::open(img, cfg).unwrap();
        assert_eq!(p2.recovery_outcome().inflight_resolved, 1);
        let owner = unsafe { (*p2.at::<AtomicU64>(slot)).load(Ordering::Relaxed) };
        assert_eq!(owner, 0, "publication never persisted");
        // And the block is back on a free list: allocating the same class
        // returns it.
        let again = p2.alloc(1024).unwrap();
        assert_eq!(again, block, "block must be reclaimed, not leaked");
    }

    #[test]
    fn abort_returns_block() {
        let p = pool();
        let slot = p.alloc(8).unwrap();
        let t = p.prepare_alloc(512, slot).unwrap();
        let block = t.block;
        p.abort_alloc(t);
        assert_eq!(p.alloc(512).unwrap(), block);
    }

    #[test]
    fn concurrent_alloc_unique_blocks() {
        let p = PmemPool::create(PoolConfig { size: 8 << 20, ..Default::default() }).unwrap();
        let mut handles = Vec::new();
        for _ in 0..8 {
            let p = p.clone();
            handles.push(std::thread::spawn(move || {
                (0..200).map(|_| p.alloc(128).unwrap().get()).collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<u64> = handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "no block handed out twice");
    }
}
