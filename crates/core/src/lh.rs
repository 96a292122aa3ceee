//! Dash-LH: Dash-enabled linear hashing (§5).
//!
//! Segments are organized in arrays indexed by a tiny directory with
//! *hybrid expansion* (§5.2): the first `stride` directory entries point
//! at arrays of `lh_first_array` segments, the next `stride` at arrays
//! twice that size, and so on — TB-scale data with an L1-resident
//! directory. `N` (round) and `Next` (next segment to split) are packed
//! into one persistent 8-byte word updated atomically (§5.3).
//!
//! Splits are decoupled as in LHlf: growing the table only advances
//! `Next`; whichever thread next touches a segment that should be split
//! performs the split, so splits proceed in parallel. A segment split is
//! triggered whenever an insert has to allocate a chained stash bucket
//! (§5.1) — Dash-LH never refuses an insert; overflow chains absorb the
//! burst and the split drains them.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dash_common::{Key, PmHashTable, ScanCursor, ScanPage, TableError, TableResult};
use parking_lot::Mutex;
use pmem::{PmOffset, PmemPool};

use crate::config::DashConfig;
use crate::segment::{
    SegFind, SegGeom, SegInsert, SegMutate, SegView, SegmentHeader, LH_LEVEL_UNSET, STATE_NEW,
    STATE_NORMAL, STATE_SPLITTING,
};

const LH_MAGIC: u64 = 0xDA58_0702_0000_0001;
/// Directory entries; with the default geometry this addresses ~2 TB.
const LH_DIR_ENTRIES: usize = 64;

/// Persistent root object of a Dash-LH table.
#[repr(C)]
struct LhRoot {
    magic: AtomicU64,
    flags: AtomicU64,
    /// a0 (bits 0..32) | stride (bits 32..48).
    lh_params: AtomicU64,
    /// N (bits 32..64) | Next (bits 0..32), §5.3.
    meta: AtomicU64,
    dir: [AtomicU64; LH_DIR_ENTRIES],
}

#[inline]
fn pack_meta(level: u32, next: u32) -> u64 {
    (u64::from(level) << 32) | u64::from(next)
}

#[inline]
fn unpack_meta(m: u64) -> (u32, u32) {
    ((m >> 32) as u32, m as u32)
}

/// Dash linear hashing over an emulated PM pool.
pub struct DashLh<K: Key = u64> {
    pool: Arc<PmemPool>,
    root: PmOffset,
    cfg: DashConfig,
    geom: SegGeom,
    a0: u64,
    stride: u64,
    /// Volatile lock serializing segment-array allocation.
    alloc_lock: Mutex<()>,
    _k: PhantomData<fn(K) -> K>,
}

impl<K: Key> DashLh<K> {
    pub fn create(pool: Arc<PmemPool>, cfg: DashConfig) -> TableResult<Self> {
        cfg.validate().map_err(|_| TableError::Pm(pmem::PmError::InvalidConfig("dash config")))?;
        if cfg.stash_buckets == 0 {
            return Err(TableError::Pm(pmem::PmError::InvalidConfig(
                "Dash-LH requires at least one stash bucket (chained stash anchor)",
            )));
        }
        let geom = SegGeom::from_cfg(&cfg);
        let a0 = u64::from(cfg.lh_first_array);
        let stride = u64::from(cfg.lh_stride);
        let v = pool.global_version();

        let root = pool.alloc_zeroed(std::mem::size_of::<LhRoot>())?;
        let table = DashLh {
            pool,
            root,
            cfg,
            geom,
            a0,
            stride,
            alloc_lock: Mutex::new(()),
            _k: PhantomData,
        };
        let rootref = table.rootref();
        rootref.magic.store(LH_MAGIC, Ordering::Relaxed);
        rootref.flags.store(cfg.to_flags(), Ordering::Relaxed);
        rootref.lh_params.store(a0 | (stride << 32), Ordering::Relaxed);
        rootref.meta.store(pack_meta(0, 0), Ordering::Relaxed);
        table.pool.persist(root, std::mem::size_of::<LhRoot>());

        // Allocate the first segment array; its segments start live at
        // level 0.
        table.ensure_array(0)?;
        for idx in 0..a0 {
            let seg = table.seg_offset(idx);
            let view = table.view(seg);
            view.header().lh_level.store(0, Ordering::Release);
            view.header().rec_version.store(v, Ordering::Release);
            table.pool.persist(seg, 64);
        }
        table.pool.persist(root, std::mem::size_of::<LhRoot>());
        table.pool.set_root(root);
        Ok(table)
    }

    pub fn open(pool: Arc<PmemPool>) -> TableResult<Self> {
        let root = pool.root();
        if root.is_null() {
            return Err(TableError::Pm(pmem::PmError::PoolCorrupt("no root object")));
        }
        // SAFETY: root published by create().
        let rootref = unsafe { pool.at_ref::<LhRoot>(root) };
        if rootref.magic.load(Ordering::Relaxed) != LH_MAGIC {
            return Err(TableError::Pm(pmem::PmError::PoolCorrupt("not a Dash-LH root")));
        }
        let params = rootref.lh_params.load(Ordering::Relaxed);
        let (a0, stride) = (params & 0xFFFF_FFFF, params >> 32);
        let cfg = DashConfig::from_flags(rootref.flags.load(Ordering::Relaxed), a0 as u32, stride as u32);
        let geom = SegGeom::from_cfg(&cfg);
        let table =
            DashLh { pool, root, cfg, geom, a0, stride, alloc_lock: Mutex::new(()), _k: PhantomData };
        if table.pool.recovery_outcome().wrapped {
            let (count, _) = table.addressable();
            for idx in 0..count {
                let view = table.view(table.seg_offset(idx));
                view.header().rec_version.store(0, Ordering::Release);
            }
        }
        Ok(table)
    }

    pub fn config(&self) -> &DashConfig {
        &self.cfg
    }

    pub fn pool(&self) -> &Arc<PmemPool> {
        &self.pool
    }

    fn rootref(&self) -> &LhRoot {
        // SAFETY: validated at create/open.
        unsafe { self.pool.at_ref::<LhRoot>(self.root) }
    }

    fn view(&self, seg: PmOffset) -> SegView<'_> {
        SegView::new(&self.pool, seg, self.geom)
    }

    // ---- hybrid-expansion directory (§5.2) ------------------------------

    /// Map a segment index to (directory entry, slot within its array).
    fn entry_of(&self, idx: u64) -> (usize, u64) {
        let mut g = 0u32;
        let mut before = 0u64;
        loop {
            let asize = self.a0 << g;
            let group_total = self.stride * asize;
            if idx < before + group_total {
                let rel = idx - before;
                return ((g as u64 * self.stride + rel / asize) as usize, rel % asize);
            }
            before += group_total;
            g += 1;
        }
    }

    /// Array size for a directory entry.
    fn array_len(&self, entry: usize) -> u64 {
        self.a0 << (entry as u64 / self.stride)
    }

    /// First segment index covered by a directory entry.
    fn entry_base(&self, entry: usize) -> u64 {
        let g = entry as u64 / self.stride;
        let before_group = self.a0 * self.stride * ((1u64 << g) - 1);
        before_group + (entry as u64 % self.stride) * (self.a0 << g)
    }

    /// Allocate (if needed) the segment array backing `entry`.
    fn ensure_array(&self, entry: usize) -> TableResult<()> {
        if entry >= LH_DIR_ENTRIES {
            return Err(TableError::CapacityExhausted);
        }
        let rootref = self.rootref();
        if rootref.dir[entry].load(Ordering::Acquire) != 0 {
            return Ok(());
        }
        let _g = self.alloc_lock.lock();
        if rootref.dir[entry].load(Ordering::Acquire) != 0 {
            return Ok(());
        }
        let len = self.array_len(entry);
        let bytes = len as usize * self.geom.bytes();
        let slot = self.pool.offset_of(&rootref.dir[entry]);
        let ticket = self.pool.prepare_alloc(bytes, slot)?;
        let base = ticket.block;
        let v = self.pool.global_version();
        let idx_base = self.entry_base(entry);
        for i in 0..len {
            let seg = base.add(i * self.geom.bytes() as u64);
            let view = self.view(seg);
            view.init(
                STATE_NORMAL,
                0,
                idx_base + i,
                PmOffset::NULL,
                PmOffset::NULL,
                v,
                LH_LEVEL_UNSET,
            );
        }
        self.pool.commit_alloc(ticket);
        Ok(())
    }

    fn seg_offset(&self, idx: u64) -> PmOffset {
        let (entry, slot) = self.entry_of(idx);
        let base = self.rootref().dir[entry].load(Ordering::Acquire);
        debug_assert_ne!(base, 0, "array for segment {idx} not allocated");
        PmOffset::new(base).add(slot * self.geom.bytes() as u64)
    }

    // ---- linear-hashing addressing (§2.2, §5.3) ---------------------------

    #[inline]
    fn meta(&self) -> (u32, u32) {
        unpack_meta(self.rootref().meta.load(Ordering::Acquire))
    }

    /// Segment index for hash `h` under `(level, next)`.
    fn seg_index(&self, h: u64, level: u32, next: u32) -> u64 {
        let shift = self.geom.seg_shift();
        let sn = self.a0 << level;
        let mut idx = (h >> shift) & (sn - 1);
        if idx < u64::from(next) {
            idx = (h >> shift) & (2 * sn - 1);
        }
        idx
    }

    /// The level a segment's records must be at for current `(level,
    /// next)` addressing to be correct.
    fn expected_level(&self, idx: u64, level: u32, next: u32) -> u32 {
        let sn = self.a0 << level;
        if idx >= sn || idx < u64::from(next) {
            level + 1
        } else {
            level
        }
    }

    /// Addressable segments: sources of this round plus already-created
    /// buddies (`Next` of them).
    fn addressable(&self) -> (u64, u32) {
        let (level, next) = self.meta();
        ((self.a0 << level) + u64::from(next), level)
    }

    /// Resolve the segment for `h`, performing the lazy-recovery gate and
    /// any pending split this access is responsible for (LHlf rule).
    fn resolve(&self, h: u64) -> TableResult<(u64, PmOffset)> {
        let mut spins = 0u64;
        loop {
            // Livelock guard (debug builds): resolution must converge in a
            // handful of iterations; dump state if it does not.
            spins += 1;
            if cfg!(debug_assertions) && spins > 300 {
                let (level, next) = self.meta();
                let idx = self.seg_index(h, level, next);
                let hdr = unsafe { self.pool.at_ref::<SegmentHeader>(self.seg_offset(idx)) };
                panic!(
                    "Dash-LH resolve livelock: h={h:#x} idx={idx} meta=({level},{next}) \
                     lh_level={} state={} rec_version={} (pool v={})",
                    hdr.lh_level.load(Ordering::Relaxed),
                    hdr.state.load(Ordering::Relaxed),
                    hdr.rec_version.load(Ordering::Relaxed),
                    self.pool.global_version(),
                );
            }
            let (level, next) = self.meta();
            let idx = self.seg_index(h, level, next);
            let seg = self.seg_offset(idx);
            let v = self.pool.global_version();
            let hdr = unsafe { self.pool.at_ref::<SegmentHeader>(seg) };
            if hdr.rec_version.load(Ordering::Acquire) != v {
                self.recover_segment(seg);
                continue;
            }
            let lvl = hdr.lh_level.load(Ordering::Acquire);
            let expected = self.expected_level(idx, level, next);
            if lvl == expected {
                return Ok((idx, seg));
            }
            if lvl != LH_LEVEL_UNSET && lvl > expected {
                // The segment's level persisted but the (N, Next) advance
                // that caused its split was lost to a crash: roll the
                // meta word forward (splits happen strictly in Next
                // order, so Next was at least idx+1 before the crash).
                self.roll_forward_meta(idx, level, next);
                continue;
            }
            // This segment lags: perform its pending split(s) first.
            self.perform_pending_split(idx, lvl)?;
        }
    }

    fn roll_forward_meta(&self, idx: u64, level: u32, next: u32) {
        let rootref = self.rootref();
        let sn = self.a0 << level;
        let new = if idx + 1 >= sn { pack_meta(level + 1, 0) } else { pack_meta(level, idx as u32 + 1) };
        let cur = pack_meta(level, next);
        if rootref
            .meta
            .compare_exchange(cur, new, Ordering::SeqCst, Ordering::Relaxed)
            .is_ok()
        {
            self.pool.persist(self.pool.offset_of(&rootref.meta), 8);
        }
    }

    /// Execute the pending split that blocks access to segment `idx`.
    fn perform_pending_split(&self, idx: u64, lvl: u32) -> TableResult<()> {
        if lvl == LH_LEVEL_UNSET {
            if idx < self.a0 {
                // An initial-array segment whose level byte was lost to a
                // crash before it was first flushed: it is a live level-0
                // segment by construction.
                let view = self.view(self.seg_offset(idx));
                view.header().lh_level.store(0, Ordering::Release);
                self.pool.persist(view.off, 64);
                return Ok(());
            }
            // `idx` is a buddy that was never split into: split its source.
            let birth = 63 - (idx / self.a0).leading_zeros(); // round that created idx
            let src = idx - (self.a0 << birth);
            self.split_segment(src, birth)
        } else {
            self.split_segment(idx, lvl)
        }
    }

    /// Split `src` at `level` into `src + a0·2^level` (§5.1/§5.3): any
    /// thread that finds the segment lagging performs this; concurrent
    /// attempts serialize on the source's bucket locks.
    fn split_segment(&self, src_idx: u64, level: u32) -> TableResult<()> {
        let buddy_idx = src_idx + (self.a0 << level);
        let (buddy_entry, _) = self.entry_of(buddy_idx);
        self.ensure_array(buddy_entry)?;

        let src = self.seg_offset(src_idx);
        // The source may not be the segment the caller's key resolved to
        // (we might be splitting a buddy's source): run its recovery gate
        // first, or we would spin on crash-persisted bucket locks. This
        // may also complete the very split we came for.
        let v = self.pool.global_version();
        let src_hdr = unsafe { self.pool.at_ref::<SegmentHeader>(src) };
        if src_hdr.rec_version.load(Ordering::Acquire) != v {
            self.recover_segment(src);
        }
        let s = self.view(src);
        let mode = self.cfg.lock_mode;
        s.lock_all(mode);
        let sh = s.header();
        if sh.lh_level.load(Ordering::Acquire) != level {
            // Someone else finished it while we waited for the locks.
            s.unlock_all(mode);
            return Ok(());
        }
        let buddy = self.seg_offset(buddy_idx);
        let b = self.view(buddy);
        let bh = b.header();

        // Mark the SMO (recovery anchors, §4.7 applied to LH).
        sh.side_link.store(buddy.get(), Ordering::Release);
        self.pool.persist(self.pool.offset_of(&sh.side_link), 8);
        sh.state.store(STATE_SPLITTING, Ordering::Release);
        self.pool.persist(self.pool.offset_of(&sh.state), 4);
        bh.back_link.store(src.get(), Ordering::Release);
        bh.state.store(STATE_NEW, Ordering::Release);
        self.pool.persist(buddy, 64);

        self.rehash_lh(s, b, src_idx, buddy_idx)?;
        self.finish_lh_split(s, b, level);
        s.unlock_all(mode);
        Ok(())
    }

    /// Move records whose wider-mask index equals the buddy's; uniqueness
    /// checked when the buddy is non-empty (recovery redo).
    fn rehash_lh(
        &self,
        s: SegView<'_>,
        b: SegView<'_>,
        src_idx: u64,
        buddy_idx: u64,
    ) -> TableResult<()> {
        let shift = self.geom.seg_shift();
        let span = buddy_idx - src_idx; // a0 << level
        let mask = 2 * span - 1;
        let mut to_move = Vec::new();
        s.for_each_record(|loc, slot, key_repr, value| {
            let kh = K::hash_stored(&self.pool, key_repr);
            if (kh >> shift) & mask == buddy_idx & mask {
                to_move.push((loc, slot, key_repr, value, kh));
            }
        });
        let redo = b.count_records() > 0;
        for (loc, slot, key_repr, value, kh) in to_move {
            if redo {
                let mut exists = false;
                b.for_each_record(|_, _, kr, _| {
                    if kr == key_repr {
                        exists = true;
                    }
                });
                if exists {
                    s.delete_at(loc, slot);
                    continue;
                }
            }
            if !b.insert_unlocked(&self.cfg, kh, key_repr, value, true)? {
                return Err(TableError::CapacityExhausted);
            }
            s.delete_at(loc, slot);
        }
        s.rebuild_overflow::<K>(&self.cfg);
        s.prune_chain();
        Ok(())
    }

    /// Publish the split: buddy level, source level, states. The source's
    /// SPLITTING flag is cleared **last**, so every crash point leaves a
    /// state the source-side recovery redo can finish from.
    fn finish_lh_split(&self, s: SegView<'_>, b: SegView<'_>, level: u32) {
        let sh = s.header();
        let bh = b.header();
        bh.lh_level.store(level + 1, Ordering::Release);
        self.pool.persist(self.pool.offset_of(&bh.lh_level), 4);
        sh.lh_level.store(level + 1, Ordering::Release);
        self.pool.persist(self.pool.offset_of(&sh.lh_level), 4);
        bh.state.store(STATE_NORMAL, Ordering::Release);
        self.pool.persist(self.pool.offset_of(&bh.state), 4);
        sh.state.store(STATE_NORMAL, Ordering::Release);
        self.pool.persist(self.pool.offset_of(&sh.state), 4);
    }

    /// Advance `Next` (one expansion per chained-stash allocation, §5.1).
    /// Only moves the pointer; the actual split happens on next access.
    fn trigger_expansion(&self) -> TableResult<()> {
        let rootref = self.rootref();
        loop {
            let m = rootref.meta.load(Ordering::Acquire);
            let (level, next) = unpack_meta(m);
            let sn = self.a0 << level;
            // Make sure the buddy that the split of `next` will create has
            // storage before it becomes addressable (§5.3).
            let buddy = u64::from(next) + sn;
            let (entry, _) = self.entry_of(buddy);
            self.ensure_array(entry)?;
            let newm = if u64::from(next) + 1 == sn {
                pack_meta(level + 1, 0)
            } else {
                pack_meta(level, next + 1)
            };
            if rootref
                .meta
                .compare_exchange(m, newm, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok()
            {
                self.pool.persist(self.pool.offset_of(&rootref.meta), 8);
                return Ok(());
            }
        }
    }

    // ---- lazy recovery ---------------------------------------------------

    fn recover_segment(&self, seg: PmOffset) {
        let v = self.pool.global_version();
        loop {
            let view = self.view(seg);
            let hdr = view.header();
            if hdr.rec_version.load(Ordering::Acquire) == v {
                return;
            }
            if hdr.state.load(Ordering::Acquire) == STATE_NEW {
                let back = PmOffset::new(hdr.back_link.load(Ordering::Acquire));
                if !back.is_null() {
                    self.recover_segment(back);
                    // If the source finished its split but our NEW flag
                    // survived the crash, clear it so we can recover
                    // normally instead of deferring forever.
                    let bh = unsafe { self.pool.at_ref::<SegmentHeader>(back) };
                    if bh.rec_version.load(Ordering::Acquire) == v
                        && bh.state.load(Ordering::Acquire) == STATE_NORMAL
                        && hdr.state.load(Ordering::Acquire) == STATE_NEW
                    {
                        hdr.state.store(STATE_NORMAL, Ordering::Release);
                        self.pool.persist(self.pool.offset_of(&hdr.state), 4);
                    }
                    continue;
                }
            }
            if !view.try_rec_lock(v) {
                std::hint::spin_loop();
                continue;
            }
            if hdr.rec_version.load(Ordering::Acquire) == v {
                view.rec_unlock();
                return;
            }
            if hdr.state.load(Ordering::Acquire) == STATE_NEW {
                view.rec_unlock();
                continue;
            }

            view.clear_all_locks();
            view.dedup_displaced();
            view.rebuild_overflow::<K>(&self.cfg);

            if hdr.state.load(Ordering::Acquire) == STATE_SPLITTING {
                let b_off = PmOffset::new(hdr.side_link.load(Ordering::Acquire));
                let valid = !b_off.is_null() && {
                    let bh = unsafe { self.pool.at_ref::<SegmentHeader>(b_off) };
                    bh.back_link.load(Ordering::Acquire) == seg.get()
                };
                if valid {
                    let b = self.view(b_off);
                    b.clear_all_locks();
                    b.dedup_displaced();
                    let src_idx = hdr.pattern.load(Ordering::Acquire);
                    let buddy_idx = b.header().pattern.load(Ordering::Acquire);
                    // Derive the split level from the index span — the
                    // crash may have landed after lh_level already
                    // advanced, so the header value is not reliable here.
                    let level = ((buddy_idx - src_idx) / self.a0).trailing_zeros();
                    if self.rehash_lh(view, b, src_idx, buddy_idx).is_ok() {
                        b.rebuild_overflow::<K>(&self.cfg);
                        self.finish_lh_split(view, b, level);
                        b.stamp_version(v);
                    }
                } else {
                    hdr.state.store(STATE_NORMAL, Ordering::Release);
                    self.pool.persist(self.pool.offset_of(&hdr.state), 4);
                }
            }
            view.stamp_version(v);
            view.rec_unlock();
            return;
        }
    }

    // ---- public operations ------------------------------------------------

    pub fn get(&self, key: &K) -> Option<u64> {
        let _g = self.pool.epoch().pin();
        self.get_pinned(key)
    }

    /// `get` body without the epoch entry — the caller holds the pin
    /// (single ops pin per call; [`DashLh::get_many`] pins per batch).
    fn get_pinned(&self, key: &K) -> Option<u64> {
        let h = key.hash64();
        let mut spins = 0u64;
        loop {
            spins += 1;
            if cfg!(debug_assertions) && spins > 100_000 {
                let (idx, seg) = self.resolve(h).unwrap();
                let view = self.view(seg);
                let y = self.geom.bucket_index(h);
                panic!(
                    "Dash-LH get livelock: idx={idx} y={y} tb_lock={:#x} pb_lock={:#x}",
                    view.bucket(y).version(),
                    view.bucket((y + 1) & (self.geom.normal() - 1)).version(),
                );
            }
            let (idx, seg) = match self.resolve(h) {
                Ok(x) => x,
                Err(_) => continue,
            };
            let verify = || {
                let (l2, n2) = self.meta();
                self.seg_index(h, l2, n2) == idx
            };
            match self.view(seg).search(&self.cfg, h, key, verify) {
                SegFind::Found(_, v) => return Some(v),
                SegFind::NotFound => return None,
                // A writer descheduled while it holds the bucket lock
                // needs this CPU more than the reader does: spinning on
                // through its whole time slice (and, in debug builds,
                // into the livelock guard above) helps nobody.
                SegFind::Retry if spins.is_multiple_of(256) => std::thread::yield_now(),
                SegFind::Retry => std::hint::spin_loop(),
            }
        }
    }

    pub fn insert(&self, key: &K, value: u64) -> TableResult<()> {
        let _g = self.pool.epoch().pin();
        self.insert_pinned(key, value)
    }

    fn insert_pinned(&self, key: &K, value: u64) -> TableResult<()> {
        let h = key.hash64();
        let key_repr = key.encode(&self.pool)?;
        loop {
            let (idx, seg) = self.resolve(h)?;
            let verify = || {
                let (l2, n2) = self.meta();
                self.seg_index(h, l2, n2) == idx
            };
            match self.view(seg).insert(&self.cfg, h, key, key_repr, value, true, verify)? {
                SegInsert::Inserted { chained } => {
                    if chained {
                        // A stash bucket had to be allocated: grow (§5.1).
                        self.trigger_expansion()?;
                    }
                    return Ok(());
                }
                SegInsert::Duplicate => {
                    if !K::INLINE {
                        K::release(&self.pool, key_repr);
                    }
                    return Err(TableError::Duplicate);
                }
                SegInsert::Retry => continue,
                SegInsert::NeedSplit => unreachable!("Dash-LH chains instead of splitting"),
            }
        }
    }

    pub fn update(&self, key: &K, value: u64) -> bool {
        let h = key.hash64();
        let _g = self.pool.epoch().pin();
        loop {
            let (idx, seg) = match self.resolve(h) {
                Ok(x) => x,
                Err(_) => continue,
            };
            let verify = || {
                let (l2, n2) = self.meta();
                self.seg_index(h, l2, n2) == idx
            };
            match self.view(seg).update(&self.cfg, h, key, value, verify) {
                SegMutate::Done(_) => return true,
                SegMutate::NotFound => return false,
                SegMutate::Retry => std::hint::spin_loop(),
            }
        }
    }

    pub fn remove(&self, key: &K) -> bool {
        let _g = self.pool.epoch().pin();
        self.remove_pinned(key)
    }

    fn remove_pinned(&self, key: &K) -> bool {
        let h = key.hash64();
        loop {
            let (idx, seg) = match self.resolve(h) {
                Ok(x) => x,
                Err(_) => continue,
            };
            let verify = || {
                let (l2, n2) = self.meta();
                self.seg_index(h, l2, n2) == idx
            };
            match self.view(seg).remove(&self.cfg, h, key, verify) {
                SegMutate::Done(repr) => {
                    if !K::INLINE {
                        K::release(&self.pool, repr);
                    }
                    return true;
                }
                SegMutate::NotFound => return false,
                SegMutate::Retry => std::hint::spin_loop(),
            }
        }
    }

    // ---- batched operations (§4.5: one epoch entry per batch) ------------

    /// Batched lookup: enter the epoch once, then run the
    /// fingerprint-probe loop per key. Results are in key order.
    pub fn get_many(&self, keys: &[K]) -> Vec<Option<u64>> {
        let _g = self.pool.epoch().pin();
        keys.iter().map(|k| self.get_pinned(k)).collect()
    }

    /// Batched insert under one epoch entry; one result per item, in
    /// order (hybrid expansions triggered mid-batch run under the pin).
    pub fn insert_many(&self, items: &[(K, u64)]) -> Vec<TableResult<()>> {
        let _g = self.pool.epoch().pin();
        items.iter().map(|(k, v)| self.insert_pinned(k, *v)).collect()
    }

    /// Batched remove under one epoch entry; one `bool` per key, in order.
    pub fn remove_many(&self, keys: &[K]) -> Vec<bool> {
        let _g = self.pool.epoch().pin();
        keys.iter().map(|k| self.remove_pinned(k)).collect()
    }

    // ---- introspection ------------------------------------------------------

    /// (round, next) — the paper's `N` and `Next`.
    pub fn level_and_next(&self) -> (u32, u32) {
        self.meta()
    }

    pub fn segment_count(&self) -> u64 {
        self.addressable().0
    }

    fn slots_total(&self) -> u64 {
        let (count, _) = self.addressable();
        (0..count).map(|idx| self.view(self.seg_offset(idx)).capacity_slots()).sum()
    }

    pub fn for_each(&self, mut f: impl FnMut(u64, u64)) {
        let (count, _) = self.addressable();
        for idx in 0..count {
            self.view(self.seg_offset(idx)).for_each_record(|_, _, k, v| f(k, v));
        }
    }

    // ---- cursor scans ------------------------------------------------------

    /// Paged iteration with a split-stable cursor.
    ///
    /// The cursor is simply the **next segment index**: linear hashing
    /// only ever moves records *forward* — a split relocates records from
    /// segment `Next` into the buddy `Next + a0·2^N`, which at the moment
    /// it becomes addressable is the highest index in the table — so an
    /// index-ordered scan can never have a stable key migrate behind the
    /// cursor. Lagging segments (whose decoupled split has not run yet)
    /// are scanned as they are: their records, including those destined
    /// for a buddy ahead, are present right there. The addressable bound
    /// is re-read every step, so expansions mid-scan extend the walk.
    ///
    /// Pages snapshot whole segments (version-validated; the in-progress
    /// split holds every source bucket lock, so a racing rehash forces a
    /// clean retry) and overrun `budget` only to finish a segment.
    pub fn scan(&self, cursor: ScanCursor, budget: usize) -> ScanPage<K> {
        if cursor.is_done() {
            return ScanPage::finished();
        }
        let budget = budget.max(1);
        let _g = self.pool.epoch().pin();
        let mut idx = cursor.pos();
        let mut items: Vec<(K, u64)> = Vec::new();
        loop {
            let (count, _) = self.addressable();
            if idx >= count {
                return ScanPage { items, cursor: ScanCursor::finished() };
            }
            let seg = self.seg_offset(idx);
            let v = self.pool.global_version();
            let hdr = unsafe { self.pool.at_ref::<SegmentHeader>(seg) };
            if hdr.rec_version.load(Ordering::Acquire) != v {
                self.recover_segment(seg);
                continue;
            }
            // The idx→segment mapping is fixed in LH, so there is no
            // directory re-resolution to verify.
            let Some(raw) = self.view(seg).snapshot_records(self.cfg.lock_mode, || true) else {
                continue;
            };
            for (key_repr, value) in raw {
                if let Some(key) = K::decode_stored(&self.pool, key_repr) {
                    items.push((key, value));
                }
            }
            idx += 1;
            if items.len() >= budget {
                let (count, _) = self.addressable();
                if idx >= count {
                    return ScanPage { items, cursor: ScanCursor::finished() };
                }
                return ScanPage { items, cursor: ScanCursor::resume(idx) };
            }
        }
    }
}

impl<K: Key> PmHashTable<K> for DashLh<K> {
    fn get(&self, key: &K) -> Option<u64> {
        DashLh::get(self, key)
    }

    fn insert(&self, key: &K, value: u64) -> TableResult<()> {
        DashLh::insert(self, key, value)
    }

    fn update(&self, key: &K, value: u64) -> bool {
        DashLh::update(self, key, value)
    }

    fn remove(&self, key: &K) -> bool {
        DashLh::remove(self, key)
    }

    fn pin(&self) -> dash_common::Session<'_> {
        dash_common::Session::pinned(self.pool.epoch().pin())
    }

    fn get_many(&self, keys: &[K]) -> Vec<Option<u64>> {
        DashLh::get_many(self, keys)
    }

    fn insert_many(&self, items: &[(K, u64)]) -> Vec<TableResult<()>> {
        DashLh::insert_many(self, items)
    }

    fn remove_many(&self, keys: &[K]) -> Vec<bool> {
        DashLh::remove_many(self, keys)
    }

    fn for_each_kv(&self, f: &mut dyn FnMut(&K, u64)) {
        let _g = self.pool.epoch().pin();
        let (count, _) = self.addressable();
        for idx in 0..count {
            self.view(self.seg_offset(idx)).for_each_record(|_, _, key_repr, value| {
                if let Some(key) = K::decode_stored(&self.pool, key_repr) {
                    f(&key, value);
                }
            });
        }
    }

    fn scan(&self, cursor: ScanCursor, budget: usize) -> ScanPage<K> {
        DashLh::scan(self, cursor, budget)
    }

    fn capacity_slots(&self) -> u64 {
        self.slots_total()
    }

    fn name(&self) -> &'static str {
        "Dash-LH"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dash_common::{negative_keys, uniform_keys, VarKey};
    use pmem::PoolConfig;

    fn small_cfg() -> DashConfig {
        DashConfig { bucket_bits: 2, lh_first_array: 2, lh_stride: 2, ..Default::default() }
    }

    fn new_table(pool_mb: usize, cfg: DashConfig) -> DashLh<u64> {
        let pool = PmemPool::create(PoolConfig::with_size(pool_mb << 20)).unwrap();
        DashLh::create(pool, cfg).unwrap()
    }

    #[test]
    fn entry_geometry_math() {
        let t = new_table(16, small_cfg());
        // a0=2, stride=2: group0 entries 0,1 hold 2 segs each; group1
        // entries 2,3 hold 4 each; group2 entries 4,5 hold 8 each.
        assert_eq!(t.entry_of(0), (0, 0));
        assert_eq!(t.entry_of(1), (0, 1));
        assert_eq!(t.entry_of(2), (1, 0));
        assert_eq!(t.entry_of(3), (1, 1));
        assert_eq!(t.entry_of(4), (2, 0));
        assert_eq!(t.entry_of(7), (2, 3));
        assert_eq!(t.entry_of(8), (3, 0));
        assert_eq!(t.entry_of(12), (4, 0));
        assert_eq!(t.array_len(0), 2);
        assert_eq!(t.array_len(2), 4);
        assert_eq!(t.array_len(4), 8);
        assert_eq!(t.entry_base(0), 0);
        assert_eq!(t.entry_base(1), 2);
        assert_eq!(t.entry_base(2), 4);
        assert_eq!(t.entry_base(3), 8);
        assert_eq!(t.entry_base(4), 12);
    }

    #[test]
    fn seg_index_respects_next_pointer() {
        let t = new_table(16, small_cfg());
        // level 0: 2 segments. With next=0 only bit 0 of (h>>shift) used.
        let shift = t.geom.seg_shift();
        let h0 = 0u64 << shift;
        let h1 = 1u64 << shift;
        let h2 = 2u64 << shift; // wider mask → segment 2
        assert_eq!(t.seg_index(h0, 0, 0), 0);
        assert_eq!(t.seg_index(h1, 0, 0), 1);
        assert_eq!(t.seg_index(h2, 0, 0), 0, "mod 2 before split");
        assert_eq!(t.seg_index(h2, 0, 1), 2, "segment 0 split: wider mask applies");
        assert_eq!(t.seg_index(h1, 0, 1), 1, "unsplit segment keeps narrow mask");
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Hybrid-expansion addressing is a bijection: every segment
            /// index maps to a unique (entry, slot), entry bases are
            /// consistent with array lengths, and round-trips hold.
            #[test]
            fn entry_mapping_bijective(a0_log in 0u32..4, stride in 1u64..5, idx in 0u64..5_000) {
                let t = new_table(16, DashConfig {
                    bucket_bits: 2,
                    lh_first_array: 1 << a0_log,
                    lh_stride: stride as u32,
                    ..Default::default()
                });
                let (entry, slot) = t.entry_of(idx);
                prop_assert!(slot < t.array_len(entry));
                prop_assert_eq!(t.entry_base(entry) + slot, idx, "round trip");
                if idx > 0 {
                    let (pe, ps) = t.entry_of(idx - 1);
                    // Consecutive indices are adjacent in the layout.
                    if pe == entry {
                        prop_assert_eq!(ps + 1, slot);
                    } else {
                        prop_assert_eq!(slot, 0);
                        prop_assert_eq!(ps + 1, t.array_len(pe));
                    }
                }
            }

            /// Linear-hashing addressing: the index is always below the
            /// addressable bound, and keys in already-split segments use
            /// the doubled modulus.
            #[test]
            fn seg_index_bounds(h: u64, level in 0u32..6, next in 0u32..64) {
                let t = new_table(16, small_cfg());
                let sn = t.a0 << level;
                let next = next % (sn as u32).max(1);
                let idx = t.seg_index(h, level, next);
                prop_assert!(idx < sn + u64::from(next), "idx {} out of bounds", idx);
                if idx >= sn {
                    // Only reachable when its source was already split.
                    prop_assert!((idx - sn) < u64::from(next));
                }
            }
        }
    }

    #[test]
    fn basic_crud() {
        let t = new_table(32, small_cfg());
        t.insert(&10, 100).unwrap();
        assert_eq!(t.get(&10), Some(100));
        assert!(matches!(t.insert(&10, 1), Err(TableError::Duplicate)));
        assert!(t.update(&10, 200));
        assert_eq!(t.get(&10), Some(200));
        assert!(t.remove(&10));
        assert_eq!(t.get(&10), None);
    }

    #[test]
    fn grows_through_rounds() {
        let t = new_table(64, small_cfg());
        let keys = uniform_keys(20_000, 2);
        for (i, k) in keys.iter().enumerate() {
            t.insert(k, i as u64).unwrap();
        }
        let (level, next) = t.level_and_next();
        assert!(level >= 1 || next > 0, "table must have expanded: ({level},{next})");
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(t.get(k), Some(i as u64), "key {i} lost");
        }
        for k in negative_keys(5_000, 2) {
            assert_eq!(t.get(&k), None);
        }
        assert_eq!(t.len_scan(), keys.len() as u64);
    }

    #[test]
    fn paper_geometry_inserts() {
        let cfg = DashConfig { lh_first_array: 8, lh_stride: 4, ..Default::default() };
        let t = new_table(128, cfg);
        let keys = uniform_keys(40_000, 4);
        for (i, k) in keys.iter().enumerate() {
            t.insert(k, i as u64).unwrap();
        }
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(t.get(k), Some(i as u64));
        }
    }

    #[test]
    fn deletes_after_growth() {
        let t = new_table(64, small_cfg());
        let keys = uniform_keys(10_000, 6);
        for k in &keys {
            t.insert(k, 7).unwrap();
        }
        for k in &keys {
            assert!(t.remove(k), "remove {k}");
        }
        assert_eq!(t.len_scan(), 0);
    }

    #[test]
    fn var_keys_supported() {
        let pool = PmemPool::create(PoolConfig::with_size(64 << 20)).unwrap();
        let t: DashLh<VarKey> = DashLh::create(pool, small_cfg()).unwrap();
        let keys = dash_common::var_keys(3_000, 19, 16);
        for (i, k) in keys.iter().enumerate() {
            t.insert(k, i as u64).unwrap();
        }
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(t.get(k), Some(i as u64));
        }
    }

    #[test]
    fn concurrent_inserts_and_reads() {
        let t = std::sync::Arc::new(new_table(128, small_cfg()));
        let keys = std::sync::Arc::new(uniform_keys(24_000, 8));
        let threads = 8;
        let per = keys.len() / threads;
        std::thread::scope(|s| {
            for tid in 0..threads {
                let t = t.clone();
                let keys = keys.clone();
                s.spawn(move || {
                    for i in tid * per..(tid + 1) * per {
                        t.insert(&keys[i], i as u64).unwrap();
                    }
                });
            }
        });
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(t.get(k), Some(i as u64), "key {i}");
        }
    }

    #[test]
    fn crash_reopen_recovers() {
        let cfg = PoolConfig { size: 64 << 20, shadow: true, ..Default::default() };
        let pool = PmemPool::create(cfg).unwrap();
        let t: DashLh<u64> = DashLh::create(pool.clone(), small_cfg()).unwrap();
        let keys = uniform_keys(8_000, 15);
        for (i, k) in keys.iter().enumerate() {
            t.insert(k, i as u64).unwrap();
        }
        let img = pool.crash_image();
        drop(t);
        let pool2 = PmemPool::open(img, cfg).unwrap();
        let t2: DashLh<u64> = DashLh::open(pool2).unwrap();
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(t2.get(k), Some(i as u64), "key {i} lost in crash");
        }
        for k in negative_keys(500, 15) {
            t2.insert(&k, 1).unwrap();
        }
    }

    #[test]
    fn scan_pages_cover_table_exactly_once_when_quiescent() {
        use dash_common::ScanCursor;
        let t = new_table(64, small_cfg());
        let keys = uniform_keys(8_000, 41);
        for (i, k) in keys.iter().enumerate() {
            t.insert(k, i as u64).unwrap();
        }
        let mut seen = std::collections::HashMap::new();
        let mut cursor = ScanCursor::START;
        let mut pages = 0;
        loop {
            let page = t.scan(cursor, 64);
            for (k, v) in page.items {
                assert!(seen.insert(k, v).is_none(), "quiescent scan must not duplicate {k}");
            }
            pages += 1;
            if page.cursor.is_done() {
                break;
            }
            cursor = ScanCursor::resume(page.cursor.pos());
        }
        assert!(pages > 1, "budget 64 must paginate 8k keys");
        assert_eq!(seen.len(), keys.len());
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(seen.get(k), Some(&(i as u64)), "key {i} missing from scan");
        }
        assert_eq!(t.len_scan(), keys.len() as u64);
    }

    /// Deterministic split test: park a cursor early, force rounds of
    /// decoupled linear-hashing expansion, finish the scan — every key
    /// present throughout must be yielded (splits only move records to
    /// higher, still-unvisited segment indices).
    #[test]
    fn scan_survives_expansion_rounds_mid_scan() {
        use dash_common::ScanCursor;
        let t = new_table(128, small_cfg());
        let stable = uniform_keys(2_000, 27);
        for k in &stable {
            t.insert(k, 1).unwrap();
        }
        let (level0, next0) = t.level_and_next();

        let first = t.scan(ScanCursor::START, 8);
        let mut yielded: std::collections::HashSet<u64> =
            first.items.iter().map(|(k, _)| *k).collect();
        assert!(!first.cursor.is_done(), "2k keys cannot fit one 8-budget page");

        for k in negative_keys(12_000, 27) {
            t.insert(&k, 2).unwrap();
        }
        let (level1, next1) = t.level_and_next();
        assert!(
            level1 > level0 || next1 > next0,
            "churn must expand the table: ({level0},{next0}) -> ({level1},{next1})"
        );

        let mut cursor = first.cursor;
        while !cursor.is_done() {
            let page = t.scan(cursor, 256);
            yielded.extend(page.items.iter().map(|(k, _)| *k));
            cursor = page.cursor;
        }
        for k in &stable {
            assert!(yielded.contains(k), "stable key {k} lost by a scan crossing expansions");
        }
    }

    #[test]
    fn load_factor_stays_reasonable() {
        let t = new_table(64, DashConfig { lh_first_array: 4, lh_stride: 2, ..Default::default() });
        let keys = uniform_keys(30_000, 23);
        for k in &keys {
            t.insert(k, 1).unwrap();
        }
        let lf = t.load_factor();
        assert!(lf > 0.3, "load factor {lf}");
    }

    mod geometry_props {
        use super::*;
        use proptest::prelude::*;

        fn arb_geometry() -> impl Strategy<Value = (u32, u32)> {
            // (a0, stride) with a0 ∈ {1,2,4,8,64}, stride ∈ {1,2,4,8}.
            (0usize..5, 0usize..4)
                .prop_map(|(a, s)| ([1u32, 2, 4, 8, 64][a], [1u32, 2, 4, 8][s]))
        }

        fn table_for((a0, stride): (u32, u32)) -> DashLh<u64> {
            new_table(
                16,
                DashConfig {
                    bucket_bits: 2,
                    lh_first_array: a0,
                    lh_stride: stride,
                    ..Default::default()
                },
            )
        }

        proptest! {
            /// Hybrid-expansion addressing (§5.2) is a bijection: every
            /// segment index maps to exactly one (entry, slot) with the
            /// slot in range, and entry_base inverts it.
            #[test]
            fn entry_of_roundtrips(g in arb_geometry(), idx in 0u64..1_000_000) {
                let t = table_for(g);
                let (entry, slot) = t.entry_of(idx);
                prop_assert!(slot < t.array_len(entry), "slot {slot} out of array");
                prop_assert_eq!(t.entry_base(entry) + slot, idx);
            }

            /// Consecutive indices advance the slot or move to the start
            /// of the next entry — arrays tile the index space densely.
            #[test]
            fn entry_tiling_is_dense(g in arb_geometry(), idx in 0u64..1_000_000) {
                let t = table_for(g);
                let (e0, s0) = t.entry_of(idx);
                let (e1, s1) = t.entry_of(idx + 1);
                if s0 + 1 < t.array_len(e0) {
                    prop_assert_eq!((e1, s1), (e0, s0 + 1));
                } else {
                    prop_assert_eq!((e1, s1), (e0 + 1, 0));
                }
            }

            /// Doubling ladder: array sizes double every `stride` entries
            /// starting from `a0` (fig. 6 geometry).
            #[test]
            fn array_sizes_follow_hybrid_ladder(g in arb_geometry(), entry in 0usize..48) {
                let t = table_for(g);
                let expect = u64::from(t.cfg.lh_first_array)
                    << (entry as u64 / u64::from(t.cfg.lh_stride));
                prop_assert_eq!(t.array_len(entry), expect);
            }

            /// Linear-hashing addressing (§2.2): the chosen segment index
            /// is always addressable under (level, next), and indices
            /// below `next` use the doubled range h_{n+1}.
            #[test]
            fn seg_index_always_addressable(
                g in arb_geometry(),
                h: u64,
                level in 0u32..6,
            ) {
                let t = table_for(g);
                let shift = t.geom.seg_shift();
                let sn = u64::from(t.cfg.lh_first_array) << level;
                for next in [0u64, 1, sn / 2, sn.saturating_sub(1)] {
                    let next = next.min(sn - 1) as u32;
                    let idx = t.seg_index(h, level, next);
                    // Always within the addressable range [0, sn + next).
                    prop_assert!(
                        idx < sn + u64::from(next),
                        "idx {idx} beyond addressable {} (level {level}, next {next})",
                        sn + u64::from(next)
                    );
                    // §2.2: the low-mask result selects the hash function.
                    let low = (h >> shift) & (sn - 1);
                    if low >= u64::from(next) {
                        // Unsplit source: h_n addressing at this level.
                        prop_assert_eq!(idx, low);
                        prop_assert_eq!(t.expected_level(idx, level, next), level);
                    } else {
                        // Split source or its buddy: h_{n+1} addressing.
                        prop_assert_eq!(idx, (h >> shift) & (2 * sn - 1));
                        prop_assert!(idx == low || idx == low + sn);
                        prop_assert_eq!(t.expected_level(idx, level, next), level + 1);
                    }
                }
            }

            /// A record's segment never moves backwards: after a split
            /// advances next beyond its segment, re-addressing under the
            /// new (level, next) sends the hash either to the same index
            /// or to the buddy sn + old index.
            #[test]
            fn split_redistribution_is_buddy_local(
                g in arb_geometry(),
                h: u64,
                level in 0u32..6,
            ) {
                let t = table_for(g);
                let sn = u64::from(t.cfg.lh_first_array) << level;
                for next in 0..sn.min(8) {
                    let before = t.seg_index(h, level, next as u32);
                    let after = t.seg_index(h, level, next as u32 + 1);
                    if before == next {
                        prop_assert!(
                            after == before || after == before + sn,
                            "split of {before} sent h to {after} (sn {sn})"
                        );
                    } else {
                        prop_assert_eq!(after, before, "unsplit segment must not move");
                    }
                }
            }
        }
    }
}
