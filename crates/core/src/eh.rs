//! Dash-EH: Dash-enabled extendible hashing (§4).
//!
//! A persistent directory indexes segments by the most significant bits of
//! the hash (§4.7: MSB addressing co-locates the directory entries of one
//! segment, minimizing flushes during splits). Splits follow the paper's
//! three-step SMO — crash-safe segment allocation into the source's side
//! link, rehash with delete-after-insert, then directory/depth updates —
//! and are finished or rolled back by lazy recovery (§4.8). Directory
//! doubling publishes a freshly built directory with one atomic root
//! store; the old directory is reclaimed through the epoch manager.

use std::borrow::Borrow;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dash_common::{Key, KeyProbe, PmHashTable, ScanCursor, ScanPage, TableError, TableResult};
use parking_lot::Mutex;
use pmem::{PmOffset, PmemPool};

use crate::config::DashConfig;
use crate::segment::{
    SegFind, SegGeom, SegInsert, SegMutate, SegView, SegmentHeader, STATE_MERGING, STATE_NEW,
    STATE_NORMAL, STATE_SPLITTING,
};

const EH_MAGIC: u64 = 0xDA58_0E01_0000_0001;
/// Directory depth cap: 2^24 entries (128 MB of directory).
const MAX_DEPTH: u32 = 24;

/// Persistent root object of a Dash-EH table.
#[repr(C)]
struct EhRoot {
    magic: AtomicU64,
    flags: AtomicU64,
    _reserved: AtomicU64,
    directory: AtomicU64,
}

/// Dash extendible hashing over an emulated PM pool.
///
/// One table per pool: the table's root object is published through the
/// pool root, which is how [`DashEh::open`] finds it after a restart.
pub struct DashEh<K: Key = u64> {
    pool: Arc<PmemPool>,
    root: PmOffset,
    cfg: DashConfig,
    geom: SegGeom,
    /// Volatile lock serializing directory doubling/halving and entry
    /// rewrites (segment-level isolation comes from bucket locks, §4.4).
    dir_lock: Mutex<()>,
    /// Volatile SMO counters since open (the paper's instrumentation
    /// axis): completed segment splits, directory doublings, and
    /// completed segment merges. Not persisted — telemetry only.
    splits: AtomicU64,
    doublings: AtomicU64,
    merges: AtomicU64,
    _k: PhantomData<fn(K) -> K>,
}

impl<K: Key> DashEh<K> {
    /// Create a fresh table in `pool` and publish it as the pool root.
    pub fn create(pool: Arc<PmemPool>, cfg: DashConfig) -> TableResult<Self> {
        cfg.validate().map_err(|_| TableError::Pm(pmem::PmError::InvalidConfig("dash config")))?;
        let geom = SegGeom::from_cfg(&cfg);
        let v = pool.global_version();

        let root = pool.alloc_zeroed(std::mem::size_of::<EhRoot>())?;
        let depth = cfg.initial_depth;
        let len = 1usize << depth;
        let dir = pool.alloc_zeroed(8 + 8 * len)?;
        // SAFETY: fresh directory block.
        unsafe { (*pool.at::<AtomicU64>(dir)).store(depth as u64, Ordering::Relaxed) };
        for i in 0..len {
            let seg = pool.alloc(geom.bytes())?;
            let view = SegView::new(&pool, seg, geom);
            view.init(STATE_NORMAL, depth, i as u64, PmOffset::NULL, PmOffset::NULL, v, 0);
            // SAFETY: entry i of the fresh directory.
            unsafe {
                (*pool.at::<AtomicU64>(dir.add(8 + 8 * i as u64))).store(seg.get(), Ordering::Relaxed)
            };
        }
        // Side-link the initial segments left-to-right (recovery chain).
        for i in 0..len.saturating_sub(1) {
            let s = unsafe { (*pool.at::<AtomicU64>(dir.add(8 + 8 * i as u64))).load(Ordering::Relaxed) };
            let n = unsafe {
                (*pool.at::<AtomicU64>(dir.add(8 + 8 * (i as u64 + 1)))).load(Ordering::Relaxed)
            };
            let view = SegView::new(&pool, PmOffset::new(s), geom);
            view.header().side_link.store(n, Ordering::Relaxed);
        }
        pool.persist(dir, 8 + 8 * len);

        // SAFETY: fresh root block.
        let rootref = unsafe { pool.at_ref::<EhRoot>(root) };
        rootref.magic.store(EH_MAGIC, Ordering::Relaxed);
        rootref.flags.store(cfg.to_flags(), Ordering::Relaxed);
        rootref.directory.store(dir.get(), Ordering::Relaxed);
        pool.persist(root, std::mem::size_of::<EhRoot>());
        pool.set_root(root);

        Ok(DashEh {
            pool,
            root,
            cfg,
            geom,
            dir_lock: Mutex::new(()),
            splits: AtomicU64::new(0),
            doublings: AtomicU64::new(0),
            merges: AtomicU64::new(0),
            _k: PhantomData,
        })
    }

    /// Reopen the table persisted in `pool` (instant recovery: this does
    /// constant work; segments are recovered lazily on first access).
    pub fn open(pool: Arc<PmemPool>) -> TableResult<Self> {
        let root = pool.root();
        if root.is_null() {
            return Err(TableError::Pm(pmem::PmError::PoolCorrupt("no root object")));
        }
        // SAFETY: root published by create().
        let rootref = unsafe { pool.at_ref::<EhRoot>(root) };
        if rootref.magic.load(Ordering::Relaxed) != EH_MAGIC {
            return Err(TableError::Pm(pmem::PmError::PoolCorrupt("not a Dash-EH root")));
        }
        let cfg = DashConfig::from_flags(rootref.flags.load(Ordering::Relaxed), 64, 8);
        let geom = SegGeom::from_cfg(&cfg);
        let table = DashEh {
            pool,
            root,
            cfg,
            geom,
            dir_lock: Mutex::new(()),
            splits: AtomicU64::new(0),
            doublings: AtomicU64::new(0),
            merges: AtomicU64::new(0),
            _k: PhantomData,
        };
        if table.pool.recovery_outcome().wrapped {
            // §4.8: on version wrap-around, reset every segment's version
            // so each recovers (trivially or not) on first access.
            table.for_each_segment(|seg| {
                let view = SegView::new(&table.pool, seg, geom);
                view.header().rec_version.store(0, Ordering::Release);
            });
        }
        Ok(table)
    }

    pub fn config(&self) -> &DashConfig {
        &self.cfg
    }

    pub fn pool(&self) -> &Arc<PmemPool> {
        &self.pool
    }

    /// Completed segment splits since this handle opened (volatile).
    pub fn split_count(&self) -> u64 {
        self.splits.load(Ordering::Relaxed)
    }

    /// Directory doublings since this handle opened (volatile).
    pub fn doubling_count(&self) -> u64 {
        self.doublings.load(Ordering::Relaxed)
    }

    /// Completed segment merges since this handle opened (volatile).
    pub fn merge_count(&self) -> u64 {
        self.merges.load(Ordering::Relaxed)
    }

    fn rootref(&self) -> &EhRoot {
        // SAFETY: validated at create/open.
        unsafe { self.pool.at_ref::<EhRoot>(self.root) }
    }

    // ---- directory ------------------------------------------------------

    #[inline]
    fn dir_off(&self) -> PmOffset {
        PmOffset::new(self.rootref().directory.load(Ordering::Acquire))
    }

    #[inline]
    fn dir_depth(&self, dir: PmOffset) -> u32 {
        // SAFETY: directory blocks start with their depth word.
        unsafe { (*self.pool.at::<AtomicU64>(dir)).load(Ordering::Acquire) as u32 }
    }

    #[inline]
    fn dir_entry(&self, dir: PmOffset, idx: usize) -> &AtomicU64 {
        // SAFETY: idx < 2^depth, checked by callers via seg_index.
        unsafe { self.pool.at_ref::<AtomicU64>(dir.add(8 + 8 * idx as u64)) }
    }

    #[inline]
    fn seg_index(h: u64, depth: u32) -> usize {
        if depth == 0 {
            0
        } else {
            (h >> (64 - depth)) as usize
        }
    }

    /// Resolve the segment for `h` from the current directory (§4.4: no
    /// directory lock — callers re-verify after taking bucket locks).
    #[inline]
    fn locate(&self, h: u64) -> PmOffset {
        let dir = self.dir_off();
        let depth = self.dir_depth(dir);
        PmOffset::new(self.dir_entry(dir, Self::seg_index(h, depth)).load(Ordering::Acquire))
    }

    /// Locate + lazy-recovery gate (§4.8): every access first checks the
    /// segment's version byte against the pool's global version.
    fn resolve(&self, h: u64) -> PmOffset {
        let v = self.pool.global_version();
        loop {
            let seg = self.locate(h);
            let hdr = unsafe { self.pool.at_ref::<SegmentHeader>(seg) };
            if hdr.rec_version.load(Ordering::Acquire) == v {
                return seg;
            }
            self.recover_segment(seg);
        }
    }

    fn view(&self, seg: PmOffset) -> SegView<'_> {
        SegView::new(&self.pool, seg, self.geom)
    }

    /// Visit each distinct segment once (directory entries for a segment
    /// are contiguous under MSB addressing).
    fn for_each_segment(&self, mut f: impl FnMut(PmOffset)) {
        let dir = self.dir_off();
        let len = 1usize << self.dir_depth(dir);
        let mut last = PmOffset::NULL;
        for i in 0..len {
            let s = PmOffset::new(self.dir_entry(dir, i).load(Ordering::Acquire));
            if s != last {
                f(s);
                last = s;
            }
        }
    }

    // ---- public operations ----------------------------------------------

    // The single-key operations take any borrowed form of the key
    // (`HashMap`'s idiom): a `DashEh<VarKey>` is probed with `&[u8]`
    // straight off the caller's buffer, no owned key built.

    pub fn get<Q>(&self, key: &Q) -> Option<u64>
    where
        K: Borrow<Q>,
        Q: KeyProbe + ?Sized,
    {
        self.find(key).map(|(_, value)| value)
    }

    /// [`get`](Self::get) that also hands back the matched slot's key
    /// word: `(key word, value word)`. For a table whose key word points
    /// at storage the caller owns — the word is the one `matches` was
    /// true of, so it is safe to follow under the caller's epoch pin
    /// whatever happens to the slot afterwards.
    pub fn find<Q>(&self, key: &Q) -> Option<(u64, u64)>
    where
        K: Borrow<Q>,
        Q: KeyProbe + ?Sized,
    {
        let _g = self.pool.epoch().pin();
        self.find_pinned(key)
    }

    /// `find` body without the epoch entry — the caller holds the pin
    /// (single ops pin per call; [`DashEh::get_many`] pins per batch).
    fn find_pinned<Q: KeyProbe + ?Sized>(&self, key: &Q) -> Option<(u64, u64)> {
        let h = key.hash64();
        loop {
            let seg = self.resolve(h);
            match self.view(seg).search(&self.cfg, h, key, || self.locate(h) == seg) {
                SegFind::Found(key_word, value) => return Some((key_word, value)),
                SegFind::NotFound => return None,
                SegFind::Retry => std::hint::spin_loop(),
            }
        }
    }

    pub fn insert<Q>(&self, key: &Q, value: u64) -> TableResult<()>
    where
        K: Borrow<Q>,
        Q: KeyProbe + ?Sized,
    {
        let _g = self.pool.epoch().pin();
        self.insert_pinned(key, value)
    }

    fn insert_pinned<Q: KeyProbe + ?Sized>(&self, key: &Q, value: u64) -> TableResult<()> {
        let key_repr = key.encode(&self.pool)?;
        let r = self.insert_encoded_pinned(key, key_repr, value);
        // Whatever failed, the representation was never published.
        if r.is_err() && !K::INLINE {
            K::release(&self.pool, key_repr);
        }
        r
    }

    /// [`insert`](Self::insert) of a key the caller has already encoded:
    /// `key_repr` is stored as the slot's key word as is, and must be a
    /// representation `key` matches. On any error nothing was published
    /// and `key_repr` is still the caller's to release.
    pub fn insert_encoded<Q>(&self, key: &Q, key_repr: u64, value: u64) -> TableResult<()>
    where
        K: Borrow<Q>,
        Q: KeyProbe + ?Sized,
    {
        let _g = self.pool.epoch().pin();
        self.insert_encoded_pinned(key, key_repr, value)
    }

    fn insert_encoded_pinned<Q: KeyProbe + ?Sized>(
        &self,
        key: &Q,
        key_repr: u64,
        value: u64,
    ) -> TableResult<()> {
        let h = key.hash64();
        loop {
            let seg = self.resolve(h);
            let r = self.view(seg).insert(&self.cfg, h, key, key_repr, value, false, || {
                self.locate(h) == seg
            })?;
            match r {
                SegInsert::Inserted { .. } => return Ok(()),
                SegInsert::Duplicate => return Err(TableError::Duplicate),
                SegInsert::Retry => continue,
                SegInsert::NeedSplit => self.split(h)?,
            }
        }
    }

    /// Replace the value stored under `key` and return the one it
    /// replaced; `None`, with nothing written, when the key is absent.
    /// One locked probe: the overwrite a `get` + `update` pair would
    /// spend two on.
    pub fn swap<Q>(&self, key: &Q, value: u64) -> Option<u64>
    where
        K: Borrow<Q>,
        Q: KeyProbe + ?Sized,
    {
        let h = key.hash64();
        let _g = self.pool.epoch().pin();
        loop {
            let seg = self.resolve(h);
            match self.view(seg).update(&self.cfg, h, key, value, || self.locate(h) == seg) {
                SegMutate::Done(old) => return Some(old),
                SegMutate::NotFound => return None,
                SegMutate::Retry => std::hint::spin_loop(),
            }
        }
    }

    pub fn update<Q>(&self, key: &Q, value: u64) -> bool
    where
        K: Borrow<Q>,
        Q: KeyProbe + ?Sized,
    {
        self.swap(key, value).is_some()
    }

    /// [`swap`](Self::swap) for the other word of the slot: replace the
    /// key word stored under `key` with `key_repr` — another
    /// representation `key` matches — and return the one it replaced,
    /// which is now the caller's to release; `None`, with nothing
    /// written, when the key is absent. One locked probe and one
    /// persisted 8-byte store: readers see the old representation or the
    /// new one, and so does a crash.
    pub fn rekey<Q>(&self, key: &Q, key_repr: u64) -> Option<u64>
    where
        K: Borrow<Q>,
        Q: KeyProbe + ?Sized,
    {
        let h = key.hash64();
        let _g = self.pool.epoch().pin();
        loop {
            let seg = self.resolve(h);
            match self.view(seg).rekey(&self.cfg, h, key, key_repr, || self.locate(h) == seg) {
                SegMutate::Done(old) => return Some(old),
                SegMutate::NotFound => return None,
                SegMutate::Retry => std::hint::spin_loop(),
            }
        }
    }

    pub fn remove<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: KeyProbe + ?Sized,
    {
        let _g = self.pool.epoch().pin();
        self.remove_pinned(key)
    }

    fn remove_pinned<Q: KeyProbe + ?Sized>(&self, key: &Q) -> bool {
        let h = key.hash64();
        loop {
            let seg = self.resolve(h);
            match self.view(seg).remove(&self.cfg, h, key, || self.locate(h) == seg) {
                SegMutate::Done(repr) => {
                    if !K::INLINE {
                        K::release(&self.pool, repr);
                    }
                    if self.cfg.merge_threshold > 0.0 {
                        self.maybe_merge(h);
                    }
                    return true;
                }
                SegMutate::NotFound => return false,
                SegMutate::Retry => std::hint::spin_loop(),
            }
        }
    }

    // ---- lookup hints ---------------------------------------------------
    //
    // A caller holding several keys it is about to probe (a pipelined
    // tick, an `MGET`) overlaps their dependent cache misses by hinting
    // all of them one stage at a time: `hint_buckets` for every key, then
    // `hint_records` for every key — by which time the bucket lines the
    // first stage asked for have arrived. Hints change nothing and trust
    // nothing: they take no lock, write nothing, are not metered as PM
    // reads, and bounds-check every offset they read out of the pool
    // before following it, so a stale or torn word costs a useless
    // prefetch and nothing else. The caller holds an epoch pin, as for
    // `get`. Deliberately not part of `PmHashTable`: only Dash-EH serves
    // requests.

    /// The segment a probe for `h` would resolve to — without the
    /// recovery gate, and `None` unless the directory and the segment lie
    /// inside the pool.
    fn hint_segment(&self, h: u64) -> Option<SegView<'_>> {
        let size = self.pool.size() as u64;
        let in_pool = |off: u64, len: u64, align: u64| {
            off != 0 && off.is_multiple_of(align) && off.checked_add(len).is_some_and(|e| e <= size)
        };
        let dir = self.dir_off();
        if !in_pool(dir.get(), 8, 8) {
            return None;
        }
        let depth = self.dir_depth(dir).min(MAX_DEPTH);
        let entry = dir.get() + 8 + 8 * Self::seg_index(h, depth) as u64;
        if !in_pool(entry, 8, 8) {
            return None;
        }
        // SAFETY: `entry` is an aligned word inside the pool (checked).
        let seg = unsafe { self.pool.at_ref::<AtomicU64>(PmOffset::new(entry)) }
            .load(Ordering::Acquire);
        in_pool(seg, self.geom.bytes() as u64, 64).then(|| self.view(PmOffset::new(seg)))
    }

    /// Stage 1: start loading the segment header line and the target
    /// and probing buckets a probe for hash `h` will read.
    pub fn hint_buckets(&self, h: u64) {
        if let Some(seg) = self.hint_segment(h) {
            seg.hint_buckets(h);
        }
    }

    /// Stage 2, once stage 1's lines are on their way: for every
    /// fingerprint candidate of `h`, start loading the line its key word
    /// points at (out-of-line keys) and pass `(key word, value word)` to
    /// `record` — unvalidated: the caller owns what the words mean, and
    /// must check them before use.
    pub fn hint_records(&self, h: u64, mut record: impl FnMut(u64, u64)) {
        let Some(seg) = self.hint_segment(h) else { return };
        let size = self.pool.size() as u64;
        seg.hint_records(&self.cfg, h, |key_word, value_word| {
            if !K::INLINE && key_word < size {
                pmem::prefetch(self.pool.base().wrapping_add(key_word as usize));
            }
            record(key_word, value_word);
        });
    }

    // ---- batched operations (§4.5: one epoch entry per batch) ------------

    /// Batched lookup: enter the epoch once, then run the
    /// fingerprint-probe loop per key. Results are in key order.
    pub fn get_many(&self, keys: &[K]) -> Vec<Option<u64>> {
        let _g = self.pool.epoch().pin();
        keys.iter().map(|k| self.find_pinned(k).map(|(_, value)| value)).collect()
    }

    /// Batched insert under one epoch entry; one result per item, in
    /// order (splits and directory doublings triggered mid-batch happen
    /// under the same pin).
    pub fn insert_many(&self, items: &[(K, u64)]) -> Vec<TableResult<()>> {
        let _g = self.pool.epoch().pin();
        items.iter().map(|(k, v)| self.insert_pinned(k, *v)).collect()
    }

    /// Batched remove under one epoch entry; one `bool` per key, in order.
    pub fn remove_many(&self, keys: &[K]) -> Vec<bool> {
        let _g = self.pool.epoch().pin();
        keys.iter().map(|k| self.remove_pinned(k)).collect()
    }

    // ---- structural modification operations (§4.7) -----------------------

    /// Split the segment currently covering `h`. Steps: mark SPLITTING,
    /// allocate-activate the new segment into the side link, rehash with
    /// delete-after-insert, then update the directory and depths.
    fn split(&self, h: u64) -> TableResult<()> {
        let mode = self.cfg.lock_mode;
        let seg = self.resolve(h);
        let sview = self.view(seg);
        let depth_before = sview.header().local_depth.load(Ordering::Acquire);
        sview.lock_all(mode);
        if self.locate(h) != seg
            || sview.header().local_depth.load(Ordering::Acquire) != depth_before
        {
            // Someone else split first; the insert retry will see it.
            sview.unlock_all(mode);
            return Ok(());
        }

        let l = depth_before;
        let dir = self.dir_off();
        if l == self.dir_depth(dir) {
            if let Err(e) = self.double_directory(l) {
                sview.unlock_all(mode);
                return Err(e);
            }
            // Depth changed; re-derive chunk bounds below.
        }

        let hdr = sview.header();
        hdr.state.store(STATE_SPLITTING, Ordering::Release);
        self.pool.persist(self.pool.offset_of(&hdr.state), 4);

        let old_side = hdr.side_link.load(Ordering::Acquire);
        let side_slot = self.pool.offset_of(&hdr.side_link);
        let ticket = match self.pool.prepare_alloc(self.geom.bytes(), side_slot) {
            Ok(t) => t,
            Err(e) => {
                hdr.state.store(STATE_NORMAL, Ordering::Release);
                self.pool.persist(self.pool.offset_of(&hdr.state), 4);
                sview.unlock_all(mode);
                return Err(e.into());
            }
        };
        let n_off = ticket.block;
        let nview = self.view(n_off);
        let pattern = hdr.pattern.load(Ordering::Acquire);
        nview.init(
            STATE_NEW,
            l + 1,
            (pattern << 1) | 1,
            PmOffset::new(old_side),
            seg,
            self.pool.global_version(),
            0,
        );
        self.pool.commit_alloc(ticket); // side_link := N, persisted

        self.rehash_split(sview, nview)?;
        self.finish_split(sview, nview);
        sview.unlock_all(mode);
        self.splits.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Move records belonging to the new segment `n` (delete after
    /// insert, §4.7). `check_unique` guards recovery redo.
    fn rehash_split(&self, s: SegView<'_>, n: SegView<'_>) -> TableResult<()> {
        let new_depth = n.header().local_depth.load(Ordering::Acquire);
        let mut to_move = Vec::new();
        s.for_each_record(|loc, slot, key_repr, value| {
            let kh = K::hash_stored(&self.pool, key_repr);
            if (kh >> (64 - new_depth)) & 1 == 1 {
                to_move.push((loc, slot, key_repr, value, kh));
            }
        });
        let redo = n.count_records() > 0;
        for (loc, slot, key_repr, value, kh) in to_move {
            if redo {
                // Recovery rerun: skip records already moved pre-crash.
                let mut exists = false;
                n.for_each_record(|_, _, kr, _| {
                    if kr == key_repr {
                        exists = true;
                    }
                });
                if exists {
                    s.delete_at(loc, slot);
                    continue;
                }
            }
            if !n.insert_unlocked(&self.cfg, kh, key_repr, value, true)? {
                return Err(TableError::CapacityExhausted);
            }
            s.delete_at(loc, slot);
        }
        s.rebuild_overflow::<K>(&self.cfg);
        s.prune_chain();
        Ok(())
    }

    /// Step 3: point the upper half of the chunk at `n`, bump `s`'s local
    /// depth/pattern, clear SMO states. Idempotent — recovery reruns it.
    fn finish_split(&self, s: SegView<'_>, n: SegView<'_>) {
        let _dl = self.dir_lock.lock();
        let dir = self.dir_off();
        let g = self.dir_depth(dir);
        let nh = n.header();
        let sh = s.header();
        let new_l = nh.local_depth.load(Ordering::Acquire);
        let pattern_n = nh.pattern.load(Ordering::Acquire);
        debug_assert!(new_l <= g);
        let span = 1usize << (g - new_l);
        let start = (pattern_n as usize) << (g - new_l);
        for i in start..start + span {
            self.dir_entry(dir, i).store(n.off.get(), Ordering::Release);
        }
        self.pool.persist(dir.add(8 + 8 * start as u64), 8 * span);

        sh.local_depth.store(new_l, Ordering::Release);
        sh.pattern.store(pattern_n & !1, Ordering::Release);
        self.pool.persist(s.off, 64);
        nh.state.store(STATE_NORMAL, Ordering::Release);
        self.pool.persist(n.off, 64);
        sh.state.store(STATE_NORMAL, Ordering::Release);
        self.pool.persist(s.off, 64);
    }

    /// Double the directory (§4.7): build a new one with every entry
    /// duplicated, publish it with one atomic, persisted root store, and
    /// epoch-free the old.
    fn double_directory(&self, seen_depth: u32) -> TableResult<()> {
        let _dl = self.dir_lock.lock();
        let dir = self.dir_off();
        let depth = self.dir_depth(dir);
        if depth > seen_depth {
            return Ok(()); // someone else doubled already
        }
        if depth >= MAX_DEPTH {
            return Err(TableError::CapacityExhausted);
        }
        let old_len = 1usize << depth;
        let new_len = old_len * 2;
        let dir_slot = self.pool.offset_of(&self.rootref().directory);
        let ticket = self.pool.prepare_alloc(8 + 8 * new_len, dir_slot)?;
        let new_dir = ticket.block;
        // SAFETY: fresh directory block.
        unsafe { (*self.pool.at::<AtomicU64>(new_dir)).store(depth as u64 + 1, Ordering::Relaxed) };
        for i in 0..old_len {
            let e = self.dir_entry(dir, i).load(Ordering::Acquire);
            for j in [2 * i, 2 * i + 1] {
                // SAFETY: entry j of the fresh directory.
                unsafe {
                    (*self.pool.at::<AtomicU64>(new_dir.add(8 + 8 * j as u64)))
                        .store(e, Ordering::Relaxed)
                };
            }
        }
        self.pool.persist(new_dir, 8 + 8 * new_len);
        self.pool.commit_alloc(ticket); // root.directory := new_dir, persisted
        self.pool.defer_free(dir, 8 + 8 * old_len);
        self.doublings.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    // ---- merge (load-factor driven, forward-only) ------------------------

    fn maybe_merge(&self, h: u64) {
        let seg = self.locate(h);
        let view = self.view(seg);
        let records = view.count_records();
        let slots = view.capacity_slots();
        if slots == 0 || (records as f64 / slots as f64) >= self.cfg.merge_threshold {
            return;
        }
        let _ = self.try_merge(seg);
    }

    /// Merge `seg` with its buddy: the odd-pattern segment (B) drains into
    /// the even one (S). Forward-only: once B is marked MERGING the merge
    /// always completes (records can spill into S's stash chain), so
    /// recovery never needs a rollback with unreachable records.
    fn try_merge(&self, seg: PmOffset) -> TableResult<bool> {
        let mode = self.cfg.lock_mode;
        let hdr = unsafe { self.pool.at_ref::<SegmentHeader>(seg) };
        let l = hdr.local_depth.load(Ordering::Acquire);
        if l == 0 {
            return Ok(false);
        }
        let pattern = hdr.pattern.load(Ordering::Acquire);
        let (s_pat, b_pat) = (pattern & !1, pattern | 1);

        // Resolve both segments from the directory.
        let dir = self.dir_off();
        let g = self.dir_depth(dir);
        if l > g {
            return Ok(false);
        }
        let s_off = PmOffset::new(
            self.dir_entry(dir, (s_pat as usize) << (g - l)).load(Ordering::Acquire),
        );
        let b_off = PmOffset::new(
            self.dir_entry(dir, (b_pat as usize) << (g - l)).load(Ordering::Acquire),
        );
        if s_off == b_off || s_off.is_null() || b_off.is_null() {
            return Ok(false);
        }
        // Both segments must be through the recovery gate before we take
        // their bucket locks (either may carry crash-persisted locks).
        let v = self.pool.global_version();
        for off in [s_off, b_off] {
            let hdr = unsafe { self.pool.at_ref::<SegmentHeader>(off) };
            if hdr.rec_version.load(Ordering::Acquire) != v {
                self.recover_segment(off);
            }
        }
        let s = self.view(s_off);
        let b = self.view(b_off);
        // Lock S then B (global order: S has the smaller pattern).
        s.lock_all(mode);
        b.lock_all(mode);
        let bail = |why: bool| {
            b.unlock_all(mode);
            s.unlock_all(mode);
            Ok(why)
        };
        // Verify both still live at depth l with the right patterns.
        let sh = s.header();
        let bh = b.header();
        if sh.local_depth.load(Ordering::Acquire) != l
            || bh.local_depth.load(Ordering::Acquire) != l
            || sh.pattern.load(Ordering::Acquire) != s_pat
            || bh.pattern.load(Ordering::Acquire) != b_pat
            || sh.state.load(Ordering::Acquire) != STATE_NORMAL
            || bh.state.load(Ordering::Acquire) != STATE_NORMAL
        {
            return bail(false);
        }
        // Capacity sanity: combined records must comfortably fit S.
        let combined = s.count_records() + b.count_records();
        if combined as f64 >= 0.8 * s.capacity_slots() as f64 {
            return bail(false);
        }

        bh.back_link.store(s_off.get(), Ordering::Release);
        self.pool.persist(self.pool.offset_of(&bh.back_link), 8);
        bh.state.store(STATE_MERGING, Ordering::Release);
        self.pool.persist(self.pool.offset_of(&bh.state), 4);

        self.drain_merge(b, s)?;
        self.finish_merge(s, b);
        b.unlock_all(mode);
        s.unlock_all(mode);
        self.pool.defer_free(b_off, self.geom.bytes());
        self.merges.fetch_add(1, Ordering::Relaxed);
        // Opportunistically shrink the directory (§4.7 halving).
        let _ = self.try_halve_directory();
        Ok(true)
    }

    /// Halve the directory while every buddy pair of entries points to
    /// the same segment (all local depths below the global depth). The
    /// new directory is built fresh and published with one atomic root
    /// store, exactly like doubling; loops for cascading halvings.
    fn try_halve_directory(&self) -> TableResult<()> {
        loop {
            let _dl = self.dir_lock.lock();
            let dir = self.dir_off();
            let depth = self.dir_depth(dir);
            if depth == 0 {
                return Ok(());
            }
            let len = 1usize << depth;
            let halvable = (0..len).step_by(2).all(|i| {
                self.dir_entry(dir, i).load(Ordering::Acquire)
                    == self.dir_entry(dir, i + 1).load(Ordering::Acquire)
            });
            if !halvable {
                return Ok(());
            }
            let new_len = len / 2;
            let dir_slot = self.pool.offset_of(&self.rootref().directory);
            let ticket = self.pool.prepare_alloc(8 + 8 * new_len, dir_slot)?;
            let new_dir = ticket.block;
            // SAFETY: fresh directory block.
            unsafe {
                (*self.pool.at::<AtomicU64>(new_dir)).store(depth as u64 - 1, Ordering::Relaxed)
            };
            for i in 0..new_len {
                let e = self.dir_entry(dir, 2 * i).load(Ordering::Acquire);
                // SAFETY: entry i of the fresh directory.
                unsafe {
                    (*self.pool.at::<AtomicU64>(new_dir.add(8 + 8 * i as u64)))
                        .store(e, Ordering::Relaxed)
                };
            }
            self.pool.persist(new_dir, 8 + 8 * new_len);
            self.pool.commit_alloc(ticket);
            self.pool.defer_free(dir, 8 + 8 * len);
        }
    }

    /// Move every record of B into S (delete-after-insert; chain overflow
    /// allowed so the move is total). `unique` guards recovery redo.
    fn drain_merge(&self, b: SegView<'_>, s: SegView<'_>) -> TableResult<()> {
        let mut recs = Vec::new();
        b.for_each_record(|loc, slot, k, v| recs.push((loc, slot, k, v)));
        let redo = s.count_records() > 0;
        for (loc, slot, key_repr, value) in recs {
            let kh = K::hash_stored(&self.pool, key_repr);
            if redo {
                let mut exists = false;
                s.for_each_record(|_, _, kr, _| {
                    if kr == key_repr {
                        exists = true;
                    }
                });
                if exists {
                    b.delete_at(loc, slot);
                    continue;
                }
            }
            if !s.insert_unlocked(&self.cfg, kh, key_repr, value, true)? {
                return Err(TableError::CapacityExhausted);
            }
            b.delete_at(loc, slot);
        }
        Ok(())
    }

    /// Re-point B's directory chunk at S, shrink S's depth, patch the side
    /// link chain, clear states. Idempotent for recovery.
    fn finish_merge(&self, s: SegView<'_>, b: SegView<'_>) {
        let _dl = self.dir_lock.lock();
        let dir = self.dir_off();
        let g = self.dir_depth(dir);
        let sh = s.header();
        let bh = b.header();
        let l = bh.local_depth.load(Ordering::Acquire);
        let b_pat = bh.pattern.load(Ordering::Acquire);
        let span = 1usize << (g - l);
        let start = (b_pat as usize) << (g - l);
        for i in start..start + span {
            self.dir_entry(dir, i).store(s.off.get(), Ordering::Release);
        }
        self.pool.persist(dir.add(8 + 8 * start as u64), 8 * span);

        sh.local_depth.store(l - 1, Ordering::Release);
        sh.pattern.store(b_pat >> 1, Ordering::Release);
        sh.side_link.store(bh.side_link.load(Ordering::Acquire), Ordering::Release);
        self.pool.persist(s.off, 64);
        bh.state.store(STATE_NORMAL, Ordering::Release);
        self.pool.persist(b.off, 64);
    }

    // ---- lazy recovery (§4.8) ---------------------------------------------

    /// Recover one segment before its first post-restart use: clear locks,
    /// de-duplicate crashed displacements, rebuild overflow metadata, and
    /// finish or roll back an in-flight SMO.
    fn recover_segment(&self, seg: PmOffset) {
        let v = self.pool.global_version();
        loop {
            let view = self.view(seg);
            let hdr = view.header();
            if hdr.rec_version.load(Ordering::Acquire) == v {
                return;
            }
            // A NEW segment is recovered from its split source.
            if hdr.state.load(Ordering::Acquire) == STATE_NEW {
                let back = PmOffset::new(hdr.back_link.load(Ordering::Acquire));
                if !back.is_null() {
                    self.recover_segment(back);
                    // Defensive: if the source finished its split but our
                    // NEW flag lingers, clear it rather than defer forever.
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

            match hdr.state.load(Ordering::Acquire) {
                STATE_SPLITTING => {
                    let n_off = PmOffset::new(hdr.side_link.load(Ordering::Acquire));
                    let valid = !n_off.is_null() && {
                        let nh = unsafe { self.pool.at_ref::<SegmentHeader>(n_off) };
                        nh.back_link.load(Ordering::Acquire) == seg.get()
                    };
                    if valid {
                        let n = self.view(n_off);
                        n.clear_all_locks();
                        n.dedup_displaced();
                        if self.rehash_split(view, n).is_ok() {
                            n.rebuild_overflow::<K>(&self.cfg);
                            self.finish_split(view, n);
                            n.stamp_version(v);
                        }
                    } else {
                        // Crash before the new segment was activated: the
                        // allocator reclaimed it; roll the split back.
                        hdr.state.store(STATE_NORMAL, Ordering::Release);
                        self.pool.persist(self.pool.offset_of(&hdr.state), 4);
                    }
                }
                STATE_MERGING => {
                    let s_off = PmOffset::new(hdr.back_link.load(Ordering::Acquire));
                    if !s_off.is_null() {
                        // Forward-complete the merge; B (this segment) is
                        // then unreachable and freed.
                        self.recover_segment(s_off);
                        let s = self.view(s_off);
                        s.lock_all(self.cfg.lock_mode);
                        if self.drain_merge(view, s).is_ok() {
                            self.finish_merge(s, view);
                        }
                        s.unlock_all(self.cfg.lock_mode);
                        view.rec_unlock();
                        self.pool.defer_free(seg, self.geom.bytes());
                        return;
                    }
                    hdr.state.store(STATE_NORMAL, Ordering::Release);
                    self.pool.persist(self.pool.offset_of(&hdr.state), 4);
                }
                _ => {}
            }
            view.stamp_version(v);
            view.rec_unlock();
            return;
        }
    }

    // ---- introspection -----------------------------------------------------

    /// Current directory depth (for tests and diagnostics).
    pub fn global_depth(&self) -> u32 {
        self.dir_depth(self.dir_off())
    }

    /// Number of distinct segments.
    pub fn segment_count(&self) -> usize {
        let mut n = 0;
        self.for_each_segment(|_| n += 1);
        n
    }

    fn slots_total(&self) -> u64 {
        let mut slots = 0;
        self.for_each_segment(|seg| slots += self.view(seg).capacity_slots());
        slots
    }

    /// Visit every record as `(key_repr, value)` (diagnostics / tests).
    pub fn for_each(&self, mut f: impl FnMut(u64, u64)) {
        self.for_each_segment(|seg| {
            self.view(seg).for_each_record(|_, _, k, v| f(k, v));
        });
    }

    // ---- cursor scans ------------------------------------------------------

    /// Paged iteration with a split-stable cursor.
    ///
    /// The cursor is a **keyspace position**: the 64-bit hash boundary of
    /// the next segment to visit. Under MSB directory addressing (§4.7) a
    /// record with hash `h` always lives in the segment whose directory
    /// entry covers `h` — a split moves records only between the two
    /// halves of the segment's own hash range, and directory
    /// doubling/halving renumbers entries without moving a single hash
    /// boundary. Scanning range-by-range in hash order therefore yields
    /// every key that stays present at least once, no matter how many
    /// SMOs run mid-scan: ranges behind the cursor keep their keys, and
    /// ranges ahead are visited whatever segment ends up holding them.
    ///
    /// Each page snapshots whole segments (version-validated, so the
    /// page is a union of per-segment atomic states) and runs past
    /// `budget` only to finish the current segment. The position
    /// encodes the covering segment's local depth implicitly — it *is*
    /// the range boundary `(pattern+1) << (64-depth)` — so a merge that
    /// widens the segment under a resumed cursor is handled by filtering
    /// out the already-yielded lower half (`hash < pos`).
    pub fn scan(&self, cursor: ScanCursor, budget: usize) -> ScanPage<K> {
        if cursor.is_done() {
            return ScanPage::finished();
        }
        let budget = budget.max(1);
        let _g = self.pool.epoch().pin();
        let mut pos = cursor.pos();
        let mut items: Vec<(K, u64)> = Vec::new();
        loop {
            let seg = self.resolve(pos);
            let view = self.view(seg);
            let hdr = view.header();
            let depth = hdr.local_depth.load(Ordering::Acquire);
            let pattern = hdr.pattern.load(Ordering::Acquire);
            let verify = || {
                self.locate(pos) == seg
                    && hdr.local_depth.load(Ordering::Acquire) == depth
                    && hdr.pattern.load(Ordering::Acquire) == pattern
            };
            let Some(raw) = view.snapshot_records(self.cfg.lock_mode, verify) else {
                // The segment split or merged under us; re-resolve `pos`
                // against the new directory state.
                continue;
            };
            for (key_repr, value) in raw {
                if K::hash_stored(&self.pool, key_repr) < pos {
                    // Lower half of a segment merged since the cursor was
                    // issued: already yielded from its previous generation.
                    continue;
                }
                if let Some(key) = K::decode_stored(&self.pool, key_repr) {
                    items.push((key, value));
                }
            }
            // Advance past this segment's hash range.
            if depth == 0 || pattern + 1 == (1u64 << depth) {
                return ScanPage { items, cursor: ScanCursor::finished() };
            }
            pos = (pattern + 1) << (64 - depth);
            if items.len() >= budget {
                return ScanPage { items, cursor: ScanCursor::resume(pos) };
            }
        }
    }
}

impl<K: Key> PmHashTable<K> for DashEh<K> {
    fn get(&self, key: &K) -> Option<u64> {
        DashEh::get(self, key)
    }

    fn insert(&self, key: &K, value: u64) -> TableResult<()> {
        DashEh::insert(self, key, value)
    }

    fn update(&self, key: &K, value: u64) -> bool {
        DashEh::update(self, key, value)
    }

    fn remove(&self, key: &K) -> bool {
        DashEh::remove(self, key)
    }

    fn pin(&self) -> dash_common::Session<'_> {
        dash_common::Session::pinned(self.pool.epoch().pin())
    }

    fn get_many(&self, keys: &[K]) -> Vec<Option<u64>> {
        DashEh::get_many(self, keys)
    }

    fn insert_many(&self, items: &[(K, u64)]) -> Vec<TableResult<()>> {
        DashEh::insert_many(self, items)
    }

    fn remove_many(&self, keys: &[K]) -> Vec<bool> {
        DashEh::remove_many(self, keys)
    }

    fn for_each_kv(&self, f: &mut dyn FnMut(&K, u64)) {
        let _g = self.pool.epoch().pin();
        self.for_each_segment(|seg| {
            self.view(seg).for_each_record(|_, _, key_repr, value| {
                if let Some(key) = K::decode_stored(&self.pool, key_repr) {
                    f(&key, value);
                }
            });
        });
    }

    fn scan(&self, cursor: ScanCursor, budget: usize) -> ScanPage<K> {
        DashEh::scan(self, cursor, budget)
    }

    fn capacity_slots(&self) -> u64 {
        self.slots_total()
    }

    fn name(&self) -> &'static str {
        "Dash-EH"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dash_common::{uniform_keys, VarKey};
    use pmem::PoolConfig;

    fn small_cfg() -> DashConfig {
        DashConfig { bucket_bits: 2, initial_depth: 1, ..Default::default() }
    }

    fn new_table(pool_mb: usize, cfg: DashConfig) -> DashEh<u64> {
        let pool = PmemPool::create(PoolConfig::with_size(pool_mb << 20)).unwrap();
        DashEh::create(pool, cfg).unwrap()
    }

    #[test]
    fn basic_crud() {
        let t = new_table(16, DashConfig::default());
        assert_eq!(t.get(&1), None);
        t.insert(&1, 100).unwrap();
        assert_eq!(t.get(&1), Some(100));
        assert!(matches!(t.insert(&1, 200), Err(TableError::Duplicate)));
        assert!(t.update(&1, 300));
        assert_eq!(t.get(&1), Some(300));
        assert!(t.remove(&1));
        assert_eq!(t.get(&1), None);
        assert!(!t.remove(&1));
        assert!(!t.update(&1, 1));
    }

    #[test]
    fn swap_replaces_in_one_probe_and_never_inserts() {
        let t = new_table(16, small_cfg());
        assert_eq!(t.swap(&7, 1), None, "absent: nothing to replace");
        assert_eq!(t.get(&7), None, "and nothing written");
        t.insert(&7, 100).unwrap();
        assert_eq!(t.swap(&7, 200), Some(100));
        assert_eq!(t.swap(&7, 300), Some(200));
        assert_eq!(t.get(&7), Some(300));
        // Stash-resident records too: fill far past the normal buckets.
        for k in 1_000..3_000u64 {
            t.insert(&k, k).unwrap();
        }
        for k in 1_000..3_000u64 {
            assert_eq!(t.swap(&k, k + 1), Some(k), "key {k}");
        }
        assert!((1_000..3_000u64).all(|k| t.get(&k) == Some(k + 1)));
    }

    /// The three operations of a caller that owns its key storage: insert
    /// an already-encoded word, read it back, swap it for another
    /// encoding of the same key — in normal buckets and in the stash.
    #[test]
    fn insert_encoded_find_and_rekey_move_the_key_word_only() {
        let pool = PmemPool::create(PoolConfig::with_size(32 << 20)).unwrap();
        let t: DashEh<VarKey> = DashEh::create(pool.clone(), small_cfg()).unwrap();
        let key = |i: u64| format!("owned-{i:05}").into_bytes();
        assert_eq!(t.rekey(key(0).as_slice(), 64), None, "absent: nothing to replace");
        assert_eq!(t.find(key(0).as_slice()), None, "and nothing written");
        // Far past the normal buckets of two 4-bucket segments.
        let mut words = Vec::new();
        for i in 0..3_000u64 {
            let word = key(i).as_slice().encode(&pool).unwrap();
            let (allocs, splits) = (pool.stats().allocs, t.split_count());
            t.insert_encoded(key(i).as_slice(), word, i).unwrap();
            if t.split_count() == splits {
                assert_eq!(pool.stats().allocs, allocs, "an encoded insert allocates nothing");
            }
            words.push(word);
        }
        assert!(matches!(
            t.insert_encoded(key(7).as_slice(), words[7], 0),
            Err(TableError::Duplicate)
        ));
        for i in 0..3_000u64 {
            let k = key(i);
            assert_eq!(t.find(k.as_slice()), Some((words[i as usize], i)), "key {i}");
            let again = k.as_slice().encode(&pool).unwrap();
            let (flushes, allocs) = (pool.stats().flushes, pool.stats().allocs);
            assert_eq!(t.rekey(k.as_slice(), again), Some(words[i as usize]), "key {i}");
            let after = pool.stats();
            assert_eq!((after.flushes, after.allocs), (flushes + 1, allocs), "one 8-byte persist");
            assert_eq!(t.find(k.as_slice()), Some((again, i)), "value word untouched, key {i}");
            VarKey::release(&pool, words[i as usize]);
        }
        assert_eq!(t.len_scan(), 3_000);
    }

    /// Hinting present and absent keys of a table grown through many
    /// splits changes no counter of the pool, and every present key
    /// outside the stash has its value word handed over.
    #[test]
    fn hints_are_inert_and_find_what_a_probe_would() {
        let pool = PmemPool::create(PoolConfig::with_size(64 << 20)).unwrap();
        let t: DashEh<VarKey> = DashEh::create(pool.clone(), DashConfig::default()).unwrap();
        let key = |i: u64| format!("hint-key-{i:06}").into_bytes();
        for i in 0..10_000u64 {
            t.insert(key(i).as_slice(), i + 1).unwrap();
        }
        assert!(t.split_count() > 8, "{} splits", t.split_count());
        let before = pool.stats();
        let mut found = 0u64;
        {
            let _pin = pool.epoch().pin();
            for i in 0..20_000u64 {
                let h = key(i).as_slice().hash64();
                t.hint_buckets(h);
                let mut hit = false;
                t.hint_records(h, |_, value| hit |= value == i + 1);
                assert!(i < 10_000 || !hit, "absent key {i} cannot yield its value");
                found += u64::from(hit);
            }
        }
        assert_eq!(pool.stats(), before, "hints are not metered and write nothing");
        assert!(found > 9_000, "only stash-resident keys go unhinted, found {found}");
        assert!((0..10_000u64).all(|i| t.get(key(i).as_slice()) == Some(i + 1)));
    }

    /// Hints race every structural change the table has — splits,
    /// doublings, merges, halvings, deletes with their deferred key frees
    /// — holding only an epoch pin, and never fault or panic: whatever a
    /// hint reads is bounds-checked before it is followed.
    #[test]
    fn hints_survive_concurrent_splits_doublings_and_deletes() {
        let pool = PmemPool::create(PoolConfig::with_size(64 << 20)).unwrap();
        let cfg = DashConfig { merge_threshold: 0.3, ..small_cfg() };
        let t: DashEh<VarKey> = DashEh::create(pool.clone(), cfg).unwrap();
        let key = |i: u64| format!("churn-{i:05}").into_bytes();
        let done = std::sync::atomic::AtomicBool::new(false);
        let started = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                started.wait();
                for round in 0..4u64 {
                    for i in 0..4_000u64 {
                        t.insert(key(i).as_slice(), round * 10_000 + i + 1).unwrap();
                    }
                    for i in 0..4_000u64 {
                        assert!(t.remove(key(i).as_slice()));
                    }
                    pool.epoch_collect();
                }
                done.store(true, Ordering::Release);
            });
            started.wait();
            let mut seen = 0u64;
            while !done.load(Ordering::Acquire) {
                let _pin = pool.epoch().pin();
                for i in 0..4_000u64 {
                    let h = key(i).as_slice().hash64();
                    t.hint_buckets(h);
                    t.hint_records(h, |_, value| seen += u64::from(value != 0));
                }
            }
            assert!(seen > 0, "the hinting thread ran against a live table");
        });
        assert!(t.split_count() > 0 && t.doubling_count() > 0 && t.merge_count() > 0);
    }

    #[test]
    fn var_key_tables_are_probed_with_borrowed_bytes() {
        let pool = PmemPool::create(PoolConfig::with_size(16 << 20)).unwrap();
        let t: DashEh<VarKey> = DashEh::create(pool, small_cfg()).unwrap();
        let wire = b"GET user:42 trailing".to_vec();
        let key: &[u8] = &wire[4..11];
        // Inserted from a borrowed slice, found by owned key, and back.
        t.insert(key, 1).unwrap();
        assert_eq!(t.get(&VarKey::new(*b"user:42")), Some(1));
        t.insert(&VarKey::new(*b"user:43"), 2).unwrap();
        assert_eq!(t.get(&wire[..0]), None);
        assert_eq!(t.get(b"user:43".as_slice()), Some(2));
        assert!(matches!(t.insert(key, 9), Err(TableError::Duplicate)));
        assert_eq!(t.swap(key, 3), Some(1));
        assert!(t.remove(key));
        assert_eq!(t.get(key), None);
    }

    #[test]
    fn batch_ops_roundtrip_through_splits() {
        let t = new_table(64, small_cfg());
        let keys = uniform_keys(8_000, 71);
        let items: Vec<(u64, u64)> = keys.iter().enumerate().map(|(i, k)| (*k, i as u64)).collect();
        // One batch insert large enough to force splits and doublings
        // under a single epoch pin.
        assert!(t.insert_many(&items).iter().all(|r| r.is_ok()));
        assert!(t.global_depth() > small_cfg().initial_depth);
        assert!(
            t.insert_many(&items[..16]).iter().all(|r| matches!(r, Err(TableError::Duplicate))),
            "batch re-insert must report Duplicate per item"
        );
        for (i, got) in t.get_many(&keys).into_iter().enumerate() {
            assert_eq!(got, Some(i as u64), "batched get of key {i}");
        }
        let half = keys.len() / 2;
        assert!(t.remove_many(&keys[..half]).into_iter().all(|b| b));
        assert!(t.remove_many(&keys[..half]).into_iter().all(|b| !b), "second remove sees absent");
        assert_eq!(t.len_scan(), (keys.len() - half) as u64);
    }

    #[test]
    fn grows_through_many_splits_and_doublings() {
        let t = new_table(64, small_cfg());
        let keys = uniform_keys(20_000, 42);
        for (i, k) in keys.iter().enumerate() {
            t.insert(k, i as u64).unwrap();
        }
        assert!(t.global_depth() > small_cfg().initial_depth, "directory must double");
        assert!(t.segment_count() > 2);
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(t.get(k), Some(i as u64), "key {i} lost after splits");
        }
        assert_eq!(t.len_scan(), keys.len() as u64);
    }

    #[test]
    fn paper_geometry_inserts() {
        let t = new_table(128, DashConfig::default());
        let keys = uniform_keys(50_000, 7);
        for (i, k) in keys.iter().enumerate() {
            t.insert(k, i as u64).unwrap();
        }
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(t.get(k), Some(i as u64));
        }
        // Load factor should be healthy with full Dash (fig. 12 ~80 %+ at 2 stash).
        let lf = t.load_factor();
        assert!(lf > 0.4, "load factor {lf} unexpectedly low");
    }

    #[test]
    fn negative_search_after_growth() {
        let t = new_table(32, small_cfg());
        let keys = uniform_keys(5_000, 3);
        for k in &keys {
            t.insert(k, 1).unwrap();
        }
        for k in dash_common::negative_keys(5_000, 3) {
            assert_eq!(t.get(&k), None);
        }
    }

    #[test]
    fn delete_everything_then_reuse() {
        let t = new_table(32, small_cfg());
        let keys = uniform_keys(3_000, 11);
        for k in &keys {
            t.insert(k, 5).unwrap();
        }
        for k in &keys {
            assert!(t.remove(k));
        }
        assert_eq!(t.len_scan(), 0);
        for k in &keys {
            t.insert(k, 6).unwrap();
            assert_eq!(t.get(k), Some(6));
        }
    }

    #[test]
    fn var_keys_supported() {
        let pool = PmemPool::create(PoolConfig::with_size(64 << 20)).unwrap();
        let t: DashEh<VarKey> = DashEh::create(pool, small_cfg()).unwrap();
        let keys = dash_common::var_keys(4_000, 9, 16);
        for (i, k) in keys.iter().enumerate() {
            t.insert(k, i as u64).unwrap();
        }
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(t.get(k), Some(i as u64));
        }
        assert!(matches!(t.insert(&keys[0], 0), Err(TableError::Duplicate)));
        assert!(t.remove(&keys[0]));
        assert_eq!(t.get(&keys[0]), None);
    }

    #[test]
    fn concurrent_inserts_and_gets() {
        let t = std::sync::Arc::new(new_table(128, DashConfig::default()));
        let keys = std::sync::Arc::new(uniform_keys(32_000, 5));
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
        // Concurrent readers while writers mutate.
        std::thread::scope(|s| {
            for tid in 0..threads {
                let t = t.clone();
                let keys = keys.clone();
                s.spawn(move || {
                    for i in (tid..keys.len()).step_by(threads) {
                        if tid % 2 == 0 {
                            assert!(t.remove(&keys[i]));
                        } else {
                            let _ = t.get(&keys[i]);
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn duplicate_insert_race_yields_exactly_one() {
        let t = std::sync::Arc::new(new_table(32, DashConfig::default()));
        let successes = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    if t.insert(&777, 1).is_ok() {
                        successes.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                    }
                });
            }
        });
        assert_eq!(successes.load(std::sync::atomic::Ordering::SeqCst), 1);
        assert_eq!(t.len_scan(), 1);
    }

    #[test]
    fn clean_shutdown_reopen() {
        let cfg = PoolConfig { size: 32 << 20, shadow: true, ..Default::default() };
        let pool = PmemPool::create(cfg).unwrap();
        let t: DashEh<u64> = DashEh::create(pool.clone(), small_cfg()).unwrap();
        let keys = uniform_keys(2_000, 21);
        for (i, k) in keys.iter().enumerate() {
            t.insert(k, i as u64).unwrap();
        }
        let img = pool.close_image();
        drop(t);
        let pool2 = PmemPool::open(img, cfg).unwrap();
        assert!(pool2.recovery_outcome().clean);
        let t2: DashEh<u64> = DashEh::open(pool2).unwrap();
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(t2.get(k), Some(i as u64));
        }
    }

    #[test]
    fn crash_reopen_recovers_all_committed_records() {
        let cfg = PoolConfig { size: 64 << 20, shadow: true, ..Default::default() };
        let pool = PmemPool::create(cfg).unwrap();
        let t: DashEh<u64> = DashEh::create(pool.clone(), small_cfg()).unwrap();
        let keys = uniform_keys(8_000, 33);
        for (i, k) in keys.iter().enumerate() {
            t.insert(k, i as u64).unwrap();
        }
        let img = pool.crash_image(); // power cut, no clean shutdown
        drop(t);
        let pool2 = PmemPool::open(img, cfg).unwrap();
        assert!(!pool2.recovery_outcome().clean);
        let t2: DashEh<u64> = DashEh::open(pool2).unwrap();
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(t2.get(k), Some(i as u64), "key {i} lost in crash");
        }
        // And the table remains fully operational.
        for k in dash_common::negative_keys(1_000, 33) {
            t2.insert(&k, 1).unwrap();
        }
    }

    #[test]
    fn merge_shrinks_segments() {
        let cfg = DashConfig {
            bucket_bits: 2,
            initial_depth: 1,
            merge_threshold: 0.2,
            ..Default::default()
        };
        let t = new_table(64, cfg);
        let keys = uniform_keys(6_000, 13);
        for k in &keys {
            t.insert(k, 1).unwrap();
        }
        let segs_full = t.segment_count();
        for k in &keys {
            assert!(t.remove(k));
        }
        assert!(t.segment_count() < segs_full, "merges must reduce segment count");
        // Table still fully functional.
        for k in keys.iter().take(500) {
            t.insert(k, 2).unwrap();
            assert_eq!(t.get(k), Some(2));
        }
    }

    #[test]
    fn directory_halves_after_mass_deletes() {
        let cfg = DashConfig {
            bucket_bits: 2,
            initial_depth: 1,
            merge_threshold: 0.3,
            ..Default::default()
        };
        let t = new_table(64, cfg);
        let keys = uniform_keys(8_000, 29);
        for k in &keys {
            t.insert(k, 1).unwrap();
        }
        let depth_full = t.global_depth();
        assert!(depth_full > 1, "table must have grown first");
        for k in &keys {
            assert!(t.remove(k));
        }
        assert!(
            t.global_depth() < depth_full,
            "directory should halve: {} -> {}",
            depth_full,
            t.global_depth()
        );
        // Survives a reopen after halving.
        let img = t.pool().close_image();
        let pcfg = PoolConfig::with_size(t.pool().size());
        drop(t);
        let pool2 = PmemPool::open(img, pcfg).unwrap();
        let t2: DashEh<u64> = DashEh::open(pool2).unwrap();
        for k in keys.iter().take(1_000) {
            t2.insert(k, 3).unwrap();
            assert_eq!(t2.get(k), Some(3));
        }
    }

    #[test]
    fn scan_pages_cover_table_exactly_once_when_quiescent() {
        use dash_common::ScanCursor;
        let t = new_table(64, small_cfg());
        let keys = uniform_keys(10_000, 91);
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
            // Cursors round-trip through their raw position (the wire form).
            cursor = ScanCursor::resume(page.cursor.pos());
        }
        assert!(pages > 1, "budget 64 must paginate 10k keys");
        assert_eq!(seen.len(), keys.len());
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(seen.get(k), Some(&(i as u64)), "key {i} missing from scan");
        }
        // len_scan rides the same path.
        assert_eq!(t.len_scan(), keys.len() as u64);
    }

    /// The deterministic split test of the acceptance criteria: start a
    /// scan, force many splits and a directory doubling mid-scan, finish
    /// the scan — every key present throughout must be yielded.
    #[test]
    fn scan_survives_splits_and_doubling_mid_scan() {
        use dash_common::ScanCursor;
        let t = new_table(128, small_cfg());
        let stable = uniform_keys(2_000, 7);
        for k in &stable {
            t.insert(k, 1).unwrap();
        }
        let depth_before = t.global_depth();

        // First page with a tiny budget, so the cursor parks mid-table.
        let mut yielded: Vec<u64> = Vec::new();
        let first = t.scan(ScanCursor::START, 8);
        yielded.extend(first.items.iter().map(|(k, _)| *k));
        assert!(!first.cursor.is_done(), "2k keys cannot fit one 8-budget page");

        // Mid-scan structural churn: enough inserts to split every
        // segment several times and double the directory.
        for k in dash_common::negative_keys(12_000, 7) {
            t.insert(&k, 2).unwrap();
        }
        assert!(t.global_depth() > depth_before, "churn must double the directory");

        let mut cursor = first.cursor;
        while !cursor.is_done() {
            let page = t.scan(cursor, 256);
            yielded.extend(page.items.iter().map(|(k, _)| *k));
            cursor = page.cursor;
        }
        let yielded: std::collections::HashSet<u64> = yielded.into_iter().collect();
        for k in &stable {
            assert!(yielded.contains(k), "stable key {k} lost by a scan crossing splits");
        }
    }

    /// Merges move records the other way: shrink the table under a
    /// parked cursor and confirm the surviving keys still all appear.
    #[test]
    fn scan_survives_merges_and_halving_mid_scan() {
        use dash_common::ScanCursor;
        let cfg = DashConfig {
            bucket_bits: 2,
            initial_depth: 1,
            merge_threshold: 0.3,
            ..Default::default()
        };
        let t = new_table(64, cfg);
        let keep = uniform_keys(500, 19);
        let churn = dash_common::negative_keys(8_000, 19);
        for k in keep.iter().chain(&churn) {
            t.insert(k, 3).unwrap();
        }
        let depth_full = t.global_depth();
        assert!(depth_full > 1);

        let first = t.scan(ScanCursor::START, 8);
        let mut yielded: std::collections::HashSet<u64> =
            first.items.iter().map(|(k, _)| *k).collect();
        assert!(!first.cursor.is_done());

        // Mass delete mid-scan: merges + directory halving.
        for k in &churn {
            assert!(t.remove(k));
        }
        assert!(t.global_depth() < depth_full, "deletes must halve the directory");

        let mut cursor = first.cursor;
        while !cursor.is_done() {
            let page = t.scan(cursor, 64);
            yielded.extend(page.items.iter().map(|(k, _)| *k));
            cursor = page.cursor;
        }
        for k in &keep {
            assert!(yielded.contains(k), "kept key {k} lost by a scan crossing merges");
        }
    }

    #[test]
    fn pessimistic_mode_end_to_end() {
        let t = new_table(
            32,
            DashConfig { lock_mode: crate::LockMode::Pessimistic, ..small_cfg() },
        );
        let keys = uniform_keys(4_000, 17);
        for (i, k) in keys.iter().enumerate() {
            t.insert(k, i as u64).unwrap();
        }
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(t.get(k), Some(i as u64));
        }
    }
}
