use parking_lot::Mutex;
use std::alloc::Layout;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

use crate::alloc::{AllocMode, NUM_CLASSES};
use crate::cost::{CostModel, CostState};
use crate::epoch::EpochManager;
use crate::error::{PmError, Result};
use crate::layout::{align_up, PmOffset, CACHELINE};
use crate::span::Wait;
use crate::stats::{self, StatsSnapshot, Striped, PM_CELLS};
use crate::tx::{RedoArea, MAX_TX_WRITES};

/// Format stamp: bits 32..48 of [`MAGIC`]. Bumped whenever persistent
/// allocator state changes meaning — 0002: the size-class table went from
/// one class per doubling to four, so `free_heads` and the in-flight
/// table's `class` index differently. Stores built on this substrate ride
/// on the same stamp for their own block layouts.
const FORMAT: u16 = 0x0002;
const FORMAT_SHIFT: u32 = 32;
const FORMAT_MASK: u64 = 0xFFFF << FORMAT_SHIFT;
pub(crate) const MAGIC: u64 = 0xDA54_0000_B07E_CAFE | (FORMAT as u64) << FORMAT_SHIFT;
pub(crate) const MAX_INFLIGHT: usize = 64;
/// First byte of the allocatable heap; everything below is the pool header.
pub(crate) const HEAP_START: u64 = 4096;

/// One entry of the PMDK-style in-flight allocation table: while an
/// allocate–activate sequence is running, the block is registered here so a
/// crash can return it to either the application (if the owner slot was
/// published) or the allocator — never leaking it (§2.3 steps 1–2).
#[repr(C)]
pub(crate) struct InflightEntry {
    /// Block offset being allocated; 0 = entry free.
    pub block: AtomicU64,
    /// Offset of the 8-byte owner slot the block will be published into.
    pub owner_slot: AtomicU64,
    /// Size class of the block (for returning it to the right free list).
    pub class: AtomicU64,
    _pad: AtomicU64,
}

/// Persistent pool header at offset 0.
#[repr(C)]
pub(crate) struct PoolHeader {
    pub magic: AtomicU64,
    pub pool_size: AtomicU64,
    /// Clean-shutdown marker (§4.8): 1 after `close`, 0 otherwise.
    pub clean: AtomicU8,
    /// Global recovery version `V` (§4.8), one byte as in the paper.
    pub version: AtomicU8,
    _pad: [u8; 6],
    /// Application root object (e.g. a hash table's persistent root).
    pub root: AtomicU64,
    /// Bump pointer for never-before-allocated space.
    pub bump: AtomicU64,
    /// Per-size-class persistent free list heads.
    pub free_heads: [AtomicU64; NUM_CLASSES],
    pub inflight: [InflightEntry; MAX_INFLIGHT],
    pub redo: RedoArea,
}

/// Storage behind a region: an anonymous heap allocation (the default,
/// DRAM-emulated PM) or a shared file mapping (PMDK-pool-style persistence
/// that survives process restarts).
enum RegionBacking {
    Heap { layout: Layout },
    #[cfg(unix)]
    File(crate::mmap::FileMapping),
}

/// Aligned raw memory region (zeroed when heap-backed and fresh).
struct Region {
    ptr: *mut u8,
    size: usize,
    backing: RegionBacking,
}

unsafe impl Send for Region {}
unsafe impl Sync for Region {}

impl Region {
    fn new_zeroed(size: usize) -> Result<Region> {
        let layout = Layout::from_size_align(size, 4096)
            .map_err(|_| PmError::InvalidConfig("pool size not layout-compatible"))?;
        // SAFETY: layout has non-zero size (validated by caller).
        let ptr = unsafe { std::alloc::alloc_zeroed(layout) };
        if ptr.is_null() {
            return Err(PmError::OutOfMemory { requested: size });
        }
        Ok(Region { ptr, size, backing: RegionBacking::Heap { layout } })
    }

    /// Map `size` bytes of `file` as the region (file-backed pools).
    #[cfg(unix)]
    fn from_file(file: std::fs::File, size: usize) -> Result<Region> {
        let mapping = crate::mmap::FileMapping::map(file, size)?;
        Ok(Region { ptr: mapping.ptr(), size, backing: RegionBacking::File(mapping) })
    }

    /// Durably write dirty pages back (no-op for heap regions).
    fn sync(&self) -> Result<()> {
        match &self.backing {
            RegionBacking::Heap { .. } => Ok(()),
            #[cfg(unix)]
            RegionBacking::File(m) => m.sync(),
        }
    }

    fn is_file_backed(&self) -> bool {
        !matches!(self.backing, RegionBacking::Heap { .. })
    }

    fn as_slice(&self) -> &[u8] {
        // SAFETY: region owns `size` initialized bytes.
        unsafe { std::slice::from_raw_parts(self.ptr, self.size) }
    }
}

impl Drop for Region {
    fn drop(&mut self) {
        if let RegionBacking::Heap { layout } = self.backing {
            // SAFETY: ptr/layout come from alloc_zeroed above.
            unsafe { std::alloc::dealloc(self.ptr, layout) };
        }
        // File mappings unmap themselves when the backing drops.
    }
}

/// Configuration for creating (or reopening) a pool.
#[derive(Debug, Clone, Copy)]
pub struct PoolConfig {
    /// Pool size in bytes (multiple of 4 KB, at least 64 KB).
    pub size: usize,
    /// Track persistence at cacheline granularity so a simulated crash
    /// keeps only explicitly flushed data. Costs a 2× memory overhead and a
    /// copy per flush; enable for crash-consistency tests.
    pub shadow: bool,
    /// Optane-like latency/bandwidth emulation (default: none).
    pub cost: CostModel,
    /// Allocator behaviour (PMDK-like vs pre-faulting custom allocator).
    pub alloc_mode: AllocMode,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            size: 64 << 20,
            shadow: false,
            cost: CostModel::none(),
            alloc_mode: AllocMode::Pmdk,
        }
    }
}

impl PoolConfig {
    pub fn with_size(size: usize) -> Self {
        PoolConfig { size, ..Default::default() }
    }
}

/// A persisted pool image: what would be on the DIMMs after a power cut
/// (shadow mode) or a clean shutdown. Feed it to [`PmemPool::open`] to
/// simulate a restart.
pub struct PoolImage {
    pub(crate) data: Box<[u8]>,
}

impl PoolImage {
    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// What `open` had to do, mirroring the paper's instant-recovery contract:
/// constant work (read `clean`, maybe bump `V`) plus allocator fix-ups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryOutcome {
    /// True if the image was produced by a clean shutdown.
    pub clean: bool,
    /// The global recovery version after open.
    pub version: u8,
    /// The one-byte version wrapped around; tables must re-stamp segments.
    pub wrapped: bool,
    /// A committed redo-log transaction was replayed.
    pub redo_replayed: bool,
    /// In-flight allocations resolved (completed or rolled back).
    pub inflight_resolved: usize,
}

/// The emulated persistent memory pool. See the crate docs for the
/// mapping between this and real Optane + PMDK.
pub struct PmemPool {
    region: Region,
    size: usize,
    shadow: Option<Region>,
    stats: Striped<PM_CELLS>,
    cost: CostState,
    pub(crate) alloc_mode: AllocMode,
    pub(crate) class_locks: Box<[Mutex<()>]>,
    pub(crate) tx_lock: Mutex<()>,
    epoch: EpochManager,
    flush_limit: AtomicU64,
    flushes_issued: AtomicU64,
    recovery: RecoveryOutcome,
    /// Bytes sitting on the per-class free lists, reusable by `alloc`.
    /// Seeded by walking the (persistent) lists at open; maintained by
    /// `pop_free`/`free_now`. `mem_used` = bump − this.
    pub(crate) free_list_bytes: AtomicU64,
}

impl PmemPool {
    fn validate_config(cfg: &PoolConfig) -> Result<()> {
        if cfg.size < 64 * 1024 || !cfg.size.is_multiple_of(4096) {
            return Err(PmError::InvalidConfig("size must be a 4 KB multiple of at least 64 KB"));
        }
        Ok(())
    }

    fn build(region: Region, shadow: bool, cfg: &PoolConfig, recovery: RecoveryOutcome) -> Result<Arc<Self>> {
        let size = region.size;
        let shadow = if shadow { Some(Region::new_zeroed(size)?) } else { None };
        let mut class_locks = Vec::with_capacity(NUM_CLASSES);
        class_locks.resize_with(NUM_CLASSES, || Mutex::new(()));
        Ok(Arc::new(PmemPool {
            region,
            size,
            shadow,
            stats: Striped::new(),
            cost: CostState::new(cfg.cost),
            alloc_mode: cfg.alloc_mode,
            class_locks: class_locks.into_boxed_slice(),
            tx_lock: Mutex::new(()),
            epoch: EpochManager::new(),
            flush_limit: AtomicU64::new(u64::MAX),
            flushes_issued: AtomicU64::new(0),
            recovery,
            free_list_bytes: AtomicU64::new(0),
        }))
    }

    /// Header initialization shared by [`Self::create`] and
    /// [`Self::create_file`].
    fn init_fresh(pool: &Arc<Self>, size: usize) {
        let h = pool.header();
        h.magic.store(MAGIC, Ordering::Relaxed);
        h.pool_size.store(size as u64, Ordering::Relaxed);
        h.clean.store(0, Ordering::Relaxed);
        h.version.store(1, Ordering::Relaxed);
        h.bump.store(HEAP_START, Ordering::Relaxed);
        pool.flush(PmOffset::new(0), HEAP_START as usize);
        pool.fence();
    }

    const FRESH_RECOVERY: RecoveryOutcome = RecoveryOutcome {
        clean: true,
        version: 1,
        wrapped: false,
        redo_replayed: false,
        inflight_resolved: 0,
    };

    /// Create a fresh pool.
    pub fn create(cfg: PoolConfig) -> Result<Arc<Self>> {
        Self::validate_config(&cfg)?;
        assert!(std::mem::size_of::<PoolHeader>() as u64 <= HEAP_START);
        let region = Region::new_zeroed(cfg.size)?;
        let pool = Self::build(region, cfg.shadow, &cfg, Self::FRESH_RECOVERY)?;
        Self::init_fresh(&pool, cfg.size);
        Ok(pool)
    }

    /// Create a fresh **file-backed** pool at `path` (truncating any
    /// existing file), the analogue of `pmemobj_create`. The pool region
    /// is a `MAP_SHARED` mapping of the file; a [`Self::close`] makes its
    /// contents durable for a later [`Self::open_file`]. Persistent
    /// references are pool offsets, so no fixed mapping address is needed
    /// (see `pmem::mmap` for how this relates to the paper's `MAP_FIXED`
    /// setup, §6.1).
    #[cfg(unix)]
    pub fn create_file(path: &std::path::Path, cfg: PoolConfig) -> Result<Arc<Self>> {
        Self::validate_config(&cfg)?;
        assert!(std::mem::size_of::<PoolHeader>() as u64 <= HEAP_START);
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|_| PmError::Io("cannot create pool file"))?;
        file.set_len(cfg.size as u64).map_err(|_| PmError::Io("cannot size pool file"))?;
        let region = Region::from_file(file, cfg.size)?;
        let pool = Self::build(region, cfg.shadow, &cfg, Self::FRESH_RECOVERY)?;
        Self::init_fresh(&pool, cfg.size);
        Ok(pool)
    }

    /// Recovery shared by [`Self::open`] and [`Self::open_file`]: replay a
    /// committed redo transaction, resolve in-flight allocations, and
    /// handle the clean flag / global version per §4.8. This is the
    /// constant-work part of recovery; table-level recovery is lazy.
    fn finish_open(pool: &Arc<Self>) -> Result<RecoveryOutcome> {
        let mut recovery = RecoveryOutcome {
            clean: false,
            version: 0,
            wrapped: false,
            redo_replayed: false,
            inflight_resolved: 0,
        };
        {
            let h = pool.header();
            let magic = h.magic.load(Ordering::Relaxed);
            if magic != MAGIC {
                // A pool of another format generation is refused before
                // anything is written: its free lists and block layouts
                // would be misread, not recovered.
                if magic & !FORMAT_MASK == MAGIC & !FORMAT_MASK {
                    let found = (magic >> FORMAT_SHIFT) as u16;
                    return Err(PmError::PoolFormat { found, expected: FORMAT });
                }
                return Err(PmError::PoolCorrupt("bad magic"));
            }
            if h.pool_size.load(Ordering::Relaxed) != pool.size as u64 {
                return Err(PmError::PoolCorrupt("size mismatch"));
            }
            recovery.redo_replayed = pool.replay_redo();
            recovery.inflight_resolved = pool.recover_inflight();
            let clean = h.clean.load(Ordering::Relaxed) == 1;
            recovery.clean = clean;
            if clean {
                h.clean.store(0, Ordering::Relaxed);
                recovery.version = h.version.load(Ordering::Relaxed);
            } else {
                // Crash: bump the one-byte version; on wrap-around tables
                // must re-stamp all segments (rare path, §4.8).
                let v = h.version.load(Ordering::Relaxed);
                let (nv, wrapped) = if v == u8::MAX { (1u8, true) } else { (v + 1, false) };
                h.version.store(nv, Ordering::Relaxed);
                recovery.version = nv;
                recovery.wrapped = wrapped;
            }
            pool.flush(PmOffset::new(0), HEAP_START as usize);
            pool.fence();
        }
        // Everything already in the pool is, by definition, persisted:
        // sync the shadow so only *new* unflushed writes can be lost.
        if pool.shadow.is_some() {
            pool.sync_shadow_full();
        }
        // Ground-truth the free-list byte gauge from the persistent lists
        // (recovery above may already have returned blocks to them).
        pool.free_list_bytes.store(pool.walk_free_lists(), Ordering::SeqCst);
        Ok(recovery)
    }

    /// Patch the recovery outcome after `build` (which ran before recovery
    /// was known).
    fn set_recovery(pool: &Arc<Self>, recovery: RecoveryOutcome) {
        // SAFETY: we hold the only Arc right now.
        let pool_mut = Arc::as_ptr(pool) as *mut PmemPool;
        unsafe { (*pool_mut).recovery = recovery };
    }

    /// Reopen a pool from a persisted image, running recovery.
    pub fn open(image: PoolImage, cfg: PoolConfig) -> Result<Arc<Self>> {
        let size = image.data.len();
        if size < HEAP_START as usize {
            return Err(PmError::PoolCorrupt("image smaller than header"));
        }
        let region = Region::new_zeroed(size)?;
        // SAFETY: both buffers are exactly `size` bytes.
        unsafe { std::ptr::copy_nonoverlapping(image.data.as_ptr(), region.ptr, size) };
        let pool = Self::build(region, cfg.shadow, &cfg, Self::FRESH_RECOVERY)?;
        let recovery = Self::finish_open(&pool)?;
        Self::set_recovery(&pool, recovery);
        Ok(pool)
    }

    /// Reopen a **file-backed** pool created by [`Self::create_file`], the
    /// analogue of `pmemobj_open`, running the same constant-work recovery
    /// as [`Self::open`]. The pool size comes from the file itself;
    /// `cfg.size` is ignored.
    ///
    /// Durability semantics mirror a machine with ADR but no battery: a
    /// *process* crash loses nothing (the OS page cache survives), a
    /// *power* crash preserves an arbitrary page-granular subset unless
    /// [`Self::close`] synced the file. The version-bump recovery protocol
    /// covers both cases.
    #[cfg(unix)]
    pub fn open_file(path: &std::path::Path, cfg: PoolConfig) -> Result<Arc<Self>> {
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|_| PmError::Io("cannot open pool file"))?;
        let size = file.metadata().map_err(|_| PmError::Io("cannot stat pool file"))?.len();
        if size < HEAP_START {
            return Err(PmError::PoolCorrupt("file smaller than header"));
        }
        let region = Region::from_file(file, size as usize)?;
        let pool = Self::build(region, cfg.shadow, &cfg, Self::FRESH_RECOVERY)?;
        let recovery = Self::finish_open(&pool)?;
        Self::set_recovery(&pool, recovery);
        Ok(pool)
    }

    /// Open the pool file at `path` if one exists, otherwise create a
    /// fresh pool there — the idiom every service layer needs on startup
    /// ("reattach to my data or initialize it"). Returns whether an
    /// existing pool was reopened, so callers can decide between
    /// `Table::open` and `Table::create` on top of it. An existing file
    /// that is not a valid pool is reported as corruption, never silently
    /// truncated.
    #[cfg(unix)]
    pub fn open_or_create_file(path: &std::path::Path, cfg: PoolConfig) -> Result<(Arc<Self>, bool)> {
        if path.exists() {
            Ok((Self::open_file(path, cfg)?, true))
        } else {
            Ok((Self::create_file(path, cfg)?, false))
        }
    }

    /// Durable clean shutdown: set the clean marker and (for file-backed
    /// pools) synchronously write the region back. After `close`, an
    /// [`Self::open_file`] of the same path recovers instantly with
    /// `clean = true` and no version bump.
    pub fn close(&self) -> Result<()> {
        self.header().clean.store(1, Ordering::SeqCst);
        self.region.sync()
    }

    /// Whether this pool's region is a shared file mapping.
    pub fn is_file_backed(&self) -> bool {
        self.region.is_file_backed()
    }

    /// How `open` recovered this pool (for `create`, a clean default).
    pub fn recovery_outcome(&self) -> RecoveryOutcome {
        self.recovery
    }

    #[inline]
    pub(crate) fn header(&self) -> &PoolHeader {
        // SAFETY: header lives at offset 0 and the region outlives self.
        unsafe { &*(self.region.ptr as *const PoolHeader) }
    }

    /// Offset of a field that lives inside the pool (for flushing
    /// individual fields of in-pool structures without hardcoding
    /// offsets). Panics in debug builds if `field` is outside the pool.
    pub fn offset_of<T>(&self, field: &T) -> PmOffset {
        let addr = field as *const T as usize;
        let base = self.region.ptr as usize;
        debug_assert!(addr >= base && addr + std::mem::size_of::<T>() <= base + self.size);
        PmOffset::new((addr - base) as u64)
    }

    pub fn size(&self) -> usize {
        self.size
    }

    pub fn base(&self) -> *mut u8 {
        self.region.ptr
    }

    /// Raw pointer to a `T` at `off`.
    ///
    /// # Safety
    ///
    /// `off` must be a non-null, `T`-aligned offset with at least
    /// `size_of::<T>()` bytes inside the pool, designating memory that
    /// holds a valid `T` (or that the caller is about to initialize); all
    /// concurrency control is the caller's responsibility.
    #[inline]
    pub unsafe fn at<T>(&self, off: PmOffset) -> *mut T {
        debug_assert!(!off.is_null());
        debug_assert!(off.get() as usize + std::mem::size_of::<T>() <= self.size);
        debug_assert_eq!(off.get() as usize % std::mem::align_of::<T>(), 0);
        self.region.ptr.add(off.get() as usize) as *mut T
    }

    /// Shared reference to a `T` at `off`.
    ///
    /// # Safety
    ///
    /// Same contract as [`Self::at`], and additionally the referenced `T`
    /// must already be initialized and must not be mutated except through
    /// interior mutability for the lifetime of the returned reference.
    #[inline]
    pub unsafe fn at_ref<T>(&self, off: PmOffset) -> &T {
        &*self.at::<T>(off)
    }

    /// Zero `len` bytes at `off` (for initializing freshly allocated,
    /// possibly recycled blocks). Not flushed; callers persist as needed.
    pub fn zero(&self, off: PmOffset, len: usize) {
        assert!(off.get() as usize + len <= self.size);
        // SAFETY: bounds checked above; caller owns the block exclusively.
        unsafe { std::ptr::write_bytes(self.region.ptr.add(off.get() as usize), 0, len) };
    }

    // ---- persistence primitives -------------------------------------

    /// CLWB-equivalent: persist the cachelines covering `[off, off+len)`.
    /// In shadow mode the lines are copied to the shadow image — unless a
    /// crash-injection flush limit has been exhausted, in which case the
    /// flush is silently dropped (the power cut happened "before" it).
    pub fn flush(&self, off: PmOffset, len: usize) {
        debug_assert!(off.get() as usize + len <= self.size);
        let persist_mark = crate::span::mark();
        let start = off.get() & !(CACHELINE as u64 - 1);
        let end = align_up(off.get() + len as u64, CACHELINE as u64);
        let bytes = (end - start) as usize;
        self.stats.add([(stats::FLUSHES, 1), (stats::FLUSH_BYTES, bytes as u64)]);
        self.cost.charge_write(bytes);
        // The global flush index exists only for crash injection, which is
        // only meaningful in shadow mode; maintaining it unconditionally
        // would put a contended fetch_add on every flush of every thread
        // and cap flush-heavy workloads at the cacheline-transfer rate of
        // one hot line — a simulator artifact, not a modelled cost.
        if let Some(shadow) = &self.shadow {
            let n = self.flushes_issued.fetch_add(1, Ordering::Relaxed) + 1;
            if n > self.flush_limit.load(Ordering::Relaxed) {
                crate::span::add_since(persist_mark, Wait::Persist);
                return;
            }
            // SAFETY: bounds checked; volatile word copies tolerate racing
            // 8-byte atomic writers, mirroring hardware flush semantics.
            unsafe {
                let src = self.region.ptr.add(start as usize) as *const u64;
                let dst = shadow.ptr.add(start as usize) as *mut u64;
                for i in 0..(bytes / 8) {
                    std::ptr::write_volatile(dst.add(i), std::ptr::read_volatile(src.add(i)));
                }
            }
        }
        crate::span::add_since(persist_mark, Wait::Persist);
    }

    /// SFENCE-equivalent; orders prior flushes.
    pub fn fence(&self) {
        let persist_mark = crate::span::mark();
        self.stats.add([(stats::FENCES, 1)]);
        std::sync::atomic::fence(Ordering::SeqCst);
        crate::span::add_since(persist_mark, Wait::Persist);
    }

    /// `flush` + `fence`.
    pub fn persist(&self, off: PmOffset, len: usize) {
        self.flush(off, len);
        self.fence();
    }

    /// Record a metered PM read (bucket probe / key dereference) of
    /// `bytes`; applies read latency and bandwidth costs if enabled.
    #[inline]
    pub fn note_pm_read(&self, bytes: usize) {
        self.stats.add([(stats::PM_READS, 1), (stats::PM_READ_BYTES, bytes as u64)]);
        self.cost.charge_read(bytes);
    }

    /// Record a metered PM write that is not a flush — e.g. pessimistic
    /// read-lock acquisition dirtying a PM cacheline (§6.7). Consumes
    /// write bandwidth in the cost model.
    #[inline]
    pub fn note_pm_write(&self, bytes: usize) {
        self.stats.add([(stats::PM_WRITES, 1), (stats::PM_WRITE_BYTES, bytes as u64)]);
        self.cost.charge_write(bytes);
    }

    pub(crate) fn note_alloc_event(&self) {
        self.stats.add([(stats::ALLOCS, 1)]);
    }

    /// Charge the page-fault cost of `bytes` of *fresh* pool space (free
    /// list reuse touches already-faulted pages and is not charged). A
    /// pre-faulting allocator (fig. 15) skips the charge entirely.
    pub(crate) fn note_fresh_alloc(&self, bytes: usize) {
        if matches!(self.alloc_mode, AllocMode::Pmdk) {
            self.cost.charge_alloc(bytes);
        }
    }

    pub(crate) fn note_free_event(&self) {
        self.stats.add([(stats::FREES, 1)]);
    }

    pub fn stats(&self) -> StatsSnapshot {
        StatsSnapshot::of(&self.stats)
    }

    pub fn cost_model(&self) -> CostModel {
        *self.cost.model()
    }

    // ---- crash injection ---------------------------------------------

    /// Drop every flush after the `limit`-th (counted from pool creation).
    /// Sweeping `limit` over an operation's flush trace enumerates every
    /// possible power-cut point. `None` removes the limit.
    ///
    /// **Caution:** once any flush has been dropped, the shadow image is a
    /// point-in-time snapshot of the cut; the only sound continuation is
    /// [`Self::crash_image`]. Lifting the limit and continuing to operate
    /// would flush a *later* volatile state into that stale snapshot,
    /// producing a mixed image no real power cut can — recovery is not
    /// required to (and generally will not) survive it.
    pub fn set_flush_limit(&self, limit: Option<u64>) {
        self.flush_limit.store(limit.unwrap_or(u64::MAX), Ordering::SeqCst);
    }

    /// Flushes issued so far (for choosing crash-injection points). The
    /// precisely ordered global index is only maintained in shadow mode
    /// (where crash injection is meaningful); other pools report the
    /// sharded statistics count.
    pub fn flushes_issued(&self) -> u64 {
        if self.shadow.is_some() {
            self.flushes_issued.load(Ordering::SeqCst)
        } else {
            self.stats.sum()[stats::FLUSHES]
        }
    }

    // ---- shutdown / crash ----------------------------------------------

    fn sync_shadow_full(&self) {
        if let Some(shadow) = &self.shadow {
            // SAFETY: both regions are `size` bytes.
            unsafe { std::ptr::copy_nonoverlapping(self.region.ptr, shadow.ptr, self.size) };
        }
    }

    /// Simulate a power failure: returns the bytes that had actually been
    /// persisted. In shadow mode that is only what was flushed (minus any
    /// flushes dropped by the crash-injection limit); without shadow mode
    /// it degenerates to a full snapshot.
    pub fn crash_image(&self) -> PoolImage {
        let data = match &self.shadow {
            Some(shadow) => shadow.as_slice().to_vec(),
            None => self.region.as_slice().to_vec(),
        };
        PoolImage { data: data.into_boxed_slice() }
    }

    /// Clean shutdown: everything is persisted and the clean marker set,
    /// so the next `open` skips the version bump entirely (§4.8).
    pub fn close_image(&self) -> PoolImage {
        self.header().clean.store(1, Ordering::SeqCst);
        PoolImage { data: self.region.as_slice().to_vec().into_boxed_slice() }
    }

    // ---- root object -----------------------------------------------------

    pub fn root(&self) -> PmOffset {
        PmOffset::new(self.header().root.load(Ordering::Acquire))
    }

    /// Atomically publish the application root object.
    pub fn set_root(&self, off: PmOffset) {
        let h = self.header();
        h.root.store(off.get(), Ordering::Release);
        let field = self.offset_of(&h.root);
        self.persist(field, 8);
    }

    /// The global recovery version `V` (§4.8).
    pub fn global_version(&self) -> u8 {
        self.header().version.load(Ordering::Acquire)
    }

    pub fn epoch(&self) -> &EpochManager {
        &self.epoch
    }

    /// Run an epoch collection, returning freed blocks to the allocator.
    pub fn epoch_collect(&self) {
        self.epoch.collect(|off, size| self.free_now(off, size));
    }

    /// Forced epoch collection that reports what it reclaimed:
    /// `(items, bytes)` returned to the free lists (bytes are full
    /// size-class blocks). The compaction path uses this to account
    /// reclaimed space exactly.
    pub fn reclaim(&self) -> (usize, u64) {
        let mut bytes = 0u64;
        let items = self.epoch.collect(|off, size| {
            bytes += crate::alloc::block_bytes(size);
            self.free_now(off, size);
        });
        (items, bytes)
    }

    /// Defer freeing `off` until all pinned readers exit, then return it
    /// to the allocator.
    pub fn defer_free(&self, off: PmOffset, size: usize) {
        if self.epoch.defer_free(off, size) {
            self.epoch_collect();
        }
    }

    // ---- memory accounting -------------------------------------------

    /// Bytes of heap handed out by the bump pointer so far (the bump
    /// never rewinds; freed blocks go to the class free lists instead).
    pub fn bump_used(&self) -> u64 {
        self.header().bump.load(Ordering::Relaxed).saturating_sub(HEAP_START)
    }

    /// Bytes reusable from the per-class free lists.
    pub fn free_list_bytes(&self) -> u64 {
        self.free_list_bytes.load(Ordering::Relaxed)
    }

    /// Live bytes: everything bump-allocated minus what sits reusable on
    /// the free lists. Blocks retired via [`Self::defer_free`] but not
    /// yet collected still count as used (see
    /// [`Self::pending_reclaim_bytes`]).
    pub fn mem_used(&self) -> u64 {
        self.bump_used().saturating_sub(self.free_list_bytes())
    }

    /// Bytes retired through the epoch manager but not yet returned to a
    /// free list — the "dead" portion of `mem_used`.
    pub fn pending_reclaim_bytes(&self) -> u64 {
        self.epoch.pending_bytes()
    }
}

pub(crate) const _HEADER_FITS: () = assert!(std::mem::size_of::<PoolHeader>() <= HEAP_START as usize);
pub(crate) const _REDO_FITS: () = assert!(MAX_TX_WRITES <= 32);

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg(shadow: bool) -> PoolConfig {
        PoolConfig { size: 1 << 20, shadow, ..Default::default() }
    }

    #[test]
    fn header_fits_heap_start() {
        assert!(std::mem::size_of::<PoolHeader>() <= HEAP_START as usize);
    }

    #[test]
    fn create_validates_config() {
        assert!(PmemPool::create(PoolConfig { size: 100, ..Default::default() }).is_err());
        assert!(PmemPool::create(PoolConfig { size: 64 * 1024 + 1, ..Default::default() }).is_err());
        assert!(PmemPool::create(small_cfg(false)).is_ok());
    }

    #[test]
    fn root_roundtrip() {
        let pool = PmemPool::create(small_cfg(false)).unwrap();
        assert!(pool.root().is_null());
        pool.set_root(PmOffset::new(8192));
        assert_eq!(pool.root(), PmOffset::new(8192));
    }

    #[test]
    fn open_rejects_garbage() {
        let img = PoolImage { data: vec![0u8; 1 << 20].into_boxed_slice() };
        assert!(matches!(PmemPool::open(img, small_cfg(false)), Err(PmError::PoolCorrupt(_))));
    }

    #[test]
    fn clean_shutdown_does_not_bump_version() {
        let pool = PmemPool::create(small_cfg(false)).unwrap();
        let v0 = pool.global_version();
        let img = pool.close_image();
        let pool2 = PmemPool::open(img, small_cfg(false)).unwrap();
        let out = pool2.recovery_outcome();
        assert!(out.clean);
        assert_eq!(out.version, v0);
    }

    #[test]
    fn crash_bumps_version() {
        let pool = PmemPool::create(small_cfg(false)).unwrap();
        let v0 = pool.global_version();
        let img = pool.crash_image();
        let pool2 = PmemPool::open(img, small_cfg(false)).unwrap();
        let out = pool2.recovery_outcome();
        assert!(!out.clean);
        assert_eq!(out.version, v0 + 1);
        assert!(!out.wrapped);
    }

    #[test]
    fn version_wraps_to_one() {
        let pool = PmemPool::create(small_cfg(false)).unwrap();
        pool.header().version.store(u8::MAX, Ordering::Relaxed);
        let img = pool.crash_image();
        let pool2 = PmemPool::open(img, small_cfg(false)).unwrap();
        let out = pool2.recovery_outcome();
        assert_eq!(out.version, 1);
        assert!(out.wrapped);
    }

    #[test]
    fn shadow_mode_loses_unflushed_writes() {
        let pool = PmemPool::create(small_cfg(true)).unwrap();
        let off = pool.alloc(64).unwrap();
        // SAFETY: freshly allocated block.
        unsafe { (*pool.at::<AtomicU64>(off)).store(0xDEAD, Ordering::SeqCst) };
        let off2 = off.add(8);
        unsafe { (*pool.at::<AtomicU64>(off2)).store(0xBEEF, Ordering::SeqCst) };
        // Flush only the first word's line... both words share a line, so
        // use two lines to make the point.
        let far = pool.alloc(128).unwrap();
        unsafe { (*pool.at::<AtomicU64>(far)).store(0xF00D, Ordering::SeqCst) };
        pool.persist(off, 16); // persists DEAD+BEEF, not F00D
        let img = pool.crash_image();
        let pool2 = PmemPool::open(img, small_cfg(true)).unwrap();
        unsafe {
            assert_eq!((*pool2.at::<AtomicU64>(off)).load(Ordering::SeqCst), 0xDEAD);
            assert_eq!((*pool2.at::<AtomicU64>(off2)).load(Ordering::SeqCst), 0xBEEF);
            assert_eq!((*pool2.at::<AtomicU64>(far)).load(Ordering::SeqCst), 0, "unflushed write must be lost");
        }
    }

    #[test]
    fn flush_limit_drops_later_flushes() {
        let pool = PmemPool::create(small_cfg(true)).unwrap();
        let a = pool.alloc(64).unwrap();
        let b = pool.alloc(64).unwrap();
        unsafe {
            (*pool.at::<AtomicU64>(a)).store(1, Ordering::SeqCst);
            (*pool.at::<AtomicU64>(b)).store(2, Ordering::SeqCst);
        }
        let limit = pool.flushes_issued() + 1;
        pool.set_flush_limit(Some(limit));
        pool.persist(a, 8); // within limit
        pool.persist(b, 8); // dropped
        let img = pool.crash_image();
        let pool2 = PmemPool::open(img, small_cfg(true)).unwrap();
        unsafe {
            assert_eq!((*pool2.at::<AtomicU64>(a)).load(Ordering::SeqCst), 1);
            assert_eq!((*pool2.at::<AtomicU64>(b)).load(Ordering::SeqCst), 0);
        }
    }

    #[test]
    fn stats_track_flushes_and_reads() {
        let pool = PmemPool::create(small_cfg(false)).unwrap();
        let before = pool.stats();
        let off = pool.alloc(64).unwrap();
        pool.persist(off, 64);
        pool.note_pm_read(256);
        let d = pool.stats().since(&before);
        assert!(d.flushes >= 1);
        assert_eq!(d.pm_reads, 1);
        assert_eq!(d.pm_read_bytes, 256);
        assert!(d.fences >= 1);
    }

    #[test]
    fn zero_clears_block() {
        let pool = PmemPool::create(small_cfg(false)).unwrap();
        let off = pool.alloc(128).unwrap();
        unsafe { (*pool.at::<AtomicU64>(off)).store(77, Ordering::SeqCst) };
        pool.zero(off, 128);
        unsafe { assert_eq!((*pool.at::<AtomicU64>(off)).load(Ordering::SeqCst), 0) };
    }

    #[cfg(unix)]
    mod file_backed {
        use super::*;

        fn tmp(name: &str) -> std::path::PathBuf {
            let mut p = std::env::temp_dir();
            p.push(format!("dash-pool-test-{name}-{}", std::process::id()));
            p
        }

        #[test]
        fn create_close_reopen_roundtrip() {
            let path = tmp("roundtrip");
            let cfg = PoolConfig::with_size(1 << 20);
            let (root, payload) = {
                let pool = PmemPool::create_file(&path, cfg).unwrap();
                assert!(pool.is_file_backed());
                let off = pool.alloc(64).unwrap();
                unsafe { (*pool.at::<AtomicU64>(off)).store(0xDEAD_BEEF, Ordering::SeqCst) };
                pool.persist(off, 8);
                pool.set_root(off);
                pool.close().unwrap();
                (pool.root(), off)
            };
            assert_eq!(root, payload);
            let pool = PmemPool::open_file(&path, cfg).unwrap();
            let out = pool.recovery_outcome();
            assert!(out.clean, "close() must mark the pool clean");
            assert_eq!(pool.root(), root);
            unsafe {
                assert_eq!((*pool.at::<AtomicU64>(root)).load(Ordering::SeqCst), 0xDEAD_BEEF);
            }
            std::fs::remove_file(&path).unwrap();
        }

        #[test]
        fn unclean_reopen_bumps_version() {
            let path = tmp("unclean");
            let cfg = PoolConfig::with_size(1 << 20);
            let v0 = {
                let pool = PmemPool::create_file(&path, cfg).unwrap();
                let off = pool.alloc(64).unwrap();
                pool.persist(off, 64);
                // No close(): simulate a process crash. The mapping is
                // written back when the pool drops (munmap).
                pool.global_version()
            };
            let pool = PmemPool::open_file(&path, cfg).unwrap();
            let out = pool.recovery_outcome();
            assert!(!out.clean, "missing close() must look like a crash");
            assert_eq!(pool.global_version(), v0 + 1);
            std::fs::remove_file(&path).unwrap();
        }

        #[test]
        fn open_file_rejects_garbage() {
            let path = tmp("garbage");
            std::fs::write(&path, vec![0x5Au8; 1 << 20]).unwrap();
            match PmemPool::open_file(&path, PoolConfig::with_size(1 << 20)) {
                Err(e) => assert_eq!(e, PmError::PoolCorrupt("bad magic")),
                Ok(_) => panic!("garbage file must not open"),
            }
            std::fs::remove_file(&path).unwrap();
        }

        /// A pool written by the build before the class table changed
        /// (stamp 0001) is named and refused, and not a byte of it moves.
        #[test]
        fn open_file_refuses_another_format_stamp_untouched() {
            let path = tmp("old-stamp");
            let cfg = PoolConfig::with_size(1 << 20);
            {
                let pool = PmemPool::create_file(&path, cfg).unwrap();
                let off = pool.alloc(64).unwrap();
                pool.set_root(off);
                pool.header().magic.store(MAGIC & !FORMAT_MASK | 1 << FORMAT_SHIFT, Ordering::SeqCst);
                pool.close().unwrap();
            }
            let before = std::fs::read(&path).unwrap();
            match PmemPool::open_file(&path, cfg) {
                Err(e) => {
                    assert_eq!(e, PmError::PoolFormat { found: 1, expected: FORMAT });
                    let text = e.to_string();
                    assert!(text.contains("0001") && text.contains("0002"), "{text}");
                }
                Ok(_) => panic!("a pool of another format must not open"),
            }
            assert!(std::fs::read(&path).unwrap() == before, "a refused pool must be left as found");
            std::fs::remove_file(&path).unwrap();
        }

        #[test]
        fn open_file_rejects_missing_file() {
            let path = tmp("missing");
            let _ = std::fs::remove_file(&path);
            assert!(matches!(
                PmemPool::open_file(&path, PoolConfig::with_size(1 << 20)),
                Err(PmError::Io(_))
            ));
        }

        #[test]
        fn open_or_create_distinguishes_fresh_from_reopened() {
            let path = tmp("open-or-create");
            let _ = std::fs::remove_file(&path);
            let cfg = PoolConfig::with_size(1 << 20);
            let root = {
                let (pool, reopened) = PmemPool::open_or_create_file(&path, cfg).unwrap();
                assert!(!reopened, "no file yet: must create");
                let off = pool.alloc(64).unwrap();
                pool.set_root(off);
                pool.close().unwrap();
                off
            };
            let (pool, reopened) = PmemPool::open_or_create_file(&path, cfg).unwrap();
            assert!(reopened, "file exists: must reopen, not truncate");
            assert_eq!(pool.root(), root);
            std::fs::remove_file(&path).unwrap();
        }

        #[test]
        fn create_file_truncates_previous_pool() {
            let path = tmp("truncate");
            let cfg = PoolConfig::with_size(1 << 20);
            {
                let pool = PmemPool::create_file(&path, cfg).unwrap();
                let off = pool.alloc(64).unwrap();
                pool.set_root(off);
                pool.close().unwrap();
            }
            let pool = PmemPool::create_file(&path, cfg).unwrap();
            assert!(pool.root().is_null(), "create_file must start fresh");
            std::fs::remove_file(&path).unwrap();
        }
    }
}
