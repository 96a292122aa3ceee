//! `ShardedDash`: the storage engine under the service — N independent
//! Dash-EH tables, each on its own file-backed [`PmemPool`], with the
//! keyspace partitioned by hash.
//!
//! Why shards instead of one big table: each shard is an independent
//! failure/recovery domain (one pool file each, recovered per Dash §4.8
//! in constant time on open), an independent allocator arena (no shared
//! bump pointer between shards), and an independent write domain — so
//! the service scales writes across cores the way the paper scales
//! threads across one table, while the pool files together form the
//! persistent image of the whole store.
//!
//! A key and its value — arbitrary byte strings — live together in one
//! **record**, one block of the owning shard's pool, and the table slot's
//! key word is that record's offset: the single pointer a lookup follows
//! out of the table ([`crate::record`] owns the layout and every check
//! on it). Records are immutable but for their advisory access word:
//! overwrites, `EXPIRE` and `PERSIST` write a new record and swap the
//! slot to it with one persisted 8-byte store, so a lock-free reader can
//! never observe a torn value or deadline. Readers run lock-free under
//! an epoch pin; overwrites and deletes retire the old record through
//! the pool's epoch manager so a concurrent reader never dereferences
//! recycled memory.
//!
//! Expiry and eviction obey one rule: **the primary is the only clock**
//! (see [`crate::expire`]). Reads *hide* an expired key everywhere, but
//! only a primary deletes it — lazily on access, actively from the
//! timer wheel/sweep — and every such delete is recorded as an explicit
//! `DEL`, so replicas and log replay converge byte-exactly without ever
//! consulting time.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use dash_common::{hash64_seed, KeyProbe, PmHashTable, ScanCursor, TableError, MAX_KEY_LEN};
use dash_core::{DashConfig, DashEh};
use parking_lot::Mutex;
use pmem::{PmError, PmemPool, PoolConfig};

use crate::cluster::slots::{key_slot, NUM_SLOTS};
use crate::expire::{is_expired, now_ms, policy, EvictionPolicy, TimerWheel};
use crate::metrics::Counter;
use crate::record::{self, Rec, RecKey, RecProbe};
use crate::repl::hub::{ReplHub, ReplSubscription};
use crate::repl::log::{LogWriter, ReplayFile, SEGMENT_BYTES, WINDOW_DIVISOR};
use crate::repl::wire::{encode, encode_op, Digest, FileHeader, Record};
use crate::repl::OpRef;
use crate::snapshot::{
    DurableFile, Snapshot, SnapshotError, SNAP_MAGIC, SNAP_VERSION, SNAP_VERSION_UNPOSITIONED,
};

/// Upper bound on one value. Bounded (like keys) so a stale record
/// pointer followed by an optimistic reader can never walk far out of a
/// block.
pub const MAX_VALUE_LEN: usize = 1 << 20;

/// Routing hash seed. Deliberately distinct from the tables' own key
/// hash: reusing `hash64` for routing would hand every shard a keyspace
/// with `log2(shards)` bits pinned, biasing bucket selection inside the
/// shard's table.
const SHARD_SEED: u64 = 0x5AD5_C0DE_BA5E_B33F;

/// Service-layer errors (wire layer maps these onto RESP `-ERR` replies).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// Key exceeds [`MAX_KEY_LEN`].
    KeyTooLong(usize),
    /// Value exceeds [`MAX_VALUE_LEN`].
    ValueTooLong(usize),
    /// The underlying pool/table failed (most commonly: shard pool full).
    Table(TableError),
    /// The pool directory exists but does not look like a store (gaps in
    /// the shard files, unreadable dir, ...).
    Layout(String),
    /// A `SCAN` continuation cursor the engine never issued.
    BadCursor(u64),
    /// Snapshot export/import failed (I/O or a corrupt file).
    Snapshot(String),
    /// Redo-log open/replay failed (I/O or a corrupt file).
    ReplLog(String),
    /// The memory budget is exhausted and eviction could not make room
    /// (the wire layer maps this onto Redis's bare `-OOM` reply).
    Oom,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::KeyTooLong(n) => write!(f, "key of {n} bytes exceeds {MAX_KEY_LEN}"),
            EngineError::ValueTooLong(n) => write!(f, "value of {n} bytes exceeds {MAX_VALUE_LEN}"),
            EngineError::Table(e) => write!(f, "{e}"),
            EngineError::Layout(s) => write!(f, "store layout error: {s}"),
            EngineError::BadCursor(c) => write!(f, "invalid scan cursor {c}"),
            EngineError::Snapshot(s) => write!(f, "snapshot error: {s}"),
            EngineError::ReplLog(s) => write!(f, "repl log error: {s}"),
            EngineError::Oom => {
                write!(f, "command not allowed when used memory > 'maxmemory'")
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<TableError> for EngineError {
    fn from(e: TableError) -> Self {
        EngineError::Table(e)
    }
}

impl From<SnapshotError> for EngineError {
    fn from(e: SnapshotError) -> Self {
        EngineError::Snapshot(e.to_string())
    }
}

impl From<PmError> for EngineError {
    fn from(e: PmError) -> Self {
        EngineError::Table(TableError::Pm(e))
    }
}

pub type EngineResult<T> = Result<T, EngineError>;

/// Configuration for opening (or creating) a sharded store.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Shard count for a **fresh** store. Reopening an existing directory
    /// always uses the shard count found on disk (the partition function
    /// depends on it; changing it would orphan keys).
    pub shards: usize,
    /// Pool bytes per shard (4 KB multiple, ≥ 64 KB).
    pub shard_bytes: usize,
    /// Directory holding one `shard-N.pool` file per shard. `None` runs
    /// the store on volatile heap pools (tests, throwaway caches).
    pub dir: Option<PathBuf>,
    /// Memory budget over pool bytes — table, records and pending frees
    /// (`--max-memory`). Enforced per shard as `max_memory / shards` at
    /// the client write path, charging each write the whole block its
    /// record takes:
    /// pending garbage is reclaimed first, then keys are evicted under
    /// the configured policy, and a write that still cannot fit is
    /// rejected with [`EngineError::Oom`]. `None` = unlimited.
    pub max_memory: Option<u64>,
    /// What to evict when the budget is hit (`--maxmemory-policy`).
    pub eviction: EvictionPolicy,
    /// `--repl-log-max-bytes`. A shard's redo log seals its active file
    /// into a segment at [`SEGMENT_BYTES`] (that is what bounds reopen)
    /// and, at each seal, deletes its oldest segments — never the one
    /// just sealed — while the log exceeds its window: max(`SEGMENT_BYTES`,
    /// the shard pool's `mem_used` / [`WINDOW_DIVISOR`]). `Some(n)` makes
    /// the window `n` bytes and seals at min(`n`, `SEGMENT_BYTES`).
    ///
    /// [`SEGMENT_BYTES`]: crate::repl::log::SEGMENT_BYTES
    /// [`WINDOW_DIVISOR`]: crate::repl::log::WINDOW_DIVISOR
    pub repl_log_max_bytes: Option<u64>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            shards: 4,
            shard_bytes: 64 << 20,
            dir: None,
            max_memory: None,
            eviction: EvictionPolicy::NoEviction,
            repl_log_max_bytes: None,
        }
    }
}

/// What reopening the per-shard redo logs cost, summed over the shards:
/// the answer to "why was that restart slow" (`INFO replication`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LogOpenCost {
    /// Log-file bytes read and validated — per shard, the prelude plus
    /// what its stamp did not cover (under 64 KiB and the last flush
    /// behind a crash, nothing behind a clean close), at most the segment
    /// cap when the stamp is not taken; whatever the logs' size.
    pub scanned_bytes: u64,
    /// Wall time inside `LogWriter::open`.
    pub micros: u64,
}

/// How one shard came up, surfaced through `INFO`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardInfo {
    /// An existing pool file was reopened (vs created fresh).
    pub recovered: bool,
    /// The reopened pool had a clean-shutdown marker (§4.8).
    pub clean: bool,
    /// The pool's global recovery version after open.
    pub version: u8,
}

/// One shard's point-in-time telemetry (see
/// [`ShardedDash::shard_telemetry`]). All counters are volatile,
/// "since this open" values.
#[derive(Debug, Clone, Copy)]
pub struct ShardTelemetry {
    /// Keys stored (the O(shards) counter, not a scan).
    pub keys: u64,
    /// Table slot capacity (grows with segment splits).
    pub capacity_slots: u64,
    /// Record bytes (header, key and value) written since open.
    pub blob_bytes_written: u64,
    /// Record bytes retired since open. The net `written - released`
    /// can go negative after recovery (pre-existing records retired).
    pub blob_bytes_released: u64,
    /// Dash-EH segment splits completed.
    pub eh_splits: u64,
    /// Dash-EH directory doublings.
    pub eh_doublings: u64,
    /// Dash-EH segment merges completed.
    pub eh_merges: u64,
    /// Write-lock acquisitions that found the lock held.
    pub write_lock_waits: u64,
    /// Epoch pins taken by engine operations: one per key, one per shard
    /// per scan or hint window.
    pub epoch_pins: u64,
    /// Bytes the shard's allocator considers in use (bump minus free
    /// lists) — what the memory budget is enforced against.
    pub mem_used_bytes: u64,
    /// Dead bytes: retired records awaiting epoch reclamation. The
    /// numerator of the shard's fragmentation ratio.
    pub dead_bytes: u64,
}

/// Store-wide per-hash-slot key counters — the cluster layer's
/// accounting (`CLUSTER COUNTKEYSINSLOT`, migration progress). Same
/// lazy-base trick as `Shard::base_keys`: deltas are maintained from the
/// first write, and the base (keys per slot at open) is computed by a
/// one-time full scan on first read, corrected by the delta snapshot
/// taken before the scan — `open` stays constant-time.
struct SlotCounters {
    base: OnceLock<Box<[i64]>>,
    delta: Box<[AtomicI64]>,
}

impl SlotCounters {
    fn new() -> Self {
        SlotCounters {
            base: OnceLock::new(),
            delta: (0..NUM_SLOTS).map(|_| AtomicI64::new(0)).collect(),
        }
    }
}

struct Shard {
    /// This shard's position in [`ShardedDash::shards`].
    index: usize,
    pool: Arc<PmemPool>,
    /// Key word = offset of the key's record; value word 0, reserved.
    table: DashEh<RecKey>,
    /// Serializes read-modify-write sequences (overwrite, delete) so two
    /// writers can never double-free a record. Plain reads do not
    /// take it — they go through the table's optimistic path.
    write_lock: Mutex<()>,
    /// Key count at open, computed **lazily** on the first `DBSIZE` /
    /// `INFO` (it needs a table scan, and paying it inside `open` would
    /// break the constant-time-recovery contract). Fresh shards seed it
    /// with 0 eagerly.
    base_keys: OnceLock<u64>,
    /// Net keys added/removed since open; `count ≈ base_keys + delta`.
    keys_delta: AtomicI64,
    info: ShardInfo,
    /// Redo log (file-backed stores only): every applied mutation is
    /// buffered here under the write lock the caller already holds, so
    /// buffer order is apply order. The `Mutex` is what lets a
    /// [`LogBatch`] flush the buffer at the end of its scope without
    /// taking the write lock.
    log: Option<Mutex<LogWriter>>,
    /// `--repl-log-max-bytes`: the log window, overriding the one
    /// relative to the pool (see [`Shard::record`]).
    log_window: Option<u64>,
    /// Store-wide replication fan-out (shared by all shards).
    hub: Arc<ReplHub>,
    /// Record bytes written since open.
    blob_written: AtomicU64,
    /// Record bytes retired since open. `written - released` is the net
    /// live-record footprint *of this incarnation* — negative after
    /// recovery when more pre-existing records die than new ones are born.
    blob_released: AtomicU64,
    /// Write-lock acquisitions that found the lock held (contention).
    lock_waits: AtomicU64,
    /// Epoch pins taken by engine operations (one per key, one per shard
    /// per scan or hint window).
    pins: AtomicU64,
    /// Store-wide per-slot key counters (shared by all shards).
    slots: Arc<SlotCounters>,
    /// Active-expiry timer wheel: every TTL write queues its deadline
    /// here; the background tick drains due entries and re-checks them
    /// under this shard's write lock.
    wheel: TimerWheel,
    /// Eviction sampling cursor: each eviction round resumes the table
    /// scan here, so successive rounds sample fresh regions of the
    /// keyspace instead of hammering the first segment.
    sample_pos: AtomicU64,
}

impl Shard {
    /// Current key count: exact when quiescent, momentarily approximate
    /// while writers race the first scan.
    fn key_count(&self) -> u64 {
        let base = *self.base_keys.get_or_init(|| {
            let d0 = self.keys_delta.load(Ordering::SeqCst);
            (self.table.len_scan() as i64 - d0).max(0) as u64
        });
        (base as i64 + self.keys_delta.load(Ordering::SeqCst)).max(0) as u64
    }

    /// Take the shard write lock, counting acquisitions that had to wait
    /// (the telemetry behind `write_lock_waits`). Every write path
    /// enters the engine through here, so this doubles as a trace
    /// chokepoint: the engine-entry stamp for the dispatch/execute
    /// split, and the blocked time of a contended acquisition credited
    /// to the active span's `lock_wait` stage. Both hooks are a
    /// thread-local load when no span is active.
    fn lock_write(&self) -> parking_lot::MutexGuard<'_, ()> {
        pmem::span::enter();
        match self.write_lock.try_lock() {
            Some(g) => g,
            None => {
                self.lock_waits.fetch_add(1, Ordering::Relaxed);
                let mark = pmem::span::mark();
                let g = self.write_lock.lock();
                pmem::span::add_since(mark, pmem::span::Wait::Lock);
                g
            }
        }
    }

    /// Pin this shard's epoch, counting the pin. The read paths'
    /// engine-entry chokepoint (see [`Shard::lock_write`]).
    fn pin(&self) -> pmem::EpochGuard<'_> {
        pmem::span::enter();
        self.pins.fetch_add(1, Ordering::Relaxed);
        self.pool.epoch().pin()
    }

    /// Probe for `key` and decode the record its slot points at. The
    /// caller holds an epoch pin for as long as it uses the record.
    fn lookup(&self, key: &[u8]) -> Option<Rec<'_>> {
        self.table.find(RecProbe::new(key)).and_then(|(off, _)| Rec::at(&self.pool, off))
    }

    /// Retire a record no table slot points at (any more).
    fn retire(&self, off: u64) {
        if let Some(rec) = Rec::at(&self.pool, off) {
            self.blob_released.fetch_add(rec.retire() as u64, Ordering::Relaxed);
        }
    }

    /// Insert or overwrite one key with an optional expiry deadline (0 =
    /// none). The caller holds this shard's write lock — the shared body
    /// of every engine write path, client or apply, one key at a time;
    /// nothing pins for a group of keys. The record is persisted whole
    /// before the slot word that publishes it: a fresh key is one
    /// allocation, one record persist and the table insert; an overwrite
    /// swaps the slot's key word (one persisted 8-byte store) and retires
    /// the old record after it. Records `SetEx` when a deadline is set,
    /// plain `Set` otherwise, and queues the deadline on the wheel.
    fn set_locked(
        &self,
        key: &[u8],
        value: &[u8],
        expire_at_ms: u64,
        access: u32,
    ) -> EngineResult<()> {
        let probe = RecProbe::new(key);
        let rec = record::write(&self.pool, key, value, expire_at_ms, access)?;
        self.blob_written.fetch_add(record::len_of(key, value) as u64, Ordering::Relaxed);
        match self.table.rekey(probe, rec) {
            Some(old) => self.retire(old),
            None => {
                if let Err(e) = self.table.insert_encoded(probe, rec, 0) {
                    self.retire(rec);
                    return Err(e.into());
                }
                self.keys_delta.fetch_add(1, Ordering::Relaxed);
                self.slots.delta[key_slot(key) as usize].fetch_add(1, Ordering::SeqCst);
            }
        }
        if expire_at_ms != 0 {
            self.wheel.insert(key.to_vec(), expire_at_ms);
        }
        self.record(OpRef::set(key, value, expire_at_ms));
        Ok(())
    }

    /// Delete one key; true when it existed. The caller holds this
    /// shard's write lock — the shared body of every delete. The table
    /// retires the removed slot's record itself (`RecKey::release`).
    fn del_locked(&self, key: &[u8]) -> bool {
        let Some(rec) = self.lookup(key) else { return false };
        let removed = self.table.remove(RecProbe::new(key));
        debug_assert!(removed, "key disappeared under the shard write lock");
        self.blob_released.fetch_add(rec.len() as u64, Ordering::Relaxed);
        self.keys_delta.fetch_sub(1, Ordering::Relaxed);
        self.slots.delta[key_slot(key) as usize].fetch_sub(1, Ordering::SeqCst);
        self.record(OpRef::Del { key });
        true
    }

    /// Is `key` present with a deadline that has passed? (The caller
    /// holds the write lock and an epoch pin.) Every expiry path asks
    /// this again under the lock before deleting: what it saw lock-free
    /// may have been overwritten since.
    fn is_due(&self, key: &[u8], now: u64) -> bool {
        self.lookup(key).is_some_and(|rec| is_expired(rec.expire_at_ms, now))
    }

    /// Record one applied mutation: buffer it for the shard's redo log
    /// (when file-backed) and publish it to the replication hub. Called
    /// with the shard write lock held, *after* the table update — which
    /// is what makes the hub's offset a consistent cut (every op at or
    /// below a subscriber's start offset is already in the table), and
    /// the log's record order the apply order.
    ///
    /// The record is encoded straight from the caller's `key`/`value`;
    /// an owned [`ReplOp`](crate::repl::ReplOp) exists only if a replica
    /// sink wants one. The buffer reaches the file at the end of the
    /// [`LogBatch`] scope open on this thread, or — none open — here,
    /// before returning (write-through). A failed log write never fails
    /// the op (it is applied and durable in the pool): it poisons the
    /// [`LogWriter`], which keeps the file a clean prefix and counts what
    /// it drops (`INFO log_append_errors`). Live replica streams feed from
    /// the hub and are unaffected.
    ///
    /// A record that seals the active file trims the log to its window
    /// right here, under the write lock, so which segments exist is a
    /// function of the op stream alone. A failed delete only leaves
    /// extra log; the next seal retries it.
    fn record(&self, op: OpRef<'_>) {
        if let Some(log) = &self.log {
            let deferred = LogBatch::defers(self);
            let mut log = log.lock();
            if log.buffer(op) {
                let window = self
                    .log_window
                    .unwrap_or_else(|| (self.pool.mem_used() / WINDOW_DIVISOR).max(SEGMENT_BYTES));
                let _ = log.retain(window);
            }
            if !deferred {
                let _ = log.flush();
            }
        }
        self.hub.publish_with(|| op.to_owned());
    }
}

thread_local! {
    /// The [`LogBatch`] scope open on this thread, if any.
    static LOG_BATCH: std::cell::RefCell<BatchScope> = const {
        std::cell::RefCell::new(BatchScope { engine: 0, depth: 0, touched: Vec::new() })
    };
}

struct BatchScope {
    /// Which engine's scope (the address of its hub; 0 = none open).
    engine: usize,
    /// Nesting depth: only the outermost guard flushes.
    depth: usize,
    /// Shards that buffered a record inside the scope.
    touched: Vec<usize>,
}

/// A group-commit scope: while one is open on a thread, the mutations
/// that thread applies buffer their redo records instead of writing them
/// one `write(2)` each, and dropping the outermost guard flushes every
/// shard touched — one `write` per shard. The holder must not let an
/// acknowledgement of those mutations out before the guard is dropped;
/// in exchange, *acknowledged ⇒ in the page cache* holds exactly as it
/// does write-through. Dropping on unwind flushes too, so a panic costs
/// no record of an earlier, successful mutation of the scope.
///
/// A connection opens one per readiness tick around its pipelined
/// commands (a multi-key command included), the replica one per drained
/// read of the primary's stream, and restore, log replay and
/// [`ShardedDash::purge`] one around their whole run. There is nothing
/// to configure: the scope is as long as the work whose
/// acknowledgements leave together.
pub(crate) struct LogBatch<'a> {
    engine: &'a ShardedDash,
    /// False when another engine's scope was already open on this
    /// thread: this guard then does nothing and the calls under it stay
    /// write-through.
    entered: bool,
}

impl LogBatch<'_> {
    /// Should `shard`'s record stay buffered (a scope of its engine is
    /// open on this thread)? Notes the shard for the closing flush.
    fn defers(shard: &Shard) -> bool {
        LOG_BATCH.with(|scope| {
            let mut scope = scope.borrow_mut();
            if scope.depth == 0 || scope.engine != Arc::as_ptr(&shard.hub) as usize {
                return false;
            }
            if !scope.touched.contains(&shard.index) {
                scope.touched.push(shard.index);
            }
            true
        })
    }
}

impl Drop for LogBatch<'_> {
    fn drop(&mut self) {
        if !self.entered {
            return;
        }
        // The list is taken out (and handed back, emptied, for its
        // capacity) so that no flush runs under the `RefCell` borrow.
        let touched = LOG_BATCH.with(|scope| {
            let mut scope = scope.borrow_mut();
            scope.depth -= 1;
            if scope.depth > 0 {
                return None;
            }
            scope.engine = 0;
            Some(std::mem::take(&mut scope.touched))
        });
        let Some(mut touched) = touched else { return };
        for &si in &touched {
            if let Some(log) = &self.engine.shards[si].log {
                let _ = log.lock().flush();
            }
        }
        touched.clear();
        LOG_BATCH.with(|scope| scope.borrow_mut().touched = touched);
    }
}

/// Keys hinted together by [`ShardedDash::prefetch`], and so the most
/// commands a connection decodes into one window. Sized to what an L1d
/// holds, not tuned: per key a hint asks for 9 lines of segment header
/// and buckets and at most 17 of record, so 16 keys are ≈ 26 KiB of 64 B
/// lines at the cap and ≈ 11 KiB for records under 128 B — nothing
/// hinted is evicted again before its command runs. More keys are
/// hinted as consecutive groups of this size.
pub(crate) const PREFETCH_WINDOW: usize = 16;

/// Keys sampled per eviction decision (Redis's `maxmemory-samples`).
const EVICT_SAMPLES: usize = 5;
/// Bound on reclaim/evict rounds per write — turns a no-progress
/// pathology (everything pinned, nothing evictable) into `-OOM`.
const MAX_EVICT_ROUNDS: usize = 64;
/// Floor under which a shard's dead bytes are not worth a reclamation
/// pass, whatever the ratio.
const RECLAIM_MIN_BYTES: u64 = 256 << 10;

/// Did a write die of pool exhaustion (as opposed to a structural
/// error)? The evict-and-retry path only retries these.
fn is_pool_oom(e: &EngineError) -> bool {
    matches!(e, EngineError::Table(TableError::Pm(PmError::OutOfMemory { .. })))
}

/// The sharded, persistent KV engine. All operations are safe under full
/// concurrency: reads are optimistic (epoch-pinned, no locks), writes
/// serialize per shard.
pub struct ShardedDash {
    shards: Vec<Shard>,
    /// The shard pool files backing this store (empty for a volatile
    /// store) — what `snapshot_to` must never be pointed at.
    shard_paths: Vec<PathBuf>,
    /// Replication offset counter + live replica sinks.
    hub: Arc<ReplHub>,
    /// Per-hash-slot key counters (cluster accounting).
    slots: Arc<SlotCounters>,
    /// Store-wide memory budget; enforced per shard as `budget/shards`.
    max_memory: Option<u64>,
    /// Per-shard slice of the budget (cached `max_memory / shards`).
    shard_budget: Option<u64>,
    /// Eviction policy when the budget is hit.
    policy: EvictionPolicy,
    /// Whether reads may *delete* expired keys (primary-only — replicas
    /// hide them but wait for the primary's `DEL`). Flipped on promote.
    local_expiry: AtomicBool,
    /// Background-sweep position: `(shard index, table scan pos)`. The
    /// sweep is what eventually expires keys whose deadlines predate
    /// this open (the wheel is volatile, and rebuilding it on open
    /// would break constant-time recovery).
    sweep_cursor: Mutex<(usize, u64)>,
    /// What reopening the redo logs cost at [`open`](Self::open).
    log_open: LogOpenCost,
    /// Keys deleted because their deadline passed (lazy + active).
    expired_keys: AtomicU64,
    /// Keys evicted to satisfy the memory budget.
    evicted_keys: AtomicU64,
    /// Writes rejected with `-OOM`.
    oom_rejections: AtomicU64,
    /// Record reclamation passes that freed anything.
    compactions: AtomicU64,
    /// Bytes returned to the allocators by reclamation.
    reclaimed_bytes: AtomicU64,
    /// [`prefetch`](Self::prefetch) calls that had keys to overlap, and
    /// the keys they hinted: keys ÷ windows is the batching the hint saw.
    prefetch_windows: Counter,
    prefetch_keys: Counter,
}

fn shard_file(dir: &Path, i: usize) -> PathBuf {
    dir.join(format!("shard-{i}.pool"))
}

fn log_file(dir: &Path, i: usize) -> PathBuf {
    dir.join(format!("repl-{i}.log"))
}

/// Do `a` and `b` name the same file? Compared by file name plus
/// canonicalized parent, so it works for an `a` that does not exist yet
/// (snapshot targets) and sees through `.`/`..`/symlinked directories.
fn same_target(a: &Path, b: &Path) -> bool {
    let (Some(an), Some(bn)) = (a.file_name(), b.file_name()) else {
        return false;
    };
    if an != bn {
        return false;
    }
    let canon = |p: &Path| {
        let parent = p.parent().filter(|d| !d.as_os_str().is_empty()).unwrap_or(Path::new("."));
        parent.canonicalize().ok()
    };
    match (canon(a), canon(b)) {
        (Some(x), Some(y)) => x == y,
        _ => false,
    }
}

/// Replaying a store's own logs into it would append every replayed op
/// back onto the very logs being read.
fn refuse_own_logs(store_dir: &Path, log_dir: &Path) -> EngineResult<()> {
    let own = store_dir.canonicalize().ok();
    if own.is_some() && own == log_dir.canonicalize().ok() {
        return Err(EngineError::ReplLog(format!(
            "refusing to replay a store's own logs ({}) into it",
            log_dir.display()
        )));
    }
    Ok(())
}

/// Check every shard's chain in `dir` before anything is applied: each
/// must supply its records from its position on (`positions`, one per
/// source shard; `None`: from 0, any shard count). Returns what to read.
fn plan_replay(dir: &Path, positions: Option<&[u64]>) -> EngineResult<Vec<Vec<ReplayFile>>> {
    let shards = (0..).take_while(|&i| log_file(dir, i).exists()).count();
    if shards == 0 {
        return Err(EngineError::ReplLog(format!("no repl-0.log in {}", dir.display())));
    }
    if let Some(positions) = positions.filter(|p| p.len() != shards) {
        return Err(EngineError::ReplLog(format!(
            "the snapshot was taken of {} shards, but {} holds the logs of {shards}",
            positions.len(),
            dir.display()
        )));
    }
    (0..shards)
        .map(|i| {
            let path = log_file(dir, i);
            let from = positions.map_or(0, |p| p[i]);
            crate::repl::log::replay_from(&path, from)
                .map_err(|e| EngineError::ReplLog(format!("shard {i} ({}): {e}", path.display())))
        })
        .collect()
}

/// Count the `shard-N.pool` files in `dir`, insisting they are exactly
/// `0..n` — a gap means someone deleted part of the store, and opening
/// the remainder would silently lose the missing shard's keyspace.
fn discover_shards(dir: &Path) -> EngineResult<usize> {
    let entries = std::fs::read_dir(dir)
        .map_err(|e| EngineError::Layout(format!("cannot read {}: {e}", dir.display())))?;
    let mut indices: Vec<usize> = entries
        .filter_map(|e| e.ok())
        .filter_map(|e| {
            let name = e.file_name();
            let name = name.to_str()?;
            name.strip_prefix("shard-")?.strip_suffix(".pool")?.parse().ok()
        })
        .collect();
    indices.sort_unstable();
    for (want, &got) in indices.iter().enumerate() {
        if want != got {
            return Err(EngineError::Layout(format!(
                "shard files not contiguous in {}: missing shard-{want}.pool",
                dir.display()
            )));
        }
    }
    Ok(indices.len())
}

impl ShardedDash {
    /// Open the store in `cfg.dir`, creating it (with `cfg.shards`
    /// shards) when no shard files exist yet, otherwise reattaching to
    /// every `shard-N.pool` found. Open time is independent of the data
    /// volume: each pool runs Dash's constant-work recovery, and each
    /// redo log validates only the part of its active file that its
    /// stamp does not cover — under 64 KiB and one flush behind a crash,
    /// nothing past the prelude behind a clean close, the whole active
    /// file (at most the segment cap) when the stamp cannot be taken
    /// ([`LogWriter::open`]; [`repl_log_open_cost`] reports the bytes).
    ///
    /// [`repl_log_open_cost`]: Self::repl_log_open_cost
    pub fn open(cfg: &EngineConfig) -> EngineResult<Self> {
        if cfg.shards == 0 {
            return Err(EngineError::Layout("shard count must be at least 1".into()));
        }
        let hub = Arc::new(ReplHub::new());
        let slots = Arc::new(SlotCounters::new());
        let now = now_ms();
        let n = match &cfg.dir {
            None => cfg.shards,
            Some(dir) => {
                std::fs::create_dir_all(dir)
                    .map_err(|e| EngineError::Layout(format!("cannot create {}: {e}", dir.display())))?;
                // An existing store dictates its own shard count: the
                // partition function baked into the data must not change.
                match discover_shards(dir)? {
                    0 => cfg.shards,
                    existing => existing,
                }
            }
        };
        let mut shards = Vec::with_capacity(n);
        let mut shard_paths = Vec::new();
        let mut log_open = LogOpenCost::default();
        let mut log_records = 0u64;
        for index in 0..n {
            let pool_cfg = PoolConfig::with_size(cfg.shard_bytes);
            let (pool, recovered) = match &cfg.dir {
                None => (PmemPool::create(pool_cfg)?, false),
                Some(dir) => {
                    let path = shard_file(dir, index);
                    shard_paths.push(path.clone());
                    PmemPool::open_or_create_file(&path, pool_cfg).map_err(|e| match e {
                        // Another build's pool: its free lists and
                        // records would be misread. Say how to cross.
                        PmError::PoolFormat { .. } => EngineError::Layout(format!(
                            "{}: {e}. To carry the store over, take a SNAPSHOT with the \
                             build that wrote it and start this build with --restore on \
                             an empty directory (this build restores the older snapshot format too)",
                            path.display()
                        )),
                        e => e.into(),
                    })?
                }
            };
            let table = if recovered {
                DashEh::open(pool.clone())?
            } else {
                DashEh::create(pool.clone(), DashConfig::default())?
            };
            // A file-backed shard's redo log opens alongside its pool:
            // torn tails truncate here, and the recovered record count
            // seeds the store-wide replication offset.
            let log = match &cfg.dir {
                None => None,
                Some(dir) => {
                    let path = log_file(dir, index);
                    let log_open_start = std::time::Instant::now();
                    let (log, log_rec) =
                        LogWriter::open(&path, index as u32, cfg.repl_log_max_bytes).map_err(
                            |e| EngineError::ReplLog(format!("{}: {e}", path.display())),
                        )?;
                    log_open.micros += log_open_start.elapsed().as_micros() as u64;
                    log_open.scanned_bytes += log_rec.scanned_bytes;
                    log_records += log_rec.records;
                    Some(Mutex::new(log))
                }
            };
            let out = pool.recovery_outcome();
            shards.push(Shard {
                index,
                pool,
                table,
                write_lock: Mutex::new(()),
                // Recovered shards defer their base count to the first
                // DBSIZE/INFO; fresh ones are known empty.
                base_keys: if recovered { OnceLock::new() } else { OnceLock::from(0) },
                keys_delta: AtomicI64::new(0),
                info: ShardInfo { recovered, clean: out.clean, version: out.version },
                log,
                log_window: cfg.repl_log_max_bytes,
                hub: hub.clone(),
                blob_written: AtomicU64::new(0),
                blob_released: AtomicU64::new(0),
                lock_waits: AtomicU64::new(0),
                pins: AtomicU64::new(0),
                slots: slots.clone(),
                wheel: TimerWheel::new(now),
                sample_pos: AtomicU64::new(0),
            });
        }
        hub.set_offset(log_records);
        // A store with no recovered shard is known empty: seed the slot
        // base eagerly so the first COUNTKEYSINSLOT never pays a scan.
        if shards.iter().all(|s| !s.info.recovered) {
            let _ = slots.base.set(vec![0i64; NUM_SLOTS as usize].into_boxed_slice());
        }
        let shard_budget = cfg.max_memory.map(|m| (m / shards.len() as u64).max(1));
        Ok(ShardedDash {
            shards,
            shard_paths,
            hub,
            slots,
            max_memory: cfg.max_memory,
            shard_budget,
            policy: cfg.eviction,
            local_expiry: AtomicBool::new(true),
            sweep_cursor: Mutex::new((0, 0)),
            log_open,
            expired_keys: AtomicU64::new(0),
            evicted_keys: AtomicU64::new(0),
            oom_rejections: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            reclaimed_bytes: AtomicU64::new(0),
            prefetch_windows: Counter::new(),
            prefetch_keys: Counter::new(),
        })
    }

    #[inline]
    fn shard_index(&self, key: &[u8]) -> usize {
        let h = hash64_seed(key, SHARD_SEED);
        (h % self.shards.len() as u64) as usize
    }

    #[inline]
    fn shard(&self, key: &[u8]) -> &Shard {
        &self.shards[self.shard_index(key)]
    }

    /// The pool of the shard that owns `key` (what `record`'s tests count
    /// allocations and flushes on).
    #[cfg(test)]
    pub(crate) fn pool_of(&self, key: &[u8]) -> &PmemPool {
        &self.shard(key).pool
    }

    /// The one key check: what every key operation refuses first, and
    /// what a multi-key write runs over all its keys before executing any.
    pub(crate) fn check_key(key: &[u8]) -> EngineResult<()> {
        if key.len() > MAX_KEY_LEN {
            return Err(EngineError::KeyTooLong(key.len()));
        }
        Ok(())
    }

    /// [`check_key`](Self::check_key) plus the value bound: what a write
    /// of `key` = `value` is refused for.
    pub(crate) fn check_write(key: &[u8], value: &[u8]) -> EngineResult<()> {
        Self::check_key(key)?;
        if value.len() > MAX_VALUE_LEN {
            return Err(EngineError::ValueTooLong(value.len()));
        }
        Ok(())
    }

    /// Open a group-commit scope on this thread (see [`LogBatch`]).
    pub(crate) fn log_batch(&self) -> LogBatch<'_> {
        let id = Arc::as_ptr(&self.hub) as usize;
        let entered = LOG_BATCH.with(|scope| {
            let mut scope = scope.borrow_mut();
            if scope.depth == 0 {
                scope.engine = id;
            }
            let ours = scope.engine == id;
            if ours {
                scope.depth += 1;
            }
            ours
        });
        LogBatch { engine: self, entered }
    }

    /// The one read path: look `key` up and, when it is present and not
    /// expired, hand its value — still in the pool, under the epoch pin
    /// — and its expiry deadline to `f`. `None` when absent or expired:
    /// an expired key is never served, and on a primary one found here
    /// is lazily deleted (replicated as `DEL`). Lock-free.
    fn read_with<R>(
        &self,
        key: &[u8],
        f: impl FnOnce(&[u8], u64) -> R,
    ) -> EngineResult<Option<R>> {
        Self::check_key(key)?;
        let shard = self.shard(key);
        let now;
        {
            let _pin = shard.pin();
            let Some(rec) = shard.lookup(key) else {
                return Ok(None);
            };
            // The clock is read only for a record that can use it: one
            // with a deadline to compare (so an expired one, below, has
            // a real `now`), or an access word that `touch` will stamp
            // (a store with a memory budget).
            now = if rec.expire_at_ms != 0 || self.max_memory.is_some() { now_ms() } else { 0 };
            if !is_expired(rec.expire_at_ms, now) {
                self.touch(&rec, now);
                return Ok(Some(f(rec.value(), rec.expire_at_ms)));
            }
        }
        // Deadline passed: hidden everywhere, deleted on a primary (the
        // pin is dropped first — the delete defers the record free, which
        // a pin held by this thread would keep pending forever).
        self.lazy_expire_key(shard, key, now);
        Ok(None)
    }

    /// Read a key's value (`None` when absent or expired).
    pub fn get(&self, key: &[u8]) -> EngineResult<Option<Vec<u8>>> {
        self.read_with(key, |value, _| value.to_vec())
    }

    /// Read a key's value plus its expiry deadline in Unix ms (0 = no
    /// expiry) — how cluster migration carries TTLs across nodes.
    pub fn get_with_expiry(&self, key: &[u8]) -> EngineResult<Option<(Vec<u8>, u64)>> {
        self.read_with(key, |value, expire_at_ms| (value.to_vec(), expire_at_ms))
    }

    /// `GET` as the wire wants it: append the reply for `key` to `out` —
    /// the RESP bulk header, then the value copied once, pool to `out`,
    /// under the epoch pin; the nil bulk when absent or expired.
    pub fn get_into(&self, key: &[u8], out: &mut Vec<u8>) -> EngineResult<()> {
        if self.read_with(key, |value, _| crate::resp::encode_bulk(value, out))?.is_none() {
            out.extend_from_slice(crate::resp::NIL);
        }
        Ok(())
    }

    /// Whether a key is present (expired keys are not). Lock-free, does
    /// not copy the value.
    pub fn exists(&self, key: &[u8]) -> EngineResult<bool> {
        Self::check_key(key)?;
        let shard = self.shard(key);
        let deadline = {
            let _pin = shard.pin();
            match shard.lookup(key) {
                None => return Ok(false),
                Some(rec) => rec.expire_at_ms,
            }
        };
        if deadline == 0 {
            return Ok(true); // no deadline: no need to ask the clock
        }
        let now = now_ms();
        let live = !is_expired(deadline, now);
        if !live {
            self.lazy_expire_key(shard, key, now);
        }
        Ok(live)
    }

    /// Insert or overwrite. Clears any previous TTL (plain `SET`
    /// semantics).
    ///
    /// The durability contract of every mutating call, in two halves.
    /// The **pool** — the ground truth — is persisted per operation: the
    /// record and the table update are flushed and fenced by the time
    /// the call returns. The **redo log** — the derived replication
    /// and backup feed — is in the kernel before the mutation can be
    /// acknowledged: a direct call like this one is write-through (its
    /// record is written before it returns), and a connection, which
    /// executes a whole tick of pipelined commands under one
    /// [`LogBatch`], writes the batch out before that tick's first reply
    /// byte goes to the socket. Either way a reply sent after `set` is
    /// an acknowledged write that survives a process kill, in the pool
    /// and in the log.
    pub fn set(&self, key: &[u8], value: &[u8]) -> EngineResult<()> {
        self.set_with_expiry(key, value, 0)
    }

    /// Insert or overwrite with an absolute expiry deadline in Unix ms
    /// (0 = none). The memory budget is enforced here: pending garbage
    /// is reclaimed, then keys are evicted under the policy, and a
    /// write that still cannot fit fails with [`EngineError::Oom`].
    pub fn set_with_expiry(
        &self,
        key: &[u8],
        value: &[u8],
        expire_at_ms: u64,
    ) -> EngineResult<()> {
        Self::check_write(key, value)?;
        let si = self.shard_index(key);
        let _w = self.shards[si].lock_write();
        self.set_under_budget(si, key, value, expire_at_ms, now_ms())
    }

    /// Apply one op as the primary decided it — the one body under replica
    /// bootstrap and tail, [`restore`](Self::restore),
    /// [`replay_log_dir`](Self::replay_log_dir) and
    /// [`purge`](Self::purge). Unlike the client write path it enforces no
    /// memory budget (a replica executes the primary's decisions, it does
    /// not make its own) and a deadline lands verbatim, never re-derived.
    /// True when the op changed a key: always for a set, for a delete when
    /// the key existed.
    pub fn apply(&self, op: OpRef<'_>) -> EngineResult<bool> {
        let (key, value, expire_at_ms) = match op {
            OpRef::Del { key } => return self.del(key),
            OpRef::Set { key, value } => (key, value, 0),
            OpRef::SetEx { key, value, expire_at_ms } => (key, value, expire_at_ms),
        };
        Self::check_write(key, value)?;
        let shard = self.shard(key);
        let _w = shard.lock_write();
        let access = policy::initial_access(self.policy, now_ms());
        shard.set_locked(key, value, expire_at_ms, access)?;
        Ok(true)
    }

    /// Delete a key; true when it existed.
    pub fn del(&self, key: &[u8]) -> EngineResult<bool> {
        Self::check_key(key)?;
        let shard = self.shard(key);
        let _w = shard.lock_write();
        Ok(shard.del_locked(key))
    }

    /// Remaining TTL of `key` in milliseconds: `-2` when absent (or
    /// expired), `-1` when present without expiry, else the remaining
    /// time.
    pub fn ttl_ms(&self, key: &[u8]) -> EngineResult<i64> {
        Self::check_key(key)?;
        let shard = self.shard(key);
        let deadline = {
            let _pin = shard.pin();
            shard.lookup(key).map(|rec| rec.expire_at_ms)
        };
        match deadline {
            None => Ok(-2),
            Some(0) => Ok(-1),
            Some(e) => {
                let now = now_ms();
                if is_expired(e, now) {
                    self.lazy_expire_key(shard, key, now);
                    Ok(-2)
                } else {
                    Ok((e - now) as i64)
                }
            }
        }
    }

    /// Set `key`'s expiry to an absolute deadline (`EXPIRE`/`PEXPIRE`);
    /// true when the key exists. A deadline already in the past deletes
    /// the key outright (Redis semantics), replicated as `DEL`.
    pub fn expire_at(&self, key: &[u8], expire_at_ms: u64) -> EngineResult<bool> {
        self.rewrite_deadline(key, expire_at_ms)
    }

    /// Remove `key`'s expiry (`PERSIST`); true when the key existed and
    /// had one.
    pub fn persist(&self, key: &[u8]) -> EngineResult<bool> {
        self.rewrite_deadline(key, 0)
    }

    /// The body of [`expire_at`](Self::expire_at) and
    /// [`persist`](Self::persist): give a live key the deadline
    /// `expire_at_ms`, where 0 means none. Deadlines are immutable per
    /// record, so the record is rewritten and replicates as a full
    /// `SetEx` (or `Set`) — the deterministic form: replicas never
    /// re-derive time. A key already past its *old* deadline is gone:
    /// deleted, and false. Removing the deadline of a key that has none
    /// changes nothing, and is false.
    fn rewrite_deadline(&self, key: &[u8], expire_at_ms: u64) -> EngineResult<bool> {
        Self::check_key(key)?;
        let si = self.shard_index(key);
        let shard = &self.shards[si];
        let now = now_ms();
        let _w = shard.lock_write();
        let live_value = {
            let _pin = shard.pin();
            match shard.lookup(key) {
                None => return Ok(false),
                Some(rec) if expire_at_ms == 0 && rec.expire_at_ms == 0 => return Ok(false),
                Some(rec) => (!is_expired(rec.expire_at_ms, now)).then(|| rec.value().to_vec()),
            }
        };
        match &live_value {
            Some(value) if !is_expired(expire_at_ms, now) => {
                self.set_under_budget(si, key, value, expire_at_ms, now)?;
            }
            _ => {
                if shard.del_locked(key) {
                    self.expired_keys.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        Ok(live_value.is_some())
    }

    /// Update a record's access word on read. Only when a budget exists —
    /// the word is advisory, and without eviction it is dead weight.
    fn touch(&self, rec: &Rec<'_>, now: u64) {
        if self.max_memory.is_none() {
            return;
        }
        rec.set_access(match self.policy {
            EvictionPolicy::AllKeysLfu => policy::lfu_touch(rec.access, now, rec.off()),
            _ => policy::lru_stamp(now),
        });
    }

    /// Delete `key` if its deadline is (still) past, under the shard
    /// write lock — the lazy half of expiry. Primary only: a replica
    /// hides the key and waits for the primary's `DEL`.
    fn lazy_expire_key(&self, shard: &Shard, key: &[u8], now: u64) {
        if !self.local_expiry.load(Ordering::Relaxed) {
            return;
        }
        let _w = shard.lock_write();
        let _pin = shard.pin();
        if shard.is_due(key, now) && shard.del_locked(key) {
            self.expired_keys.fetch_add(1, Ordering::Relaxed);
        }
    }

    // ---- the lookup hint --------------------------------------------------

    /// Hint that `keys` are about to be looked up, so that the cache
    /// misses of their lookups overlap instead of being taken one key at
    /// a time. A lookup walks a chain of dependent lines — bucket
    /// metadata, then the head of the record the matching slot points at,
    /// then the rest of that record — and the hint walks it for all keys
    /// at once, one stage per pass, each pass issuing the loads the next
    /// one reads:
    ///
    /// 1. **buckets** — hash, shard, directory → segment; prefetch the
    ///    segment header and the target and probing buckets;
    /// 2. **record heads** — for every fingerprint candidate in those
    ///    buckets, prefetch the first line of its record: the header and
    ///    the key a probe compares;
    /// 3. **record tails** — decode each candidate's header and prefetch
    ///    the lines after the first that its lengths say the key compare
    ///    and the value copy will touch, at most 16 of them.
    ///
    /// **The contract: a hint changes nothing.** It writes nothing, takes
    /// no lock, is not metered as a PM read (`pool.stats()` is identical
    /// before and after), and replaces no check of the operation that
    /// follows, which probes, validates and counts exactly as if it had
    /// not been hinted. It trusts nothing it reads: every offset is
    /// bounds-checked before it is followed, so a stale or torn word
    /// costs a useless prefetch. It holds one epoch pin per shard touched
    /// per group of `PREFETCH_WINDOW` (16) keys, all released on return — the
    /// caller may go on to free memory. Fewer than two keys have nothing
    /// to overlap with: such a call returns at once. The keys are taken
    /// uncollected (a command's key spec, a window's keys), a group at a
    /// time into stack scratch.
    pub fn prefetch<'k>(&self, keys: impl IntoIterator<Item = &'k [u8]>) {
        let mut keys = keys.into_iter();
        let mut group: [&[u8]; PREFETCH_WINDOW] = [&[]; PREFETCH_WINDOW];
        let mut hinted = 0;
        loop {
            let n = group.iter_mut().zip(&mut keys).map(|(slot, key)| *slot = key).count();
            // Nothing left, or a lone key: nothing to overlap with.
            if n == 0 || hinted + n < 2 {
                break;
            }
            hinted += n;
            self.prefetch_group(&group[..n]);
        }
        if hinted > 0 {
            self.prefetch_windows.incr();
            self.prefetch_keys.add(hinted as u64);
        }
    }

    /// The three passes over at most [`PREFETCH_WINDOW`] keys. All
    /// scratch is on the stack.
    fn prefetch_group(&self, keys: &[&[u8]]) {
        let mut probes = [(0usize, 0u64); PREFETCH_WINDOW]; // (shard, table hash)
        let probes = &mut probes[..keys.len()];
        let mut pins = [const { None }; PREFETCH_WINDOW];
        for i in 0..probes.len() {
            let si = self.shard_index(keys[i]);
            probes[i] = (si, RecProbe::new(keys[i]).hash64());
            if !probes[..i].iter().any(|&(earlier, _)| earlier == si) {
                let shard = &self.shards[si];
                shard.pins.fetch_add(1, Ordering::Relaxed);
                pins[i] = Some(shard.pool.epoch().pin());
            }
        }
        for &(si, h) in probes.iter() {
            self.shards[si].table.hint_buckets(h);
        }
        // A fingerprint false positive adds a candidate; past twice the
        // keys the extra ones go unhinted. The table has already asked
        // for the line each candidate's key word points at.
        let mut recs = [(0usize, 0u64); 2 * PREFETCH_WINDOW]; // (shard, record offset)
        let mut found = 0;
        for &(si, h) in probes.iter() {
            let shard = &self.shards[si];
            shard.table.hint_records(h, |off, _| {
                if found < recs.len() && record::header_in_pool(&shard.pool, off) {
                    recs[found] = (si, off);
                    found += 1;
                }
            });
        }
        for &(si, off) in &recs[..found] {
            if let Some(rec) = Rec::at(&self.shards[si].pool, off) {
                rec.prefetch_tail();
            }
        }
        drop(pins); // held across all three passes, released before returning
    }

    /// [`prefetch`](Self::prefetch) calls that had at least two keys.
    pub fn prefetch_windows_total(&self) -> u64 {
        self.prefetch_windows.get()
    }

    /// Keys those calls hinted.
    pub fn prefetch_keys_total(&self) -> u64 {
        self.prefetch_keys.get()
    }

    // ---- cursor scans ------------------------------------------------------
    //
    // The engine's scan walks the shards in order, paging each one with
    // its table's native split-stable cursor (Dash-EH: a keyspace
    // boundary). The two coordinates are packed into one opaque `u64` —
    // what `SCAN` puts on the wire: the shard index in the high 32 bits
    // and the shard position's top 32 bits below it. Dash-EH positions
    // are hash-prefix boundaries with at most `MAX_DEPTH` (24) high bits
    // set, so the low 32 bits of the position are always zero and the
    // truncation is exact (enforced by debug assertion). Cursor 0 means
    // "start"; a returned 0 means "done" — the Redis convention.

    fn encode_cursor(shard: usize, pos: u64) -> u64 {
        debug_assert_eq!(pos & 0xFFFF_FFFF, 0, "EH scan position must be a high-bit boundary");
        ((shard as u64) << 32) | (pos >> 32)
    }

    fn decode_cursor(&self, cursor: u64) -> EngineResult<(usize, u64)> {
        let shard = (cursor >> 32) as usize;
        let pos = (cursor & 0xFFFF_FFFF) << 32;
        if shard >= self.shards.len() {
            return Err(EngineError::BadCursor(cursor));
        }
        Ok((shard, pos))
    }

    /// One `SCAN` page: up to roughly `count` keys (a hint — pages run
    /// over to finish a segment) plus the continuation cursor, `0` when
    /// the iteration completed. Guarantee (from the tables' cursors):
    /// every key present from the first page to the last is returned at
    /// least once; duplicates only when a concurrent split/merge moved
    /// the record mid-scan.
    pub fn scan_keys(&self, cursor: u64, count: usize) -> EngineResult<(u64, Vec<Vec<u8>>)> {
        self.scan_impl(cursor, count, true)
    }

    /// The physical scan: every record in the tables, expired-but-
    /// unreclaimed keys included. Internal accounting (slot-count
    /// seeding, full-resync clear, migration purge) must see the
    /// physical keyspace — hiding a record there would leave it behind.
    pub(crate) fn scan_keys_physical(
        &self,
        cursor: u64,
        count: usize,
    ) -> EngineResult<(u64, Vec<Vec<u8>>)> {
        self.scan_impl(cursor, count, false)
    }

    fn scan_impl(
        &self,
        cursor: u64,
        count: usize,
        hide_expired: bool,
    ) -> EngineResult<(u64, Vec<Vec<u8>>)> {
        let (mut shard_idx, mut pos) = self.decode_cursor(cursor)?;
        let count = count.max(1);
        let now = now_ms();
        let mut keys = Vec::new();
        while shard_idx < self.shards.len() {
            let shard = &self.shards[shard_idx];
            let _pin = shard.pin();
            // `keys.len() < count` here: the loop breaks as soon as the
            // budget is met, so the remaining budget is always positive.
            let page = shard.table.scan(ScanCursor::resume(pos), count - keys.len());
            for (k, _) in page.items {
                // `SCAN` never surfaces a key whose deadline has passed,
                // even before any expiry path reclaims it.
                if hide_expired
                    && Rec::at(&shard.pool, k.rec)
                        .is_some_and(|rec| is_expired(rec.expire_at_ms, now))
                {
                    continue;
                }
                keys.push(k.bytes.into_vec());
            }
            if page.cursor.is_done() {
                shard_idx += 1;
                pos = 0;
            } else {
                pos = page.cursor.pos();
            }
            if keys.len() >= count {
                break;
            }
        }
        if shard_idx >= self.shards.len() {
            Ok((0, keys))
        } else {
            Ok((Self::encode_cursor(shard_idx, pos), keys))
        }
    }

    /// Every key in the store, by draining the scan (test/debug helper
    /// behind the `KEYS` command — O(total keys), not for production).
    pub fn keys(&self) -> EngineResult<Vec<Vec<u8>>> {
        let mut all = Vec::new();
        let mut cursor = 0u64;
        loop {
            let (next, mut page) = self.scan_keys(cursor, 4096)?;
            all.append(&mut page);
            if next == 0 {
                return Ok(all);
            }
            cursor = next;
        }
    }

    // ---- cluster accounting ------------------------------------------------

    /// The per-slot base counts, computed on first use by a full scan
    /// (see [`SlotCounters`]). Exact when quiescent; momentarily
    /// approximate while writers race the seeding scan, same contract
    /// as [`len`](Self::len).
    fn slot_base(&self) -> &[i64] {
        self.slots.base.get_or_init(|| {
            let d0: Vec<i64> =
                self.slots.delta.iter().map(|d| d.load(Ordering::SeqCst)).collect();
            let mut counts = vec![0i64; NUM_SLOTS as usize];
            let mut cursor = 0u64;
            loop {
                // Physical scan: the per-slot deltas count physical
                // inserts/deletes, so the base must too (an expired key
                // still decrements its slot when its DEL lands).
                let (next, keys) = self
                    .scan_keys_physical(cursor, 4096)
                    .expect("engine-issued scan cursor cannot be invalid");
                for key in &keys {
                    counts[key_slot(key) as usize] += 1;
                }
                if next == 0 {
                    break;
                }
                cursor = next;
            }
            for (count, d) in counts.iter_mut().zip(&d0) {
                *count -= *d;
            }
            counts.into_boxed_slice()
        })
    }

    /// Keys currently stored in one hash slot (`CLUSTER COUNTKEYSINSLOT`).
    pub fn count_keys_in_slot(&self, slot: u16) -> u64 {
        let base = self.slot_base();
        (base[slot as usize] + self.slots.delta[slot as usize].load(Ordering::SeqCst)).max(0)
            as u64
    }

    /// Keys currently stored in an inclusive slot range.
    pub fn count_keys_in_slots(&self, start: u16, end: u16) -> u64 {
        let base = self.slot_base();
        (start..=end)
            .map(|s| {
                (base[s as usize] + self.slots.delta[s as usize].load(Ordering::SeqCst)).max(0)
                    as u64
            })
            .sum()
    }

    /// Acquire and release every shard's write lock in turn. When this
    /// returns, every write whose lock was held when it was called has
    /// completed — including its `record()` publish to the replication
    /// hub (done under the lock). The migration flip's fence: after
    /// freezing a slot range and calling this, the hub offset bounds
    /// every op that will ever touch the frozen range.
    pub fn write_barrier(&self) {
        for s in &self.shards {
            drop(s.lock_write());
        }
    }

    /// Total redo-log bytes across shards (0 for a volatile store).
    pub fn repl_log_bytes(&self) -> u64 {
        self.shards.iter().filter_map(|s| s.log.as_ref()).map(|l| l.lock().bytes()).sum()
    }

    /// Sealed redo-log segments on disk across shards.
    pub fn repl_log_segments(&self) -> u64 {
        self.shards.iter().filter_map(|s| s.log.as_ref()).map(|l| l.lock().segments()).sum()
    }

    /// What reopening the redo logs cost when this store was opened
    /// (zeros for a volatile store).
    pub fn repl_log_open_cost(&self) -> LogOpenCost {
        self.log_open
    }

    /// The directory holding this store's files (`None` for a volatile
    /// store) — where the cluster layer persists its slot map.
    pub fn store_dir(&self) -> Option<PathBuf> {
        self.shard_paths.first().and_then(|p| p.parent()).map(Path::to_path_buf)
    }

    /// Key count by full scan — ground truth for the O(shards) counters
    /// behind [`len`](Self::len). Exact when quiescent; under live
    /// writers the two may legitimately diverge momentarily, which is
    /// why the drift assertion lives in [`close`](Self::close) (a
    /// quiescence point) and not here.
    pub fn scan_len(&self) -> u64 {
        self.shards.iter().map(|s| s.table.len_scan()).sum()
    }

    // ---- memory budget, expiry & reclamation -------------------------------
    //
    // The write path enforces `--max-memory` (per shard, as
    // budget/shards): reclaim pending garbage first, then evict sampled-
    // worst keys under the policy, then reject with `-OOM`. The
    // background tick drives active expiry (timer wheel + physical
    // sweep) and threshold-based record reclamation. Every deletion
    // these paths make goes through `del_locked` — logged and published
    // as a `DEL` like any client delete, which is what keeps expiry and
    // eviction deterministic on replicas and in log replay.

    /// One budget-enforced write, under the shard's write lock: make
    /// room (reclaim, then evict), write, and on pool exhaustion
    /// evict-and-retry. [`EngineError::Oom`] when no room can be made.
    fn set_under_budget(
        &self,
        si: usize,
        key: &[u8],
        value: &[u8],
        expire_at_ms: u64,
        now: u64,
    ) -> EngineResult<()> {
        let shard = &self.shards[si];
        let access = policy::initial_access(self.policy, now);
        if let Some(budget) = self.shard_budget {
            // What the allocator will take for the record: its whole
            // class block, not the bytes asked for.
            let incoming = pmem::block_bytes(record::len_of(key, value));
            let mut rounds = 0;
            while shard.pool.mem_used().saturating_add(incoming) > budget {
                rounds += 1;
                if rounds > MAX_EVICT_ROUNDS || !self.make_room(si, now) {
                    self.oom_rejections.fetch_add(1, Ordering::Relaxed);
                    return Err(EngineError::Oom);
                }
            }
        }
        let mut attempts = 0;
        loop {
            match shard.set_locked(key, value, expire_at_ms, access) {
                Err(e)
                    if is_pool_oom(&e)
                        && self.max_memory.is_some()
                        && attempts < MAX_EVICT_ROUNDS =>
                {
                    attempts += 1;
                    if !self.make_room(si, now) {
                        self.oom_rejections.fetch_add(1, Ordering::Relaxed);
                        return Err(EngineError::Oom);
                    }
                }
                r => return r,
            }
        }
    }

    /// Try to lower shard `si`'s `mem_used`: reclaim pending garbage
    /// first (cheap, loses nothing), then evict one sampled-worst key.
    /// True when either made progress. Caller holds the write lock and
    /// must NOT hold an epoch pin (it would block the reclaim).
    fn make_room(&self, si: usize, now: u64) -> bool {
        let shard = &self.shards[si];
        if shard.pool.pending_reclaim_bytes() > 0 {
            let (_, bytes) = shard.pool.reclaim();
            if bytes > 0 {
                self.reclaimed_bytes.fetch_add(bytes, Ordering::Relaxed);
                return true;
            }
        }
        if self.policy == EvictionPolicy::NoEviction {
            return false;
        }
        self.evict_one(si, now)
    }

    /// Evict one sampled-worst key from shard `si` (caller holds its
    /// write lock). Samples ~[`EVICT_SAMPLES`] keys from a rotating scan
    /// cursor, scores them by policy — an already-expired key wins
    /// outright — and deletes the worst. The delete is recorded like any
    /// other, so replicas follow the primary's eviction decisions
    /// exactly. True when a key was removed.
    fn evict_one(&self, si: usize, now: u64) -> bool {
        let shard = &self.shards[si];
        let mut victim: Option<(RecKey, u64, bool)> = None; // (key, score, expired)
        {
            let _pin = shard.pin();
            let mut pos = shard.sample_pos.load(Ordering::Relaxed);
            let mut sampled = 0usize;
            // A page can come back short (sparse segments); walk a few,
            // wrapping at the end so a cursor parked at the tail still
            // sees the head next round.
            for _ in 0..4 {
                let page = shard.table.scan(ScanCursor::resume(pos), EVICT_SAMPLES);
                for (k, _) in page.items {
                    let Some(rec) = Rec::at(&shard.pool, k.rec) else { continue };
                    sampled += 1;
                    let (score, expired) = if is_expired(rec.expire_at_ms, now) {
                        (0u64, true)
                    } else {
                        let s = match self.policy {
                            EvictionPolicy::AllKeysLfu => {
                                u64::from(policy::lfu_score(rec.access, now))
                            }
                            _ => u64::from(rec.access),
                        };
                        (s + 1, false)
                    };
                    if victim.as_ref().is_none_or(|(_, best, _)| score < *best) {
                        victim = Some((k, score, expired));
                    }
                }
                pos = if page.cursor.is_done() { 0 } else { page.cursor.pos() };
                if sampled >= EVICT_SAMPLES {
                    break;
                }
            }
            shard.sample_pos.store(pos, Ordering::Relaxed);
        }
        match victim {
            Some((k, _, expired)) if shard.del_locked(&k.bytes) => {
                let counter = if expired { &self.expired_keys } else { &self.evicted_keys };
                counter.fetch_add(1, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }

    /// One active-expiry tick: drain every shard's due timer-wheel
    /// entries (up to `budget` per shard), re-check each deadline under
    /// the shard write lock, and delete — recorded as `DEL`s. Returns
    /// keys expired. On a replica the due hints are drained and
    /// discarded (the primary's `DEL` does the deleting; stragglers
    /// after a promotion are caught by the sweep).
    pub fn expire_tick(&self, budget: usize) -> u64 {
        let now = now_ms();
        let local = self.local_expiry.load(Ordering::Relaxed);
        let mut n = 0u64;
        for shard in &self.shards {
            let due = shard.wheel.drain_due(now, budget);
            if due.is_empty() || !local {
                continue;
            }
            let _w = shard.lock_write();
            let _pin = shard.pin();
            for entry in due {
                // The entry is a hint: the key may be gone, overwritten
                // without a TTL, or re-written with a later deadline.
                if shard.is_due(&entry.key, now) && shard.del_locked(&entry.key) {
                    n += 1;
                }
            }
        }
        if n > 0 {
            self.expired_keys.fetch_add(n, Ordering::Relaxed);
        }
        n
    }

    /// Drain everything currently due — the `DBSIZE` strictness hook
    /// (an exact count must not include keys whose tick has passed).
    pub fn expire_now(&self) -> u64 {
        self.expire_tick(usize::MAX)
    }

    /// One incremental sweep step: scan a window of ~`budget` physical
    /// records for deadlines the wheel never saw (they predate this
    /// open — the wheel is volatile and open never scans) and expire
    /// them. Returns keys expired.
    pub fn sweep_tick(&self, budget: usize) -> u64 {
        if !self.local_expiry.load(Ordering::Relaxed) {
            return 0;
        }
        let now = now_ms();
        let mut cur = self.sweep_cursor.lock();
        let (si, pos) = *cur;
        let si = if si >= self.shards.len() { 0 } else { si };
        let shard = &self.shards[si];
        let mut stale: Vec<Box<[u8]>> = Vec::new();
        {
            let _pin = shard.pin();
            let page = shard.table.scan(ScanCursor::resume(pos), budget.max(1));
            for (k, _) in page.items {
                if Rec::at(&shard.pool, k.rec).is_some_and(|r| is_expired(r.expire_at_ms, now)) {
                    stale.push(k.bytes);
                }
            }
            *cur = if page.cursor.is_done() {
                ((si + 1) % self.shards.len(), 0)
            } else {
                (si, page.cursor.pos())
            };
        }
        drop(cur);
        if stale.is_empty() {
            return 0;
        }
        let mut n = 0u64;
        let _w = shard.lock_write();
        let _pin = shard.pin();
        for k in &stale {
            if shard.is_due(k, now) && shard.del_locked(k) {
                n += 1;
            }
        }
        self.expired_keys.fetch_add(n, Ordering::Relaxed);
        n
    }

    /// One record reclamation pass: a shard whose dead bytes clear
    /// the floor AND whose garbage ratio (dead / used) crosses one half
    /// gets an epoch collection, returning retired records to the
    /// allocator free lists — space reuse without moving live data.
    /// Returns bytes reclaimed.
    pub fn reclaim_tick(&self) -> u64 {
        let mut total = 0u64;
        for shard in &self.shards {
            let dead = shard.pool.pending_reclaim_bytes();
            if dead < RECLAIM_MIN_BYTES || dead * 2 < shard.pool.mem_used() {
                continue;
            }
            total += self.reclaim_shard(shard);
        }
        total
    }

    /// Force a reclamation pass on every shard regardless of thresholds
    /// (tests and the `DEBUG RECLAIM` command). Returns bytes reclaimed.
    pub fn reclaim_all(&self) -> u64 {
        self.shards.iter().map(|s| self.reclaim_shard(s)).sum()
    }

    fn reclaim_shard(&self, shard: &Shard) -> u64 {
        let (_, bytes) = shard.pool.reclaim();
        if bytes > 0 {
            self.compactions.fetch_add(1, Ordering::Relaxed);
            self.reclaimed_bytes.fetch_add(bytes, Ordering::Relaxed);
        }
        bytes
    }

    /// Enable/disable read-side expiry *deletion* and the active-expiry
    /// paths (primary: on; replica: off — flipped by promotion).
    /// Expired keys are hidden from reads either way.
    pub fn set_local_expiry(&self, enabled: bool) {
        self.local_expiry.store(enabled, Ordering::Relaxed);
    }

    /// Bytes the shard allocators consider in use (bump minus free
    /// lists; retired-but-unreclaimed records still count).
    pub fn mem_used(&self) -> u64 {
        self.shards.iter().map(|s| s.pool.mem_used()).sum()
    }

    /// Dead bytes: retired records awaiting epoch reclamation.
    pub fn dead_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.pool.pending_reclaim_bytes()).sum()
    }

    /// The configured store-wide memory budget, if any.
    pub fn max_memory(&self) -> Option<u64> {
        self.max_memory
    }

    pub fn eviction_policy(&self) -> EvictionPolicy {
        self.policy
    }

    /// Keys deleted because their deadline passed (lazy + active).
    pub fn expired_keys_total(&self) -> u64 {
        self.expired_keys.load(Ordering::Relaxed)
    }

    /// Keys evicted to satisfy the memory budget.
    pub fn evicted_keys_total(&self) -> u64 {
        self.evicted_keys.load(Ordering::Relaxed)
    }

    /// Writes rejected with `-OOM`.
    pub fn oom_rejections_total(&self) -> u64 {
        self.oom_rejections.load(Ordering::Relaxed)
    }

    /// Record reclamation passes that freed anything.
    pub fn compactions_total(&self) -> u64 {
        self.compactions.load(Ordering::Relaxed)
    }

    /// Bytes returned to the allocators by reclamation.
    pub fn reclaimed_bytes_total(&self) -> u64 {
        self.reclaimed_bytes.load(Ordering::Relaxed)
    }

    /// Deadlines queued on the shard timer wheels (stale hints
    /// included) — a gauge, not a key count.
    pub fn wheel_entries(&self) -> u64 {
        self.shards.iter().map(|s| s.wheel.queued()).sum()
    }

    // ---- snapshot / restore ------------------------------------------------

    /// The one snapshot writer ([`crate::snapshot`]), behind `SNAPSHOT`
    /// (into a file) and `PSYNC` (into a replica's socket); returns the
    /// record count. Each scan page's records are copied out under its
    /// own epoch pin and written after it is dropped, so a slow disk or a
    /// stalled replica holds up this writer, never reclamation. Writers
    /// keep running; an overwritten key lands with its old or new value.
    ///
    /// First come the shards' log positions, each read under its shard's
    /// write lock before the scan starts: every op below a position is
    /// in the table the scan reads (a mutation is applied and counted
    /// under that lock), so the snapshot plus the log from its positions
    /// on is the whole store. A store without redo logs has no positions
    /// and writes the version before them.
    pub(crate) fn snapshot_into(&self, out: &mut dyn std::io::Write) -> std::io::Result<u64> {
        const SNAPSHOT_PAGE: usize = 1024;
        let shards = self.shards.len() as u32;
        let logs: Vec<_> = self.shards.iter().filter_map(|s| Some((s, s.log.as_ref()?))).collect();
        let version = if logs.is_empty() { SNAP_VERSION_UNPOSITIONED } else { SNAP_VERSION };
        let header = FileHeader { magic: SNAP_MAGIC, version, meta: shards }.encode();
        let mut page_bytes = header.to_vec();
        let mut digest = Digest::new(&header);
        for (shard, log) in logs {
            let _w = shard.lock_write();
            digest.cover(encode(Record::Base(log.lock().records()), &mut page_bytes));
        }
        out.write_all(&page_bytes)?;
        let now = now_ms();
        for shard in &self.shards {
            let mut cursor = ScanCursor::START;
            while !cursor.is_done() {
                page_bytes.clear();
                let pin = shard.pin();
                let page = shard.table.scan(cursor, SNAPSHOT_PAGE);
                for (key, _) in &page.items {
                    // An expired record is dead weight the restore target
                    // would only have to re-expire — skipped.
                    let Some(rec) = Rec::at(&shard.pool, key.rec) else { continue };
                    if is_expired(rec.expire_at_ms, now) {
                        continue;
                    }
                    let op = OpRef::set(&key.bytes, rec.value(), rec.expire_at_ms);
                    digest.add(encode_op(op, &mut page_bytes));
                }
                cursor = page.cursor;
                drop(pin);
                out.write_all(&page_bytes)?;
            }
        }
        page_bytes.clear();
        encode(Record::End(digest), &mut page_bytes);
        out.write_all(&page_bytes)?;
        Ok(digest.records)
    }

    /// Online snapshot: stream every live record to a file at `path`
    /// (published whole and durably, never half-present). Returns the
    /// record count.
    pub fn snapshot_to(&self, path: &Path) -> EngineResult<u64> {
        // A snapshot renamed over a live shard pool file would destroy
        // that shard's data at the next restart (the running server keeps
        // its mapping of the old inode, so nothing would even fail until
        // then). The path is client-controlled on the SNAPSHOT command —
        // refuse the store's own files outright.
        if self.shard_paths.iter().any(|shard| same_target(path, shard)) {
            return Err(EngineError::Snapshot(format!(
                "refusing to overwrite live shard pool file {}",
                path.display()
            )));
        }
        let failed = |e: std::io::Error| EngineError::from(SnapshotError::from(e));
        let mut file = DurableFile::create(path).map_err(failed)?;
        let n = self.snapshot_into(&mut file.out).map_err(failed)?;
        file.commit().map_err(failed)?;
        Ok(n)
    }

    /// Restore a snapshot (version 3 or 4) into a **fresh** store opened
    /// with `cfg` (the open-from-backup path). The file is fully verified
    /// — every record, the count and the digest — *before* any store
    /// state is created, so a corrupted snapshot is rejected with a clean
    /// error and no half-restored directory. Records re-partition under
    /// `cfg.shards`; the snapshot's source shard count does not constrain
    /// the target.
    pub fn restore(cfg: &EngineConfig, snapshot: &Path) -> EngineResult<Self> {
        Self::restore_replaying(cfg, snapshot, None).map(|(store, _)| store)
    }

    /// [`restore`](Self::restore), then replay the redo logs in `log_dir`
    /// — the source store's directory — from the positions the snapshot
    /// recorded (a version-3 snapshot has none: position 0): the
    /// incremental backup. Every check runs before the target is
    /// created: the snapshot's, and each shard's chain must reach back to
    /// its position ([`replay_from`](crate::repl::log::replay_from)), and
    /// the directory must hold the logs of as many shards as the
    /// snapshot was taken of. Returns the store and the ops replayed.
    pub fn restore_and_replay(
        cfg: &EngineConfig,
        snapshot: &Path,
        log_dir: &Path,
    ) -> EngineResult<(Self, u64)> {
        Self::restore_replaying(cfg, snapshot, Some(log_dir))
    }

    fn restore_replaying(
        cfg: &EngineConfig,
        snapshot: &Path,
        log_dir: Option<&Path>,
    ) -> EngineResult<(Self, u64)> {
        let snapshot = Snapshot::read(snapshot)?;
        let replay = match log_dir {
            Some(log_dir) => {
                if let Some(dir) = &cfg.dir {
                    refuse_own_logs(dir, log_dir)?;
                }
                plan_replay(log_dir, Some(snapshot.positions()))?
            }
            None => Vec::new(),
        };
        if let Some(dir) = &cfg.dir {
            if dir.exists() && discover_shards(dir).map_or(true, |n| n > 0) {
                return Err(EngineError::Layout(format!(
                    "refusing to restore into {}: it already holds a store",
                    dir.display()
                )));
            }
        }
        let open_and_load = || -> EngineResult<(Self, u64)> {
            let store = Self::open(cfg)?;
            // Through the apply path: the snapshot is already-accepted
            // state, so no budget is enforced, and deadlines are restored
            // verbatim (a restore never re-derives time).
            {
                let _batch = store.log_batch();
                snapshot.try_for_each(|op| store.apply(op).map(drop))?;
            }
            let replayed = store.replay(&replay)?;
            Ok((store, replayed))
        };
        match open_and_load() {
            Ok(loaded) => Ok(loaded),
            Err(e) => {
                // A failure mid-restore (snapshot bigger than the
                // configured pools, disk full, ...) must not leave a
                // half-built store behind: a retry would be refused as
                // "already holds a store" and a plain open would
                // silently serve partial data. The directory was
                // store-free before (checked above), so every shard
                // file a fresh open could have created is ours to
                // delete — including ones `open` itself created before
                // failing.
                if let Some(dir) = &cfg.dir {
                    for i in 0..cfg.shards {
                        let _ = std::fs::remove_file(shard_file(dir, i));
                        crate::repl::log::remove_log(&log_file(dir, i));
                    }
                }
                Err(e)
            }
        }
    }

    // ---- replication -------------------------------------------------------
    //
    // The engine's side of the replication subsystem: every applied
    // mutation is appended to the owning shard's redo log and published
    // through the hub (see `Shard::record`); what lives here is the
    // consumer surface — subscribing a replica stream, clearing a store
    // or a slot range through the apply path, and replaying redo logs as
    // an incremental backup.

    /// Ops published since store creation (recovered from the redo logs
    /// on open). On a caught-up replica, `INFO repl_offset` of primary
    /// and replica are equal.
    pub fn repl_offset(&self) -> u64 {
        self.hub.offset()
    }

    /// Live replica streams.
    pub fn connected_replicas(&self) -> usize {
        self.hub.sink_count()
    }

    /// Redo-log records dropped since open (the ops themselves
    /// succeeded; a failed write poisoned their shard's log).
    pub fn log_append_errors(&self) -> u64 {
        self.shards.iter().filter_map(|s| s.log.as_ref()).map(|l| l.lock().dropped()).sum()
    }

    /// `write(2)` calls the redo logs issued for records since open.
    /// Against the records written over the same interval
    /// ([`repl_offset`](Self::repl_offset)) this is the group commit's
    /// batching factor: equal when every op travels alone, far fewer
    /// under pipelines and batches.
    pub fn repl_log_flushes(&self) -> u64 {
        self.shards.iter().filter_map(|s| s.log.as_ref()).map(|l| l.lock().flushes()).sum()
    }

    /// Register a replica stream: returns the subscription whose
    /// `start_offset` is the pinned cut — a snapshot taken *after* this
    /// call holds every op at or below it, and the subscription's
    /// channel delivers every op above it.
    pub fn repl_subscribe(&self) -> ReplSubscription {
        self.hub.subscribe()
    }

    /// Delete every key `doomed` picks, each through
    /// [`apply`](Self::apply) — logged and published as a `DEL` like any
    /// other, so logs, replicas and slot counters stay exact. Returns the
    /// keys removed. The replica's full-resync reset purges everything;
    /// the cluster purges a slot range it no longer serves. Writers racing
    /// the scan on a picked key may survive it.
    ///
    /// The scan is physical: skipping expired-but-unreclaimed records
    /// would leave them behind (a replica diverging from the snapshot
    /// applied on top). Each pass resumes its cursor (the EH cursor is a
    /// keyspace boundary, unaffected by deleting already-visited
    /// records), so a quiescent purge is one linear walk; the outer loop
    /// only repeats until a whole pass finds nothing, catching records a
    /// structural op moved mid-pass.
    pub fn purge(&self, doomed: impl Fn(&[u8]) -> bool) -> EngineResult<u64> {
        let _batch = self.log_batch();
        let mut removed = 0u64;
        loop {
            let (mut cursor, mut pass_removed) = (0u64, 0u64);
            loop {
                let (next, keys) = self.scan_keys_physical(cursor, 4096)?;
                for key in keys.iter().filter(|key| doomed(key)) {
                    pass_removed += u64::from(self.apply(OpRef::Del { key })?);
                }
                if next == 0 {
                    break;
                }
                cursor = next;
            }
            removed += pass_removed;
            if pass_removed == 0 {
                return Ok(removed);
            }
        }
    }

    /// Replay the redo logs found in `dir` (`repl-N.log`, any shard
    /// count) on top of this store, from position 0: each key's last op
    /// wins and per-shard order is preserved (a key lives in exactly one
    /// source shard, so its chain holds the key's whole history in
    /// order). A chain retention has trimmed no longer starts at 0 and is
    /// refused, naming the gap, before anything is applied; replaying
    /// from a snapshot's positions is
    /// [`restore_and_replay`](Self::restore_and_replay). Returns how many
    /// ops were applied.
    pub fn replay_log_dir(&self, dir: &Path) -> EngineResult<u64> {
        if let Some(own) = self.shard_paths.first().and_then(|p| p.parent()) {
            refuse_own_logs(own, dir)?;
        }
        self.replay(&plan_replay(dir, None)?)
    }

    /// Apply a checked replay: shard by shard, each file's ops from its
    /// start position on, one file in memory at a time.
    fn replay(&self, plan: &[Vec<ReplayFile>]) -> EngineResult<u64> {
        let _batch = self.log_batch();
        let mut applied = 0u64;
        for file in plan.iter().flatten() {
            let log_err = |e| EngineError::ReplLog(format!("{}: {e}", file.path.display()));
            let (ops, _) = crate::repl::log::read_log(&file.path).map_err(log_err)?;
            for op in ops.iter().skip(file.skip as usize) {
                self.apply(op.as_ref())?;
                applied += 1;
            }
        }
        Ok(applied)
    }

    /// Does `dir` already hold a store? (What replica bootstrap refuses
    /// to clobber.)
    pub fn store_exists(dir: &Path) -> bool {
        discover_shards(dir).map_or_else(|_| shard_file(dir, 0).exists(), |n| n > 0)
    }

    /// Keys stored across all shards. O(shards) once warm; the first
    /// call after recovering existing shards pays a one-time scan that
    /// `open` deliberately skipped (constant-time recovery).
    pub fn len(&self) -> u64 {
        self.shards.iter().map(|s| s.key_count()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Per-shard key counts (INFO).
    pub fn shard_keys(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.key_count()).collect()
    }

    /// How each shard came up (INFO's recovery section).
    pub fn shard_infos(&self) -> Vec<ShardInfo> {
        self.shards.iter().map(|s| s.info).collect()
    }

    /// Shards whose pool file predates this open — i.e. data recovered
    /// from a previous incarnation.
    pub fn recovered_shards(&self) -> usize {
        self.shards.iter().filter(|s| s.info.recovered).count()
    }

    /// One [`ShardTelemetry`] per shard — everything `INFO shards` and
    /// the metrics endpoint report. O(shards) once the key counters are
    /// warm (the first call on a recovered store pays the same one-time
    /// base scan `DBSIZE` does).
    pub fn shard_telemetry(&self) -> Vec<ShardTelemetry> {
        self.shards
            .iter()
            .map(|s| ShardTelemetry {
                keys: s.key_count(),
                capacity_slots: s.table.capacity_slots(),
                blob_bytes_written: s.blob_written.load(Ordering::Relaxed),
                blob_bytes_released: s.blob_released.load(Ordering::Relaxed),
                eh_splits: s.table.split_count(),
                eh_doublings: s.table.doubling_count(),
                eh_merges: s.table.merge_count(),
                write_lock_waits: s.lock_waits.load(Ordering::Relaxed),
                epoch_pins: s.pins.load(Ordering::Relaxed),
                mem_used_bytes: s.pool.mem_used(),
                dead_bytes: s.pool.pending_reclaim_bytes(),
            })
            .collect()
    }

    /// `(sink id, lag in ops)` for every live replica sink.
    pub fn replica_lags(&self) -> Vec<(u64, u64)> {
        self.hub.sink_lags()
    }

    /// Clean shutdown: durably sync every shard pool and set its clean
    /// marker, so the next open skips the version bump (§4.8).
    ///
    /// In debug builds this is also the drift check between the
    /// O(shards) `DBSIZE` counters and a ground-truth full scan: close
    /// is a quiescence point (the server joins every connection thread
    /// first), so any disagreement here is a real accounting bug, not a
    /// racing writer.
    pub fn close(&self) -> EngineResult<()> {
        debug_assert_eq!(
            self.len(),
            self.scan_len(),
            "DBSIZE counters drifted from the scan ground truth"
        );
        // Log fsync is best-effort and must never stop the pools from
        // closing cleanly: the pools are the authoritative state, and
        // aborting here would turn a log-partition hiccup into a full
        // crash-recovery restart. The first log error is still reported
        // — after every pool is closed.
        let mut log_err = None;
        for s in &self.shards {
            if let Some(log) = &s.log {
                if let Err(e) = log.lock().sync() {
                    log_err.get_or_insert(e);
                }
            }
            s.pool.close()?;
        }
        match log_err {
            None => Ok(()),
            Some(e) => Err(EngineError::ReplLog(format!("redo log sync failed: {e}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem_engine(shards: usize) -> ShardedDash {
        ShardedDash::open(&EngineConfig {
            shards,
            shard_bytes: 16 << 20,
            dir: None,
            ..EngineConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn set_get_del_roundtrip() {
        let e = mem_engine(4);
        assert_eq!(e.get(b"k").unwrap(), None);
        e.set(b"k", b"v1").unwrap();
        assert_eq!(e.get(b"k").unwrap(), Some(b"v1".to_vec()));
        assert!(e.exists(b"k").unwrap());
        e.set(b"k", b"v2-longer-than-before").unwrap();
        assert_eq!(e.get(b"k").unwrap(), Some(b"v2-longer-than-before".to_vec()));
        assert_eq!(e.len(), 1, "overwrite must not grow the key count");
        assert!(e.del(b"k").unwrap());
        assert!(!e.del(b"k").unwrap());
        assert_eq!(e.get(b"k").unwrap(), None);
        assert_eq!(e.len(), 0);
    }

    #[test]
    fn empty_and_binary_values() {
        let e = mem_engine(2);
        e.set(b"empty", b"").unwrap();
        assert_eq!(e.get(b"empty").unwrap(), Some(Vec::new()));
        let blob: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        e.set(b"blob", &blob).unwrap();
        assert_eq!(e.get(b"blob").unwrap(), Some(blob));
    }

    #[test]
    fn keys_spread_across_shards() {
        let e = mem_engine(8);
        for i in 0..2_000u32 {
            e.set(format!("key-{i}").as_bytes(), b"x").unwrap();
        }
        let per = e.shard_keys();
        assert_eq!(per.iter().sum::<u64>(), 2_000);
        assert!(
            per.iter().all(|&n| n > 100),
            "routing must spread keys over all shards: {per:?}"
        );
    }

    #[test]
    fn scan_pages_cover_all_shards_without_duplicates() {
        let e = mem_engine(4);
        for i in 0..1_000u32 {
            e.set(format!("sk-{i}").as_bytes(), b"x").unwrap();
        }
        let mut seen = std::collections::HashSet::new();
        let mut yielded = 0usize;
        let mut pages = 0usize;
        let mut cursor = 0u64;
        loop {
            let (next, keys) = e.scan_keys(cursor, 64).unwrap();
            yielded += keys.len();
            seen.extend(keys);
            pages += 1;
            if next == 0 {
                break;
            }
            cursor = next;
        }
        assert!(pages > 4, "64-key pages over 4 shards must paginate, got {pages}");
        assert_eq!(yielded, 1_000, "quiescent engine scan must not duplicate");
        assert_eq!(seen.len(), 1_000);
        for i in 0..1_000u32 {
            assert!(seen.contains(format!("sk-{i}").as_bytes()), "key {i} never scanned");
        }
        assert_eq!(e.keys().unwrap().len(), 1_000);
        assert_eq!(e.scan_len(), 1_000);
        assert_eq!(e.scan_len(), e.len(), "counters must match the scan when quiescent");
    }

    #[test]
    fn scan_cursor_for_missing_shard_is_rejected() {
        let e = mem_engine(2);
        assert!(matches!(e.scan_keys(99u64 << 32, 10), Err(EngineError::BadCursor(_))));
        // Cursor 0 on an empty store terminates immediately.
        assert_eq!(e.scan_keys(0, 10).unwrap(), (0, Vec::new()));
    }

    #[test]
    fn limits_enforced() {
        let e = mem_engine(1);
        let long_key = vec![b'k'; MAX_KEY_LEN + 1];
        assert!(matches!(e.set(&long_key, b"v"), Err(EngineError::KeyTooLong(_))));
        assert!(matches!(e.get(&long_key), Err(EngineError::KeyTooLong(_))));
        let long_val = vec![0u8; MAX_VALUE_LEN + 1];
        assert!(matches!(e.set(b"k", &long_val), Err(EngineError::ValueTooLong(_))));
        // Max sizes themselves are fine.
        e.set(&vec![b'k'; MAX_KEY_LEN], b"v").unwrap();
    }

    /// The hint contract: `prefetch` over present keys (values from
    /// empty to past the record-line cap), absent keys, malformed keys
    /// and slots whose key word is garbage or a freed record leaves
    /// every pool counter where it was and every key readable as before.
    #[test]
    fn prefetch_is_inert_over_present_absent_and_garbage() {
        let e = mem_engine(2);
        let key = |i: usize| format!("hinted:{i:05}").into_bytes();
        let value = |i: usize| vec![i as u8; (i * 37) % 2_000];
        for i in 0..10_000 {
            e.set(&key(i), &value(i)).unwrap();
        }
        // Slots no engine call would write: key words that point
        // nowhere, past the pool, off alignment, or at a record that has
        // been freed and handed back to the allocator.
        let freed = {
            let shard = e.shard(b"victim");
            e.set(b"victim", &[1u8; 300]).unwrap();
            let (off, _) = shard.table.find(RecProbe::new(b"victim")).unwrap();
            assert!(e.del(b"victim").unwrap());
            shard.pool.epoch_collect();
            off
        };
        let size = e.shards[0].pool.size() as u64;
        let garbage = [0, 8, 24, u64::MAX, u64::MAX - 15, size, size - 16, size + 64, freed];
        for (i, word) in garbage.iter().enumerate() {
            let k = format!("garbage:{i}").into_bytes();
            e.shard(&k).table.insert_encoded(RecProbe::new(&k), *word, 0).unwrap();
        }

        let mut keys: Vec<Vec<u8>> = (0..20_000).map(key).collect(); // half of them absent
        keys.extend((0..garbage.len()).map(|i| format!("garbage:{i}").into_bytes()));
        keys.push(Vec::new());
        keys.push(vec![0xFF; MAX_KEY_LEN + 1]);
        keys.extend((0..64u8).map(|i| vec![i, 0, 13, 10, 255 - i]));
        let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();

        let stats = |e: &ShardedDash| e.shards.iter().map(|s| s.pool.stats()).collect::<Vec<_>>();
        let (before, mem_before) = (stats(&e), e.mem_used());
        // As a connection does (windows of a pipeline), as a multi-key
        // call does (everything at once), and the lone key that is no
        // window at all.
        for window in refs.chunks(PREFETCH_WINDOW) {
            e.prefetch(window.iter().copied());
        }
        e.prefetch(refs.iter().copied());
        e.prefetch(refs[..1].iter().copied());
        assert_eq!(stats(&e), before, "a hint must not move a pool counter");
        assert_eq!(e.mem_used(), mem_before);
        let windows = refs.len().div_ceil(PREFETCH_WINDOW) as u64 + 1;
        assert_eq!(e.prefetch_windows_total(), windows, "a lone key is not a window");
        assert_eq!(e.prefetch_keys_total(), 2 * refs.len() as u64);
        for i in 0..10_000 {
            assert_eq!(e.get(&key(i)).unwrap(), Some(value(i)), "key {i}");
        }
    }

    #[test]
    fn overwrite_recycles_value_blobs() {
        let e = mem_engine(1);
        let shard = &e.shards[0];
        e.set(b"k", &[7u8; 100]).unwrap();
        let frees_before = shard.pool.stats().frees;
        for _ in 0..300 {
            e.set(b"k", &[8u8; 100]).unwrap();
        }
        shard.pool.epoch_collect();
        assert!(
            shard.pool.stats().frees > frees_before,
            "old records must return to the allocator"
        );
    }

    #[test]
    fn concurrent_mixed_ops_stay_consistent() {
        let e = Arc::new(mem_engine(4));
        std::thread::scope(|s| {
            for t in 0..8usize {
                let e = e.clone();
                s.spawn(move || {
                    for i in 0..500usize {
                        let key = format!("t{}-{}", t % 4, i % 50);
                        match i % 3 {
                            0 => e.set(key.as_bytes(), key.as_bytes()).unwrap(),
                            1 => {
                                if let Some(v) = e.get(key.as_bytes()).unwrap() {
                                    assert_eq!(v, key.as_bytes(), "value must match its key");
                                }
                            }
                            _ => {
                                let _ = e.del(key.as_bytes()).unwrap();
                            }
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn per_slot_key_accounting() {
        let e = mem_engine(4);
        for i in 0..500u32 {
            e.set(format!("slot-key-{i}").as_bytes(), b"x").unwrap();
        }
        assert_eq!(e.count_keys_in_slots(0, NUM_SLOTS - 1), 500);
        let slot = key_slot(b"foo");
        let before = e.count_keys_in_slot(slot);
        e.set(b"foo", b"v").unwrap();
        assert_eq!(e.count_keys_in_slot(slot), before + 1);
        e.set(b"foo", b"overwrite").unwrap();
        assert_eq!(e.count_keys_in_slot(slot), before + 1, "overwrite must not count");
        e.del(b"foo").unwrap();
        assert_eq!(e.count_keys_in_slot(slot), before);
        assert_eq!(e.count_keys_in_slots(0, NUM_SLOTS - 1), 500);
    }

    #[test]
    fn zero_shards_rejected() {
        assert!(matches!(
            ShardedDash::open(&EngineConfig { shards: 0, ..Default::default() }),
            Err(EngineError::Layout(_))
        ));
    }
}
