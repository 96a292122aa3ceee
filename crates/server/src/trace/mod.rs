//! End-to-end request tracing: per-stage latency attribution and the
//! flight recorder.
//!
//! The paper's argument (Dash §3) is that PM hash-table latency is
//! dominated by *avoidable* costs — bucket lock waits, cacheline
//! flushes, fence stalls. One merged latency histogram cannot show
//! that; this module follows individual requests from epoll readiness
//! to flushed reply and attributes their time to seven stages:
//!
//! | stage         | measures                                            |
//! |---------------|-----------------------------------------------------|
//! | `queue_wait`  | readiness (or previous pipelined command) → parse   |
//! | `parse`       | RESP decode of the command                          |
//! | `dispatch`    | execute entry → first engine touch (cluster gate,   |
//! |               | role check, argument parsing)                       |
//! | `lock_wait`   | blocked time acquiring contended shard write locks  |
//! | `execute`     | engine work proper (table probe, value copy, …)     |
//! | `persist`     | PM flush + fence wall time ([`pmem::persist_timer`])|
//! | `reply_flush` | execute end → last reply byte accepted by the socket|
//!
//! The stage sums are within rounding of the measured total *by
//! construction*: `dispatch` is the residual before the first engine
//! touch, `execute` the engine residual after `lock_wait` and
//! `persist` are subtracted.
//!
//! **Cost discipline.** Full stage detail is only collected for
//! *captured* requests — 1-in-N sampled ([`Tracer::sample_every`]),
//! forced by `TRACEID` (trace propagation), or over the latency
//! threshold (coarse, from timestamps already taken). A non-captured
//! request on a tracing-enabled server pays two extra `Instant` reads
//! and a thread-local counter bump; with tracing off it pays one
//! relaxed atomic load. The engine/pmem hooks behind `lock_wait` and
//! `persist` check a thread-local flag and do nothing when no span is
//! active, so the un-sampled hot path never takes a timestamp there.
//!
//! Captured spans land in fixed-size per-worker flight-recorder rings
//! ([`Tracer::record`]), dumpable on demand (`TRACE DUMP`,
//! `TRACE GET <id>`) and on worker panic — a tail-latency spike or a
//! crash always leaves a forensic record. Trace identity propagates:
//! a cluster client re-sends its correlation id with an incremented
//! hop count after every MOVED/ASK redirect, and a traced write on the
//! primary emits `TRACEID` into the PSYNC tail so the replica records
//! the apply under the same id.

pub mod log;

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use parking_lot::{Mutex, RwLock};

/// Spans each per-worker flight-recorder ring retains.
pub const RING_CAP: usize = 256;
/// Default `TRACE ON` sampling period (1-in-N).
pub const DEFAULT_SAMPLE: u64 = 64;
/// Default always-capture threshold in microseconds (aligned with the
/// SLOWLOG default): a request slower than this is recorded even when
/// the sampler did not pick it. 0 disables threshold capture.
pub const DEFAULT_THRESHOLD_US: u64 = 10_000;
/// Worker id recorded for spans captured on the replica sync thread.
pub const REPL_WORKER: u64 = u64::MAX;

/// The seven stages of a request's timeline, in wall-clock order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    QueueWait,
    Parse,
    Dispatch,
    LockWait,
    Execute,
    Persist,
    ReplyFlush,
}

impl Stage {
    pub const COUNT: usize = 7;
    pub const ALL: [Stage; Self::COUNT] = [
        Stage::QueueWait,
        Stage::Parse,
        Stage::Dispatch,
        Stage::LockWait,
        Stage::Execute,
        Stage::Persist,
        Stage::ReplyFlush,
    ];

    pub fn index(self) -> usize {
        self as usize
    }

    /// The label on every wire surface (TRACE replies, the Prometheus
    /// `stage` label, the loadgen stage table).
    pub fn name(self) -> &'static str {
        match self {
            Stage::QueueWait => "queue_wait",
            Stage::Parse => "parse",
            Stage::Dispatch => "dispatch",
            Stage::LockWait => "lock_wait",
            Stage::Execute => "execute",
            Stage::Persist => "persist",
            Stage::ReplyFlush => "reply_flush",
        }
    }
}

/// Why a span was captured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reason {
    /// The 1-in-N sampler picked it (full stage detail).
    Sampled,
    /// Over the latency threshold but not sampled — stage detail is
    /// coarse (`execute` holds the whole execute-seam time).
    Threshold,
    /// Forced by a `TRACEID` command (cluster/client propagation).
    Forced,
    /// A replicated op applied on a replica under a propagated id.
    Repl,
}

impl Reason {
    pub fn name(self) -> &'static str {
        match self {
            Reason::Sampled => "sampled",
            Reason::Threshold => "threshold",
            Reason::Forced => "forced",
            Reason::Repl => "repl",
        }
    }
}

/// One captured request span — a flight-recorder ring entry.
#[derive(Debug, Clone)]
pub struct TraceRecord {
    /// This server's id for the span (unique per server process).
    pub id: u64,
    /// Correlation id shared across hops (cluster redirects,
    /// replication). Equals `id` for spans that originated here.
    pub origin: u64,
    /// Redirect hop count (0 = first attempt / not a redirect).
    pub hops: u32,
    /// Unix milliseconds when the span completed.
    pub unix_ms: u64,
    /// Uppercased command name.
    pub cmd: String,
    /// Prefix of the first argument (usually the key), lossy UTF-8.
    pub key: String,
    /// Event-loop worker that served it ([`REPL_WORKER`] = sync thread).
    pub worker: u64,
    /// Independently measured total (readiness → flushed reply), ns.
    pub total_ns: u64,
    pub reason: Reason,
    /// Per-stage nanoseconds, indexed by [`Stage::index`].
    pub stages_ns: [u64; Stage::COUNT],
}

impl TraceRecord {
    /// Build a record at execute completion. `total_ns` is the
    /// independently measured pre-flush total (readiness → execute end);
    /// the reply-flush stage is stamped — and added to the total — when
    /// the reply bytes reach the kernel
    /// ([`Tracer::stamp_reply_flush`]). `origin` starts equal to `id`;
    /// propagated spans overwrite it.
    pub fn new(
        id: u64,
        hops: u32,
        parts: &[impl AsRef<[u8]>],
        worker: u64,
        stages_ns: [u64; Stage::COUNT],
        total_ns: u64,
        reason: Reason,
    ) -> TraceRecord {
        let (cmd, key) = crate::command::describe(parts);
        TraceRecord {
            id,
            origin: id,
            hops,
            unix_ms: unix_ms(),
            cmd,
            key,
            worker,
            total_ns,
            reason,
            stages_ns,
        }
    }

    /// Sum of the stage attributions — the invariant surface checked
    /// against [`TraceRecord::total_ns`] (within rounding + clock
    /// saturation, ≤ 10% by the acceptance bar).
    pub fn stage_sum_ns(&self) -> u64 {
        self.stages_ns.iter().sum()
    }
}

type Ring = Mutex<VecDeque<TraceRecord>>;

/// The tracing control plane, owned by `server::Inner`: on/off, the
/// sampling knobs, the id allocator, and the per-worker rings.
pub struct Tracer {
    enabled: AtomicBool,
    sample_every: AtomicU64,
    threshold_us: AtomicU64,
    next_id: AtomicU64,
    /// Spans captured into a ring since start.
    captured: AtomicU64,
    /// Captured spans whose reply-flush completion was never observed
    /// (connection died first) or that were evicted from the pending
    /// queue under backpressure: their reply-flush stage stays 0.
    abandoned: AtomicU64,
    /// `(worker id, ring)` — created on first use per worker, read
    /// whole by DUMP/GET. The list write lock is only taken on first
    /// registration of a worker.
    rings: RwLock<Vec<(u64, Arc<Ring>)>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            enabled: AtomicBool::new(false),
            sample_every: AtomicU64::new(DEFAULT_SAMPLE),
            threshold_us: AtomicU64::new(DEFAULT_THRESHOLD_US),
            next_id: AtomicU64::new(1),
            captured: AtomicU64::new(0),
            abandoned: AtomicU64::new(0),
            rings: RwLock::new(Vec::new()),
        }
    }

    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    pub fn sample_every(&self) -> u64 {
        self.sample_every.load(Ordering::Relaxed)
    }

    /// Set the sampling period (1-in-N; 0 disables the sampler, leaving
    /// threshold and forced capture).
    pub fn set_sample_every(&self, n: u64) {
        self.sample_every.store(n, Ordering::SeqCst);
    }

    pub fn threshold_us(&self) -> u64 {
        self.threshold_us.load(Ordering::Relaxed)
    }

    pub fn set_threshold_us(&self, us: u64) {
        self.threshold_us.store(us, Ordering::SeqCst);
    }

    pub fn captured_total(&self) -> u64 {
        self.captured.load(Ordering::Relaxed)
    }

    pub fn abandoned_total(&self) -> u64 {
        self.abandoned.load(Ordering::Relaxed)
    }

    pub fn note_abandoned(&self, n: u64) {
        self.abandoned.fetch_add(n, Ordering::Relaxed);
    }

    /// Allocate a fresh span id (unique on this server, never 0).
    pub fn alloc_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Should this command be sampled? One thread-local counter bump;
    /// every worker samples its own 1-in-N slice.
    #[inline]
    pub fn sample_tick(&self) -> bool {
        let n = self.sample_every.load(Ordering::Relaxed);
        if n == 0 {
            return false;
        }
        SAMPLE_TICK.with(|t| {
            let v = t.get().wrapping_add(1);
            t.set(v);
            v % n == 0
        })
    }

    fn ring_for(&self, worker: u64) -> Arc<Ring> {
        if let Some((_, r)) = self.rings.read().iter().find(|(w, _)| *w == worker) {
            return r.clone();
        }
        let mut rings = self.rings.write();
        if let Some((_, r)) = rings.iter().find(|(w, _)| *w == worker) {
            return r.clone();
        }
        let r = Arc::new(Mutex::new(VecDeque::with_capacity(RING_CAP)));
        rings.push((worker, r.clone()));
        r
    }

    /// Append a span to its worker's ring (oldest evicted at
    /// [`RING_CAP`]) — at execute end, before the reply can reach the
    /// client, so that a reply in hand implies a span on record. Runs on
    /// the worker that served the request, so the ring mutex is
    /// uncontended except against a concurrent dump.
    pub fn record(&self, rec: TraceRecord) {
        let ring = self.ring_for(rec.worker);
        let mut ring = ring.lock();
        if ring.len() == RING_CAP {
            ring.pop_front();
        }
        ring.push_back(rec);
        self.captured.fetch_add(1, Ordering::Relaxed);
    }

    /// The reply bytes of span `id` on `worker`'s ring reached the
    /// kernel `flush_ns` after execute end: stamp the stage and extend
    /// the total, in place. Two spans may share a forced id; they
    /// complete in the order they were recorded, so the oldest one
    /// still unstamped is the one meant. A span the ring has already
    /// evicted is past caring.
    pub fn stamp_reply_flush(&self, worker: u64, id: u64, flush_ns: u64) {
        let flush = Stage::ReplyFlush.index();
        let ring = self.ring_for(worker);
        let mut ring = ring.lock();
        if let Some(rec) = ring.iter_mut().find(|r| r.id == id && r.stages_ns[flush] == 0) {
            rec.stages_ns[flush] = flush_ns;
            rec.total_ns += flush_ns;
        }
    }

    /// The most recent `n` spans across every worker ring, newest
    /// first (by completion time, id as the tiebreak).
    pub fn dump(&self, n: usize) -> Vec<TraceRecord> {
        let rings: Vec<Arc<Ring>> =
            self.rings.read().iter().map(|(_, r)| r.clone()).collect();
        let mut all: Vec<TraceRecord> = Vec::new();
        for ring in rings {
            all.extend(ring.lock().iter().cloned());
        }
        all.sort_by_key(|r| std::cmp::Reverse((r.unix_ms, r.id)));
        all.truncate(n);
        all
    }

    /// Every retained span whose id *or* origin matches — the lookup
    /// behind `TRACE GET <id>`, which must find propagated spans by
    /// their cross-server correlation id.
    pub fn get(&self, id: u64) -> Vec<TraceRecord> {
        let rings: Vec<Arc<Ring>> =
            self.rings.read().iter().map(|(_, r)| r.clone()).collect();
        let mut out = Vec::new();
        for ring in rings {
            out.extend(ring.lock().iter().filter(|r| r.id == id || r.origin == id).cloned());
        }
        out.sort_by_key(|r| (r.unix_ms, r.id));
        out
    }

    /// Spans currently retained across all rings.
    pub fn len(&self) -> usize {
        self.rings.read().iter().map(|(_, r)| r.lock().len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Clear every ring (ids keep counting).
    pub fn reset(&self) {
        for (_, r) in self.rings.read().iter() {
            r.lock().clear();
        }
    }
}

/// Unix milliseconds now (span completion stamps).
pub fn unix_ms() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_millis() as u64)
}

// ---- the per-thread active span -----------------------------------------
//
// A command executes synchronously on one worker thread, so the span
// scratch can be plain thread-locals: armed before `execute`, stamped
// by the engine hooks mid-flight, drained right after. All `Cell`s of
// `Copy` types — no RefCell bookkeeping on the hot path.

thread_local! {
    static SAMPLE_TICK: Cell<u64> = const { Cell::new(0) };
    /// Id of the active span (0 = none). Doubles as the "active" flag
    /// for the engine hooks and as the trace id the replication hub
    /// attaches to ops published while this span runs.
    static SPAN_ID: Cell<u64> = const { Cell::new(0) };
    /// First engine touch of the active span (the dispatch→engine
    /// boundary), stamped once by [`note_engine_entry`].
    static ENGINE_MARK: Cell<Option<Instant>> = const { Cell::new(None) };
    /// Nanoseconds spent blocked on contended shard write locks.
    static LOCK_NS: Cell<u64> = const { Cell::new(0) };
}

/// Arm the span scratch for a captured command (worker thread, just
/// before `execute`). Also arms the pmem persist accumulator.
pub fn begin_span(id: u64) {
    SPAN_ID.with(|s| s.set(id));
    ENGINE_MARK.with(|m| m.set(None));
    LOCK_NS.with(|l| l.set(0));
    pmem::persist_timer::begin();
}

/// The id of the span active on this thread (0 = none) — what the
/// replication hub stamps onto ops published under a traced command.
#[inline]
pub fn current_span_id() -> u64 {
    SPAN_ID.with(Cell::get)
}

/// Engine entry hook (`Shard::pin` / `Shard::lock_write`): stamp the
/// dispatch→engine boundary, first call wins. No-op without a span.
#[inline]
pub fn note_engine_entry() {
    if SPAN_ID.with(Cell::get) == 0 {
        return;
    }
    ENGINE_MARK.with(|m| {
        if m.get().is_none() {
            m.set(Some(Instant::now()));
        }
    });
}

/// Prologue of a contended write-lock acquisition: a timestamp when a
/// span is active, `None` otherwise (the caller passes it back to
/// [`note_lock_wait`] after blocking).
#[inline]
pub fn lock_wait_mark() -> Option<Instant> {
    if SPAN_ID.with(Cell::get) == 0 {
        None
    } else {
        Some(Instant::now())
    }
}

/// Epilogue of a contended write-lock acquisition.
#[inline]
pub fn note_lock_wait(mark: Option<Instant>) {
    if let Some(t0) = mark {
        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        LOCK_NS.with(|l| l.set(l.get().saturating_add(ns)));
    }
}

/// The execute-seam attribution of a finished span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanDetail {
    pub dispatch_ns: u64,
    pub lock_wait_ns: u64,
    pub execute_ns: u64,
    pub persist_ns: u64,
}

/// Disarm the span scratch and attribute the execute seam:
/// `dispatch` = entry → first engine touch (whole seam if the command
/// never touched the engine), `execute` = engine residual after lock
/// waits and persist time. The four parts sum to `total_exec_ns`
/// exactly, except when clock skew would drive `execute` negative (it
/// saturates at 0).
pub fn end_span(exec_start: Instant, total_exec_ns: u64) -> SpanDetail {
    SPAN_ID.with(|s| s.set(0));
    let persist_ns = pmem::persist_timer::take_ns();
    let lock_wait_ns = LOCK_NS.with(Cell::take);
    let dispatch_ns = match ENGINE_MARK.with(Cell::take) {
        Some(mark) => u64::try_from((mark - exec_start).as_nanos())
            .unwrap_or(u64::MAX)
            .min(total_exec_ns),
        None => total_exec_ns,
    };
    let engine_ns = total_exec_ns - dispatch_ns;
    let execute_ns = engine_ns.saturating_sub(lock_wait_ns.saturating_add(persist_ns));
    SpanDetail { dispatch_ns, lock_wait_ns, execute_ns, persist_ns }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn rec(id: u64, worker: u64, unix_ms: u64) -> TraceRecord {
        TraceRecord {
            id,
            origin: id,
            hops: 0,
            unix_ms,
            cmd: "SET".into(),
            key: "k".into(),
            worker,
            total_ns: 1_000,
            reason: Reason::Sampled,
            stages_ns: [100, 100, 100, 100, 400, 100, 100],
        }
    }

    #[test]
    fn sampler_honors_period_and_zero_disables() {
        let t = Tracer::new();
        t.set_sample_every(4);
        let hits = (0..100).filter(|_| t.sample_tick()).count();
        assert_eq!(hits, 25, "1-in-4 over 100 ticks");
        t.set_sample_every(0);
        assert!((0..100).all(|_| !t.sample_tick()), "period 0 disables sampling");
    }

    #[test]
    fn rings_wrap_and_dump_merges_newest_first() {
        let t = Tracer::new();
        for i in 0..(RING_CAP as u64 + 10) {
            t.record(rec(t.alloc_id(), 0, i));
        }
        assert_eq!(t.len(), RING_CAP, "per-worker ring must cap");
        // A second worker's spans interleave in the dump by time.
        t.record(rec(t.alloc_id(), 1, 5_000));
        let dump = t.dump(3);
        assert_eq!(dump.len(), 3);
        assert_eq!(dump[0].worker, 1, "newest span first regardless of ring");
        assert!(dump[0].unix_ms >= dump[1].unix_ms && dump[1].unix_ms >= dump[2].unix_ms);
        assert_eq!(t.captured_total(), RING_CAP as u64 + 11);
        t.reset();
        assert!(t.is_empty());
    }

    #[test]
    fn reply_flush_is_stamped_in_place_oldest_unstamped_first() {
        let t = Tracer::new();
        let flush = Stage::ReplyFlush.index();
        let unflushed = |id, unix_ms| {
            let mut r = rec(id, 0, unix_ms);
            r.stages_ns[flush] = 0;
            r.total_ns = 900;
            r
        };
        // Recorded at execute end: visible at once, flush stage pending.
        t.record(unflushed(7, 1));
        t.record(unflushed(7, 2)); // the same forced id, retried
        t.record(unflushed(8, 3));
        assert_eq!(t.get(7).len(), 2);
        t.stamp_reply_flush(0, 7, 50);
        t.stamp_reply_flush(0, 7, 60);
        t.stamp_reply_flush(0, 9, 70); // evicted or never recorded: a no-op
        t.stamp_reply_flush(1, 8, 70); // another worker's ring: not this span
        let got: Vec<(u64, u64)> =
            t.get(7).iter().map(|r| (r.stages_ns[flush], r.total_ns)).collect();
        assert_eq!(got, [(50, 950), (60, 960)], "completions land in recording order");
        assert_eq!(t.get(8)[0].stages_ns[flush], 0);
        assert_eq!(t.captured_total(), 3, "stamping is not a second capture");
    }

    #[test]
    fn get_matches_id_and_origin() {
        let t = Tracer::new();
        let mut propagated = rec(77, 0, 1);
        propagated.origin = 42; // arrived via TRACEID from another node
        t.record(propagated);
        t.record(rec(42, 1, 2));
        assert_eq!(t.get(42).len(), 2, "matches own id and propagated origin");
        assert_eq!(t.get(77).len(), 1);
        assert!(t.get(9_999).is_empty());
    }

    #[test]
    fn span_attribution_sums_to_the_seam_total() {
        begin_span(1);
        assert_eq!(current_span_id(), 1);
        let start = Instant::now();
        std::thread::sleep(Duration::from_millis(2)); // "dispatch"
        note_engine_entry();
        let m = lock_wait_mark();
        std::thread::sleep(Duration::from_millis(2)); // "lock wait"
        note_lock_wait(m);
        std::thread::sleep(Duration::from_millis(1)); // "execute"
        let total = u64::try_from(start.elapsed().as_nanos()).unwrap();
        let d = end_span(start, total);
        assert_eq!(current_span_id(), 0, "end_span must disarm");
        assert_eq!(
            d.dispatch_ns + d.lock_wait_ns + d.execute_ns + d.persist_ns,
            total,
            "attribution must be exhaustive"
        );
        assert!(d.dispatch_ns >= 1_500_000, "dispatch ≈ first sleep: {d:?}");
        assert!(d.lock_wait_ns >= 1_500_000, "lock wait ≈ second sleep: {d:?}");
    }

    #[test]
    fn spans_without_engine_contact_attribute_everything_to_dispatch() {
        begin_span(2);
        let start = Instant::now();
        let d = end_span(start, 10_000);
        assert_eq!(d.dispatch_ns, 10_000);
        assert_eq!(d.execute_ns + d.lock_wait_ns + d.persist_ns, 0);
    }

    #[test]
    fn hooks_are_inert_without_a_span() {
        assert_eq!(current_span_id(), 0);
        note_engine_entry(); // must not arm anything
        assert!(lock_wait_mark().is_none());
        begin_span(3);
        let d = end_span(Instant::now(), 1_000);
        assert_eq!(d.dispatch_ns, 1_000, "earlier inert calls must not have stamped");
    }

    #[test]
    fn concurrent_workers_record_without_interference() {
        let t = Arc::new(Tracer::new());
        std::thread::scope(|s| {
            for w in 0..4u64 {
                let t = t.clone();
                s.spawn(move || {
                    for i in 0..200 {
                        t.record(rec(t.alloc_id(), w, i));
                    }
                });
            }
        });
        assert_eq!(t.captured_total(), 800);
        assert_eq!(t.len(), 800.min(4 * RING_CAP));
        // Every worker ring retained its newest span.
        for w in 0..4u64 {
            assert!(t.dump(usize::MAX).iter().any(|r| r.worker == w));
        }
    }
}
