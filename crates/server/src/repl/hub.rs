//! The in-memory replication fan-out: a store-wide monotonic offset and
//! the set of live replica sinks.
//!
//! Every applied mutation is published here (by the shard that applied
//! it, after its table update and redo-log append), which assigns the
//! op the next offset and hands it to every subscribed replica stream.
//! The publish path must not re-serialize the shards it exists to fan
//! out, so it takes only a **read** lock on the sink list plus one
//! atomic for the offset; subscribing takes the write lock. That still
//! gives a subscriber an exact cut: the write lock excludes every
//! in-flight publish, so every op whose offset was assigned before the
//! subscription existed was fully applied to the tables first (and is
//! therefore visible to a snapshot scan started afterwards), and every
//! later publish sees the sink and delivers through the channel. That
//! is the whole correctness argument for snapshot+tail bootstrap.
//!
//! Sinks are budgeted, not blocking: a replica that stops draining (or
//! falls behind an entire bootstrap transfer plus [`MAX_QUEUED_OPS`]
//! ops) is marked overflowed — its stream sees a disconnect and the
//! replica re-syncs — so the primary's memory is never held hostage by
//! a slow follower, while the budget is deep enough that a bootstrap
//! under heavy write load doesn't trivially evict the new sink before
//! its snapshot even finishes sending.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::repl::ReplOp;

/// What a sink actually carries: the op plus the id of the trace span
/// that produced it (0 = untraced). The id rides *alongside* the op —
/// the `ReplOp` itself, and therefore the redo-log record format, is
/// unchanged; only the live fan-out learns trace identity. The stream
/// thread turns a nonzero id into a `MARK` record ahead of the op so the
/// replica records its apply under the primary's span id.
#[derive(Debug, Clone)]
pub struct TracedOp {
    pub op: Arc<ReplOp>,
    pub trace_id: u64,
}

/// Ops a sink may hold queued before it is dropped as too slow. At a
/// ~100-byte average op this bounds a stalled replica's cost at
/// ~100 MB — the same order as Redis's default replica output-buffer
/// limit — while covering several seconds of full-rate writes during a
/// bootstrap snapshot transfer.
pub const MAX_QUEUED_OPS: u64 = 1 << 20;

struct Sink {
    id: u64,
    tx: Sender<TracedOp>,
    /// Ops sent but not yet drained by the stream thread.
    queued: Arc<AtomicU64>,
    /// Set once the budget was blown or the receiver went away; the
    /// sink is skipped from then on (its stream has a gap, so the only
    /// correct continuation is a fresh full sync).
    overflowed: Arc<AtomicBool>,
}

/// Offset counter + replica fan-out. One per
/// [`ShardedDash`](crate::engine::ShardedDash), shared by all its shards.
pub struct ReplHub {
    offset: AtomicU64,
    next_id: AtomicU64,
    sinks: RwLock<Vec<Sink>>,
}

impl Default for ReplHub {
    fn default() -> Self {
        Self::new()
    }
}

impl ReplHub {
    pub fn new() -> Self {
        ReplHub {
            offset: AtomicU64::new(0),
            next_id: AtomicU64::new(0),
            sinks: RwLock::new(Vec::new()),
        }
    }

    /// Current replication offset: ops published since store creation
    /// (recovered from the redo logs on open).
    pub fn offset(&self) -> u64 {
        self.offset.load(Ordering::SeqCst)
    }

    /// Seed the offset at open time (sum of recovered log records).
    pub fn set_offset(&self, offset: u64) {
        self.offset.store(offset, Ordering::SeqCst);
    }

    /// Live (non-overflowed) replica sinks.
    pub fn sink_count(&self) -> usize {
        self.sinks.read().iter().filter(|s| !s.overflowed.load(Ordering::Relaxed)).count()
    }

    /// `(sink id, queued ops)` for every live sink — the per-replica lag
    /// surfaced by `INFO stats` and the metrics endpoint. A sink's
    /// acknowledged position is the hub offset minus its queued count.
    pub fn sink_lags(&self) -> Vec<(u64, u64)> {
        self.sinks
            .read()
            .iter()
            .filter(|s| !s.overflowed.load(Ordering::Relaxed))
            .map(|s| (s.id, s.queued.load(Ordering::Relaxed)))
            .collect()
    }

    /// Publish one op: bump the offset and fan the op out to every live
    /// sink. `make` is only invoked when a sink exists — with no
    /// replicas connected the publish is the atomic bump under an
    /// uncontended read lock, so shards publish concurrently.
    pub fn publish_with(&self, make: impl FnOnce() -> ReplOp) {
        let sinks = self.sinks.read();
        // Assigned while holding the read lock: a subscriber's write
        // lock therefore cleanly separates "offset ≤ start, not
        // delivered" from "offset > start, delivered".
        self.offset.fetch_add(1, Ordering::SeqCst);
        if sinks.is_empty() {
            return;
        }
        // Publishes run on the thread that executed the command, so the
        // active trace span (if any) is this thread-local — the op it
        // produced inherits the span's identity.
        let trace_id = pmem::span::id();
        let mut make = Some(make);
        let mut op: Option<Arc<ReplOp>> = None;
        for s in sinks.iter() {
            if s.overflowed.load(Ordering::Relaxed) {
                continue;
            }
            if s.queued.fetch_add(1, Ordering::SeqCst) >= MAX_QUEUED_OPS {
                s.overflowed.store(true, Ordering::SeqCst);
                continue;
            }
            let msg = match &op {
                Some(a) => a.clone(),
                None => {
                    let a = Arc::new((make.take().expect("op built once"))());
                    op = Some(a.clone());
                    a
                }
            };
            if s.tx.send(TracedOp { op: msg, trace_id }).is_err() {
                s.overflowed.store(true, Ordering::SeqCst);
            }
        }
    }

    /// Register a replica stream. The returned subscription's
    /// `start_offset` is the exact cut described in the module docs.
    pub fn subscribe(self: &Arc<Self>) -> ReplSubscription {
        let (tx, rx) = channel();
        let queued = Arc::new(AtomicU64::new(0));
        let overflowed = Arc::new(AtomicBool::new(false));
        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        let mut sinks = self.sinks.write();
        let start_offset = self.offset.load(Ordering::SeqCst);
        sinks.push(Sink { id, tx, queued: queued.clone(), overflowed: overflowed.clone() });
        drop(sinks);
        ReplSubscription { hub: self.clone(), id, start_offset, rx, queued, overflowed }
    }

    fn unsubscribe(&self, id: u64) {
        self.sinks.write().retain(|s| s.id != id);
    }
}

/// A live replica stream's end of the hub; dropping it deregisters the
/// sink (so `connected_replicas` is accurate even for idle primaries).
pub struct ReplSubscription {
    hub: Arc<ReplHub>,
    id: u64,
    /// Offset of the cut: every op ≤ this is visible to a snapshot scan
    /// started after `subscribe` returned; every later op arrives via
    /// [`recv_timeout`](Self::recv_timeout).
    pub start_offset: u64,
    rx: Receiver<TracedOp>,
    queued: Arc<AtomicU64>,
    overflowed: Arc<AtomicBool>,
}

impl ReplSubscription {
    /// Receive the next op. Reports `Disconnected` the moment the sink
    /// overflowed — the stream has a gap, so draining the remainder
    /// would only delay the full re-sync the replica now needs.
    pub fn recv_timeout(&self, timeout: std::time::Duration) -> Result<TracedOp, RecvTimeoutError> {
        if self.overflowed.load(Ordering::SeqCst) {
            return Err(RecvTimeoutError::Disconnected);
        }
        let op = self.rx.recv_timeout(timeout)?;
        self.queued.fetch_sub(1, Ordering::SeqCst);
        Ok(op)
    }

    /// Non-blocking receive, same overflow semantics.
    pub fn try_recv(&self) -> Result<TracedOp, TryRecvError> {
        if self.overflowed.load(Ordering::SeqCst) {
            return Err(TryRecvError::Disconnected);
        }
        let op = self.rx.try_recv()?;
        self.queued.fetch_sub(1, Ordering::SeqCst);
        Ok(op)
    }
}

impl Drop for ReplSubscription {
    fn drop(&mut self) {
        self.hub.unsubscribe(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn set(i: u32) -> ReplOp {
        ReplOp::Set { key: format!("k{i}").into_bytes(), value: b"v".to_vec() }
    }

    #[test]
    fn offsets_count_even_without_sinks() {
        let hub = Arc::new(ReplHub::new());
        hub.set_offset(40);
        for i in 0..10 {
            hub.publish_with(|| set(i));
        }
        assert_eq!(hub.offset(), 50);
        assert_eq!(hub.sink_count(), 0);
    }

    #[test]
    fn subscriber_sees_exactly_the_ops_after_its_cut() {
        let hub = Arc::new(ReplHub::new());
        hub.publish_with(|| set(0));
        let sub = hub.subscribe();
        assert_eq!(sub.start_offset, 1);
        assert_eq!(hub.sink_count(), 1);
        hub.publish_with(|| set(1));
        hub.publish_with(|| set(2));
        assert_eq!(*sub.recv_timeout(Duration::from_secs(5)).unwrap().op, set(1));
        assert_eq!(*sub.recv_timeout(Duration::from_secs(5)).unwrap().op, set(2));
        drop(sub);
        assert_eq!(hub.sink_count(), 0, "drop must deregister");
        hub.publish_with(|| set(3)); // no sink → lazily skipped, offset still moves
        assert_eq!(hub.offset(), 4);
    }

    #[test]
    fn concurrent_publishers_from_many_threads_never_lose_an_offset() {
        let hub = Arc::new(ReplHub::new());
        let sub = hub.subscribe();
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let hub = hub.clone();
                s.spawn(move || {
                    for i in 0..500 {
                        hub.publish_with(|| set(t * 1000 + i));
                    }
                });
            }
        });
        assert_eq!(hub.offset(), 2000);
        let mut got = 0;
        while sub.try_recv().is_ok() {
            got += 1;
        }
        assert_eq!(got, 2000, "every published op must reach the sink exactly once");
    }

    #[test]
    fn slow_sink_is_dropped_not_blocked_on() {
        let hub = Arc::new(ReplHub::new());
        let sub = hub.subscribe();
        for i in 0..(MAX_QUEUED_OPS as u32 + 10) {
            hub.publish_with(|| set(i));
        }
        assert_eq!(hub.sink_count(), 0, "an over-budget sink must stop counting as live");
        // The stream side sees a disconnect immediately (no pointless
        // drain of a gapped stream) and re-syncs from scratch.
        assert!(matches!(
            sub.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Disconnected)
        ));
        // Offsets kept counting throughout.
        assert_eq!(hub.offset(), MAX_QUEUED_OPS + 10);
    }

    #[test]
    fn ops_published_under_a_span_carry_its_trace_id() {
        let hub = Arc::new(ReplHub::new());
        let sub = hub.subscribe();
        hub.publish_with(|| set(0));
        pmem::span::begin(99);
        hub.publish_with(|| set(1));
        crate::trace::end_span(std::time::Instant::now(), 0);
        hub.publish_with(|| set(2));
        let ids: Vec<u64> = (0..3)
            .map(|_| sub.recv_timeout(Duration::from_secs(5)).unwrap().trace_id)
            .collect();
        assert_eq!(ids, vec![0, 99, 0], "only the op under the span is tagged");
    }
}
