//! The SLOWLOG ring: a fixed-size buffer of over-threshold commands,
//! Redis-flavored (`SLOWLOG GET/RESET/LEN` on the wire).
//!
//! The hot path pays exactly one relaxed load when a command is under
//! the threshold — the entry (with its string allocations) is only
//! built for commands that are already slow, and only then is the ring
//! mutex taken. The ring keeps the most recent [`SLOWLOG_CAP`] entries;
//! ids are monotonic and survive wrap (but not `RESET`, which clears
//! the ring while ids keep counting — Redis semantics).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

use parking_lot::Mutex;

/// Entries the ring retains (older ones are evicted).
pub const SLOWLOG_CAP: usize = 128;

/// One over-threshold command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowEntry {
    /// Monotonic id (never reused, not reset by `SLOWLOG RESET`).
    pub id: u64,
    /// Unix timestamp (seconds) when the command finished.
    pub unix_secs: u64,
    /// Execution time in microseconds.
    pub duration_us: u64,
    /// Uppercased command name.
    pub cmd: String,
    /// Prefix of the first argument (usually the key), lossy UTF-8;
    /// empty for zero-argument commands.
    pub key: String,
    /// The event-loop worker that executed it.
    pub worker: u64,
    /// Per-stage nanoseconds from the sampled trace of this command,
    /// indexed by [`crate::trace::Stage::index`] — present only when
    /// the tracer captured the same request, so the slow query is
    /// explainable, not just listed.
    pub stages_ns: Option<[u64; crate::trace::Stage::COUNT]>,
}

/// The fixed-size ring of slow commands.
pub struct SlowLog {
    threshold_us: AtomicU64,
    next_id: AtomicU64,
    ring: Mutex<VecDeque<SlowEntry>>,
}

impl SlowLog {
    pub fn new(threshold_us: u64) -> SlowLog {
        SlowLog {
            threshold_us: AtomicU64::new(threshold_us),
            next_id: AtomicU64::new(0),
            ring: Mutex::new(VecDeque::with_capacity(SLOWLOG_CAP)),
        }
    }

    pub fn threshold_us(&self) -> u64 {
        self.threshold_us.load(Ordering::Relaxed)
    }

    /// Record the command if it ran for at least the threshold.
    /// `parts` is the decoded command (`parts[0]` the name); the cheap
    /// under-threshold exit happens before anything is copied.
    /// `stages_ns` is the sampled trace's stage breakdown when the
    /// tracer captured this same request.
    pub fn maybe_record(
        &self,
        duration_ns: u64,
        parts: &[impl AsRef<[u8]>],
        worker: u64,
        stages_ns: Option<[u64; crate::trace::Stage::COUNT]>,
    ) {
        let duration_us = duration_ns / 1_000;
        if duration_us < self.threshold_us.load(Ordering::Relaxed) {
            return;
        }
        let (cmd, key) = crate::command::describe(parts);
        let unix_secs =
            SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_secs());
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let mut ring = self.ring.lock();
        if ring.len() == SLOWLOG_CAP {
            ring.pop_front();
        }
        ring.push_back(SlowEntry { id, unix_secs, duration_us, cmd, key, worker, stages_ns });
    }

    /// The most recent `n` entries, newest first (Redis `SLOWLOG GET`).
    pub fn get(&self, n: usize) -> Vec<SlowEntry> {
        let ring = self.ring.lock();
        ring.iter().rev().take(n).cloned().collect()
    }

    /// Entries currently retained.
    pub fn len(&self) -> usize {
        self.ring.lock().len()
    }

    /// Drop every retained entry (ids keep counting).
    pub fn reset(&self) {
        self.ring.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(log: &SlowLog, us: u64, name: &str) {
        log.maybe_record(us * 1_000, &[name.as_bytes().to_vec(), b"some-key".to_vec()], 3, None);
    }

    #[test]
    fn threshold_filters_and_entries_carry_context() {
        let log = SlowLog::new(100);
        record(&log, 99, "get");
        assert_eq!(log.len(), 0, "under-threshold command must not be logged");
        record(&log, 100, "get");
        let entries = log.get(10);
        assert_eq!(entries.len(), 1);
        let e = &entries[0];
        assert_eq!((e.id, e.duration_us, e.worker), (0, 100, 3));
        assert_eq!(e.cmd, "GET");
        assert_eq!(e.key, "some-key");
        assert!(e.unix_secs > 0);
    }

    #[test]
    fn ring_wraps_keeping_newest_and_reset_clears_but_ids_continue() {
        let log = SlowLog::new(0);
        for i in 0..(SLOWLOG_CAP as u64 + 40) {
            log.maybe_record(i * 1_000, &[b"set".to_vec()], 0, None);
        }
        assert_eq!(log.len(), SLOWLOG_CAP, "ring must cap at SLOWLOG_CAP");
        let newest = log.get(3);
        let ids: Vec<u64> = newest.iter().map(|e| e.id).collect();
        let top = SLOWLOG_CAP as u64 + 39;
        assert_eq!(ids, vec![top, top - 1, top - 2], "GET returns newest first");
        // The oldest retained id is top - CAP + 1: earlier ones evicted.
        let all = log.get(usize::MAX);
        assert_eq!(all.last().unwrap().id, top - SLOWLOG_CAP as u64 + 1);
        log.reset();
        assert_eq!(log.len(), 0);
        log.maybe_record(5_000, &[b"del".to_vec()], 0, None);
        assert_eq!(log.get(1)[0].id, top + 1, "ids keep counting across RESET");
    }

    #[test]
    fn long_keys_are_truncated() {
        let log = SlowLog::new(0);
        log.maybe_record(1, &[b"get".to_vec(), vec![b'k'; 500]], 0, None);
        assert_eq!(log.get(1)[0].key.len(), 32);
    }

    #[test]
    fn stage_breakdown_rides_along_when_present() {
        let log = SlowLog::new(0);
        let stages = [1, 2, 3, 4, 5, 6, 7];
        log.maybe_record(9_000, &[b"set".to_vec(), b"k".to_vec()], 0, Some(stages));
        assert_eq!(log.get(1)[0].stages_ns, Some(stages));
    }
}
