//! Write-striped counters: the one cell type the tree counts in, and the
//! pool's PM access counts kept in it.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Stripes per [`Striped`] cell. 32 gives every thread of the paper's
/// 24-thread runs a stripe of its own (threads take stripes round-robin
/// as they first count), and a reader sums 32 cachelines per cell, which
/// is nothing at the rate stats are read.
const STRIPES: usize = 32;

thread_local! {
    /// This thread's stripe, the same one in every [`Striped`].
    static STRIPE: usize = {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        NEXT.fetch_add(1, Ordering::Relaxed) % STRIPES
    };
}

#[repr(align(64))]
struct Stripe<const N: usize>([AtomicU64; N]);

/// `N` monotonic `u64` counters, written through cacheline-aligned
/// per-thread stripes so that threads counting at once do not share a
/// line, and summed over the stripes on read.
pub struct Striped<const N: usize> {
    stripes: Box<[Stripe<N>]>,
}

impl<const N: usize> Default for Striped<N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const N: usize> Striped<N> {
    pub fn new() -> Self {
        let stripes =
            (0..STRIPES).map(|_| Stripe(std::array::from_fn(|_| AtomicU64::new(0)))).collect();
        Striped { stripes }
    }

    /// Add `n` to counter `cell` for every `(cell, n)`: one thread-local
    /// load, then one relaxed `fetch_add` per pair, all on this thread's
    /// stripe.
    #[inline]
    pub fn add<const K: usize>(&self, deltas: [(usize, u64); K]) {
        let stripe = &self.stripes[STRIPE.with(|s| *s)].0;
        for (cell, n) in deltas {
            stripe[cell].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Every counter's total.
    pub fn sum(&self) -> [u64; N] {
        let mut out = [0; N];
        for stripe in self.stripes.iter() {
            for (acc, cell) in out.iter_mut().zip(&stripe.0) {
                *acc += cell.load(Ordering::Relaxed);
            }
        }
        out
    }
}

// The pool's counters, one cell each, in `StatsSnapshot` field order.
pub(crate) const PM_READS: usize = 0;
pub(crate) const PM_READ_BYTES: usize = 1;
pub(crate) const PM_WRITES: usize = 2;
pub(crate) const PM_WRITE_BYTES: usize = 3;
pub(crate) const FLUSHES: usize = 4;
pub(crate) const FLUSH_BYTES: usize = 5;
pub(crate) const FENCES: usize = 6;
pub(crate) const ALLOCS: usize = 7;
pub(crate) const FREES: usize = 8;
pub(crate) const PM_CELLS: usize = 9;

/// A point-in-time aggregate of the pool's PM access counters. Tables
/// record a PM read at bucket-probe granularity (one probe = one 256 B
/// Optane block) and writes at flush granularity; the benchmark harnesses
/// report these next to throughput so the "who touches more PM" analysis
/// from the paper is directly visible.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Metered PM reads (bucket probes, key dereferences, recovery scans).
    pub pm_reads: u64,
    pub pm_read_bytes: u64,
    /// Metered PM writes that are not flushes (e.g. pessimistic read-lock
    /// traffic that dirties PM cachelines).
    pub pm_writes: u64,
    pub pm_write_bytes: u64,
    /// CLWB-equivalent flushes issued.
    pub flushes: u64,
    pub flush_bytes: u64,
    /// SFENCE-equivalent fences issued.
    pub fences: u64,
    pub allocs: u64,
    pub frees: u64,
}

impl StatsSnapshot {
    /// The snapshot of the pool's counter cells.
    pub(crate) fn of(stats: &Striped<PM_CELLS>) -> StatsSnapshot {
        let [pm_reads, pm_read_bytes, pm_writes, pm_write_bytes, flushes, flush_bytes, fences,
            allocs, frees] = stats.sum();
        StatsSnapshot {
            pm_reads,
            pm_read_bytes,
            pm_writes,
            pm_write_bytes,
            flushes,
            flush_bytes,
            fences,
            allocs,
            frees,
        }
    }

    /// Counter deltas between two snapshots (`self` taken after `earlier`).
    pub fn since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            pm_reads: self.pm_reads - earlier.pm_reads,
            pm_read_bytes: self.pm_read_bytes - earlier.pm_read_bytes,
            pm_writes: self.pm_writes - earlier.pm_writes,
            pm_write_bytes: self.pm_write_bytes - earlier.pm_write_bytes,
            flushes: self.flushes - earlier.flushes,
            flush_bytes: self.flush_bytes - earlier.flush_bytes,
            fences: self.fences - earlier.fences,
            allocs: self.allocs - earlier.allocs,
            frees: self.frees - earlier.frees,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_and_snapshot() {
        let st = Striped::<PM_CELLS>::new();
        st.add([(PM_READS, 1), (PM_READ_BYTES, 256)]);
        st.add([(PM_READS, 1), (PM_READ_BYTES, 256)]);
        st.add([(FLUSHES, 1), (FLUSH_BYTES, 64)]);
        st.add([(FENCES, 1)]);
        st.add([(ALLOCS, 1)]);
        let snap = StatsSnapshot::of(&st);
        assert_eq!(snap.pm_reads, 2);
        assert_eq!(snap.pm_read_bytes, 512);
        assert_eq!(snap.flushes, 1);
        assert_eq!(snap.flush_bytes, 64);
        assert_eq!(snap.fences, 1);
        assert_eq!(snap.allocs, 1);
        assert_eq!((snap.pm_writes, snap.pm_write_bytes, snap.frees), (0, 0, 0));
    }

    #[test]
    fn since_subtracts() {
        let st = Striped::<PM_CELLS>::new();
        st.add([(PM_READS, 1)]);
        let a = StatsSnapshot::of(&st);
        st.add([(PM_READS, 1)]);
        st.add([(FLUSHES, 1)]);
        let b = StatsSnapshot::of(&st);
        let d = b.since(&a);
        assert_eq!(d.pm_reads, 1);
        assert_eq!(d.flushes, 1);
    }

    #[test]
    fn threads_do_not_lose_counts() {
        let st = Striped::<2>::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        st.add([(0, 1), (1, 256)]);
                    }
                });
            }
        });
        assert_eq!(st.sum(), [8000, 8000 * 256]);
    }
}
