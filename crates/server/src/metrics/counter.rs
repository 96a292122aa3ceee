//! The metrics registry's primitive cells: a counter and a plain gauge.
//!
//! A [`Counter`] is one [`pmem::Striped`] cell, the write-striped cell
//! the pool's PM counts are kept in too: event-loop workers bump
//! disjoint cachelines on the hot path, and only a reader (INFO, a
//! Prometheus scrape) pays the sum. A [`Gauge`] is one signed atomic —
//! its users (connection counts) change it at accept/close frequency,
//! where contention is irrelevant and signed add/sub semantics matter
//! more than striping.

use std::sync::atomic::{AtomicI64, Ordering};

use pmem::Striped;

/// A monotonic, lock-free, write-striped counter.
#[derive(Default)]
pub struct Counter(Striped<1>);

impl Counter {
    pub fn new() -> Counter {
        Counter::default()
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.add([(0, n)]);
    }

    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current total (sums the stripes — a read-side cost by design).
    pub fn get(&self) -> u64 {
        self.0.sum()[0]
    }
}

/// A signed point-in-time gauge (e.g. active connections).
#[derive(Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    pub fn new() -> Gauge {
        Gauge(AtomicI64::new(0))
    }

    #[inline]
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn sub(&self, n: i64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sums_across_threads() {
        let c = Counter::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        c.incr();
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
        c.add(5);
        assert_eq!(c.get(), 8005);
    }

    #[test]
    fn gauge_goes_both_ways() {
        let g = Gauge::new();
        g.add(3);
        g.sub(5);
        assert_eq!(g.get(), -2);
    }
}
