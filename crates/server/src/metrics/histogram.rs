//! Log-bucketed latency histograms (HDR-style): ~2 buckets per octave
//! from 1 µs to beyond 10 s, recorded lock-free into per-thread stripes
//! and merged on read.
//!
//! Bucket bounds are nanoseconds. Even-indexed bounds are exact powers
//! of two microseconds (`1000 << k` ns); odd-indexed bounds sit ×√2
//! above them (×181/128, the closest 7-bit rational), so consecutive
//! bounds are a factor ≈1.41 apart — a worst-case quantization error
//! of ~41% on any reported quantile, constant across the whole range.
//! The top finite bound is ≈23.7 s, comfortably past the 10 s target;
//! anything beyond lands in the overflow (`+Inf`) bucket.
//!
//! A histogram is one [`Striped`] cell per bucket plus one for the sum:
//! recording is one thread-local stripe pick plus two relaxed
//! `fetch_add`s; a [`snapshot`](Histogram::snapshot) folds the stripes
//! into plain arrays that merge across histograms (workers, families)
//! with element-wise addition.

use pmem::Striped;

/// Octave count: bounds span `1000 << 0` .. `1000 << (OCTAVES-1)` ns.
const OCTAVES: usize = 25;
/// Finite bucket bounds (two per octave).
pub const NUM_BOUNDS: usize = OCTAVES * 2;
/// Total buckets: the finite bounds plus the overflow (`+Inf`) bucket.
pub const BUCKETS: usize = NUM_BOUNDS + 1;

/// The finite bucket upper bounds, in nanoseconds, strictly increasing:
/// 1 µs, ~1.41 µs, 2 µs, ~2.83 µs, ... ~23.7 s.
pub const BOUNDS_NS: [u64; NUM_BOUNDS] = build_bounds();

const fn build_bounds() -> [u64; NUM_BOUNDS] {
    let mut bounds = [0u64; NUM_BOUNDS];
    let mut i = 0;
    while i < NUM_BOUNDS {
        let base = 1_000u64 << (i / 2);
        bounds[i] = if i % 2 == 0 { base } else { (base * 181) >> 7 };
        i += 1;
    }
    bounds
}

/// The bucket a duration of `ns` nanoseconds falls in: the first bound
/// ≥ `ns` (Prometheus `le` semantics), or the overflow bucket.
#[inline]
pub fn bucket_index(ns: u64) -> usize {
    BOUNDS_NS.partition_point(|&b| b < ns)
}

/// The striped cells of a histogram: one count per bucket, then the sum.
const CELLS: usize = BUCKETS + 1;

/// A write-striped latency histogram.
#[derive(Default)]
pub struct Histogram(Striped<CELLS>);

impl Histogram {
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one observation of `ns` nanoseconds.
    #[inline]
    pub fn record(&self, ns: u64) {
        self.0.add([(bucket_index(ns), 1), (BUCKETS, ns)]);
    }

    /// Fold the stripes into one plain snapshot.
    pub fn snapshot(&self) -> HistSnapshot {
        let cells = self.0.sum();
        let mut out = HistSnapshot { sum_ns: cells[BUCKETS], ..HistSnapshot::default() };
        out.counts.copy_from_slice(&cells[..BUCKETS]);
        out
    }
}

/// A point-in-time aggregate of one histogram (or a merge of several).
#[derive(Clone)]
pub struct HistSnapshot {
    /// Per-bucket observation counts (NOT cumulative; the Prometheus
    /// renderer accumulates when it writes `_bucket` lines).
    pub counts: [u64; BUCKETS],
    pub sum_ns: u64,
}

impl Default for HistSnapshot {
    fn default() -> Self {
        HistSnapshot { counts: [0; BUCKETS], sum_ns: 0 }
    }
}

impl HistSnapshot {
    /// Total observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Element-wise merge (aggregation across workers or families).
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (acc, n) in self.counts.iter_mut().zip(&other.counts) {
            *acc += n;
        }
        self.sum_ns += other.sum_ns;
    }

    /// The `q`-quantile (0 < q ≤ 1) as the upper bound of the bucket
    /// holding the rank-`ceil(q·count)` observation, in nanoseconds.
    /// Overflow-bucket ranks saturate to the top finite bound. `None`
    /// on an empty snapshot.
    pub fn quantile_ns(&self, q: f64) -> Option<u64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut cum = 0u64;
        for (i, &n) in self.counts.iter().enumerate() {
            cum += n;
            if cum >= rank {
                return Some(BOUNDS_NS[i.min(NUM_BOUNDS - 1)]);
            }
        }
        Some(BOUNDS_NS[NUM_BOUNDS - 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_are_strictly_increasing_and_cover_ten_seconds() {
        for w in BOUNDS_NS.windows(2) {
            assert!(w[0] < w[1], "bounds must strictly increase: {w:?}");
        }
        assert_eq!(BOUNDS_NS[0], 1_000, "first bound is 1 µs");
        assert!(
            BOUNDS_NS[NUM_BOUNDS - 1] >= 10_000_000_000,
            "top bound must reach 10 s, got {} ns",
            BOUNDS_NS[NUM_BOUNDS - 1]
        );
    }

    /// The satellite's exact-placement contract: 1 µs, 1 ms and 10 s
    /// land in the buckets the bound formula predicts.
    #[test]
    fn exact_bucket_boundaries() {
        // 1 µs is exactly the first bound — bucket 0 (le semantics).
        assert_eq!(bucket_index(1_000), 0);
        assert_eq!(bucket_index(1_001), 1);
        // 1 ms: the octave bounds around it are 724 µs (index 19) and
        // 1.024 ms (index 20).
        assert_eq!(BOUNDS_NS[19], 724_000);
        assert_eq!(BOUNDS_NS[20], 1_024_000);
        assert_eq!(bucket_index(1_000_000), 20);
        // 10 s: between 8.39 s (index 46) and 11.86 s (index 47).
        assert_eq!(bucket_index(10_000_000_000), 47);
        assert!(BOUNDS_NS[46] < 10_000_000_000 && 10_000_000_000 <= BOUNDS_NS[47]);
        // Beyond the top bound: the overflow bucket.
        assert_eq!(bucket_index(u64::MAX), NUM_BOUNDS);
        // Zero (a sub-tick duration) is still counted, in bucket 0.
        assert_eq!(bucket_index(0), 0);
    }

    #[test]
    fn merge_across_workers_matches_single_recorder() {
        // Record the same observation set from 8 threads (distinct
        // stripes) and from one, into two histograms; snapshots must
        // agree exactly.
        let striped = Histogram::new();
        let single = Histogram::new();
        let obs: Vec<u64> = (0..1000u64).map(|i| 1_000 + i * 37_000).collect();
        std::thread::scope(|s| {
            for chunk in obs.chunks(125) {
                let striped = &striped;
                s.spawn(move || {
                    for &ns in chunk {
                        striped.record(ns);
                    }
                });
            }
        });
        for &ns in &obs {
            single.record(ns);
        }
        let a = striped.snapshot();
        let b = single.snapshot();
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.sum_ns, b.sum_ns);
        assert_eq!(a.count(), 1000);

        // Merging two half-snapshots reproduces the whole.
        let half = Histogram::new();
        for &ns in &obs[..500] {
            half.record(ns);
        }
        let other = Histogram::new();
        for &ns in &obs[500..] {
            other.record(ns);
        }
        let mut merged = half.snapshot();
        merged.merge(&other.snapshot());
        assert_eq!(merged.counts, b.counts);
        assert_eq!(merged.sum_ns, b.sum_ns);
    }

    #[test]
    fn quantiles_report_bucket_upper_bounds() {
        let h = Histogram::new();
        assert_eq!(h.snapshot().quantile_ns(0.99), None, "empty histogram has no quantiles");
        // 99 fast observations and one slow one: p50 reports the fast
        // bucket's bound, p99 still fast, p999+ (and max) the slow one.
        for _ in 0..99 {
            h.record(900); // < 1 µs → bucket 0, bound 1 µs
        }
        h.record(2_000_000_000); // 2 s
        let snap = h.snapshot();
        assert_eq!(snap.quantile_ns(0.5), Some(1_000));
        assert_eq!(snap.quantile_ns(0.99), Some(1_000));
        let slow_bound = BOUNDS_NS[bucket_index(2_000_000_000)];
        assert_eq!(snap.quantile_ns(1.0), Some(slow_bound));
    }
}
