//! Property tests on substrate invariants: allocator size classes and
//! non-overlap, redo-log atomicity at arbitrary crash points, shadow
//! persistence (exactly the flushed lines survive).

#![cfg(test)]

use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::{PmOffset, PmemPool, PoolConfig};

fn shadow_cfg() -> PoolConfig {
    PoolConfig { size: 1 << 20, shadow: true, ..Default::default() }
}

proptest! {
    /// Allocated blocks never overlap, whatever the size sequence, and
    /// freed blocks may be recycled but never while still live.
    #[test]
    fn alloc_blocks_never_overlap(sizes in proptest::collection::vec(1usize..4096, 1..60)) {
        let pool = PmemPool::create(PoolConfig::with_size(8 << 20)).unwrap();
        let mut live: Vec<(u64, u64)> = Vec::new();
        for size in sizes {
            let off = pool.alloc(size).unwrap().get();
            let class = crate::block_bytes(size);
            for (o, c) in &live {
                let disjoint = off + class <= *o || *o + *c <= off;
                prop_assert!(disjoint, "block {off:#x}+{class} overlaps {o:#x}+{c}");
            }
            live.push((off, class));
        }
    }

    /// Free + realloc of the same class returns non-overlapping or
    /// exactly recycled blocks; never a partial overlap.
    #[test]
    fn free_then_alloc_recycles_exactly(rounds in 1usize..20) {
        let pool = PmemPool::create(PoolConfig::with_size(4 << 20)).unwrap();
        let mut freed: Vec<u64> = Vec::new();
        for i in 0..rounds {
            let off = pool.alloc(256).unwrap();
            if i % 2 == 0 {
                pool.free_now(off, 256);
                freed.push(off.get());
            }
        }
        // Every freed block can be reallocated; each comes back once.
        let mut seen = std::collections::HashSet::new();
        for _ in 0..freed.len() {
            let off = pool.alloc(256).unwrap().get();
            prop_assert!(seen.insert(off), "block {off:#x} handed out twice");
        }
    }

    /// A redo transaction is atomic across any crash point: after reopen,
    /// either all writes landed or none (old values intact).
    #[test]
    fn tx_is_atomic_at_every_crash_point(
        vals in proptest::collection::vec(any::<u64>(), 1..8),
        cut_extra in 0u64..12,
    ) {
        let cfg = shadow_cfg();
        let pool = PmemPool::create(cfg).unwrap();
        let slots: Vec<PmOffset> = (0..vals.len()).map(|_| {
            let o = pool.alloc(8).unwrap();
            pool.zero(o, 8);
            pool.persist(o, 8);
            o
        }).collect();
        let base = pool.flushes_issued();
        pool.set_flush_limit(Some(base + cut_extra));
        let writes: Vec<(PmOffset, u64)> =
            slots.iter().zip(&vals).map(|(o, v)| (*o, v | 1)).collect();
        pool.run_tx(&writes).unwrap();
        pool.set_flush_limit(None);
        let img = pool.crash_image();
        let pool2 = PmemPool::open(img, cfg).unwrap();
        // SAFETY: slots allocated above; same layout after reopen.
        let read = |o: PmOffset| unsafe { (*pool2.at::<AtomicU64>(o)).load(Ordering::Relaxed) };
        let landed: Vec<bool> =
            slots.iter().zip(&vals).map(|(o, v)| read(*o) == (v | 1)).collect();
        let all = landed.iter().all(|&b| b);
        let none = landed.iter().all(|&b| !b)
            && slots.iter().all(|o| read(*o) == 0);
        prop_assert!(all || none, "torn transaction: {landed:?}");
    }

    /// Shadow persistence: an 8-byte write survives a crash iff a flush
    /// covering its cacheline was issued before the cut.
    #[test]
    fn only_flushed_lines_survive(
        writes in proptest::collection::vec((0u64..64, any::<u64>()), 1..20),
        flush_subset in proptest::collection::vec(any::<bool>(), 20),
    ) {
        let cfg = shadow_cfg();
        let pool = PmemPool::create(cfg).unwrap();
        let block = pool.alloc(64 * 64).unwrap(); // 64 cachelines
        pool.zero(block, 64 * 64);
        pool.persist(block, 64 * 64);
        let mut expected = vec![0u64; 64];
        for (i, (line, val)) in writes.iter().enumerate() {
            let off = block.add(line * 64);
            // SAFETY: within the 64-line block, 8-aligned.
            unsafe { (*pool.at::<AtomicU64>(off)).store(*val, Ordering::Relaxed) };
            if flush_subset[i % flush_subset.len()] {
                pool.persist(off, 8);
                expected[*line as usize] = *val;
            }
            // Unflushed writes may still be persisted later by a flush of
            // the same line from a later write; model that:
        }
        // Re-apply semantics: replay to compute what the shadow holds.
        // (A later flushed write to the same line persists the line's
        // current content, including earlier unflushed writes.)
        let mut shadow = vec![0u64; 64];
        let mut cur = vec![0u64; 64];
        for (i, (line, val)) in writes.iter().enumerate() {
            cur[*line as usize] = *val;
            if flush_subset[i % flush_subset.len()] {
                shadow[*line as usize] = cur[*line as usize];
            }
        }
        let img = pool.crash_image();
        let pool2 = PmemPool::open(img, cfg).unwrap();
        for line in 0..64u64 {
            let off = block.add(line * 64);
            // SAFETY: same layout after reopen.
            let got = unsafe { (*pool2.at::<AtomicU64>(off)).load(Ordering::Relaxed) };
            prop_assert_eq!(got, shadow[line as usize], "line {}", line);
        }
    }
}
