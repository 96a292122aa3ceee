use parking_lot::Mutex;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::layout::PmOffset;

/// A slot's `active` value is `epoch + 1` while its thread is pinned,
/// `IDLE` (0) otherwise.
const IDLE: u64 = 0;

/// Garbage accumulated past this count triggers a collection attempt.
const COLLECT_THRESHOLD: usize = 128;

#[repr(align(64))]
struct ThreadSlot {
    active: AtomicU64,
    /// Pin nesting depth for the owning thread. Only the outermost pin
    /// publishes `active` and only the outermost unpin clears it, so an
    /// epoch-scoped batch session can hold one pin while the per-op code
    /// paths it calls re-pin cheaply — and, crucially, a nested guard
    /// dropping can never unpin an enclosing one.
    depth: AtomicU64,
}

enum Deferred {
    /// Return a pool block to the allocator.
    Free { off: PmOffset, size: usize },
    /// Arbitrary deferred action (used by tests and var-key reclamation).
    Run(Box<dyn FnOnce() + Send>),
}

/// Epoch-based memory reclamation, as the paper uses for segment and
/// directory deallocation (§4.4): optimistic readers pin the current epoch;
/// memory unlinked at epoch `e` is only reclaimed once no reader is pinned
/// at an epoch `<= e`.
///
/// The implementation is deliberately simple (global epoch counter,
/// per-thread cacheline-padded slots, a mutex-protected garbage list) —
/// reclamation is off the hot path; only `pin` is.
pub struct EpochManager {
    global: AtomicU64,
    registry: Mutex<Vec<Arc<ThreadSlot>>>,
    garbage: Mutex<Vec<(u64, Deferred)>>,
    /// `collect`'s scratch list, kept between collections so that a
    /// steady stream of deferred frees (every overwrite retires a blob)
    /// costs no heap allocation.
    ready: Mutex<Vec<Deferred>>,
    /// Bytes held by pending [`Deferred::Free`] items — retired from the
    /// application's point of view but not yet back on a free list. The
    /// service layer reads this as its "dead bytes" fragmentation gauge.
    pending_bytes: AtomicU64,
}

thread_local! {
    /// Per-thread slot cache keyed by manager address: a thread touching
    /// multiple pools gets one slot per pool.
    static SLOTS: RefCell<Vec<(usize, Arc<ThreadSlot>)>> = const { RefCell::new(Vec::new()) };
}

impl EpochManager {
    pub fn new() -> Self {
        EpochManager {
            global: AtomicU64::new(1),
            registry: Mutex::new(Vec::new()),
            garbage: Mutex::new(Vec::new()),
            ready: Mutex::new(Vec::new()),
            pending_bytes: AtomicU64::new(0),
        }
    }

    fn slot_for_current_thread(&self) -> Arc<ThreadSlot> {
        let key = self as *const _ as usize;
        SLOTS.with(|slots| {
            let mut slots = slots.borrow_mut();
            if let Some((_, slot)) = slots.iter().find(|(k, _)| *k == key) {
                return slot.clone();
            }
            let slot =
                Arc::new(ThreadSlot { active: AtomicU64::new(IDLE), depth: AtomicU64::new(0) });
            self.registry.lock().push(slot.clone());
            slots.push((key, slot.clone()));
            slot
        })
    }

    /// Pin the current thread. While the guard lives, nothing unlinked at
    /// or after the pinned epoch will be reclaimed.
    ///
    /// Pins are **re-entrant**: pinning while already pinned only bumps a
    /// per-thread nesting count (no fenced publication loop), and the
    /// epoch is held until the outermost guard drops. This is what makes
    /// the batch API's one-pin-per-batch amortization (§4.5) work — a
    /// session pins once and the per-operation pins underneath it
    /// degenerate to a counter increment.
    pub fn pin(&self) -> EpochGuard<'_> {
        let slot = self.slot_for_current_thread();
        // `depth` is only ever touched by the owning thread; Relaxed is
        // enough, the SeqCst stores to `active` carry the synchronization.
        if slot.depth.fetch_add(1, Ordering::Relaxed) == 0 {
            loop {
                let e = self.global.load(Ordering::Acquire);
                slot.active.store(e + 1, Ordering::SeqCst);
                // Re-check to close the window where a collector read our
                // slot as idle after we read `global`.
                if self.global.load(Ordering::SeqCst) == e {
                    break;
                }
            }
        }
        EpochGuard { mgr: self, slot, _not_send: std::marker::PhantomData }
    }

    /// Defer returning `off` (of `size` bytes) to the pool allocator until
    /// all current readers have unpinned.
    pub(crate) fn defer_free(&self, off: PmOffset, size: usize) -> bool {
        let e = self.global.load(Ordering::SeqCst);
        self.pending_bytes.fetch_add(size as u64, Ordering::Relaxed);
        let mut g = self.garbage.lock();
        g.push((e, Deferred::Free { off, size }));
        g.len() >= COLLECT_THRESHOLD
    }

    /// Defer an arbitrary action until all current readers have unpinned.
    pub fn defer<F: FnOnce() + Send + 'static>(&self, f: F) {
        let e = self.global.load(Ordering::SeqCst);
        self.garbage.lock().push((e, Deferred::Run(Box::new(f))));
    }

    fn min_pinned(&self) -> Option<u64> {
        self.registry
            .lock()
            .iter()
            .filter_map(|s| {
                let v = s.active.load(Ordering::SeqCst);
                if v == IDLE {
                    None
                } else {
                    Some(v - 1)
                }
            })
            .min()
    }

    /// Reclaim everything whose unlink epoch precedes all pinned readers.
    /// `free` performs the actual deallocation for `Deferred::Free` items.
    pub(crate) fn collect(&self, mut free: impl FnMut(PmOffset, usize)) -> usize {
        self.global.fetch_add(1, Ordering::SeqCst);
        let min_pinned = self.min_pinned();
        // A concurrent collection finds the scratch list taken and
        // starts an empty one; whichever finishes last leaves its own.
        let mut ready = std::mem::take(&mut *self.ready.lock());
        self.garbage.lock().retain_mut(|(e, d)| {
            let safe = match min_pinned {
                Some(m) => *e < m,
                None => true,
            };
            if safe {
                if let Deferred::Free { size, .. } = d {
                    self.pending_bytes.fetch_sub(*size as u64, Ordering::Relaxed);
                }
                // Replace with a no-op so we can move the deferred
                // action out while retain iterates.
                let taken = std::mem::replace(d, Deferred::Run(Box::new(|| {})));
                ready.push(taken);
            }
            !safe
        });
        let n = ready.len();
        for d in ready.drain(..) {
            match d {
                Deferred::Free { off, size } => free(off, size),
                Deferred::Run(f) => f(),
            }
        }
        *self.ready.lock() = ready;
        n
    }

    /// Number of deferred items not yet reclaimed (for tests/diagnostics).
    pub fn pending(&self) -> usize {
        self.garbage.lock().len()
    }

    /// Bytes held by deferred frees not yet returned to the allocator.
    pub fn pending_bytes(&self) -> u64 {
        self.pending_bytes.load(Ordering::Relaxed)
    }
}

impl Default for EpochManager {
    fn default() -> Self {
        Self::new()
    }
}

/// RAII pin on the epoch; readers hold one across optimistic accesses.
///
/// Deliberately `!Send`/`!Sync`: the pin (and its nesting depth) is
/// per-thread state, so a guard dropped on a different thread than the
/// one that pinned would clear that thread's still-live pin.
pub struct EpochGuard<'a> {
    mgr: &'a EpochManager,
    slot: Arc<ThreadSlot>,
    _not_send: std::marker::PhantomData<*mut ()>,
}

impl Drop for EpochGuard<'_> {
    fn drop(&mut self) {
        let _ = self.mgr;
        if self.slot.depth.fetch_sub(1, Ordering::Relaxed) == 1 {
            self.slot.active.store(IDLE, Ordering::SeqCst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn unpinned_garbage_is_collected() {
        let mgr = EpochManager::new();
        let hits = Arc::new(AtomicUsize::new(0));
        let h = hits.clone();
        mgr.defer(move || {
            h.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(mgr.pending(), 1);
        mgr.collect(|_, _| {});
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        assert_eq!(mgr.pending(), 0);
    }

    #[test]
    fn pinned_reader_blocks_collection() {
        let mgr = EpochManager::new();
        let hits = Arc::new(AtomicUsize::new(0));
        let guard = mgr.pin();
        let h = hits.clone();
        mgr.defer(move || {
            h.fetch_add(1, Ordering::SeqCst);
        });
        mgr.collect(|_, _| {});
        assert_eq!(hits.load(Ordering::SeqCst), 0, "reader still pinned");
        drop(guard);
        mgr.collect(|_, _| {});
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn defer_free_routes_to_allocator_callback() {
        let mgr = EpochManager::new();
        mgr.defer_free(PmOffset::new(4096), 256);
        let mut freed = Vec::new();
        mgr.collect(|off, size| freed.push((off, size)));
        assert_eq!(freed, vec![(PmOffset::new(4096), 256)]);
    }

    #[test]
    fn nested_pins_hold_until_outermost_drop() {
        let mgr = EpochManager::new();
        let hits = Arc::new(AtomicUsize::new(0));
        let outer = mgr.pin();
        let inner = mgr.pin();
        drop(inner);
        // The inner guard dropping must NOT have unpinned the thread.
        let h = hits.clone();
        mgr.defer(move || {
            h.fetch_add(1, Ordering::SeqCst);
        });
        mgr.collect(|_, _| {});
        assert_eq!(hits.load(Ordering::SeqCst), 0, "outer pin still protects");
        drop(outer);
        mgr.collect(|_, _| {});
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn deeply_nested_pins_balance() {
        let mgr = EpochManager::new();
        {
            let _a = mgr.pin();
            {
                let _b = mgr.pin();
                let _c = mgr.pin();
            }
            assert!(mgr.min_pinned().is_some(), "still pinned at depth 1");
        }
        assert!(mgr.min_pinned().is_none(), "fully unpinned after outermost drop");
    }

    #[test]
    fn repin_after_drop_is_fine() {
        let mgr = EpochManager::new();
        for _ in 0..10 {
            let g = mgr.pin();
            drop(g);
        }
        assert!(mgr.min_pinned().is_none());
    }

    #[test]
    fn concurrent_pin_collect_stress() {
        let mgr = Arc::new(EpochManager::new());
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let mgr = mgr.clone();
            let stop = stop.clone();
            handles.push(std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let _g = mgr.pin();
                    std::hint::spin_loop();
                }
            }));
        }
        for _ in 0..100 {
            mgr.defer(|| {});
            mgr.collect(|_, _| {});
        }
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
        // Everything must eventually drain once readers are gone.
        while mgr.pending() > 0 {
            mgr.collect(|_, _| {});
        }
    }
}
