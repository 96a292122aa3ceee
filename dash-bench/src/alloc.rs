//! A counting `#[global_allocator]`: heap allocations and bytes tallied
//! per thread, so the in-process server's allocations can be told from
//! the client's without touching product code.
//!
//! Each thread owns one slot of a static table and is its only writer,
//! so a count is a relaxed load + store (no locked instruction on the
//! allocation path); readers on other threads see a recent value, which
//! is all a statistic needs. The counters publish no other data.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

/// Slots are never recycled, and a whole-ledger process starts a few
/// hundred short-lived server and probe threads.
const SLOTS: usize = 1024;

#[repr(align(64))]
struct Slot {
    allocs: AtomicU64,
    bytes: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)] // array-repeat seed only
const EMPTY: Slot = Slot { allocs: AtomicU64::new(0), bytes: AtomicU64::new(0) };
static TABLE: [Slot; SLOTS] = [EMPTY; SLOTS];
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Const-initialised and without a destructor: touching it inside the
    // allocator neither allocates nor fails during thread teardown.
    static MY_SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn my_slot() -> usize {
    MY_SLOT.with(|s| {
        if s.get() == usize::MAX {
            s.set(NEXT_SLOT.fetch_add(1, Relaxed).min(SLOTS - 1));
        }
        s.get()
    })
}

fn note(bytes: usize) {
    let i = my_slot();
    let slot = &TABLE[i];
    if i == SLOTS - 1 {
        // Threads past the table share the last slot and must not lose
        // each other's counts.
        slot.allocs.fetch_add(1, Relaxed);
        slot.bytes.fetch_add(bytes as u64, Relaxed);
    } else {
        slot.allocs.store(slot.allocs.load(Relaxed) + 1, Relaxed);
        slot.bytes.store(slot.bytes.load(Relaxed) + bytes as u64, Relaxed);
    }
}

pub struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the tallies are side effects on static atomics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Allocation calls (alloc, alloc_zeroed, realloc) and bytes requested.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub allocs: u64,
    pub bytes: u64,
}

impl Tally {
    pub fn since(self, earlier: Tally) -> Tally {
        Tally { allocs: self.allocs - earlier.allocs, bytes: self.bytes - earlier.bytes }
    }
}

fn read(slot: &Slot) -> Tally {
    Tally { allocs: slot.allocs.load(Relaxed), bytes: slot.bytes.load(Relaxed) }
}

/// The calling thread's tally.
pub fn this_thread() -> Tally {
    read(&TABLE[my_slot()])
}

/// Every thread's tally but the caller's — with the client on the
/// calling thread, that is the in-process server.
pub fn other_threads() -> Tally {
    let me = my_slot();
    TABLE.iter().enumerate().filter(|&(i, _)| i != me).fold(Tally::default(), |acc, (_, s)| {
        let t = read(s);
        Tally { allocs: acc.allocs + t.allocs, bytes: acc.bytes + t.bytes }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tallies_are_attributed_by_thread() {
        let (mine0, others0) = (this_thread(), other_threads());
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(move || {
                let before = this_thread();
                let v: Vec<Vec<u8>> = (0..100).map(|_| Vec::with_capacity(1000)).collect();
                std::hint::black_box(&v);
                tx.send(this_thread().since(before)).unwrap();
            });
        });
        let theirs = rx.recv().unwrap();
        // 100 buffers + the outer Vec (channel internals may add a few).
        assert!(theirs.allocs >= 101 && theirs.bytes >= 100_000, "{theirs:?}");
        let others = other_threads().since(others0);
        assert!(others.allocs >= theirs.allocs && others.bytes >= theirs.bytes);
        // Other tests run on other threads; this thread saw only its own
        // few allocations (spawn, channel), far below the worker's bytes.
        assert!(this_thread().since(mine0).bytes < 100_000);

        let before = this_thread();
        let b = std::hint::black_box(vec![0u8; 4096]);
        let after = this_thread().since(before);
        assert_eq!((after.allocs, after.bytes), (1, 4096));
        drop(b);
    }
}
