//! Emulated persistent memory (PM) substrate for the Dash reproduction.
//!
//! The paper runs on Intel Optane DCPMM in AppDirect mode with PMDK. This
//! crate provides the equivalent substrate in ordinary memory while keeping
//! every *software-visible* property the hash tables rely on:
//!
//! * a pool addressed by stable 8-byte offsets ([`PmOffset`]) so persistent
//!   pointers survive a restart (the paper maps PM at a fixed virtual
//!   address for the same reason, §6.1);
//! * explicit cacheline flush ([`PmemPool::flush`]) and store fence
//!   ([`PmemPool::fence`]) with *checkable* semantics: in shadow mode only
//!   flushed lines survive a simulated crash, so a missing flush becomes an
//!   observable lost write in tests;
//! * a crash-safe allocator with PMDK-style allocate–activate publication
//!   (a block is owned by the application or the allocator, never leaked);
//! * a bounded redo-log transaction for multi-word atomic updates (the
//!   paper uses PMDK transactions for segment-split directory updates);
//! * epoch-based reclamation so optimistic readers never dereference freed
//!   segments or variable-length keys;
//! * PM access accounting in [`Striped`] counters — the write-striped cell
//!   the server's counters and latency histograms are built on too — and
//!   an optional Optane-like cost model (latency + shared bandwidth token
//!   buckets) used by the benchmark harnesses to reproduce the
//!   bandwidth-saturation behaviour central to the paper;
//! * a per-thread span record ([`span`]) that a tracing layer arms to learn
//!   how much of one request went to flushes, fences and lock waits.
//!
//! ```
//! use pmem::{PmemPool, PoolConfig};
//!
//! // Shadow mode: only flushed cachelines survive a simulated crash.
//! let cfg = PoolConfig { size: 1 << 20, shadow: true, ..Default::default() };
//! let pool = PmemPool::create(cfg).unwrap();
//! let off = pool.alloc(64).unwrap();
//! pool.zero(off, 64);
//! pool.persist(off, 64);
//!
//! let img = pool.crash_image();
//! let pool2 = PmemPool::open(img, cfg).unwrap();
//! assert!(!pool2.recovery_outcome().clean, "crash images recover as unclean");
//! ```

mod alloc;
mod cost;
mod epoch;
mod error;
mod layout;
#[cfg(unix)]
mod mmap;
mod pool;
mod proptests;
pub mod span;
mod stats;
mod tx;

pub use alloc::{block_bytes, AllocMode, AllocTicket};
pub use cost::CostModel;
pub use epoch::{EpochGuard, EpochManager};
pub use error::{PmError, Result};
pub use layout::{align_up, PmOffset, CACHELINE};
pub use pool::{PmemPool, PoolConfig, PoolImage, RecoveryOutcome};
pub use stats::{StatsSnapshot, Striped};
pub use tx::MAX_TX_WRITES;

/// Ask the CPU to start pulling the cacheline holding `ptr` toward L1
/// (`prefetcht0`) without waiting for it: how a caller that knows several
/// addresses it will read soon overlaps their misses instead of taking
/// them one after another. A hint only — it reads nothing, never faults
/// whatever `ptr` is, and is not metered as a PM read. Does nothing on
/// targets other than x86-64.
#[inline(always)]
pub fn prefetch<T>(ptr: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: SSE is part of the x86-64 baseline, and a prefetch of any
    // address, mapped or not, is architecturally a no-op at worst.
    #[allow(unused_unsafe)]
    unsafe {
        std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(ptr.cast())
    };
    #[cfg(not(target_arch = "x86_64"))]
    let _ = ptr;
}
