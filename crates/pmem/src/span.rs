//! The per-thread span record: where a traced request's time went inside
//! the store.
//!
//! A tracing layer above this crate (the server's) arms a span on the
//! thread that runs a request ([`begin`]) and drains it when the request
//! is done ([`end`]). While it is armed, hooks stamp into it: the
//! request's first touch of the store ([`enter`]), and the wall time of
//! each [`Wait`] — PM flush and fence, which [`PmemPool::flush`] and
//! [`PmemPool::fence`] time, and blocked lock acquisitions, which the
//! caller that takes the lock times — by a [`mark`] / [`add_since`] pair
//! around it.
//!
//! The span's id is its only arming flag, so a hook with no span active
//! — what every untraced operation pays — is one thread-local load: no
//! `Instant`, no shared state.
//!
//! [`PmemPool::flush`]: crate::PmemPool::flush
//! [`PmemPool::fence`]: crate::PmemPool::fence

use std::cell::Cell;
use std::time::Instant;

/// A kind of wait a span accumulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wait {
    /// PM flush and fence.
    Persist,
    /// Blocked on a contended lock.
    Lock,
}

/// What a span recorded, as [`end`] hands it back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanTimes {
    /// The first [`enter`], if the request touched the store.
    pub entered: Option<Instant>,
    pub persist_ns: u64,
    pub lock_wait_ns: u64,
}

struct Span {
    /// The active span's id; 0 = none.
    id: Cell<u64>,
    entered: Cell<Option<Instant>>,
    /// Nanoseconds per [`Wait`], indexed by its discriminant.
    waits_ns: [Cell<u64>; 2],
}

thread_local! {
    static SPAN: Span = const {
        Span { id: Cell::new(0), entered: Cell::new(None), waits_ns: [Cell::new(0), Cell::new(0)] }
    };
}

/// Arm a span with `id` (non-zero) on this thread, starting from nothing.
/// A second `begin` restarts it.
pub fn begin(id: u64) {
    SPAN.with(|s| {
        s.id.set(id);
        s.entered.set(None);
        s.waits_ns.iter().for_each(|w| w.set(0));
    });
}

/// The id of the span active on this thread; 0 when none is.
#[inline]
pub fn id() -> u64 {
    SPAN.with(|s| s.id.get())
}

/// Stamp the active span's first touch of the store; later calls keep
/// the first stamp. Does nothing without a span.
#[inline]
pub fn enter() {
    SPAN.with(|s| {
        if s.id.get() != 0 && s.entered.get().is_none() {
            s.entered.set(Some(Instant::now()));
        }
    });
}

/// The prologue of a timed wait: `Instant::now()` when a span is active,
/// else `None`.
#[inline]
pub fn mark() -> Option<Instant> {
    if id() == 0 {
        None
    } else {
        Some(Instant::now())
    }
}

/// The epilogue of a timed wait: add the time since `mark`'s prologue to
/// the span's `wait`, if the prologue timed.
#[inline]
pub fn add_since(mark: Option<Instant>, wait: Wait) {
    if let Some(t0) = mark {
        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        SPAN.with(|s| {
            let w = &s.waits_ns[wait as usize];
            w.set(w.get().saturating_add(ns));
        });
    }
}

/// Disarm the span on this thread and return what it recorded (all
/// zero if none was armed).
pub fn end() -> SpanTimes {
    SPAN.with(|s| {
        s.id.set(0);
        SpanTimes {
            entered: s.entered.take(),
            persist_ns: s.waits_ns[Wait::Persist as usize].take(),
            lock_wait_ns: s.waits_ns[Wait::Lock as usize].take(),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_reads_zero_and_armed_accumulates() {
        assert_eq!(end(), SpanTimes { entered: None, persist_ns: 0, lock_wait_ns: 0 });
        enter();
        assert!(mark().is_none(), "no span: no hook times");
        begin(7);
        assert_eq!(id(), 7);
        enter();
        let entered = end().entered;
        assert!(entered.is_some(), "armed: enter stamps");
        begin(8);
        let m = mark();
        assert!(m.is_some(), "armed: mark must time");
        std::thread::sleep(std::time::Duration::from_millis(2));
        add_since(m, Wait::Persist);
        add_since(mark(), Wait::Lock);
        let t = end();
        assert!(t.persist_ns >= 1_000_000, "accumulated at least the sleep: {t:?}");
        assert!(t.lock_wait_ns < t.persist_ns, "each wait keeps its own total: {t:?}");
        assert_eq!(t.entered, None, "begin starts from nothing");
        assert_eq!(id(), 0, "end must disarm");
        assert!(mark().is_none());
    }
}
