//! Expiration & eviction: the clock, the eviction policy, and the
//! hashed timer wheel driving active expiry.
//!
//! The design invariant of the whole subsystem is **one clock**: only a
//! primary ever consults [`now_ms`] to decide that a key is dead. Every
//! expiry — lazy (discovered on read) or active (timer wheel / sweep) —
//! is executed as an ordinary delete through the engine's write path,
//! so it lands in the redo log and the replica stream as an explicit
//! `DEL`. Replicas, `--replay-logs`, snapshots and cluster migration
//! therefore never re-derive time: a replica's view filter may *hide* a
//! key whose (absolute, primary-assigned) deadline has passed, but only
//! the primary's `DEL` ever removes it, which is what keeps replicas
//! byte-exact convergent under expiring churn.
//!
//! Expiry metadata lives in the key's record header (see
//! `crate::record`): a u64 absolute deadline in Unix milliseconds
//! (0 = no expiry) that is immutable per record — `EXPIRE`/`PERSIST`
//! write a new record, so lock-free readers never observe a torn
//! deadline — plus a u32 access word the sampled LRU/LFU eviction
//! scores candidates by ([`policy`]).

pub(crate) mod policy;
pub(crate) mod wheel;

pub use policy::EvictionPolicy;
pub(crate) use wheel::TimerWheel;

use std::time::{SystemTime, UNIX_EPOCH};

/// Milliseconds since the Unix epoch — the store's only clock. Deadlines
/// are stored and replicated as absolute values from this clock, so they
/// survive crash/reopen and mean the same thing on every node.
pub fn now_ms() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_millis() as u64).unwrap_or(0)
}

/// Is a deadline past? `0` means "no expiry".
#[inline]
pub(crate) fn is_expired(expire_at_ms: u64, now_ms: u64) -> bool {
    expire_at_ms != 0 && expire_at_ms <= now_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_deadline_never_expires() {
        assert!(!is_expired(0, u64::MAX));
        assert!(is_expired(1, 1), "deadline is inclusive");
        assert!(!is_expired(2, 1));
    }

    #[test]
    fn clock_is_sane() {
        let t = now_ms();
        assert!(t > 1_500_000_000_000, "clock must be Unix milliseconds");
    }
}
