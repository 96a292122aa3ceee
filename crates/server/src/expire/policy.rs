//! Eviction policy and the per-key access metadata it scores by.
//!
//! Each record carries one u32 access word, updated on read (and
//! initialized on write) only when a memory budget is configured:
//!
//! * **LRU** — the word is the key's last-access time in seconds. The
//!   sampled evictor picks the smallest (oldest) stamp.
//! * **LFU** — Redis-style: the low 8 bits are a logarithmic frequency
//!   counter (probabilistic increment, so 255 spans millions of hits),
//!   the high 24 bits the last-decay time in minutes; the counter decays
//!   by one per elapsed minute. The evictor picks the smallest decayed
//!   counter.
//!
//! The word is advisory (relaxed atomics, never persisted): losing it in
//! a crash only resets eviction ordering, never correctness.

/// What to do when `--max-memory` is exceeded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvictionPolicy {
    /// Reject writes with `-OOM` once the budget is hit (Redis
    /// `noeviction`) — the default.
    #[default]
    NoEviction,
    /// Sampled least-recently-used over the whole keyspace.
    AllKeysLru,
    /// Sampled least-frequently-used (decayed log counter).
    AllKeysLfu,
}

impl EvictionPolicy {
    /// Parse the `--maxmemory-policy` spelling.
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "noeviction" => Some(EvictionPolicy::NoEviction),
            "allkeys-lru" => Some(EvictionPolicy::AllKeysLru),
            "allkeys-lfu" => Some(EvictionPolicy::AllKeysLfu),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            EvictionPolicy::NoEviction => "noeviction",
            EvictionPolicy::AllKeysLru => "allkeys-lru",
            EvictionPolicy::AllKeysLfu => "allkeys-lfu",
        }
    }
}

/// New keys start mid-scale so they survive their first sampling rounds
/// (Redis's `LFU_INIT_VAL`).
const LFU_INIT: u32 = 5;
/// Increment probability divisor grows with the counter (Redis's
/// `lfu-log-factor`): p = 1 / (counter * FACTOR + 1).
const LFU_LOG_FACTOR: u32 = 10;

#[inline]
fn lfu_minutes(now_ms: u64) -> u32 {
    ((now_ms / 60_000) & 0x00FF_FFFF) as u32
}

/// Access word for a key written now.
pub(crate) fn initial_access(policy: EvictionPolicy, now_ms: u64) -> u32 {
    match policy {
        EvictionPolicy::AllKeysLfu => (lfu_minutes(now_ms) << 8) | LFU_INIT,
        _ => lru_stamp(now_ms),
    }
}

/// LRU stamp: seconds, monotone enough for pick-the-smallest sampling.
#[inline]
pub(crate) fn lru_stamp(now_ms: u64) -> u32 {
    (now_ms / 1000) as u32
}

/// The LFU counter after one-per-minute decay (the eviction score).
pub(crate) fn lfu_score(access: u32, now_ms: u64) -> u32 {
    let counter = access & 0xFF;
    let elapsed = lfu_minutes(now_ms).wrapping_sub(access >> 8) & 0x00FF_FFFF;
    counter.saturating_sub(elapsed)
}

/// Decay, then probabilistically bump, the LFU word on an access. The
/// coin is a deterministic mix of the record offset and the clock — cheap,
/// and unbiased enough for a logarithmic counter.
pub(crate) fn lfu_touch(access: u32, now_ms: u64, salt: u64) -> u32 {
    let counter = lfu_score(access, now_ms);
    let bumped = if counter >= 255 {
        255
    } else if splitmix(salt ^ now_ms).is_multiple_of(u64::from(counter * LFU_LOG_FACTOR + 1)) {
        counter + 1
    } else {
        counter
    };
    (lfu_minutes(now_ms) << 8) | bumped
}

/// splitmix64 finalizer — the deterministic coin above.
fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_names() {
        for p in [
            EvictionPolicy::NoEviction,
            EvictionPolicy::AllKeysLru,
            EvictionPolicy::AllKeysLfu,
        ] {
            assert_eq!(EvictionPolicy::parse(p.name()), Some(p));
        }
        assert_eq!(EvictionPolicy::parse("ALLKEYS-LRU"), Some(EvictionPolicy::AllKeysLru));
        assert_eq!(EvictionPolicy::parse("volatile-ttl"), None);
    }

    #[test]
    fn lfu_counter_grows_under_hits_and_decays_with_time() {
        let t0 = 1_700_000_000_000u64;
        let mut access = initial_access(EvictionPolicy::AllKeysLfu, t0);
        assert_eq!(lfu_score(access, t0), LFU_INIT);
        for i in 0..10_000u64 {
            access = lfu_touch(access, t0 + i, i * 7919);
        }
        let hot = lfu_score(access, t0 + 10_000);
        assert!(hot > LFU_INIT, "ten thousand hits must raise the counter, got {hot}");
        assert!(hot < 255, "log counter must not saturate on 10k hits, got {hot}");
        // An hour idle decays it by 60.
        let later = t0 + 60 * 60_000;
        assert_eq!(lfu_score(access, later), hot.saturating_sub(60));
    }

    #[test]
    fn lru_stamp_orders_by_time() {
        assert!(lru_stamp(5_000) < lru_stamp(125_000));
    }
}
