//! A deterministic space tripwire: how many pool bytes the engine holds
//! per byte of user data after a plain load. No clock is read, so the
//! numbers repeat exactly; a change that re-inflates a block — a wider
//! record header, a second allocation per key, coarser size classes, a
//! larger alignment pad — fails here instead of waiting for a ledger run.
//!
//! The bounds are the measured ratios plus headroom for the table's own
//! saw-tooth (segments split at different fills), not targets: one
//! record per key in a four-per-doubling class reads 1.252 for 512 B
//! values and 1.646 for 64 B values; two power-of-two blocks per key,
//! each aligned to its own size, read ≈ 3.9 and ≈ 3.6.

use dash_repro::{EngineConfig, ShardedDash};

/// `mem_used ÷ Σ(key + value bytes)` after loading `KEYS` 20-byte keys
/// with `value_len`-byte values into a fresh 2-shard in-memory store.
fn space_ratio(value_len: usize) -> f64 {
    const KEYS: u64 = 50_000;
    const KEY_LEN: usize = 20;
    let store = ShardedDash::open(&EngineConfig {
        shards: 2,
        shard_bytes: 64 << 20,
        dir: None,
        ..EngineConfig::default()
    })
    .unwrap();
    let value = vec![0xA5u8; value_len];
    for i in 0..KEYS {
        let key = format!("space-key-{i:010}");
        assert_eq!(key.len(), KEY_LEN);
        store.set(key.as_bytes(), &value).unwrap();
    }
    assert_eq!(store.len(), KEYS);
    store.mem_used() as f64 / (KEYS * (KEY_LEN + value_len) as u64) as f64
}

#[test]
fn half_kib_values_cost_under_one_and_a_half_times_their_bytes() {
    let ratio = space_ratio(512);
    assert!(ratio <= 1.45, "512 B values: {ratio:.3} pool bytes per user byte");
}

#[test]
fn small_values_cost_under_two_and_a_fifth_times_their_bytes() {
    let ratio = space_ratio(64);
    assert!(ratio <= 2.2, "64 B values: {ratio:.3} pool bytes per user byte");
}
