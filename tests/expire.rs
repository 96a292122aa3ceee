//! Expiration & eviction end to end: lazy vs active expiry, TTL
//! durability across crash/reopen and snapshot/restore, deterministic
//! replication (the primary is the only clock), sampled eviction under
//! a memory budget, record reclamation, and redo-log rotation with
//! snapshot-covered truncation.
#![cfg(unix)]

use std::time::{Duration, Instant};

use dash_repro::dash_server::expire::now_ms;
use dash_repro::dash_server::repl::log::segment_files;
use dash_repro::dash_server::{EvictionPolicy, Value};
use dash_repro::{
    serve, serve_with, EngineConfig, EngineError, RespClient, ServeOptions, ShardedDash,
};

mod common;
use common::TempDir;

fn mem_cfg(shards: usize) -> EngineConfig {
    EngineConfig { shards, shard_bytes: 8 << 20, dir: None, ..EngineConfig::default() }
}

fn dir_cfg(dir: &TempDir, shards: usize) -> EngineConfig {
    EngineConfig { shards, shard_bytes: 8 << 20, dir: Some(dir.path.clone()), ..EngineConfig::default() }
}

/// Poll `cond` every 25 ms until true, panicking with `what` after 20 s.
fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    let t0 = Instant::now();
    while !cond() {
        assert!(t0.elapsed() < Duration::from_secs(20), "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(25));
    }
}

fn mix64(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

/// Lazy expiry: once the deadline passes, every read path hides the key
/// immediately — and on a primary the read deletes it (counted).
#[test]
fn lazy_expiry_hides_and_deletes_on_read() {
    let store = ShardedDash::open(&mem_cfg(2)).unwrap();
    let now = now_ms();
    store.set(b"plain", b"keeper").unwrap();
    store.set_with_expiry(b"soon", b"doomed", now + 80).unwrap();

    // Alive before the deadline; TTL introspection is exact.
    assert_eq!(store.get(b"soon").unwrap(), Some(b"doomed".to_vec()));
    let ttl = store.ttl_ms(b"soon").unwrap();
    assert!((0..=80).contains(&ttl), "remaining ttl {ttl}");
    assert_eq!(store.ttl_ms(b"plain").unwrap(), -1, "no expiry reads as -1");
    assert_eq!(store.ttl_ms(b"absent").unwrap(), -2, "absent reads as -2");

    std::thread::sleep(Duration::from_millis(120));
    // No background tick has run: SCAN must already hide the key while
    // it still physically occupies a slot.
    let (_, keys) = store.scan_keys(0, 1024).unwrap();
    assert_eq!(keys, vec![b"plain".to_vec()], "SCAN surfaced an expired key");
    // The first read both hides and deletes (primary semantics).
    assert_eq!(store.get(b"soon").unwrap(), None);
    assert_eq!(store.ttl_ms(b"soon").unwrap(), -2);
    assert_eq!(store.len(), 1, "lazy expiry must delete, not just hide");
    assert_eq!(store.expired_keys_total(), 1);
    store.close().unwrap();
}

/// Active expiry: untouched keys are deleted by the timer-wheel tick
/// alone — no read ever observes them.
#[test]
fn active_expiry_reaps_untouched_keys() {
    let store = ShardedDash::open(&mem_cfg(3)).unwrap();
    const N: u64 = 40;
    let now = now_ms();
    for i in 0..N {
        store.set_with_expiry(format!("t{i}").as_bytes(), b"v", now + 100).unwrap();
    }
    store.set(b"keeper", b"v").unwrap();
    assert!(store.wheel_entries() >= N, "every deadline must be queued on the wheel");

    // Never read the doomed keys; only tick. The wheel runs 1 s buckets,
    // so draining can take up to a tick boundary — poll.
    wait_for("active expiry to reap all deadlines", || {
        store.expire_tick(usize::MAX);
        store.expired_keys_total() >= N
    });
    assert_eq!(store.len(), 1);
    assert_eq!(store.wheel_entries(), 0, "drained hints must leave the gauge at zero");
    assert_eq!(store.get(b"keeper").unwrap(), Some(b"v".to_vec()));
    store.close().unwrap();
}

/// TTLs live in the records: they survive a crash-style teardown,
/// and deadlines that passed while the process was down are invisible on
/// reopen and reaped by the sweep (the wheel is volatile and never
/// rescans on open).
#[test]
fn ttl_survives_crash_reopen_and_sweep_reaps_stale_deadlines() {
    let dir = TempDir::new("expire-crash");
    let long_deadline = now_ms() + 60_000;
    {
        let store = ShardedDash::open(&dir_cfg(&dir, 2)).unwrap();
        store.set_with_expiry(b"long", b"v", long_deadline).unwrap();
        store.set_with_expiry(b"short", b"v", now_ms() + 80).unwrap();
        store.set(b"forever", b"v").unwrap();
        // Crash: drop without close().
    }
    std::thread::sleep(Duration::from_millis(120));
    let store = ShardedDash::open(&dir_cfg(&dir, 2)).unwrap();
    // The long deadline survived byte-exact (absolute, not re-derived).
    let ttl = store.ttl_ms(b"long").unwrap();
    assert!(ttl > 0 && ttl <= 60_000, "recovered ttl {ttl}");
    assert_eq!(store.ttl_ms(b"forever").unwrap(), -1);
    // `short` expired while the store was down: hidden from scan
    // immediately, and the sweep deletes it without any read.
    let (_, keys) = store.scan_keys(0, 1024).unwrap();
    assert!(!keys.contains(&b"short".to_vec()), "scan surfaced a stale deadline");
    wait_for("sweep to reap the pre-open deadline", || {
        store.sweep_tick(4096);
        store.len() == 2
    });
    assert!(store.expired_keys_total() >= 1);
    store.close().unwrap();
}

/// Snapshot/restore carries absolute deadlines and drops already-expired
/// records at capture time.
#[test]
fn snapshot_restore_preserves_deadlines_and_skips_expired() {
    let src = TempDir::new("expire-snap-src");
    let dst = TempDir::new("expire-snap-dst");
    let snap = src.path.join("ttl.snap");
    let store = ShardedDash::open(&dir_cfg(&src, 2)).unwrap();
    store.set_with_expiry(b"ttl", b"v", now_ms() + 60_000).unwrap();
    store.set_with_expiry(b"gone", b"v", now_ms() + 50).unwrap();
    store.set(b"plain", b"v").unwrap();
    std::thread::sleep(Duration::from_millis(90));
    store.snapshot_to(&snap).unwrap();
    store.close().unwrap();

    let restored = ShardedDash::restore(&dir_cfg(&dst, 3), &snap).unwrap();
    assert_eq!(restored.len(), 2, "expired records must not be snapshotted");
    let ttl = restored.ttl_ms(b"ttl").unwrap();
    assert!(ttl > 0 && ttl <= 60_000, "restored ttl {ttl}");
    assert_eq!(restored.ttl_ms(b"plain").unwrap(), -1);
    assert_eq!(restored.get(b"gone").unwrap(), None);
    restored.close().unwrap();
}

/// Replica-side discipline at the engine level: with local expiry off, an
/// expired key is hidden from every read but never deleted and never
/// counted — deletion is the primary's decision. Promotion flips the
/// switch and the sweep reaps.
#[test]
fn replica_hides_but_never_deletes_until_promoted() {
    let store = ShardedDash::open(&mem_cfg(1)).unwrap();
    store.set_local_expiry(false); // what serve_with does for --replica-of
    store.set_with_expiry(b"k", b"v", now_ms() + 60).unwrap();
    std::thread::sleep(Duration::from_millis(100));
    for _ in 0..3 {
        assert_eq!(store.get(b"k").unwrap(), None, "expired key served on a replica");
        assert_eq!(store.ttl_ms(b"k").unwrap(), -2);
    }
    store.expire_tick(usize::MAX);
    store.sweep_tick(4096);
    assert_eq!(store.len(), 1, "a replica must wait for the primary's DEL");
    assert_eq!(store.expired_keys_total(), 0);
    // Promotion: this node is the clock now.
    store.set_local_expiry(true);
    wait_for("post-promotion sweep", || {
        store.sweep_tick(4096);
        store.is_empty()
    });
    assert_eq!(store.expired_keys_total(), 1);
    store.close().unwrap();
}

/// The full wire: a replica attached over TCP converges byte-exactly
/// with a primary running expiring churn — every expiry reaches it as an
/// explicit DEL, never re-derived from its own clock.
#[test]
fn replica_converges_byte_exact_under_expiring_churn() {
    let primary = serve(ShardedDash::open(&mem_cfg(2)).unwrap(), "127.0.0.1:0").unwrap();
    let mut pc = RespClient::connect(primary.addr()).unwrap();
    const KEEP: u32 = 150;
    const DOOMED: u32 = 150;
    for i in 0..KEEP {
        let set = pc
            .command(&[b"SET", format!("keep:{i}").as_bytes(), format!("v{i}").as_bytes()])
            .unwrap();
        assert_eq!(set, Value::Simple("OK".into()));
    }
    for i in 0..DOOMED {
        // Spread deadlines 50..=250 ms out.
        let px = format!("{}", 50 + (i as u64 * 200) / u64::from(DOOMED));
        let set = pc
            .command(&[b"SET", format!("doom:{i}").as_bytes(), b"d", b"PX", px.as_bytes()])
            .unwrap();
        assert_eq!(set, Value::Simple("OK".into()));
    }
    let replica = serve_with(
        ShardedDash::open(&mem_cfg(3)).unwrap(),
        "127.0.0.1:0",
        ServeOptions { replica_of: Some(primary.addr().to_string()), ..Default::default() },
    )
    .unwrap();
    let mut rc = RespClient::connect(replica.addr()).unwrap();
    wait_for("replica link", || rc.master_link().unwrap().as_deref() == Some("up"));
    // The server's background tick actively expires the doomed keys and
    // publishes each as a DEL; DBSIZE on the primary is strict.
    wait_for("primary to reap all doomed keys", || {
        pc.command(&[b"DBSIZE"]).unwrap() == Value::Integer(i64::from(KEEP))
    });
    wait_for("offset convergence", || {
        let r = rc.repl_offset().unwrap();
        r >= pc.repl_offset().unwrap()
    });
    // Byte-exact: identical SCAN enumeration and identical values.
    let mut p_keys = pc.scan_all(256).unwrap();
    let mut r_keys = rc.scan_all(256).unwrap();
    p_keys.sort();
    r_keys.sort();
    assert_eq!(p_keys.len(), KEEP as usize);
    assert_eq!(p_keys, r_keys, "replica keyspace diverged from the primary");
    let refs: Vec<&[u8]> = p_keys.iter().map(|k| k.as_slice()).collect();
    for chunk in refs.chunks(64) {
        assert_eq!(
            pc.mget(chunk).unwrap(),
            rc.mget(chunk).unwrap(),
            "replica values diverged"
        );
    }
    replica.shutdown();
    primary.shutdown();
}

/// Sampled LRU eviction under a memory budget: zipf-ish churn far past
/// the budget never OOMs, memory stays under the cap the whole run,
/// evictions are counted, and every surviving key is byte-exact.
#[test]
fn eviction_keeps_memory_under_budget_with_zipf_churn() {
    const MAX_MEM: u64 = 4 << 20;
    const KEYSPACE: u64 = 2_000;
    const VAL_LEN: usize = 4096;
    let store = ShardedDash::open(&EngineConfig {
        max_memory: Some(MAX_MEM),
        eviction: EvictionPolicy::AllKeysLru,
        ..mem_cfg(2)
    })
    .unwrap();
    let value_for = |idx: u64| {
        let mut v = format!("value-{idx}-").into_bytes();
        v.resize(VAL_LEN, b'x');
        v
    };
    for i in 0..6_000u64 {
        let r = mix64(i);
        // Skew toward low indices: min of two uniforms.
        let idx = (r % KEYSPACE).min((r >> 32) % KEYSPACE);
        store
            .set(format!("z{idx:05}").as_bytes(), &value_for(idx))
            .unwrap_or_else(|e| panic!("write {i} failed under lru policy: {e}"));
        assert!(
            store.mem_used() <= MAX_MEM,
            "budget breached at write {i}: {} > {MAX_MEM}",
            store.mem_used()
        );
    }
    assert!(store.evicted_keys_total() > 0, "churn past the budget must evict");
    assert!(store.len() < KEYSPACE, "eviction must have removed keys");
    // Survivors are byte-exact — eviction removes keys, never corrupts.
    for key in store.keys().unwrap() {
        let idx: u64 = std::str::from_utf8(&key[1..]).unwrap().parse().unwrap();
        assert_eq!(store.get(&key).unwrap(), Some(value_for(idx)), "survivor corrupted");
    }
    store.close().unwrap();
}

/// noeviction: the budget still holds, but by rejecting writes with OOM
/// once reclamation alone cannot make room — and rejected writes change
/// nothing. Admission charges what the allocator takes (the record's
/// whole class block), so a write that grows no table structure never
/// passes the budget; 65 B and 513 B values sit one byte past a class
/// boundary, where the block is furthest from the bytes asked for.
#[test]
fn noeviction_rejects_with_oom_and_loses_nothing() {
    const MAX_MEM: u64 = 512 << 10;
    // A split adds one segment (a 20 KiB block) and at most a doubled
    // directory after the write was admitted: the documented slack.
    const SPLIT_SLACK: u64 = 21 << 10;
    for value_len in [4096, 65, 513] {
        let store = ShardedDash::open(&EngineConfig {
            max_memory: Some(MAX_MEM),
            eviction: EvictionPolicy::NoEviction,
            ..mem_cfg(1)
        })
        .unwrap();
        let val = vec![b'v'; value_len];
        let mut written = 0u32;
        let mut oom = false;
        for i in 0..20_000u32 {
            let slots = store.shard_telemetry()[0].capacity_slots;
            match store.set(format!("f{i:05}").as_bytes(), &val) {
                Ok(()) => written += 1,
                Err(EngineError::Oom) => {
                    oom = true;
                    break;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
            let grew = store.shard_telemetry()[0].capacity_slots != slots;
            let cap = MAX_MEM + if grew { SPLIT_SLACK } else { 0 };
            assert!(
                store.mem_used() <= cap,
                "{value_len} B write {i} (table grew: {grew}) left mem_used {} over {cap}",
                store.mem_used()
            );
        }
        assert!(oom, "a 512 KiB budget must reject {value_len} B writes eventually");
        assert!(written > 0, "the budget must admit writes before it fills");
        assert!(store.oom_rejections_total() > 0);
        // Nothing admitted was harmed by the rejection.
        assert_eq!(store.len(), u64::from(written));
        for i in 0..written {
            assert_eq!(store.get(format!("f{i:05}").as_bytes()).unwrap(), Some(val.clone()));
        }
        store.close().unwrap();
    }
}

/// Fragmentation is observable and reclaimable: deletes grow
/// `dead_bytes` monotonically, reclamation returns the space to the
/// allocator (counted), and rewrites reuse it instead of growing the
/// pool.
#[test]
fn fragmentation_rises_then_reclamation_drops_it() {
    let store = ShardedDash::open(&mem_cfg(1)).unwrap();
    const N: u32 = 48;
    let val = vec![b'v'; 16000];
    for i in 0..N {
        store.set(format!("frag{i:04}").as_bytes(), &val).unwrap();
    }
    // Drain the epoch queue of insert-time structural defers so the
    // deletes below are the only garbage in flight (the queue
    // auto-collects every 128 items — each delete defers its record —
    // which would hide the rise).
    store.reclaim_all();
    let full = store.mem_used();
    let base_compactions = store.compactions_total();
    assert_eq!(store.dead_bytes(), 0, "no deletes yet, no garbage");
    // Delete in two halves: dead bytes must rise monotonically while
    // mem_used stands still — retired records count until reclaimed.
    for i in 0..N / 2 {
        assert!(store.del(format!("frag{i:04}").as_bytes()).unwrap());
    }
    let half_dead = store.dead_bytes();
    assert!(half_dead >= u64::from(N / 2) * 16000, "dead bytes lag deletes: {half_dead}");
    for i in N / 2..N {
        assert!(store.del(format!("frag{i:04}").as_bytes()).unwrap());
    }
    let all_dead = store.dead_bytes();
    assert!(all_dead > half_dead, "dead bytes must grow with deletes");
    assert_eq!(store.mem_used(), full, "retired records still count until reclaimed");
    // The threshold pass fires (garbage ratio is 100%), space returns.
    let freed = store.reclaim_tick();
    assert!(freed >= all_dead, "reclamation freed {freed} of {all_dead} dead bytes");
    assert_eq!(store.dead_bytes(), 0);
    assert!(store.mem_used() < full);
    assert!(store.compactions_total() > base_compactions);
    assert!(store.reclaimed_bytes_total() >= all_dead);
    // Same-size rewrites reuse the reclaimed space: no pool growth.
    for i in 0..N {
        store.set(format!("frag{i:04}").as_bytes(), &val).unwrap();
    }
    assert!(
        store.mem_used() <= full,
        "rewrite after reclaim must reuse space: {} > {full}",
        store.mem_used()
    );
    store.close().unwrap();
}

/// Log rotation + snapshot truncation + replay stay coherent: segments
/// seal as the active log crosses the cap, a durable snapshot deletes
/// the segments it covers, and snapshot + remaining chain still
/// reconstructs the exact state — absolute deadlines included.
#[test]
fn log_rotation_truncation_and_replay_stay_coherent() {
    let src = TempDir::new("expire-rot-src");
    let dst = TempDir::new("expire-rot-dst");
    let snap = src.path.join("mid.snap");
    let cfg = EngineConfig { repl_log_max_bytes: Some(2048), ..dir_cfg(&src, 1) };
    let store = ShardedDash::open(&cfg).unwrap();
    for i in 0..300u32 {
        store.set(format!("rot{i:04}").as_bytes(), format!("value-{i}").as_bytes()).unwrap();
    }
    let log_path = src.path.join("repl-0.log");
    let sealed = segment_files(&log_path).unwrap();
    assert!(sealed.len() >= 2, "a 2 KiB cap must seal segments (got {})", sealed.len());
    // A durable snapshot covers everything sealed so far — those
    // segments must be deleted, not kept forever.
    store.snapshot_to(&snap).unwrap();
    assert!(
        segment_files(&log_path).unwrap().len() < sealed.len(),
        "snapshot must truncate the segments it covers"
    );
    // Post-snapshot history: overwrites, a delete, and a TTL write whose
    // absolute deadline must travel through the log untouched.
    for i in 0..50u32 {
        store.set(format!("rot{i:04}").as_bytes(), b"rewritten").unwrap();
    }
    assert!(store.del(b"rot0299").unwrap());
    let deadline = now_ms() + 60_000;
    store.set_with_expiry(b"rot-ttl", b"v", deadline).unwrap();
    store.close().unwrap();

    // Restore the snapshot elsewhere, then replay the surviving chain.
    let restored = ShardedDash::restore(&dir_cfg(&dst, 2), &snap).unwrap();
    assert_eq!(restored.len(), 300, "snapshot alone is the mid-run state");
    restored.replay_log_dir(&src.path).unwrap();
    assert_eq!(restored.len(), 300, "300 - 1 deleted + 1 ttl key");
    for i in 0..300u32 {
        let want = match i {
            0..=49 => Some(b"rewritten".to_vec()),
            299 => None,
            _ => Some(format!("value-{i}").into_bytes()),
        };
        assert_eq!(restored.get(format!("rot{i:04}").as_bytes()).unwrap(), want, "key {i}");
    }
    // The deadline replayed as the primary wrote it — never re-derived.
    let ttl = restored.ttl_ms(b"rot-ttl").unwrap();
    assert!(ttl > 0 && ttl <= 60_000, "replayed ttl {ttl}");
    restored.close().unwrap();
}

/// The wire surface: SET expiry units, TTL/PTTL, EXPIRE/PEXPIRE/PERSIST,
/// UNLINK, strict DBSIZE, and the exact Redis error strings for bad
/// arguments.
#[test]
fn command_surface_over_the_wire() {
    let server = serve(ShardedDash::open(&mem_cfg(2)).unwrap(), "127.0.0.1:0").unwrap();
    let mut c = RespClient::connect(server.addr()).unwrap();
    let ok = Value::Simple("OK".into());

    // Every SET unit resolves to the same absolute-deadline machinery.
    assert_eq!(c.command(&[b"SET", b"a", b"v", b"EX", b"100"]).unwrap(), ok);
    let Value::Integer(ttl) = c.command(&[b"TTL", b"a"]).unwrap() else { panic!() };
    assert!((1..=100).contains(&ttl), "EX 100 → TTL {ttl}");
    let Value::Integer(pttl) = c.command(&[b"PTTL", b"a"]).unwrap() else { panic!() };
    assert!((1..=100_000).contains(&pttl), "PTTL {pttl}");
    let exat = format!("{}", now_ms() / 1000 + 100);
    assert_eq!(c.command(&[b"SET", b"b", b"v", b"EXAT", exat.as_bytes()]).unwrap(), ok);
    let Value::Integer(ttl) = c.command(&[b"TTL", b"b"]).unwrap() else { panic!() };
    assert!((1..=100).contains(&ttl), "EXAT → TTL {ttl}");
    // A PXAT already in the past: stored dead, never served.
    assert_eq!(c.command(&[b"SET", b"dead", b"v", b"PXAT", b"1000"]).unwrap(), ok);
    assert_eq!(c.command(&[b"GET", b"dead"]).unwrap(), Value::Nil);

    // EXPIRE grants, PERSIST removes, and both report precisely.
    assert_eq!(c.command(&[b"SET", b"p", b"v"]).unwrap(), ok);
    assert_eq!(c.command(&[b"EXPIRE", b"p", b"100"]).unwrap(), Value::Integer(1));
    let Value::Integer(ttl) = c.command(&[b"TTL", b"p"]).unwrap() else { panic!() };
    assert!(ttl > 0);
    assert_eq!(c.command(&[b"PERSIST", b"p"]).unwrap(), Value::Integer(1));
    assert_eq!(c.command(&[b"TTL", b"p"]).unwrap(), Value::Integer(-1));
    assert_eq!(c.command(&[b"PERSIST", b"p"]).unwrap(), Value::Integer(0));
    assert_eq!(c.command(&[b"EXPIRE", b"absent", b"10"]).unwrap(), Value::Integer(0));
    // A non-positive EXPIRE deletes outright (Redis semantics).
    assert_eq!(c.command(&[b"EXPIRE", b"p", b"-5"]).unwrap(), Value::Integer(1));
    assert_eq!(c.command(&[b"GET", b"p"]).unwrap(), Value::Nil);
    assert_eq!(c.command(&[b"TTL", b"absent"]).unwrap(), Value::Integer(-2));

    // UNLINK: the batch-delete path, same observable contract as DEL.
    assert_eq!(c.command(&[b"MSET", b"u1", b"x", b"u2", b"x"]).unwrap(), ok);
    assert_eq!(
        c.command(&[b"UNLINK", b"u1", b"u2", b"u3"]).unwrap(),
        Value::Integer(2)
    );
    assert_eq!(c.command(&[b"GET", b"u1"]).unwrap(), Value::Nil);

    // DBSIZE is strict: a passed deadline is not a key.
    assert_eq!(c.command(&[b"SET", b"fleeting", b"v", b"PX", b"60"]).unwrap(), ok);
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(c.command(&[b"DBSIZE"]).unwrap(), Value::Integer(2), "a+b only");

    // Argument errors are error replies, with Redis wording.
    for (cmd, needle) in [
        (vec![b"SET".to_vec(), b"k".to_vec(), b"v".to_vec(), b"EX".to_vec(), b"0".to_vec()],
            "invalid expire time"),
        (vec![b"SET".to_vec(), b"k".to_vec(), b"v".to_vec(), b"EX".to_vec(), b"abc".to_vec()],
            "invalid expire time"),
        (vec![b"SET".to_vec(), b"k".to_vec(), b"v".to_vec(), b"ZZ".to_vec(), b"5".to_vec()],
            "syntax error"),
        (vec![b"EXPIRE".to_vec(), b"k".to_vec(), b"abc".to_vec()],
            "not an integer"),
        (vec![b"EXPIRE".to_vec(), b"k".to_vec()], "wrong number of arguments"),
        (vec![b"UNLINK".to_vec()], "wrong number of arguments"),
        (vec![b"TTL".to_vec()], "wrong number of arguments"),
    ] {
        let parts: Vec<&[u8]> = cmd.iter().map(|p| p.as_slice()).collect();
        let Value::Error(e) = c.command(&parts).unwrap() else {
            panic!("{cmd:?} must produce an error reply");
        };
        assert!(e.contains(needle), "{cmd:?}: {e}");
    }
    // The connection survives every error.
    assert_eq!(c.command(&[b"PING"]).unwrap(), Value::Simple("PONG".into()));
    server.shutdown();
}
