//! Multi-key operations through the whole service stack: RESP
//! `MGET`/`MSET` and variadic `DEL`/`EXISTS` round-trips over TCP, plus
//! durability of batch-written keys across both a clean restart and a
//! crash-style teardown (the in-process equivalent of `kill -9`: the
//! pools are dropped without `close()`, so the clean marker stays unset
//! and reopen takes the crash-recovery path).
#![cfg(unix)]

use dash_repro::dash_common::MAX_KEY_LEN;
use dash_repro::dash_server::{Value, MAX_VALUE_LEN};
use dash_repro::{serve, EngineConfig, RespClient, ShardedDash};

mod common;
use common::TempDir;

fn dir_cfg(dir: &TempDir, shards: usize) -> EngineConfig {
    EngineConfig { shards, shard_bytes: 16 << 20, dir: Some(dir.path.clone()), ..EngineConfig::default() }
}

fn mem_cfg(shards: usize) -> EngineConfig {
    EngineConfig { shards, shard_bytes: 16 << 20, dir: None, ..EngineConfig::default() }
}

fn kv(i: u32) -> (Vec<u8>, Vec<u8>) {
    (
        format!("batch:{i:06}").into_bytes(),
        format!("value-{}", i.wrapping_mul(0x9E37_79B9)).into_bytes(),
    )
}

#[test]
fn mget_mset_roundtrip_over_tcp() {
    let server = serve(ShardedDash::open(&mem_cfg(4)).unwrap(), "127.0.0.1:0").unwrap();
    let mut c = RespClient::connect(server.addr()).unwrap();

    const N: u32 = 500;
    let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..N).map(kv).collect();
    let refs: Vec<(&[u8], &[u8])> =
        pairs.iter().map(|(k, v)| (k.as_slice(), v.as_slice())).collect();
    c.mset(&refs).unwrap();
    assert_eq!(c.command(&[b"DBSIZE"]).unwrap(), Value::Integer(N as i64));

    // One MGET for the whole keyspace plus interleaved absent keys:
    // reply order must mirror request order exactly.
    let mut query: Vec<Vec<u8>> = Vec::new();
    for (i, (k, _)) in pairs.iter().enumerate() {
        query.push(k.clone());
        if i % 7 == 0 {
            query.push(format!("absent:{i}").into_bytes());
        }
    }
    let qrefs: Vec<&[u8]> = query.iter().map(|k| k.as_slice()).collect();
    let got = c.mget(&qrefs).unwrap();
    let mut pi = 0;
    for (q, g) in query.iter().zip(got) {
        if q.starts_with(b"absent:") {
            assert_eq!(g, None, "absent key must be Nil in position");
        } else {
            assert_eq!(g.as_deref(), Some(pairs[pi].1.as_slice()), "key {pi} out of order");
            pi += 1;
        }
    }

    // Variadic EXISTS counts repeats; variadic DEL reports removals.
    let (k0, _) = kv(0);
    let (k1, _) = kv(1);
    assert_eq!(c.exists(&[&k0, &k1, b"absent:x", &k0]).unwrap(), 3);
    assert_eq!(c.del(&[&k0, b"absent:x", &k1]).unwrap(), 2);
    assert_eq!(c.exists(&[&k0, &k1]).unwrap(), 0);
    assert_eq!(c.command(&[b"DBSIZE"]).unwrap(), Value::Integer((N - 2) as i64));
    server.shutdown();
}

#[test]
fn mset_overwrites_and_mixes_with_singles() {
    let server = serve(ShardedDash::open(&mem_cfg(2)).unwrap(), "127.0.0.1:0").unwrap();
    let mut c = RespClient::connect(server.addr()).unwrap();
    assert_eq!(c.command(&[b"SET", b"a", b"old"]).unwrap(), Value::Simple("OK".into()));
    c.mset(&[(b"a", b"new"), (b"b", b"fresh")]).unwrap();
    assert_eq!(c.command(&[b"GET", b"a"]).unwrap(), Value::bulk(*b"new"));
    assert_eq!(
        c.mget(&[b"a", b"b"]).unwrap(),
        vec![Some(b"new".to_vec()), Some(b"fresh".to_vec())]
    );
    assert_eq!(c.command(&[b"DBSIZE"]).unwrap(), Value::Integer(2), "overwrite must not grow");
    server.shutdown();
}

#[test]
fn mset_written_keys_survive_crash_teardown() {
    let dir = TempDir::new("batch-crash");
    const N: u32 = 2_000;
    {
        let store = ShardedDash::open(&dir_cfg(&dir, 3)).unwrap();
        // Write the whole keyspace the way an `MSET` does — each pair
        // through the engine's single-key set — then drop the store
        // WITHOUT close(): a process kill. Every call that returned is an
        // acknowledged, durable write.
        for i in 0..N {
            let (k, v) = kv(i);
            store.set(&k, &v).unwrap();
        }
        // A delete is acknowledged the same way.
        assert!(store.del(&kv(7).0).unwrap());
    }
    let store = ShardedDash::open(&dir_cfg(&dir, 3)).unwrap();
    assert_eq!(store.recovered_shards(), 3);
    for info in store.shard_infos() {
        assert!(!info.clean, "missing close() must look like a crash: {info:?}");
    }
    for i in 0..N {
        let (k, v) = kv(i);
        let want = (i != 7).then_some(v);
        assert_eq!(store.get(&k).unwrap(), want, "key {i} after the crash");
    }
    assert_eq!(store.len(), (N - 1) as u64);
}

#[test]
fn mset_written_keys_survive_server_restart() {
    let dir = TempDir::new("batch-restart");
    const N: u32 = 1_000;
    {
        let server = serve(ShardedDash::open(&dir_cfg(&dir, 4)).unwrap(), "127.0.0.1:0").unwrap();
        let mut c = RespClient::connect(server.addr()).unwrap();
        let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..N).map(kv).collect();
        for chunk in pairs.chunks(50) {
            let refs: Vec<(&[u8], &[u8])> =
                chunk.iter().map(|(k, v)| (k.as_slice(), v.as_slice())).collect();
            c.mset(&refs).unwrap();
        }
        server.shutdown();
    }
    {
        let server = serve(ShardedDash::open(&dir_cfg(&dir, 4)).unwrap(), "127.0.0.1:0").unwrap();
        let mut c = RespClient::connect(server.addr()).unwrap();
        assert_eq!(c.command(&[b"DBSIZE"]).unwrap(), Value::Integer(N as i64));
        let keys: Vec<Vec<u8>> = (0..N).map(|i| kv(i).0).collect();
        let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
        for (i, g) in c.mget(&refs).unwrap().into_iter().enumerate() {
            let (_, v) = kv(i as u32);
            assert_eq!(g, Some(v), "MSET-written key {i} lost across restart");
        }
        server.shutdown();
    }
}

/// Batch and single-key commands racing from multiple connections: every
/// MGET element must be either absent or the exact value for its key.
#[test]
fn concurrent_batch_and_single_commands() {
    let server = serve(ShardedDash::open(&mem_cfg(4)).unwrap(), "127.0.0.1:0").unwrap();
    let addr = server.addr();
    const ROUNDS: usize = 150;
    const SPAN: u32 = 60;
    std::thread::scope(|s| {
        for t in 0..4u32 {
            s.spawn(move || {
                let mut c = RespClient::connect(addr).unwrap();
                for r in 0..ROUNDS {
                    let base = (r as u32 + t) % SPAN;
                    let pairs: Vec<(Vec<u8>, Vec<u8>)> =
                        (base..base + 8).map(|i| kv(i % SPAN)).collect();
                    match r % 3 {
                        0 => {
                            let refs: Vec<(&[u8], &[u8])> = pairs
                                .iter()
                                .map(|(k, v)| (k.as_slice(), v.as_slice()))
                                .collect();
                            c.mset(&refs).unwrap();
                        }
                        1 => {
                            let keys: Vec<&[u8]> =
                                pairs.iter().map(|(k, _)| k.as_slice()).collect();
                            for ((_, want), got) in pairs.iter().zip(c.mget(&keys).unwrap()) {
                                if let Some(v) = got {
                                    assert_eq!(&v, want, "MGET returned a foreign value");
                                }
                            }
                        }
                        _ => {
                            let keys: Vec<&[u8]> =
                                pairs.iter().map(|(k, _)| k.as_slice()).collect();
                            let _ = c.del(&keys).unwrap();
                        }
                    }
                }
            });
        }
    });
    server.shutdown();
}

/// A multi-key write checks every key (and value) before it executes
/// any: an over-long one anywhere in an `MSET` or a `DEL` writes nothing.
/// An `MGET` refused for one key replies with the error alone, and the
/// connection stays in step.
#[test]
fn mset_with_an_over_long_key_or_value_writes_nothing() {
    let server = serve(ShardedDash::open(&mem_cfg(2)).unwrap(), "127.0.0.1:0").unwrap();
    let mut c = RespClient::connect(server.addr()).unwrap();
    let long_key = vec![b'k'; MAX_KEY_LEN + 1];
    let long_value = vec![0u8; MAX_VALUE_LEN + 1];
    let refused: [&[&[u8]]; 3] = [
        &[b"MSET", b"good", b"v", &long_key, b"v"],
        &[b"MSET", b"good", b"v", b"k2", &long_value],
        &[b"MGET", b"good", &long_key],
    ];
    for cmd in refused {
        let Value::Error(e) = c.command(cmd).unwrap() else {
            panic!("an over-long argument must be refused");
        };
        assert!(e.contains("exceeds"), "{e}");
        assert_eq!(c.command(&[b"DBSIZE"]).unwrap(), Value::Integer(0), "nothing written");
    }
    assert_eq!(c.command(&[b"SET", b"good", b"v"]).unwrap(), Value::Simple("OK".into()));
    let Value::Error(_) = c.command(&[b"DEL", b"good", &long_key]).unwrap() else {
        panic!("an over-long key must be refused");
    };
    assert_eq!(c.command(&[b"GET", b"good"]).unwrap(), Value::bulk(*b"v"), "nothing deleted");
    server.shutdown();
}

/// Variadic `EXISTS` counts a key each time it is listed; variadic `DEL`
/// counts only the keys it found (a repeat is already gone).
#[test]
fn variadic_exists_counts_repeats_and_del_counts_existing_keys_only() {
    let server = serve(ShardedDash::open(&mem_cfg(2)).unwrap(), "127.0.0.1:0").unwrap();
    let mut c = RespClient::connect(server.addr()).unwrap();
    c.mset(&[(b"k", b"1"), (b"other", b"2")]).unwrap();
    assert_eq!(c.exists(&[b"k", b"k", b"missing"]).unwrap(), 2);
    assert_eq!(c.del(&[b"k", b"missing", b"k", b"other"]).unwrap(), 2);
    assert_eq!(c.del(&[b"k", b"other"]).unwrap(), 0, "a second delete finds nothing");
    assert_eq!(c.command(&[b"DBSIZE"]).unwrap(), Value::Integer(0));
    server.shutdown();
}
