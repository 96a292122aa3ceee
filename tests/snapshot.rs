//! Online snapshot export / restore through the service layer: a
//! `SNAPSHOT` taken while writers are running must restore into a fresh
//! directory with every stable key byte-exact, survive a crash-style
//! teardown of the source store, and reject corruption cleanly.
#![cfg(unix)]

use std::sync::atomic::{AtomicBool, Ordering};

use dash_repro::dash_server::{snapshot, Value};
use dash_repro::{serve, EngineConfig, EngineError, RespClient, ShardedDash};

mod common;
use common::TempDir;

fn dir_cfg(dir: &TempDir, shards: usize) -> EngineConfig {
    EngineConfig { shards, shard_bytes: 16 << 20, dir: Some(dir.path.clone()), ..EngineConfig::default() }
}

fn kv(i: u32) -> (Vec<u8>, Vec<u8>) {
    (
        format!("snap:{i:06}").into_bytes(),
        format!("value-{}", i.wrapping_mul(0x9E37_79B9)).into_bytes(),
    )
}

/// The acceptance-criteria flow: snapshot under live 90/10 load, crash
/// the source, restore into a fresh directory, verify byte-exact.
#[test]
fn snapshot_under_live_load_restores_after_crash() {
    let src = TempDir::new("snap-src");
    let dst = TempDir::new("snap-dst");
    let snap_path = src.path.join("backup.snap");
    const STABLE: u32 = 3_000;
    {
        let store = ShardedDash::open(&dir_cfg(&src, 3)).unwrap();
        for i in 0..STABLE {
            let (k, v) = kv(i);
            store.set(&k, &v).unwrap();
        }
        // Live 90/10-style churn on a disjoint keyspace while the
        // snapshot streams: each key always gets the same value, so the
        // snapshot is byte-exact whatever interleaving wins.
        let stop = AtomicBool::new(false);
        let count = std::thread::scope(|s| {
            for t in 0..2u32 {
                let store = &store;
                let stop = &stop;
                s.spawn(move || {
                    let mut i = 0u32;
                    while !stop.load(Ordering::Relaxed) {
                        let (k, v) = kv(1_000_000 + (t * 100_000) + (i % 500));
                        if i.is_multiple_of(10) {
                            store.set(&k, &v).unwrap();
                        } else {
                            let _ = store.get(&k).unwrap();
                        }
                        i += 1;
                    }
                });
            }
            let count = store.snapshot_to(&snap_path).unwrap();
            stop.store(true, Ordering::Relaxed);
            count
        });
        assert!(count >= u64::from(STABLE), "snapshot must hold at least the stable keys");
        // Crash-style teardown: drop without close(). The snapshot file
        // must be self-contained — the source pools are not consulted.
    }
    let restored = ShardedDash::restore(&dir_cfg(&dst, 5), &snap_path).unwrap();
    for i in 0..STABLE {
        let (k, v) = kv(i);
        assert_eq!(restored.get(&k).unwrap(), Some(v), "stable key {i} lost through snapshot");
    }
    // The restored store re-partitioned onto 5 shards and is fully live.
    assert_eq!(restored.shard_count(), 5);
    restored.set(b"post-restore", b"writable").unwrap();
    assert_eq!(restored.get(b"post-restore").unwrap(), Some(b"writable".to_vec()));
    restored.close().unwrap();
}

#[test]
fn corrupted_snapshot_is_rejected_cleanly() {
    let src = TempDir::new("snap-corrupt-src");
    let dst = TempDir::new("snap-corrupt-dst");
    let snap_path = src.path.join("backup.snap");
    {
        let store = ShardedDash::open(&dir_cfg(&src, 2)).unwrap();
        for i in 0..500 {
            let (k, v) = kv(i);
            store.set(&k, &v).unwrap();
        }
        store.snapshot_to(&snap_path).unwrap();
        store.close().unwrap();
    }
    // Flip one value byte mid-file: the checksum must catch it and the
    // restore must fail *before* creating any store state.
    let mut bytes = std::fs::read(&snap_path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&snap_path, &bytes).unwrap();
    match ShardedDash::restore(&dir_cfg(&dst, 2), &snap_path) {
        Err(EngineError::Snapshot(msg)) => {
            assert!(msg.contains("rejected") || msg.contains("checksum"), "{msg}");
        }
        Err(other) => panic!("corrupted snapshot must fail as Snapshot error, got {other}"),
        Ok(_) => panic!("corrupted snapshot must be rejected, but restore succeeded"),
    }
    assert!(
        !dst.path.join("shard-0.pool").exists(),
        "a rejected restore must not leave store files behind"
    );
}

#[test]
fn restore_refuses_an_existing_store() {
    let src = TempDir::new("snap-refuse-src");
    let dst = TempDir::new("snap-refuse-dst");
    let snap_path = src.path.join("backup.snap");
    {
        let store = ShardedDash::open(&dir_cfg(&src, 2)).unwrap();
        store.set(b"a", b"1").unwrap();
        store.snapshot_to(&snap_path).unwrap();
        store.close().unwrap();
    }
    {
        let existing = ShardedDash::open(&dir_cfg(&dst, 2)).unwrap();
        existing.set(b"precious", b"data").unwrap();
        existing.close().unwrap();
    }
    assert!(
        matches!(ShardedDash::restore(&dir_cfg(&dst, 2), &snap_path), Err(EngineError::Layout(_))),
        "restore must refuse to clobber an existing store"
    );
    // The precious data is untouched.
    let existing = ShardedDash::open(&dir_cfg(&dst, 2)).unwrap();
    assert_eq!(existing.get(b"precious").unwrap(), Some(b"data".to_vec()));
    existing.close().unwrap();
}

#[test]
fn snapshot_refuses_to_overwrite_live_pool_files() {
    let src = TempDir::new("snap-clobber");
    let store = ShardedDash::open(&dir_cfg(&src, 2)).unwrap();
    store.set(b"k", b"v").unwrap();
    // Pointing SNAPSHOT at a live shard pool (directly or via a dot
    // path) must be refused — renaming a snapshot over it would destroy
    // the shard at the next restart.
    let direct = src.path.join("shard-1.pool");
    let dotted = src.path.join(".").join("shard-1.pool");
    for target in [&direct, &dotted] {
        match store.snapshot_to(target) {
            Err(EngineError::Snapshot(msg)) => assert!(msg.contains("live shard"), "{msg}"),
            Err(other) => panic!("expected Snapshot error, got {other}"),
            Ok(_) => panic!("snapshot over a live pool file must be refused"),
        }
    }
    // The store is unharmed and a legal sibling path still works.
    assert_eq!(store.get(b"k").unwrap(), Some(b"v".to_vec()));
    assert_eq!(store.snapshot_to(&src.path.join("ok.snap")).unwrap(), 1);
    store.close().unwrap();
}

#[test]
fn failed_restore_leaves_no_half_built_store() {
    let src = TempDir::new("snap-bigsrc");
    let dst = TempDir::new("snap-bigdst");
    let snap_path = src.path.join("big.snap");
    {
        let store = ShardedDash::open(&dir_cfg(&src, 2)).unwrap();
        for i in 0..4_000 {
            let (k, v) = kv(i);
            store.set(&k, &v).unwrap();
        }
        store.snapshot_to(&snap_path).unwrap();
        store.close().unwrap();
    }
    // Restore into pools far too small. 64 KB dies creating the very
    // first table (open-path failure); 256 KB opens fine but runs out
    // mid-load — both must clean up every shard file they created, so a
    // properly-sized retry succeeds instead of being refused as an
    // existing store.
    for shard_bytes in [64 << 10, 256 << 10] {
        let tiny = EngineConfig { shards: 1, shard_bytes, dir: Some(dst.path.clone()), ..EngineConfig::default() };
        assert!(ShardedDash::restore(&tiny, &snap_path).is_err());
        assert!(
            !dst.path.join("shard-0.pool").exists(),
            "failed restore ({shard_bytes}B pools) must clean up its half-built store"
        );
    }
    let retry = ShardedDash::restore(&dir_cfg(&dst, 2), &snap_path).unwrap();
    assert_eq!(retry.len(), 4_000);
    retry.close().unwrap();
}

#[test]
fn snapshot_roundtrips_empty_and_binary_values() {
    let src = TempDir::new("snap-bin-src");
    let dst = TempDir::new("snap-bin-dst");
    let snap_path = src.path.join("backup.snap");
    let blob: Vec<u8> = (0..=255u8).cycle().take(50_000).collect();
    {
        let store = ShardedDash::open(&dir_cfg(&src, 2)).unwrap();
        store.set(b"empty", b"").unwrap();
        store.set(b"blob", &blob).unwrap();
        store.set(&[0u8, 13, 10, 255], b"binary-key").unwrap();
        assert_eq!(store.snapshot_to(&snap_path).unwrap(), 3);
        store.close().unwrap();
    }
    let restored = ShardedDash::restore(&dir_cfg(&dst, 1), &snap_path).unwrap();
    assert_eq!(restored.get(b"empty").unwrap(), Some(Vec::new()));
    assert_eq!(restored.get(b"blob").unwrap(), Some(blob));
    assert_eq!(restored.get(&[0u8, 13, 10, 255]).unwrap(), Some(b"binary-key".to_vec()));
    restored.close().unwrap();
}

/// The whole flow over the wire: SNAPSHOT command on a serving store,
/// then a fresh server bootstrapped from the file.
#[test]
fn snapshot_command_end_to_end_over_tcp() {
    let src = TempDir::new("snap-tcp-src");
    let dst = TempDir::new("snap-tcp-dst");
    let snap_path = src.path.join("wire.snap");
    const N: u32 = 800;
    {
        let server = serve(ShardedDash::open(&dir_cfg(&src, 2)).unwrap(), "127.0.0.1:0").unwrap();
        let mut c = RespClient::connect(server.addr()).unwrap();
        for i in 0..N {
            let (k, v) = kv(i);
            assert_eq!(c.command(&[b"SET", &k, &v]).unwrap(), Value::Simple("OK".into()));
        }
        let count = c.snapshot(snap_path.to_str().unwrap()).unwrap();
        assert_eq!(count, i64::from(N));
        // Arity / bad-path errors are replies, not disconnects.
        let Value::Error(e) = c.command(&[b"SNAPSHOT"]).unwrap() else {
            panic!("SNAPSHOT without a path must error");
        };
        assert!(e.contains("wrong number of arguments"), "{e}");
        let Value::Error(e) =
            c.command(&[b"SNAPSHOT", b"/nonexistent-dir-zz/x.snap"]).unwrap()
        else {
            panic!("unwritable snapshot path must error");
        };
        assert!(e.contains("snapshot"), "{e}");
        server.shutdown();
    }
    // The client can also verify the file out of band.
    let records = snapshot::Snapshot::read(&snap_path).unwrap();
    assert_eq!(records.len(), N as usize);
    // Bootstrap a brand-new server from the snapshot and read it back.
    {
        let engine = ShardedDash::restore(&dir_cfg(&dst, 4), &snap_path).unwrap();
        let server = serve(engine, "127.0.0.1:0").unwrap();
        let mut c = RespClient::connect(server.addr()).unwrap();
        assert_eq!(c.command(&[b"DBSIZE"]).unwrap(), Value::Integer(i64::from(N)));
        for i in (0..N).step_by(37) {
            let (k, v) = kv(i);
            assert_eq!(c.command(&[b"GET", &k]).unwrap(), Value::Bulk(v), "key {i}");
        }
        server.shutdown();
    }
}
