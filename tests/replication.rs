//! Replication end to end over TCP: snapshot+tail bootstrap under live
//! write load, convergence (replica SCAN enumeration key/value-identical
//! to the primary), read-only enforcement, INFO surface, and
//! promote-on-failover with no acknowledged write lost.
#![cfg(unix)]

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use dash_repro::dash_server::{serve_with, ServeOptions, Value};
use dash_repro::{serve, EngineConfig, RespClient, ShardedDash};

mod common;
use common::TempDir;

fn dir_cfg(dir: &TempDir, shards: usize) -> EngineConfig {
    EngineConfig { shards, shard_bytes: 8 << 20, dir: Some(dir.path.clone()), ..EngineConfig::default() }
}

fn mem_cfg(shards: usize) -> EngineConfig {
    EngineConfig { shards, shard_bytes: 8 << 20, dir: None, ..EngineConfig::default() }
}

fn kv(i: u32) -> (Vec<u8>, Vec<u8>) {
    (
        format!("repl:{i:06}").into_bytes(),
        format!("value-{}", i.wrapping_mul(0x9E37_79B9)).into_bytes(),
    )
}

/// Poll `cond` every 50 ms until true, panicking with `what` after 20 s.
fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    let t0 = Instant::now();
    while !cond() {
        assert!(t0.elapsed() < Duration::from_secs(20), "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// The full store as the wire sees it: SCAN enumeration + MGET values.
fn dump(client: &mut RespClient) -> HashMap<Vec<u8>, Vec<u8>> {
    let mut keys = client.scan_all(512).unwrap();
    keys.sort();
    keys.dedup();
    let mut out = HashMap::new();
    for chunk in keys.chunks(64) {
        let refs: Vec<&[u8]> = chunk.iter().map(|k| k.as_slice()).collect();
        for (k, v) in chunk.iter().zip(client.mget(&refs).unwrap()) {
            if let Some(v) = v {
                out.insert(k.clone(), v);
            }
        }
    }
    out
}

/// Replica offset ≥ a primary offset read AFTERWARDS ⇒ the replica has
/// applied everything published up to the primary read (offsets only
/// move forward, so the later read is the stronger bound).
fn in_sync(primary: &mut RespClient, replica: &mut RespClient) -> bool {
    let r = replica.repl_offset().unwrap();
    let link = replica.master_link().unwrap();
    let p = primary.repl_offset().unwrap();
    link.as_deref() == Some("up") && r >= p
}

/// The tentpole acceptance flow: a replica attached to a primary under
/// concurrent write load (bootstrap races the writers, the tail streams
/// sets AND deletes) converges after quiescing: SCAN enumeration
/// key/value-identical to the primary's.
#[test]
fn replica_converges_under_live_load() {
    let p_dir = TempDir::new("repl-conv-primary");
    let r_dir = TempDir::new("repl-conv-replica");
    let primary = serve(ShardedDash::open(&dir_cfg(&p_dir, 3)).unwrap(), "127.0.0.1:0").unwrap();
    let mut pc = RespClient::connect(primary.addr()).unwrap();
    // A stable preloaded population…
    for i in 0..1500 {
        let (k, v) = kv(i);
        assert_eq!(pc.command(&[b"SET", &k, &v]).unwrap(), Value::Simple("OK".into()));
    }
    // …plus live churn (sets, overwrites, deletes) while the replica
    // bootstraps mid-stream.
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        for t in 0..2u32 {
            let stop = &stop;
            let addr = primary.addr();
            s.spawn(move || {
                let mut c = RespClient::connect(addr).unwrap();
                let mut i = 0u32;
                while !stop.load(Ordering::Relaxed) {
                    let (k, v) = kv(500_000 + t * 10_000 + (i % 400));
                    match i % 5 {
                        4 => {
                            let _ = c.del(&[&k]).unwrap();
                        }
                        _ => {
                            assert_eq!(
                                c.command(&[b"SET", &k, &v]).unwrap(),
                                Value::Simple("OK".into())
                            );
                        }
                    }
                    i += 1;
                }
            });
        }
        // Attach the replica while the writers are running.
        let replica = serve_with(
            ShardedDash::open(&dir_cfg(&r_dir, 2)).unwrap(),
            "127.0.0.1:0",
            ServeOptions { replica_of: Some(primary.addr().to_string()), ..Default::default() },
        )
        .unwrap();
        let mut rc = RespClient::connect(replica.addr()).unwrap();
        wait_for("replica link up", || {
            rc.master_link().unwrap().as_deref() == Some("up")
        });
        // Let the tail stream live traffic for a while, then quiesce.
        std::thread::sleep(Duration::from_millis(300));
        stop.store(true, Ordering::Relaxed);
        s.spawn(|| {}); // writers join at scope end; wait for offsets after
        std::thread::sleep(Duration::from_millis(50));
        wait_for("offset convergence", || in_sync(&mut pc, &mut rc));

        // INFO surface on both sides.
        assert_eq!(pc.role().unwrap(), "primary");
        assert!(pc.connected_replicas().unwrap() >= 1, "primary must count its replica");
        assert_eq!(rc.role().unwrap(), "replica");
        assert_eq!(
            rc.info_field("master_addr").unwrap().as_deref(),
            Some(primary.addr().to_string().as_str())
        );

        // Convergence: identical key/value maps over the wire.
        let p_state = dump(&mut pc);
        let r_state = dump(&mut rc);
        assert!(p_state.len() >= 1500);
        assert_eq!(p_state.len(), r_state.len(), "replica key count diverged");
        for (k, v) in &p_state {
            assert_eq!(
                r_state.get(k),
                Some(v),
                "replica diverged on key {:?}",
                String::from_utf8_lossy(k)
            );
        }
        let Value::Integer(p_size) = pc.command(&[b"DBSIZE"]).unwrap() else { panic!() };
        let Value::Integer(r_size) = rc.command(&[b"DBSIZE"]).unwrap() else { panic!() };
        assert_eq!(p_size, r_size);
        replica.shutdown();
    });
    primary.shutdown();
}

/// Replica command surface: reads work, writes bounce with -READONLY,
/// PSYNC chaining is refused, and REPLCONF is tolerated.
#[test]
fn replica_is_read_only_until_promoted() {
    let primary = serve(ShardedDash::open(&mem_cfg(2)).unwrap(), "127.0.0.1:0").unwrap();
    let mut pc = RespClient::connect(primary.addr()).unwrap();
    for i in 0..300 {
        let (k, v) = kv(i);
        pc.command(&[b"SET", &k, &v]).unwrap();
    }
    let replica = serve_with(
        ShardedDash::open(&mem_cfg(2)).unwrap(),
        "127.0.0.1:0",
        ServeOptions { replica_of: Some(primary.addr().to_string()), ..Default::default() },
    )
    .unwrap();
    let mut rc = RespClient::connect(replica.addr()).unwrap();
    wait_for("replica sync", || in_sync(&mut pc, &mut rc));

    // Reads are served locally.
    let (k0, v0) = kv(0);
    assert_eq!(rc.command(&[b"GET", &k0]).unwrap(), Value::Bulk(v0.clone()));
    assert_eq!(rc.exists(&[&k0]).unwrap(), 1);
    assert_eq!(rc.mget(&[&k0]).unwrap(), vec![Some(v0)]);
    // Writes bounce with the READONLY error class (not ERR).
    for cmd in [
        vec![b"SET".to_vec(), k0.clone(), b"nope".to_vec()],
        vec![b"DEL".to_vec(), k0.clone()],
        vec![b"MSET".to_vec(), k0.clone(), b"nope".to_vec()],
    ] {
        let parts: Vec<&[u8]> = cmd.iter().map(|p| p.as_slice()).collect();
        let Value::Error(e) = rc.command(&parts).unwrap() else {
            panic!("write on replica must error");
        };
        assert!(e.starts_with("READONLY"), "{e}");
    }
    // Chained replication is refused; REPLCONF is accepted.
    let Value::Error(e) = rc.command(&[b"PSYNC", b"?", b"-1"]).unwrap() else {
        panic!("PSYNC on a replica must error");
    };
    assert!(e.contains("replica"), "{e}");
    assert_eq!(rc.command(&[b"REPLCONF", b"x", b"y"]).unwrap(), Value::Simple("OK".into()));
    // The rejected writes changed nothing — still in sync.
    assert_eq!(rc.command(&[b"DBSIZE"]).unwrap(), Value::Integer(300));

    // Promotion flips the switch: REPLICAOF NO ONE, then writes land.
    assert_eq!(rc.command(&[b"REPLICAOF", b"NO", b"ONE"]).unwrap(), Value::Simple("OK".into()));
    wait_for("role flip", || rc.role().unwrap() == "primary");
    assert_eq!(rc.command(&[b"SET", b"post-promote", b"w"]).unwrap(), Value::Simple("OK".into()));
    assert_eq!(rc.command(&[b"GET", b"post-promote"]).unwrap(), Value::bulk(*b"w"));
    // Idempotent on an already-primary server.
    assert_eq!(rc.command(&[b"REPLICAOF", b"NO", b"ONE"]).unwrap(), Value::Simple("OK".into()));
    // Runtime attach stays unsupported, with a clear error.
    let Value::Error(e) = rc.command(&[b"REPLICAOF", b"1.2.3.4", b"5"]).unwrap() else {
        panic!("runtime REPLICAOF host port must error");
    };
    assert!(e.contains("--replica-of"), "{e}");
    replica.shutdown();
    primary.shutdown();
}

/// The failover drill: writes acknowledged on the primary, replica
/// caught up (offset equality), primary dies, replica is promoted —
/// and every acknowledged write is there, and the promoted server
/// accepts new writes.
#[test]
fn promotion_after_primary_death_loses_no_acknowledged_write() {
    let p_dir = TempDir::new("repl-promo-primary");
    let r_dir = TempDir::new("repl-promo-replica");
    const N: u32 = 1000;
    let primary = serve(ShardedDash::open(&dir_cfg(&p_dir, 2)).unwrap(), "127.0.0.1:0").unwrap();
    let mut pc = RespClient::connect(primary.addr()).unwrap();
    let replica = serve_with(
        ShardedDash::open(&dir_cfg(&r_dir, 4)).unwrap(),
        "127.0.0.1:0",
        ServeOptions { replica_of: Some(primary.addr().to_string()), ..Default::default() },
    )
    .unwrap();
    let mut rc = RespClient::connect(replica.addr()).unwrap();
    // Acknowledged writes, half before the link is up, half after.
    for i in 0..N {
        let (k, v) = kv(i);
        assert_eq!(pc.command(&[b"SET", &k, &v]).unwrap(), Value::Simple("OK".into()));
    }
    wait_for("replica caught up", || in_sync(&mut pc, &mut rc));
    // The primary goes away (the CI smoke does this with kill -9; from
    // the replica's side a vanished peer is a vanished peer).
    primary.shutdown();
    wait_for("link down", || {
        rc.master_link().unwrap().as_deref() == Some("down")
    });
    // Reads keep working while orphaned.
    let (k7, v7) = kv(7);
    assert_eq!(rc.command(&[b"GET", &k7]).unwrap(), Value::Bulk(v7));
    // Promote and verify every acknowledged write.
    assert_eq!(rc.command(&[b"REPLICAOF", b"NO", b"ONE"]).unwrap(), Value::Simple("OK".into()));
    wait_for("role flip", || rc.role().unwrap() == "primary");
    assert_eq!(rc.command(&[b"DBSIZE"]).unwrap(), Value::Integer(i64::from(N)));
    for i in 0..N {
        let (k, v) = kv(i);
        assert_eq!(rc.command(&[b"GET", &k]).unwrap(), Value::Bulk(v), "key {i} lost in failover");
    }
    // The promoted server is a real primary: writes land and persist.
    for i in N..N + 50 {
        let (k, v) = kv(i);
        assert_eq!(rc.command(&[b"SET", &k, &v]).unwrap(), Value::Simple("OK".into()));
    }
    assert_eq!(rc.command(&[b"DBSIZE"]).unwrap(), Value::Integer(i64::from(N + 50)));
    replica.shutdown();
    // And its store survives a restart as a normal primary store.
    let reopened = ShardedDash::open(&dir_cfg(&r_dir, 4)).unwrap();
    assert_eq!(reopened.len(), u64::from(N + 50));
    let (k, v) = kv(N + 49);
    assert_eq!(reopened.get(&k).unwrap(), Some(v));
    reopened.close().unwrap();
}

/// A replica's `repl_offset` is one number wherever it is read. Its
/// primary takes 200 SETs over 20 keys before it attaches, so the full
/// sync carries 20 records against a primary offset of 200: the replica
/// reports the primary-numbered position it has applied in INFO and on
/// `/metrics` alike, not the count of records it applied locally.
#[test]
fn replica_metrics_offset_matches_info() {
    let primary = serve(ShardedDash::open(&mem_cfg(2)).unwrap(), "127.0.0.1:0").unwrap();
    let mut pc = RespClient::connect(primary.addr()).unwrap();
    for i in 0..200 {
        let (k, v) = kv(i % 20);
        assert_eq!(pc.command(&[b"SET", &k, &v]).unwrap(), Value::Simple("OK".into()));
    }
    let replica = serve_with(
        ShardedDash::open(&mem_cfg(2)).unwrap(),
        "127.0.0.1:0",
        ServeOptions {
            replica_of: Some(primary.addr().to_string()),
            metrics_addr: Some("127.0.0.1:0".into()),
            ..Default::default()
        },
    )
    .unwrap();
    let mut rc = RespClient::connect(replica.addr()).unwrap();
    wait_for("INFO offsets agree", || rc.repl_offset().unwrap() == pc.repl_offset().unwrap());
    assert_eq!(pc.repl_offset().unwrap(), 200);

    use std::io::{Read, Write};
    let mut scrape = std::net::TcpStream::connect(replica.metrics_addr().unwrap()).unwrap();
    scrape.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
    let mut body = String::new();
    scrape.read_to_string(&mut body).unwrap();
    let exported: u64 = body
        .lines()
        .find_map(|l| l.strip_prefix("dash_repl_offset "))
        .expect("dash_repl_offset on the replica's /metrics")
        .parse()
        .unwrap();
    assert_eq!(exported, rc.repl_offset().unwrap(), "replica /metrics vs its INFO");
    assert_eq!(exported, 200, "replica /metrics vs the primary's INFO");
    replica.shutdown();
    primary.shutdown();
}
