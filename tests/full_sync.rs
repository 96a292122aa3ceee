//! Full sync as one stream of redo-log records, seen from outside: a
//! replica that stops reading mid-snapshot holds up nothing but its own
//! stream, and a damaged record mid-snapshot ends the session before the
//! link is ever reported up, the retry replacing the partial load.
#![cfg(unix)]

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use dash_repro::dash_server::repl::wire::{decode, Decoded, FileHeader, Record};
use dash_repro::dash_server::resp::{decode_value, Decode};
use dash_repro::dash_server::{serve_with, ServeOptions, Value};
use dash_repro::{serve, EngineConfig, RespClient, ShardedDash};

mod common;
use common::TempDir;

fn mem_cfg(shards: usize, shard_bytes: usize) -> EngineConfig {
    EngineConfig { shards, shard_bytes, dir: None, ..EngineConfig::default() }
}

/// Poll `cond` every 50 ms until true, panicking with `what` after 20 s.
fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    let t0 = Instant::now();
    while !cond() {
        assert!(t0.elapsed() < Duration::from_secs(20), "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn info_u64(c: &mut RespClient, field: &str) -> u64 {
    c.info_field(field).unwrap().and_then(|v| v.parse().ok()).unwrap()
}

fn dbsize(c: &mut RespClient) -> i64 {
    match c.command(&[b"DBSIZE"]).unwrap() {
        Value::Integer(n) => n,
        other => panic!("DBSIZE gave {other:?}"),
    }
}

/// Pipelined `SET key:i value` for every `i` in `keys`.
fn load(c: &mut RespClient, prefix: &str, keys: std::ops::Range<u32>, value: &[u8]) {
    let keys: Vec<u32> = keys.collect();
    for batch in keys.chunks(100) {
        for i in batch {
            c.enqueue(&[b"SET", format!("{prefix}:{i}").as_bytes(), value]);
        }
        c.flush().unwrap();
        for _ in batch {
            assert_eq!(c.read_reply().unwrap(), Value::Simple("OK".into()));
        }
    }
}

/// The writer pins the epoch per scan page and writes each page only
/// after unpinning, so a replica that asks for a full sync and never
/// reads it stalls its own stream and nothing else: the primary's
/// overwrite churn is still reclaimed, and a concurrent `SNAPSHOT`
/// completes. One shard, so the stalled scan is in the shard the churn
/// writes; a store several times the loopback socket buffers, so the
/// writer is blocked mid-snapshot for the whole test.
#[test]
fn a_stalled_full_sync_holds_no_epoch_pin() {
    let server = serve(ShardedDash::open(&mem_cfg(1, 96 << 20)).unwrap(), "127.0.0.1:0").unwrap();
    let mut c = RespClient::connect(server.addr()).unwrap();
    const KEYS: u32 = 6000;
    load(&mut c, "big", 0..KEYS, &[b'v'; 4096]);

    let mut stalled = TcpStream::connect(server.addr()).unwrap();
    stalled.write_all(b"*3\r\n$5\r\nPSYNC\r\n$1\r\n?\r\n$2\r\n-1\r\n").unwrap();
    // Read the reply line a byte at a time, so not one byte of the
    // snapshot behind it is taken off the socket.
    let mut line = Vec::new();
    let mut byte = [0u8];
    while line.last() != Some(&b'\n') {
        stalled.read_exact(&mut byte).unwrap();
        line.push(byte[0]);
    }
    assert!(line.starts_with(b"+FULLRESYNC "), "{}", String::from_utf8_lossy(&line));
    // Let the stream thread fill the socket buffers and block.
    std::thread::sleep(Duration::from_millis(300));

    // Overwrite churn on one key: each round retires 6 MiB, so within a
    // few rounds the reclamation tick's gate (dead bytes ≥ half of used)
    // opens — and the tick frees them, unless a pin held across the
    // stalled write keeps every retired record alive.
    let reclaimed_before = info_u64(&mut c, "reclaimed_bytes");
    let churn = vec![b'x'; 768 << 10];
    wait_for("churn to be reclaimed beside the stalled stream", || {
        for _ in 0..8 {
            assert_eq!(c.command(&[b"SET", b"churn", &churn]).unwrap(), Value::Simple("OK".into()));
        }
        info_u64(&mut c, "reclaimed_bytes") > reclaimed_before
    });

    let dir = TempDir::new("fullsync-stall");
    std::fs::create_dir_all(&dir.path).unwrap();
    let snap = dir.path.join("beside.snap");
    let count = c.snapshot(snap.to_str().unwrap()).unwrap();
    assert!(count >= i64::from(KEYS), "the concurrent SNAPSHOT holds every key: {count}");

    drop(stalled);
    server.shutdown();
}

/// A fake primary's side of one session: answer `REPLCONF` and `PSYNC`,
/// then send `+FULLRESYNC <offset>` and `stream`. The socket is returned
/// open, so only the stream's content can end the session.
fn serve_session(listener: &TcpListener, offset: u64, stream: &[u8]) -> TcpStream {
    let (mut sock, _) = listener.accept().unwrap();
    let mut buf = Vec::new();
    let mut chunk = [0u8; 512];
    for reply in [b"+OK\r\n".to_vec(), format!("+FULLRESYNC {offset}\r\n").into_bytes()] {
        loop {
            if let Decode::Complete(_, used) = decode_value(&buf).unwrap() {
                buf.drain(..used);
                break;
            }
            let n = sock.read(&mut chunk).unwrap();
            assert!(n > 0, "the replica hung up during the handshake");
            buf.extend_from_slice(&chunk[..n]);
        }
        sock.write_all(&reply).unwrap();
    }
    sock.write_all(stream).unwrap();
    sock
}

/// The bytes a primary holding `n` keys named `prefix:i` sends after
/// `+FULLRESYNC`: the snapshot its `SNAPSHOT` writes.
fn snapshot_stream(prefix: &str, n: u32) -> Vec<u8> {
    let store = ShardedDash::open(&mem_cfg(2, 8 << 20)).unwrap();
    for i in 0..n {
        store.set(format!("{prefix}:{i}").as_bytes(), format!("value-{i}").as_bytes()).unwrap();
    }
    let dir = TempDir::new(&format!("fullsync-{prefix}"));
    std::fs::create_dir_all(&dir.path).unwrap();
    let path = dir.path.join("stream.snap");
    assert_eq!(store.snapshot_to(&path).unwrap(), u64::from(n));
    std::fs::read(&path).unwrap()
}

/// One record damaged mid-snapshot: the replica applies what came before
/// it as it arrived, then ends the session — counting a reconnect and
/// never reporting the link up — and the retry's purge and full sync
/// replace the partial load with exactly the new primary's store.
#[test]
fn a_damaged_record_mid_full_sync_ends_the_session_and_the_retry_replaces_it() {
    // One value byte of the middle record: its checksum no longer holds.
    let mut damaged = snapshot_stream("old", 2000);
    let mut ends = Vec::new();
    let mut at = FileHeader::LEN;
    while let Decoded::Record(Record::Op(_), _, used) = decode(&damaged[at..]) {
        at += used;
        ends.push(at);
    }
    damaged[ends[ends.len() / 2] - 9] ^= 0x10;
    let intact = snapshot_stream("new", 700);

    let primary = TcpListener::bind("127.0.0.1:0").unwrap();
    let replica_of = Some(primary.local_addr().unwrap().to_string());
    let replica = serve_with(
        ShardedDash::open(&mem_cfg(2, 8 << 20)).unwrap(),
        "127.0.0.1:0",
        ServeOptions { replica_of, ..Default::default() },
    )
    .unwrap();
    let mut rc = RespClient::connect(replica.addr()).unwrap();

    let first = serve_session(&primary, 4242, &damaged);
    wait_for("the damaged session to end", || {
        assert_ne!(rc.master_link().unwrap().as_deref(), Some("up"), "a damaged sync went up");
        info_u64(&mut rc, "repl_reconnects") >= 1
    });
    assert_eq!(rc.master_link().unwrap().as_deref(), Some("down"));
    let partial = dbsize(&mut rc);
    assert!(0 < partial && partial < 2000, "what came before the damage loaded: {partial}");

    let second = serve_session(&primary, 4242, &intact);
    wait_for("the retry's link up", || rc.master_link().unwrap().as_deref() == Some("up"));
    assert_eq!(rc.repl_offset().unwrap(), 4242);
    assert_eq!(dbsize(&mut rc), 700, "the partial load is gone");
    for i in (0..700).step_by(37) {
        let reply = rc.command(&[b"GET", format!("new:{i}").as_bytes()]).unwrap();
        assert_eq!(reply, Value::Bulk(format!("value-{i}").into_bytes()), "key new:{i}");
    }
    replica.shutdown();
    drop((first, second));
}
