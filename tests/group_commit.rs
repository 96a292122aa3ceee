//! Group commit keeps the redo log's promise: **acknowledged ⇒ logged,
//! in apply order**. A connection buffers the redo records of one
//! readiness tick and writes them out before that tick's replies leave,
//! so whoever has *read a reply* must find the record in the log file of
//! the **live** store — no shutdown, no `close()`, no grace period — and
//! each shard's log must list its mutations in the order they were
//! applied, whichever mix of pipelining connections and direct
//! (write-through) engine calls produced them.
#![cfg(unix)]

use std::collections::HashMap;
use std::path::Path;

use dash_repro::dash_server::repl::log::{read_log, replay_from};
use dash_repro::dash_server::{ReplOp, Value};
use dash_repro::{serve_with, EngineConfig, RespClient, ServeOptions, ServerHandle, ShardedDash};

mod common;
use common::TempDir;

const SHARDS: usize = 2;
const CONNS: usize = 2;
/// Keys each connection writes: enough that both connections land on
/// both shards (asserted, not assumed).
const KEYS_PER_CONN: usize = 12;
const ROUNDS: usize = 20;

fn dir_cfg(dir: &Path) -> EngineConfig {
    EngineConfig {
        shards: SHARDS,
        shard_bytes: 16 << 20,
        dir: Some(dir.to_path_buf()),
        ..EngineConfig::default()
    }
}

fn serve_dir(dir: &Path) -> ServerHandle {
    serve_with(
        ShardedDash::open(&dir_cfg(dir)).unwrap(),
        "127.0.0.1:0",
        ServeOptions {
            event_workers: Some(2),
            ..Default::default()
        },
    )
    .unwrap()
}

/// Every shard's op chain from record 0, read from the files of the
/// store in `dir` as they are right now, walked as replay walks it: each
/// file must follow on from the one before.
fn logs_now(dir: &Path) -> Vec<Vec<ReplOp>> {
    (0..SHARDS)
        .map(|shard| {
            let mut ops = Vec::new();
            for file in replay_from(&dir.join(format!("repl-{shard}.log")), 0).unwrap() {
                ops.append(&mut read_log(&file.path).unwrap().0);
            }
            ops
        })
        .collect()
}

fn key(conn: usize, k: usize) -> Vec<u8> {
    format!("gc:c{conn}:k{k:02}").into_bytes()
}

/// A value that names the op that wrote it.
fn value(conn: usize, seq: usize) -> Vec<u8> {
    format!("c{conn}-op{seq:06}").into_bytes()
}

/// One acknowledged mutation, as the log must show it.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Acked {
    Set {
        key: Vec<u8>,
        value: Vec<u8>,
        ttl: bool,
    },
    Del {
        key: Vec<u8>,
    },
}

fn matches(acked: &Acked, logged: &ReplOp) -> bool {
    match (acked, logged) {
        (
            Acked::Set {
                key,
                value,
                ttl: false,
            },
            ReplOp::Set { key: k, value: v },
        ) => key == k && value == v,
        (
            Acked::Set {
                key,
                value,
                ttl: true,
            },
            ReplOp::SetEx {
                key: k, value: v, ..
            },
        ) => key == k && value == v,
        (Acked::Del { key }, ReplOp::Del { key: k }) => key == k,
        _ => false,
    }
}

/// Drive one connection: `ROUNDS` batches of `depth` commands mixing
/// `SET` / `SET … PX` / `DEL` / `MSET` over the connection's own keys.
/// After the replies of a batch are read, everything the batch was
/// acknowledged for must already be in the live store's logs — checked
/// right there, while the other connection keeps writing. Returns the
/// connection's acknowledged mutations in issue order.
fn drive(conn: usize, addr: std::net::SocketAddr, dir: &Path, depth: usize) -> Vec<Acked> {
    let mut c = RespClient::connect(addr).unwrap();
    let mut acked: Vec<Acked> = Vec::new();
    let mut seq = 0usize;
    // Keys this connection currently holds, so a DEL's reply (and hence
    // whether it is logged) is known in advance.
    let mut present = [false; KEYS_PER_CONN];
    for round in 0..ROUNDS {
        let mut batch: Vec<(Vec<Acked>, Value)> = Vec::new();
        for slot in 0..depth {
            let k = (round * 7 + slot * 3) % KEYS_PER_CONN;
            seq += 1;
            match (round + slot) % 4 {
                0 => {
                    c.enqueue(&[b"SET", &key(conn, k), &value(conn, seq)]);
                    present[k] = true;
                    batch.push((
                        vec![Acked::Set {
                            key: key(conn, k),
                            value: value(conn, seq),
                            ttl: false,
                        }],
                        Value::Simple("OK".into()),
                    ));
                }
                1 => {
                    c.enqueue(&[b"SET", &key(conn, k), &value(conn, seq), b"PX", b"600000"]);
                    present[k] = true;
                    batch.push((
                        vec![Acked::Set {
                            key: key(conn, k),
                            value: value(conn, seq),
                            ttl: true,
                        }],
                        Value::Simple("OK".into()),
                    ));
                }
                2 => {
                    c.enqueue(&[b"DEL", &key(conn, k)]);
                    let existed = std::mem::replace(&mut present[k], false);
                    // A DEL of an absent key changes nothing and logs nothing.
                    let logged = if existed {
                        vec![Acked::Del { key: key(conn, k) }]
                    } else {
                        vec![]
                    };
                    batch.push((logged, Value::Integer(i64::from(existed))));
                }
                _ => {
                    let k2 = (k + 1) % KEYS_PER_CONN;
                    let (v1, v2) = (value(conn, seq), value(conn, seq + 1));
                    seq += 1;
                    c.enqueue(&[b"MSET", &key(conn, k), &v1, &key(conn, k2), &v2]);
                    present[k] = true;
                    present[k2] = true;
                    batch.push((
                        vec![
                            Acked::Set {
                                key: key(conn, k),
                                value: v1,
                                ttl: false,
                            },
                            Acked::Set {
                                key: key(conn, k2),
                                value: v2,
                                ttl: false,
                            },
                        ],
                        Value::Simple("OK".into()),
                    ));
                }
            }
        }
        c.flush().unwrap();
        for (logged, want) in batch {
            assert_eq!(c.read_reply().unwrap(), want, "conn {conn} round {round}");
            acked.extend(logged);
        }
        // The replies are in hand: the records must be in the files.
        assert_logged_in_order(conn, &acked, &logs_now(dir), &format!("round {round}"));
    }
    acked
}

/// Every one of `acked` (one connection's mutations, in issue order) is
/// in the logs, and within each shard's log this connection's records
/// appear in issue order. A connection executes its commands one after
/// another, so issue order is apply order; `MSET` alone may reorder its
/// own pairs across shards, never within one.
fn assert_logged_in_order(conn: usize, acked: &[Acked], logs: &[Vec<ReplOp>], at: &str) {
    let tag = format!("gc:c{conn}:");
    let mut next = 0usize; // acked ops matched so far, over all shards
    let mut cursors = vec![0usize; logs.len()];
    // Merge: each acked op, in order, must be the next record of this
    // connection in exactly one shard's log.
    'acked: for op in acked {
        for (shard, log) in logs.iter().enumerate() {
            let mine = log[cursors[shard]..]
                .iter()
                .position(|logged| logged.key().starts_with(tag.as_bytes()));
            if let Some(offset) = mine {
                if matches(op, &log[cursors[shard] + offset]) {
                    cursors[shard] += offset + 1;
                    next += 1;
                    continue 'acked;
                }
            }
        }
        panic!(
            "conn {conn} {at}: acknowledged {op:?} (#{next} of {}) is not the next record of \
             this connection in any shard's log",
            acked.len()
        );
    }
    // And nothing of this connection's is logged that was not acked.
    for (shard, log) in logs.iter().enumerate() {
        let extra = log[cursors[shard]..]
            .iter()
            .find(|logged| logged.key().starts_with(tag.as_bytes()));
        assert!(
            extra.is_none(),
            "conn {conn} {at}: unacknowledged record {extra:?} in shard {shard}"
        );
    }
}

/// What replaying `logs` leaves: the last op per key wins.
fn replay(logs: &[Vec<ReplOp>]) -> HashMap<Vec<u8>, Vec<u8>> {
    let mut state = HashMap::new();
    for op in logs.iter().flatten() {
        match op {
            ReplOp::Set { key, value } | ReplOp::SetEx { key, value, .. } => {
                state.insert(key.clone(), value.clone());
            }
            ReplOp::Del { key } => {
                state.remove(key);
            }
        }
    }
    state
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

/// Two connections on two workers, pipelining onto both shards at
/// `depth`, with a direct engine `del` slipped between two batches.
fn acked_is_logged_in_order_at(depth: usize, tag: &str) {
    let dir = TempDir::new(&format!("group-commit-{tag}"));
    let crashed = TempDir::new(&format!("group-commit-{tag}-crashed"));
    let server = serve_dir(&dir.path);
    let addr = server.addr();

    let per_conn: Vec<Vec<Acked>> = std::thread::scope(|s| {
        let drivers: Vec<_> = (0..CONNS)
            .map(|conn| {
                let dir = &dir.path;
                s.spawn(move || drive(conn, addr, dir, depth))
            })
            .collect();
        drivers.into_iter().map(|d| d.join().unwrap()).collect()
    });

    // A write-through caller on another thread, between two pipelined
    // batches on one key: the log must show batch, DEL, batch.
    let mut c = RespClient::connect(addr).unwrap();
    let between = b"gc:between".to_vec();
    for i in 0..depth {
        c.enqueue(&[b"SET", &between, format!("before-{i}").as_bytes()]);
    }
    c.flush().unwrap();
    for _ in 0..depth {
        assert_eq!(c.read_reply().unwrap(), Value::Simple("OK".into()));
    }
    assert!(
        server.engine().del(&between).unwrap(),
        "direct del must find the key"
    );
    for i in 0..depth {
        c.enqueue(&[b"SET", &between, format!("after-{i}").as_bytes()]);
    }
    c.flush().unwrap();
    for _ in 0..depth {
        assert_eq!(c.read_reply().unwrap(), Value::Simple("OK".into()));
    }

    let logs = logs_now(&dir.path);
    let on_between: Vec<&ReplOp> = logs
        .iter()
        .flatten()
        .filter(|op| op.key() == between.as_slice())
        .collect();
    let mut want: Vec<ReplOp> = Vec::new();
    for i in 0..depth {
        want.push(ReplOp::Set {
            key: between.clone(),
            value: format!("before-{i}").into_bytes(),
        });
    }
    want.push(ReplOp::Del {
        key: between.clone(),
    });
    for i in 0..depth {
        want.push(ReplOp::Set {
            key: between.clone(),
            value: format!("after-{i}").into_bytes(),
        });
    }
    assert_eq!(
        on_between,
        want.iter().collect::<Vec<_>>(),
        "a direct del between two pipelined batches must sit between them in the log"
    );

    // Both connections really did share each shard's log.
    for (shard, log) in logs.iter().enumerate() {
        for conn in 0..CONNS {
            let tag = format!("gc:c{conn}:");
            assert!(
                log.iter().any(|op| op.key().starts_with(tag.as_bytes())),
                "conn {conn} never wrote to shard {shard}: the test lost its contention"
            );
        }
    }
    for (conn, acked) in per_conn.iter().enumerate() {
        assert_logged_in_order(conn, acked, &logs, "final");
    }
    let logged: usize = logs.iter().map(Vec::len).sum();
    let acked: usize = per_conn.iter().map(Vec::len).sum::<usize>() + want.len();
    assert_eq!(
        logged, acked,
        "the logs hold exactly the acknowledged mutations"
    );
    assert_eq!(server.engine().repl_offset(), acked as u64);
    let mut info = RespClient::connect(addr).unwrap();
    assert_eq!(
        info.info_field("log_append_errors").unwrap().as_deref(),
        Some("0")
    );

    // What a kill -9 would leave, taken while the server still runs: the
    // files as they are. Reopening that copy is the crash-recovery path
    // (no `close()` ever ran on it) and must give back the offset and
    // every key exactly as the log says.
    copy_dir(&dir.path, &crashed.path);
    let reopened = ShardedDash::open(&dir_cfg(&crashed.path)).unwrap();
    assert_eq!(reopened.recovered_shards(), SHARDS);
    assert!(
        reopened.shard_infos().iter().all(|i| !i.clean),
        "the copy must look crashed"
    );
    assert_eq!(
        reopened.repl_offset(),
        acked as u64,
        "every acked op is in the reopened log"
    );
    let expected = replay(&logs);
    assert_eq!(reopened.len(), expected.len() as u64);
    for (key, value) in &expected {
        assert_eq!(
            reopened.get(key).unwrap().as_ref(),
            Some(value),
            "{}: the pool and the log disagree after the crash",
            String::from_utf8_lossy(key)
        );
    }
    drop(reopened);
    server.shutdown();
}

#[test]
fn acked_is_logged_in_order_at_depth_16() {
    acked_is_logged_in_order_at(16, "d16");
}

#[test]
fn acked_is_logged_in_order_at_depth_1() {
    acked_is_logged_in_order_at(1, "d1");
}
