//! Redo-log recovery through the service layer, mirroring the snapshot
//! suite: logs must record every mutation, replay into fresh stores
//! (the incremental-backup path), truncate torn tails on reopen, and
//! never turn a corrupted byte into replayed state.
#![cfg(unix)]

use dash_repro::dash_server::repl::log::{
    encode_record, read_log, segment_files, LogWriter, LOG_MAGIC, SEGMENT_BYTES,
};
use dash_repro::dash_server::repl::wire::{fnv64, FileHeader};
use dash_repro::dash_server::{ReplOp, MAX_VALUE_LEN};
use dash_repro::{EngineConfig, ShardedDash};
use proptest::prelude::*;

mod common;
use common::TempDir;

fn dir_cfg(dir: &TempDir, shards: usize) -> EngineConfig {
    EngineConfig { shards, shard_bytes: 8 << 20, dir: Some(dir.path.clone()), ..EngineConfig::default() }
}

fn kv(i: u32) -> (Vec<u8>, Vec<u8>) {
    (
        format!("log:{i:06}").into_bytes(),
        format!("value-{}", i.wrapping_mul(0x9E37_79B9)).into_bytes(),
    )
}

/// The log records every mutation in order, and replaying it into a
/// fresh store (any shard count) reproduces the final state — sets,
/// overwrites and deletes included.
#[test]
fn full_log_replay_reconstructs_the_store() {
    let src = TempDir::new("repl-log-src");
    let dst = TempDir::new("repl-log-dst");
    {
        let store = ShardedDash::open(&dir_cfg(&src, 2)).unwrap();
        for i in 0..800 {
            let (k, v) = kv(i);
            store.set(&k, &v).unwrap();
        }
        // Overwrites: the replay must end on the second value.
        for i in 0..200 {
            let (k, _) = kv(i);
            store.set(&k, b"rewritten").unwrap();
        }
        // Deletes: the replay must not resurrect them.
        for i in 600..800 {
            let (k, _) = kv(i);
            assert!(store.del(&k).unwrap());
        }
        assert_eq!(store.repl_offset(), 800 + 200 + 200, "every mutation must be logged");
        // Crash-style teardown: drop without close(). Log appends go
        // straight to the file, so nothing is lost with the process.
    }
    // Replay into a fresh store with a DIFFERENT shard count: per-key
    // history lives in one source log, so order is preserved.
    let restored = ShardedDash::open(&dir_cfg(&dst, 5)).unwrap();
    let applied = restored.replay_log_dir(&src.path).unwrap();
    assert_eq!(applied, 1200);
    assert_eq!(restored.len(), 600);
    for i in 0..600 {
        let (k, v) = kv(i);
        let want = if i < 200 { b"rewritten".to_vec() } else { v };
        assert_eq!(restored.get(&k).unwrap(), Some(want), "key {i}");
    }
    for i in 600..800 {
        let (k, _) = kv(i);
        assert_eq!(restored.get(&k).unwrap(), None, "deleted key {i} resurrected");
    }
    restored.close().unwrap();
}

/// The ROADMAP's incremental backup: an old snapshot plus a full log
/// replay reconstructs everything written after the snapshot, without
/// re-exporting the whole store.
#[test]
fn incremental_backup_is_snapshot_plus_log_replay() {
    let src = TempDir::new("repl-inc-src");
    let dst = TempDir::new("repl-inc-dst");
    let snap = src.path.join("early.snap");
    {
        let store = ShardedDash::open(&dir_cfg(&src, 2)).unwrap();
        for i in 0..1000 {
            let (k, v) = kv(i);
            store.set(&k, &v).unwrap();
        }
        store.snapshot_to(&snap).unwrap();
        // Everything after this point exists only in the redo logs.
        for i in 1000..2000 {
            let (k, v) = kv(i);
            store.set(&k, &v).unwrap();
        }
        for i in 0..100 {
            let (k, _) = kv(i);
            store.del(&k).unwrap();
        }
        // Crash: no clean close, no fresh snapshot.
    }
    let restored = ShardedDash::restore(&dir_cfg(&dst, 3), &snap).unwrap();
    assert_eq!(restored.len(), 1000, "snapshot alone is the old state");
    restored.replay_log_dir(&src.path).unwrap();
    assert_eq!(restored.len(), 1900, "log replay must bring the state current");
    for i in (100..2000).step_by(97) {
        let (k, v) = kv(i);
        assert_eq!(restored.get(&k).unwrap(), Some(v), "key {i} lost");
    }
    for i in 0..100 {
        let (k, _) = kv(i);
        assert_eq!(restored.get(&k).unwrap(), None, "deleted key {i} resurrected");
    }
    restored.close().unwrap();
}

/// A store refuses to replay its own logs into itself (that would
/// append every replayed op back onto the log being read).
#[test]
fn replay_refuses_own_log_dir() {
    let src = TempDir::new("repl-self");
    let store = ShardedDash::open(&dir_cfg(&src, 1)).unwrap();
    store.set(b"k", b"v").unwrap();
    let err = store.replay_log_dir(&src.path).unwrap_err();
    assert!(err.to_string().contains("own logs"), "{err}");
    store.close().unwrap();
}

/// Torn tails truncate on reopen: the engine comes back up, the offset
/// reflects only intact records, and appends continue cleanly.
#[test]
fn torn_tail_truncates_on_reopen_and_offset_recovers() {
    let src = TempDir::new("repl-torn");
    {
        let store = ShardedDash::open(&dir_cfg(&src, 1)).unwrap();
        for i in 0..50 {
            let (k, v) = kv(i);
            store.set(&k, &v).unwrap();
        }
        store.close().unwrap();
    }
    let log_path = src.path.join("repl-0.log");
    {
        // Clean reopen first: the offset is recovered from the log.
        let store = ShardedDash::open(&dir_cfg(&src, 1)).unwrap();
        assert_eq!(store.repl_offset(), 50);
        store.close().unwrap();
    }
    // Simulate a crash mid-append: chop bytes off the last record.
    let full = std::fs::read(&log_path).unwrap();
    std::fs::write(&log_path, &full[..full.len() - 3]).unwrap();
    {
        let store = ShardedDash::open(&dir_cfg(&src, 1)).unwrap();
        assert_eq!(store.repl_offset(), 49, "the torn record must not count");
        assert!(
            std::fs::metadata(&log_path).unwrap().len() < full.len() as u64,
            "the torn tail must be physically truncated"
        );
        // The store itself is intact (pools are authoritative) and
        // still writable; new appends extend the truncated log.
        assert_eq!(store.len(), 50);
        store.set(b"after-truncate", b"x").unwrap();
        assert_eq!(store.repl_offset(), 50);
        store.close().unwrap();
    }
    let (ops, rec) = read_log(&log_path).unwrap();
    assert_eq!(rec.records, 50);
    assert!(matches!(ops.last(), Some(ReplOp::Set { key, .. }) if key == b"after-truncate"));
}

/// Every-byte corruption sweep over a real store's log, mirroring the
/// snapshot suite's: a flipped byte may shorten the replayable prefix
/// but can never invent, alter or reorder a record — so replay can
/// never create state that was not written.
#[test]
fn every_byte_corruption_yields_only_a_valid_prefix() {
    let src = TempDir::new("repl-sweep");
    {
        let store = ShardedDash::open(&dir_cfg(&src, 1)).unwrap();
        for i in 0..40 {
            let (k, v) = kv(i);
            store.set(&k, &v).unwrap();
            if i % 5 == 4 {
                let (k, _) = kv(i - 1);
                store.del(&k).unwrap();
            }
        }
        store.close().unwrap();
    }
    let log_path = src.path.join("repl-0.log");
    let original = std::fs::read(&log_path).unwrap();
    let (pristine, _) = read_log(&log_path).unwrap();
    assert_eq!(pristine.len(), 48);
    for pos in 0..original.len() {
        let mut bad = original.clone();
        bad[pos] ^= 0x20;
        std::fs::write(&log_path, &bad).unwrap();
        match read_log(&log_path) {
            // Header corruption → rejected outright.
            Err(_) => assert!(pos < 16, "record flip at {pos} must not reject the whole log"),
            Ok((ops, _)) => {
                assert!(
                    ops.len() < pristine.len() || pos < 16,
                    "flip at byte {pos} went undetected"
                );
                assert_eq!(
                    ops,
                    pristine[..ops.len()],
                    "flip at byte {pos} must yield a strict prefix, never altered records"
                );
            }
        }
    }
    // Engine-level spot checks: whatever the flip position, the store
    // must reopen (log recovery never bricks the pools).
    for pos in [4usize, 13, 16, original.len() / 2, original.len() - 2] {
        let mut bad = original.clone();
        bad[pos] ^= 0x20;
        std::fs::write(&log_path, &bad).unwrap();
        let store = ShardedDash::open(&dir_cfg(&src, 1)).unwrap();
        assert!(store.repl_offset() <= 48);
        assert_eq!(store.len(), 32, "pool state must be untouched by log corruption");
        store.close().unwrap();
        std::fs::write(&log_path, &original).unwrap();
    }
    // LogWriter reopen on a mid-record flip truncates and keeps going.
    let mut bad = original.clone();
    let mid = 16 + (original.len() - 16) / 2;
    bad[mid] ^= 0x20;
    std::fs::write(&log_path, &bad).unwrap();
    let (mut w, rec) = LogWriter::open(&log_path, 0, None).unwrap();
    assert!(rec.records < 48 && rec.truncated_bytes > 0);
    w.append(&ReplOp::Set { key: b"resume".to_vec(), value: b"ok".to_vec() }).unwrap();
    drop(w);
    let (ops, _) = read_log(&log_path).unwrap();
    assert_eq!(ops.last().unwrap(), &ReplOp::Set { key: b"resume".to_vec(), value: b"ok".to_vec() });
}

/// `repl_offset` equals the total mutation count across shards and
/// survives restarts (it seeds from the recovered logs).
#[test]
fn offset_recovers_across_restarts() {
    let src = TempDir::new("repl-offset");
    {
        let store = ShardedDash::open(&dir_cfg(&src, 3)).unwrap();
        for i in 0..120 {
            let (k, v) = kv(i);
            store.set(&k, &v).unwrap();
        }
        store.close().unwrap();
    }
    let store = ShardedDash::open(&dir_cfg(&src, 3)).unwrap();
    assert_eq!(store.repl_offset(), 120);
    let (k, v) = kv(999);
    store.set(&k, &v).unwrap();
    assert_eq!(store.repl_offset(), 121);
    store.close().unwrap();
}

/// The offset never rewinds: a durable `SNAPSHOT` deletes the sealed
/// segments it covers, and the next open still continues the count —
/// it is carried by the active file's base record, not re-summed from
/// whatever segments survive.
#[test]
fn offset_is_continuous_across_truncate_and_reopen() {
    let src = TempDir::new("repl-offset-trunc");
    let cfg = EngineConfig { repl_log_max_bytes: Some(2048), ..dir_cfg(&src, 2) };
    let before = {
        let store = ShardedDash::open(&cfg).unwrap();
        for i in 0..600 {
            let (k, v) = kv(i);
            store.set(&k, &v).unwrap();
        }
        let sealed = store.repl_log_segments();
        assert!(sealed >= 4, "a 2 KiB cap over 600 SETs must seal segments");
        store.snapshot_to(&src.path.join("cut.snap")).unwrap();
        assert_eq!(store.repl_log_segments(), 0, "the snapshot covers every sealed segment");
        for i in 0..10 {
            let (k, _) = kv(i);
            store.set(&k, b"after-the-cut").unwrap();
        }
        assert_eq!(store.repl_offset(), 610);
        store.repl_offset()
        // Crash-style teardown: no close().
    };
    let store = ShardedDash::open(&cfg).unwrap();
    assert_eq!(store.repl_offset(), before, "reopen after truncation must not rewind");
    store.close().unwrap();
}

/// Recovery is size-independent, asserted as a count: a log ten times
/// the segment cap reopens by reading one file of at most the cap plus
/// one record — under the default cap, the one `None` selects.
#[test]
fn reopening_a_log_ten_times_the_cap_scans_one_segment() {
    let dir = TempDir::new("repl-bounded");
    std::fs::create_dir_all(&dir.path).unwrap();
    let path = dir.path.join("repl-0.log");
    let value = vec![0x5Au8; 32 << 10];
    let mut appended = 0u64;
    {
        let (mut w, _) = LogWriter::open(&path, 0, None).unwrap();
        while w.bytes() < 10 * SEGMENT_BYTES {
            let key = format!("big:{appended:06}").into_bytes();
            w.append(&ReplOp::Set { key, value: value.clone() }).unwrap();
            appended += 1;
        }
        // Leave a torn tail behind, as a crash mid-append would.
        w.append(&ReplOp::Del { key: b"torn".to_vec() }).unwrap();
    }
    let len = std::fs::metadata(&path).unwrap().len();
    std::fs::OpenOptions::new().write(true).open(&path).unwrap().set_len(len - 2).unwrap();
    assert!(segment_files(&path).unwrap().len() >= 9, "ten caps of log is nine sealed segments");

    let (w, rec) = LogWriter::open(&path, 0, None).unwrap();
    assert_eq!(rec.records, appended, "every intact record, and only those");
    assert!(rec.truncated_bytes > 0 && !rec.reset);
    assert_eq!(rec.scanned_bytes, len - 2, "the active file and nothing else");
    let max_record = (4 + 1 + 4 + dash_repro::dash_common::MAX_KEY_LEN + 8 + MAX_VALUE_LEN + 8) as u64;
    assert!(rec.scanned_bytes <= SEGMENT_BYTES + max_record);
    assert!(w.bytes() >= 10 * SEGMENT_BYTES, "sealed segments still count towards the size");
}

/// A store whose logs were written before base records existed (v1
/// headers, one file of any size, no base record): it opens with the
/// offset it closed with, keeps counting, and still replays in full.
#[test]
fn parent_format_store_keeps_its_offset_and_replays() {
    let src = TempDir::new("repl-v1-src");
    let dst = TempDir::new("repl-v1-dst");
    {
        let store = ShardedDash::open(&dir_cfg(&src, 2)).unwrap();
        for i in 0..300 {
            let (k, v) = kv(i);
            store.set(&k, &v).unwrap();
        }
        store.close().unwrap();
    }
    // Rewrite each shard's log the way the parent commit wrote it.
    for shard in 0..2u32 {
        let path = src.path.join(format!("repl-{shard}.log"));
        let (ops, _) = read_log(&path).unwrap();
        let mut v1 = FileHeader { magic: LOG_MAGIC, version: 1, meta: shard }.encode().to_vec();
        for op in &ops {
            encode_record(op, &mut v1);
        }
        std::fs::write(&path, v1).unwrap();
    }
    {
        let store = ShardedDash::open(&dir_cfg(&src, 2)).unwrap();
        assert_eq!(store.repl_offset(), 300, "a v1 log is counted record by record, once");
        assert_eq!(store.len(), 300);
        // The next append per shard seals the v1 file into the new scheme.
        for i in 300..320 {
            let (k, v) = kv(i);
            store.set(&k, &v).unwrap();
        }
        assert_eq!(store.repl_log_segments(), 2);
    }
    let store = ShardedDash::open(&dir_cfg(&src, 2)).unwrap();
    assert_eq!(store.repl_offset(), 320);
    assert!(
        store.repl_log_open_cost().scanned_bytes < 2048,
        "sealed v1 segments are not read again: {:?}",
        store.repl_log_open_cost()
    );
    let restored = ShardedDash::open(&dir_cfg(&dst, 3)).unwrap();
    assert_eq!(restored.replay_log_dir(&src.path).unwrap(), 320);
    for i in 0..320 {
        let (k, v) = kv(i);
        assert_eq!(restored.get(&k).unwrap(), Some(v), "key {i}");
    }
    restored.close().unwrap();
    store.close().unwrap();
}

/// What the format allows in a record body that follows a file's base
/// record — written from the layout in the module doc, not from the
/// decoder.
fn body_is_an_op_record(body: &[u8]) -> bool {
    if body.len() < 5 {
        return false;
    }
    let key_len = u32::from_le_bytes(body[1..5].try_into().unwrap()) as usize;
    let after_key_len = body.len() - 5;
    match body[0] {
        1 => key_len <= after_key_len,
        2 => key_len == after_key_len,
        3 => key_len + 8 <= after_key_len,
        _ => false,
    }
}

/// Record bodies that mostly look like records — a tag near the legal
/// ones, a small key length, some bytes — and now and then are noise too
/// short to be one.
fn body_strategy() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        4 => (0u8..6, 0u32..12, proptest::collection::vec(any::<u8>(), 0..24)).prop_map(
            |(tag, key_len, rest)| {
                let mut body = vec![tag];
                body.extend_from_slice(&key_len.to_le_bytes());
                body.extend_from_slice(&rest);
                body
            }
        ),
        1 => proptest::collection::vec(any::<u8>(), 0..8),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// Validator ≡ decoder: behind a valid log, append arbitrary record
    /// bodies in intact frames (length and checksum right, so only the
    /// structural checks can stop them). The counting scan in
    /// `LogWriter::open` and the copying reader in `read_log` must stop
    /// at the same record — the first the format does not allow — and
    /// what they accepted must be what the writer would have written.
    #[test]
    fn open_counts_exactly_the_records_read_log_reads(
        bodies in proptest::collection::vec(body_strategy(), 1..8),
    ) {
        let dir = TempDir::new("repl-prop");
        std::fs::create_dir_all(&dir.path).unwrap();
        let path = dir.path.join("repl-0.log");
        {
            let (mut w, _) = LogWriter::open(&path, 0, None).unwrap();
            for i in 0..3 {
                let (key, value) = kv(i);
                w.append(&ReplOp::Set { key, value }).unwrap();
            }
        }
        let mut file = std::fs::read(&path).unwrap();
        let mut frames = Vec::new();
        for body in bodies {
            let mut frame = (body.len() as u32).to_le_bytes().to_vec();
            frame.extend_from_slice(&body);
            let checksum = fnv64(&frame);
            frame.extend_from_slice(&checksum.to_le_bytes());
            file.extend_from_slice(&frame);
            frames.push((body, frame));
        }
        std::fs::write(&path, &file).unwrap();
        let allowed = frames.iter().take_while(|(body, _)| body_is_an_op_record(body)).count();

        let (ops, read) = read_log(&path).unwrap();
        prop_assert_eq!(ops.len(), 3 + allowed, "read_log accepts what the format allows");
        for (op, (_, frame)) in ops[3..].iter().zip(&frames) {
            let mut again = Vec::new();
            encode_record(op, &mut again);
            prop_assert_eq!(&again, frame, "an accepted record is one the writer produces");
        }
        let (_, rec) = LogWriter::open(&path, 0, None).unwrap();
        prop_assert_eq!(rec.records, ops.len() as u64);
        prop_assert_eq!(rec.truncated_bytes, read.truncated_bytes);
        prop_assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            file.len() as u64 - rec.truncated_bytes
        );
    }
}
