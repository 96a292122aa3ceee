//! Redo-log recovery through the service layer, mirroring the snapshot
//! suite: logs must record every mutation, replay into fresh stores
//! (the incremental-backup path), truncate torn tails on reopen, and
//! never turn a corrupted byte into replayed state.
#![cfg(unix)]

use dash_repro::dash_server::repl::log::{
    read_log, replay_from, segment_files, LogWriter, LOG_MAGIC, LOG_VERSION, PRELUDE_LEN,
    SEGMENT_BYTES, STAMP_BYTES, WINDOW_DIVISOR,
};
use dash_repro::dash_server::repl::wire::{
    decode, encode, encode_op, encode_record, record_checksum, Decoded, Digest, FileHeader, Record,
};
use dash_repro::dash_server::repl::OpRef;
use dash_repro::dash_server::snapshot::{
    Reader, Snapshot, SNAP_MAGIC, SNAP_VERSION, SNAP_VERSION_UNPOSITIONED,
};
use dash_repro::dash_server::{ReplOp, SnapshotError, MAX_VALUE_LEN};
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
    // The opens above left a stamp past the middle, and open trusts what
    // a stamp covers (`a_flip_before_the_stamp_is_found_by_the_reader_not_by_open`
    // in `repl/log.rs`): without it, open scans the whole file.
    let mut bad = original.clone();
    let mid = 16 + (original.len() - 16) / 2;
    bad[mid] ^= 0x20;
    std::fs::write(&log_path, &bad).unwrap();
    std::fs::remove_file(src.path.join("repl-0.stamp")).unwrap();
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

/// The offset never rewinds: retention deletes sealed segments as the
/// log seals, and the next open still continues the count — it is
/// carried by the active file's base record, not re-summed from
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
        // A 2 KiB window over 600 SETs: every shard sealed again and
        // again, and retention kept only the segment it sealed last.
        assert_eq!(store.repl_log_segments(), 2, "one sealed segment per shard");
        for shard in 0..2 {
            let err = replay_from(&src.path.join(format!("repl-{shard}.log")), 0).unwrap_err();
            assert!(err.to_string().contains("records 0.."), "shard {shard} was trimmed: {err}");
        }
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

/// One shard's log on disk: the active file and its sealed segments.
fn log_bytes_on_disk(dir: &TempDir, shard: usize) -> u64 {
    let path = dir.path.join(format!("repl-{shard}.log"));
    let sealed: u64 = segment_files(&path)
        .unwrap()
        .iter()
        .map(|(_, seg)| std::fs::metadata(seg).unwrap().len())
        .sum();
    sealed + std::fs::metadata(&path).unwrap().len()
}

/// The log is a window, not a history: under overwrite churn on a
/// 2-shard store with the default window, every shard's log stays within
/// max(segment, `mem_used` / 4) plus one segment after every seal, while
/// the churn writes several times that, and the segment sealed last is
/// always kept.
#[test]
fn retention_bounds_every_shards_log_under_churn() {
    const KEYS: u32 = 36_000;
    let src = TempDir::new("repl-churn");
    let cfg = EngineConfig { shard_bytes: 64 << 20, ..dir_cfg(&src, 2) };
    let store = ShardedDash::open(&cfg).unwrap();
    let value = |i: u32, round: u32| vec![(i ^ round) as u8; 1000];
    let max_record = 64 + 1000;
    let (mut seals, mut written) = (0u64, 0u64);
    let mut last = (store.repl_log_segments(), store.repl_log_bytes());
    for round in 0..2u32 {
        // The first round loads the key set; later ones overwrite it.
        for i in 0..KEYS {
            let key = format!("churn:{:05}", (i * 7919 + round) % KEYS).into_bytes();
            store.set(&key, &value(i, round)).unwrap();
            written += 1;
            let now = (store.repl_log_segments(), store.repl_log_bytes());
            // A seal adds a segment or, with retention, leaves fewer
            // bytes than before; between seals the active file grows.
            if now.0 != last.0 || now.1 < last.1 {
                seals += 1;
                for (shard, t) in store.shard_telemetry().iter().enumerate() {
                    let window = (t.mem_used_bytes / WINDOW_DIVISOR).max(SEGMENT_BYTES);
                    let on_disk = log_bytes_on_disk(&src, shard);
                    assert!(
                        on_disk <= window + SEGMENT_BYTES + max_record,
                        "shard {shard} after seal {seals}: {on_disk} B of log over a {window} B window"
                    );
                }
            }
            last = now;
        }
    }
    let logged = written * 1000;
    assert!(seals >= 8, "{logged} B of churn through 4 MiB segments: {seals} seals");
    assert!(
        store.repl_log_bytes() < logged / 3,
        "the log kept {} B of {logged}",
        store.repl_log_bytes()
    );
    assert_eq!(store.repl_log_segments(), 2, "each shard keeps the segment it sealed last");
    assert_eq!(store.repl_offset(), written, "deletion never rewinds the offset");
    for i in (0..KEYS).step_by(1009) {
        let key = format!("churn:{i:05}").into_bytes();
        assert_eq!(store.get(&key).unwrap().map(|v| v.len()), Some(1000), "key {i}");
    }
    store.close().unwrap();
}

/// Recovery is size-independent, asserted as a count: a log ten times
/// the segment cap reopens by reading the active file's prelude and what
/// follows its stamp — under the default cap, the one `None` selects,
/// and behind a crash (the writer dropped, a torn tail), not a close.
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
    let max_record = (4 + 1 + 4 + dash_repro::dash_common::MAX_KEY_LEN + 8 + MAX_VALUE_LEN + 8) as u64;
    assert!(
        rec.scanned_bytes <= PRELUDE_LEN as u64 + STAMP_BYTES + max_record,
        "{} B scanned: the prelude and what follows the stamp, nothing else",
        rec.scanned_bytes
    );
    assert!(w.bytes() >= 10 * SEGMENT_BYTES, "sealed segments still count towards the size");
}

/// A restart reads what the last stamps did not cover, through the
/// whole store: behind a crash (dropped without `close()`), each shard's
/// prelude plus under 64 KiB and one record past its stamp, though the
/// logs hold several times that; behind a clean close, the preludes
/// alone. The count is exact either way.
#[test]
fn a_restart_reads_only_what_the_stamps_did_not_cover() {
    let dir = TempDir::new("repl-stamped");
    let cfg = dir_cfg(&dir, 2);
    let value = vec![0xA5u8; 200];
    {
        let store = ShardedDash::open(&cfg).unwrap();
        for i in 0..3000 {
            store.set(format!("stamp:{i:05}").as_bytes(), &value).unwrap();
        }
        assert!(store.repl_log_bytes() > 4 * STAMP_BYTES, "{} B of log", store.repl_log_bytes());
    }
    let store = ShardedDash::open(&cfg).unwrap();
    // A SETEX of one of those keys, the largest record they log: length,
    // tag, key length, key, deadline, value, checksum.
    let record = 4 + 1 + 4 + 11 + 8 + 200 + 8;
    let bound = 2 * (PRELUDE_LEN as u64 + STAMP_BYTES + record);
    let scanned = store.repl_log_open_cost().scanned_bytes;
    assert!(scanned <= bound, "{scanned} B scanned after a crash, over {bound}");
    assert_eq!(store.repl_offset(), 3000);
    store.close().unwrap();
    let store = ShardedDash::open(&cfg).unwrap();
    assert_eq!(store.repl_log_open_cost().scanned_bytes, 2 * PRELUDE_LEN as u64);
    assert_eq!(store.repl_offset(), 3000);
    store.set(b"after", b"restart").unwrap();
    assert_eq!(store.repl_offset(), 3001);
    store.close().unwrap();
}

/// A store whose logs were written before base records existed (v1
/// headers). Replay refuses such a log, naming the version, and applies
/// nothing; opening the store starts each log over, and the pools — the
/// authoritative state — are untouched.
#[test]
fn a_parent_format_log_is_refused_by_replay_and_started_over_by_open() {
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
    // Rewrite each shard's log the way the v1 format wrote it.
    for shard in 0..2u32 {
        let path = src.path.join(format!("repl-{shard}.log"));
        let (ops, _) = read_log(&path).unwrap();
        let mut v1 = FileHeader { magic: LOG_MAGIC, version: 1, meta: shard }.encode().to_vec();
        for op in &ops {
            encode_record(op, &mut v1);
        }
        std::fs::write(&path, v1).unwrap();
    }
    let restored = ShardedDash::open(&dir_cfg(&dst, 3)).unwrap();
    let err = restored.replay_log_dir(&src.path).unwrap_err();
    assert!(err.to_string().contains("version 1"), "{err}");
    assert_eq!(restored.len(), 0, "nothing of a refused log is applied");
    restored.close().unwrap();
    let store = ShardedDash::open(&dir_cfg(&src, 2)).unwrap();
    assert_eq!(store.len(), 300, "the pools are untouched");
    assert_eq!(store.repl_offset(), 0, "each log started over");
    let (k, v) = kv(300);
    store.set(&k, &v).unwrap();
    assert_eq!(store.repl_offset(), 1);
    store.close().unwrap();
}

/// A store whose logs are version 2 (FNV-1a record checksums) has pools
/// this build opens, so the upgrade is live: every key is served, each
/// shard's active log starts over as a v3 file (`repl_offset` restarts),
/// and replay refuses the old files — sealed segments included — naming
/// the version, applying nothing. The version word is outside every
/// record checksum, so patching it makes files that differ from intact
/// v3 ones only in their header: the refusal shown is the header's.
#[test]
fn a_v2_log_is_started_over_by_open_and_refused_by_replay() {
    let src = TempDir::new("repl-v2-src");
    let dst = TempDir::new("repl-v2-dst");
    let cfg = dir_cfg(&src, 2);
    {
        let store = ShardedDash::open(&cfg).unwrap();
        for i in 0..300 {
            let (k, v) = kv(i);
            store.set(&k, &v).unwrap();
        }
        store.close().unwrap();
    }
    // Rewrite each shard's log as a chain of sealed segments: a writer
    // opened on its own seals at its cap and deletes nothing.
    for shard in 0..2u32 {
        let path = src.path.join(format!("repl-{shard}.log"));
        let (ops, _) = read_log(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let (mut w, _) = LogWriter::open(&path, shard, Some(2048)).unwrap();
        for op in &ops {
            w.append(op).unwrap();
        }
        assert!(w.segments() >= 2, "a 2 KiB cap over {} SETs must seal segments", ops.len());
    }
    let mut patched = 0;
    for entry in std::fs::read_dir(&src.path).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if name.starts_with("repl-") && name.ends_with(".log") {
            let mut bytes = std::fs::read(&path).unwrap();
            bytes[8..12].copy_from_slice(&2u32.to_le_bytes());
            std::fs::write(&path, bytes).unwrap();
            patched += 1;
        }
    }
    assert!(patched >= 6, "two active files and their sealed segments: {patched}");

    let restored = ShardedDash::open(&dir_cfg(&dst, 3)).unwrap();
    let err = restored.replay_log_dir(&src.path).unwrap_err();
    assert!(err.to_string().contains("version 2"), "{err}");
    assert_eq!(restored.len(), 0, "nothing of a refused log is applied");
    restored.close().unwrap();

    let store = ShardedDash::open(&cfg).unwrap();
    assert_eq!(store.len(), 300, "the pools are untouched");
    for i in 0..300 {
        let (k, v) = kv(i);
        assert_eq!(store.get(&k).unwrap(), Some(v), "key {i}");
    }
    assert_eq!(store.repl_offset(), 0, "each log started over");
    let (k, v) = kv(300);
    store.set(&k, &v).unwrap();
    assert_eq!(store.repl_offset(), 1);
    store.close().unwrap();
    let mut logged = Vec::new();
    for shard in 0..2 {
        let path = src.path.join(format!("repl-{shard}.log"));
        let version = u32::from_le_bytes(std::fs::read(&path).unwrap()[8..12].try_into().unwrap());
        assert_eq!(version, LOG_VERSION, "shard {shard}'s active file is current-format");
        logged.append(&mut read_log(&path).unwrap().0);
    }
    assert_eq!(logged, [ReplOp::Set { key: k, value: v }], "the new write, and only it");
}

/// Write `kv(i)` for every `i` in `keys`.
fn set_range(store: &ShardedDash, keys: std::ops::Range<u32>) {
    for i in keys {
        let (k, v) = kv(i);
        store.set(&k, &v).unwrap();
    }
}

/// The base record of the oldest file still in shard `shard`'s chain.
fn oldest_base(dir: &TempDir, shard: usize) -> u64 {
    let active = dir.path.join(format!("repl-{shard}.log"));
    let oldest = segment_files(&active).unwrap().first().map_or(active, |(_, seg)| seg.clone());
    let bytes = std::fs::read(oldest).unwrap();
    let Decoded::Record(Record::Base(base), _, _) = decode(&bytes[FileHeader::LEN..]) else {
        panic!("no base record")
    };
    base
}

/// The incremental backup from positions: a snapshot taken mid-run plus
/// each shard's chain from the position the snapshot recorded rebuilds
/// the final state exactly — although retention has trimmed the chains
/// past their start, so a replay from 0 is refused.
#[test]
fn restore_and_replay_resumes_each_chain_at_the_snapshots_position() {
    let src = TempDir::new("repl-pos-src");
    let dst = TempDir::new("repl-pos-dst");
    let snap = src.path.join("mid.snap");
    let cfg = EngineConfig { repl_log_max_bytes: Some(8192), ..dir_cfg(&src, 2) };
    let store = ShardedDash::open(&cfg).unwrap();
    set_range(&store, 0..800);
    store.snapshot_to(&snap).unwrap();
    let positions = Snapshot::read(&snap).unwrap().positions().to_vec();
    assert_eq!(positions.iter().sum::<u64>(), 800, "every write so far is below a position");
    set_range(&store, 800..900);
    for i in 0..50 {
        store.del(&kv(i).0).unwrap();
    }
    store.close().unwrap();
    for (shard, &position) in positions.iter().enumerate() {
        let base = oldest_base(&src, shard);
        assert!(0 < base && base <= position, "shard {shard}: trimmed to {base}");
    }
    let err = ShardedDash::open(&dir_cfg(&dst, 3)).unwrap().replay_log_dir(&src.path).unwrap_err();
    assert!(err.to_string().contains("records 0.."), "{err}");
    std::fs::remove_dir_all(&dst.path).unwrap();

    let (restored, replayed) =
        ShardedDash::restore_and_replay(&dir_cfg(&dst, 3), &snap, &src.path).unwrap();
    assert_eq!(replayed, 150, "the writes after the snapshot, and only those");
    assert_eq!(restored.len(), 850);
    for i in 0..900 {
        let (k, v) = kv(i);
        assert_eq!(restored.get(&k).unwrap(), (i >= 50).then_some(v), "key {i}");
    }
    restored.close().unwrap();
}

/// A snapshot older than the log's window cannot be brought current:
/// once retention has deleted records past the snapshot's position,
/// restore-and-replay refuses — naming the shard, the position and the
/// oldest retained base — before it creates anything, and a plain replay
/// from 0 applies nothing either.
#[test]
fn replay_refuses_a_snapshot_older_than_the_window() {
    let src = TempDir::new("repl-gap-src");
    let dst = TempDir::new("repl-gap-dst");
    let snap = src.path.join("old.snap");
    let cfg = EngineConfig { repl_log_max_bytes: Some(4096), ..dir_cfg(&src, 2) };
    let store = ShardedDash::open(&cfg).unwrap();
    set_range(&store, 0..100);
    store.snapshot_to(&snap).unwrap();
    let positions = Snapshot::read(&snap).unwrap().positions().to_vec();
    set_range(&store, 100..1000);
    store.close().unwrap();
    let base = oldest_base(&src, 0);
    assert!(base > positions[0], "retention deleted past the position: base {base}");

    let err = ShardedDash::restore_and_replay(&dir_cfg(&dst, 3), &snap, &src.path)
        .err()
        .unwrap()
        .to_string();
    let gap = format!("records {}..{base} are gone", positions[0]);
    assert!(err.contains("shard 0") && err.contains(&gap), "{err}");
    assert!(err.contains(&format!("has base {base}")), "{err}");
    assert!(!dst.path.exists(), "nothing of the target was created");

    let target = ShardedDash::open(&dir_cfg(&dst, 3)).unwrap();
    assert!(target.replay_log_dir(&src.path).is_err());
    assert_eq!(target.len(), 0, "nothing of a refused replay is applied");
    target.close().unwrap();
}

/// Replay refuses logs that do not continue the snapshot: another
/// store's, with a different shard count (both counts named), and a log
/// that was started over and ends before the snapshot's position.
#[test]
fn replay_refuses_another_stores_logs_and_a_reset_log() {
    let src = TempDir::new("repl-other-src");
    let other = TempDir::new("repl-other-3");
    let dst = TempDir::new("repl-other-dst");
    let snap = src.path.join("s.snap");
    let store = ShardedDash::open(&dir_cfg(&src, 2)).unwrap();
    set_range(&store, 0..200);
    store.snapshot_to(&snap).unwrap();
    store.close().unwrap();
    let store = ShardedDash::open(&dir_cfg(&other, 3)).unwrap();
    set_range(&store, 0..50);
    store.close().unwrap();
    let err = ShardedDash::restore_and_replay(&dir_cfg(&dst, 2), &snap, &other.path)
        .err()
        .unwrap()
        .to_string();
    assert!(err.contains("taken of 2 shards") && err.contains("the logs of 3"), "{err}");

    // The source's logs deleted and started over by the next open.
    for shard in 0..2 {
        std::fs::remove_file(src.path.join(format!("repl-{shard}.log"))).unwrap();
    }
    let store = ShardedDash::open(&dir_cfg(&src, 2)).unwrap();
    set_range(&store, 200..210);
    store.close().unwrap();
    let position = Snapshot::read(&snap).unwrap().positions()[0];
    let err = ShardedDash::restore_and_replay(&dir_cfg(&dst, 2), &snap, &src.path)
        .err()
        .unwrap()
        .to_string();
    assert!(err.contains(&format!("before position {position}")), "{err}");
    assert!(!dst.path.exists(), "nothing of the target was created");
}

/// `v4`'s keys as a version-3 snapshot at `v3`: the same stream without
/// positions.
fn as_v3(v4: &std::path::Path, v3: &std::path::Path) {
    let snap = Snapshot::read(v4).unwrap();
    let shards = snap.positions().len() as u32;
    let header =
        FileHeader { magic: SNAP_MAGIC, version: SNAP_VERSION_UNPOSITIONED, meta: shards }.encode();
    let mut out = header.to_vec();
    let mut digest = Digest::new(&header);
    snap.try_for_each(|op| {
        digest.add(encode_op(op, &mut out));
        Ok::<_, SnapshotError>(())
    })
    .unwrap();
    encode(Record::End(digest), &mut out);
    std::fs::write(v3, out).unwrap();
}

/// A version-3 snapshot names no positions, so its replay starts every
/// chain at 0: exact against an untrimmed chain, refused against one
/// retention has trimmed.
#[test]
fn a_v3_snapshot_replays_only_against_an_untrimmed_chain() {
    for (tag, window) in [("whole", None), ("trimmed", Some(4096))] {
        let src = TempDir::new(&format!("repl-v3-{tag}-src"));
        let dst = TempDir::new(&format!("repl-v3-{tag}-dst"));
        let (v4, v3) = (src.path.join("v4.snap"), src.path.join("v3.snap"));
        let store =
            ShardedDash::open(&EngineConfig { repl_log_max_bytes: window, ..dir_cfg(&src, 2) })
                .unwrap();
        set_range(&store, 0..400);
        store.snapshot_to(&v4).unwrap();
        set_range(&store, 400..1000);
        for i in 0..50 {
            store.del(&kv(i).0).unwrap();
        }
        store.close().unwrap();
        as_v3(&v4, &v3);
        assert_eq!(Snapshot::read(&v3).unwrap().positions(), [0, 0], "{tag}");
        match ShardedDash::restore_and_replay(&dir_cfg(&dst, 3), &v3, &src.path) {
            Ok((restored, replayed)) => {
                assert!(window.is_none(), "a trimmed chain was replayed from 0");
                assert_eq!(replayed, 1050, "the whole chain, from 0");
                assert_eq!(restored.len(), 950);
                for i in 0..1000 {
                    let (k, v) = kv(i);
                    assert_eq!(restored.get(&k).unwrap(), (i >= 50).then_some(v), "key {i}");
                }
                restored.close().unwrap();
            }
            Err(e) => {
                assert!(window.is_some(), "an untrimmed chain was refused: {e}");
                assert!(e.to_string().contains("records 0.."), "{e}");
                assert!(!dst.path.exists());
            }
        }
    }
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
    /// The valid prefix is stamped or not: three records behind the
    /// stamp a fresh file gets at its prelude, or ~100 KB of them behind
    /// one a flush wrote mid-file — each closed cleanly (stamped at its
    /// end) or not. Under a stamp, open scans only what follows it.
    #[test]
    fn open_counts_exactly_the_records_read_log_reads(
        bodies in proptest::collection::vec(body_strategy(), 1..8),
        stamped_prefix in any::<bool>(),
        closed in any::<bool>(),
    ) {
        let dir = TempDir::new("repl-prop");
        std::fs::create_dir_all(&dir.path).unwrap();
        let path = dir.path.join("repl-0.log");
        let prefix = if stamped_prefix { 100 } else { 3 };
        {
            let (mut w, _) = LogWriter::open(&path, 0, None).unwrap();
            for i in 0..prefix {
                let (key, mut value) = kv(i);
                if stamped_prefix {
                    value.resize(1000, b'.');
                }
                w.append(&ReplOp::Set { key, value }).unwrap();
            }
            if closed {
                w.sync().unwrap();
            }
        }
        let prefix = prefix as usize;
        let mut file = std::fs::read(&path).unwrap();
        let mut frames = Vec::new();
        for body in bodies {
            let mut frame = (body.len() as u32).to_le_bytes().to_vec();
            frame.extend_from_slice(&body);
            let checksum = record_checksum(&frame);
            frame.extend_from_slice(&checksum.to_le_bytes());
            file.extend_from_slice(&frame);
            frames.push((body, frame));
        }
        std::fs::write(&path, &file).unwrap();
        let allowed = frames.iter().take_while(|(body, _)| body_is_an_op_record(body)).count();

        let (ops, read) = read_log(&path).unwrap();
        prop_assert_eq!(ops.len(), prefix + allowed, "read_log accepts what the format allows");
        for (op, (_, frame)) in ops[prefix..].iter().zip(&frames) {
            let mut again = Vec::new();
            encode_record(op, &mut again);
            prop_assert_eq!(&again, frame, "an accepted record is one the writer produces");
        }
        let (_, rec) = LogWriter::open(&path, 0, None).unwrap();
        if stamped_prefix || closed {
            prop_assert!(rec.scanned_bytes < file.len() as u64, "the stamp is taken");
        }
        prop_assert_eq!(rec.records, ops.len() as u64);
        prop_assert_eq!(rec.truncated_bytes, read.truncated_bytes);
        prop_assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            file.len() as u64 - rec.truncated_bytes
        );
    }

    /// The replica's decoder is incremental: a `PSYNC` stream — the two
    /// shards' log positions, snapshot records, their `END`, then tail
    /// ops and `MARK`s — fed in reads cut
    /// at arbitrary points, down to one byte at a time, yields exactly the
    /// items of one whole feed, and consumes every byte.
    #[test]
    fn the_stream_decoder_yields_the_same_items_at_any_split(
        snapshot in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..40), 0..10),
        tail in proptest::collection::vec(
            (0u8..5, 0u32..6, proptest::collection::vec(any::<u8>(), 0..24)),
            0..16,
        ),
        reads in proptest::collection::vec(1usize..48, 1..32),
    ) {
        let header = FileHeader { magic: SNAP_MAGIC, version: SNAP_VERSION, meta: 2 }.encode();
        let mut stream = header.to_vec();
        let mut digest = Digest::new(&header);
        for position in [snapshot.len() as u64, 7] {
            digest.cover(encode(Record::Base(position), &mut stream));
        }
        let keys: Vec<Vec<u8>> = (0..16).map(|i| format!("key:{i}").into_bytes()).collect();
        for (i, value) in snapshot.iter().enumerate() {
            digest.add(encode_op(OpRef::set(&keys[i], value, 7 * (i as u64 % 2)), &mut stream));
        }
        encode(Record::End(digest), &mut stream);
        for (kind, key, value) in &tail {
            let key = &keys[*key as usize];
            match kind {
                0 => encode_op(OpRef::Set { key, value }, &mut stream),
                1 => encode_op(OpRef::SetEx { key, value, expire_at_ms: 99 }, &mut stream),
                2 => encode_op(OpRef::Del { key }, &mut stream),
                3 => {
                    encode(Record::Mark(value.len() as u64 + 1), &mut stream);
                    encode_op(OpRef::Set { key, value }, &mut stream)
                }
                _ => encode(Record::Mark(0), &mut stream),
            };
        }
        let feed = |reads: &mut dyn Iterator<Item = usize>| {
            let (mut reader, mut buf, mut items) = (Reader::default(), Vec::new(), Vec::new());
            let mut sent = 0;
            while sent < stream.len() {
                let n = reads.next().unwrap().min(stream.len() - sent);
                buf.extend_from_slice(&stream[sent..sent + n]);
                sent += n;
                let mut pos = 0;
                while let Some((item, used)) = reader.next(&buf[pos..]).unwrap() {
                    items.push(format!("{item:?}"));
                    pos += used;
                }
                buf.drain(..pos);
            }
            (items, buf.len())
        };
        let whole = feed(&mut std::iter::once(stream.len()));
        prop_assert_eq!(whole.1, 0);
        let marked = tail.iter().filter(|t| t.0 == 3).count();
        prop_assert_eq!(whole.0.len(), 2 + snapshot.len() + 1 + tail.len() + marked);
        prop_assert_eq!(&feed(&mut reads.iter().copied().cycle()), &whole);
        prop_assert_eq!(&feed(&mut std::iter::repeat(1)), &whole);
    }
}
