//! Failure injection over **variable-length keys** (§4.5): each insert is
//! an allocate–persist–publish sequence (key blob first, then the record
//! slot pointing at it), so the crash surface is wider than for inline
//! keys. Sweeping power-cut points checks that
//!
//! * a committed var-key record always reads back byte-identical,
//! * an in-flight insert never leaves a torn key visible (the record's
//!   commit point — the alloc-bitmap flush — happens after the blob is
//!   persisted),
//! * key blobs of crashed inserts never leak permanently (the PMDK-style
//!   in-flight table returns them to the allocator on recovery),
//! * the two commit points of a caller that owns its key storage
//!   (`insert_encoded`, `rekey` — how the server publishes and replaces a
//!   record) are as atomic: a slot never points at anything but a whole
//!   representation of its key.

use std::collections::BTreeMap;

use dash_repro::dash_common::{var_keys, KeyProbe};
use dash_repro::{DashConfig, DashEh, PmHashTable, PmemPool, PoolConfig, VarKey};

mod common;

fn shadow_cfg() -> PoolConfig {
    common::shadow_cfg(64)
}

#[test]
fn var_key_insert_crash_sweep() {
    let cfg = shadow_cfg();
    let dash_cfg = common::small_eh_cfg();
    let base: Vec<VarKey> = var_keys(1_500, 61, 16);
    let in_flight: Vec<VarKey> = var_keys(48, 67, 24);

    let (flush_lo, flush_hi) = {
        let pool = PmemPool::create(cfg).unwrap();
        let t: DashEh<VarKey> = DashEh::create(pool.clone(), dash_cfg).unwrap();
        for (i, k) in base.iter().enumerate() {
            t.insert(k, i as u64).unwrap();
        }
        let lo = pool.flushes_issued();
        for (i, k) in in_flight.iter().enumerate() {
            t.insert(k, 1_000_000 + i as u64).unwrap();
        }
        (lo, pool.flushes_issued())
    };

    let step = ((flush_hi - flush_lo) / 24).max(1);
    let mut cut = flush_lo;
    while cut <= flush_hi {
        let pool = PmemPool::create(cfg).unwrap();
        let t: DashEh<VarKey> = DashEh::create(pool.clone(), dash_cfg).unwrap();
        let mut committed = BTreeMap::new();
        for (i, k) in base.iter().enumerate() {
            t.insert(k, i as u64).unwrap();
            committed.insert(k.as_bytes().to_vec(), i as u64);
        }
        pool.set_flush_limit(Some(cut));
        for (i, k) in in_flight.iter().enumerate() {
            let _ = t.insert(k, 1_000_000 + i as u64);
        }
        let img = pool.crash_image();
        drop(t);

        let pool2 = PmemPool::open(img, cfg).unwrap();
        let t2: DashEh<VarKey> = DashEh::open(pool2).unwrap();
        for (bytes, v) in &committed {
            let k = VarKey::new(bytes.clone());
            assert_eq!(t2.get(&k), Some(*v), "committed var key lost at cut {cut}");
        }
        for (i, k) in in_flight.iter().enumerate() {
            if let Some(v) = t2.get(k) {
                assert_eq!(v, 1_000_000 + i as u64, "in-flight var key torn at cut {cut}");
            }
        }
        // The table stays operable with fresh var-key traffic.
        for k in var_keys(32, cut ^ 0x77, 16) {
            t2.insert(&k, 5).unwrap();
            assert_eq!(t2.get(&k), Some(5));
        }
        cut += step;
    }
}

/// `insert_encoded`: the caller persists its own representation, then the
/// table publishes the word. Cut anywhere, a key is present with the
/// word and value it was given — and the word reads back as the whole
/// key — or it is absent.
#[test]
fn var_key_insert_encoded_crash_sweep() {
    let cfg = shadow_cfg();
    let dash_cfg = common::small_eh_cfg();
    let base: Vec<VarKey> = var_keys(1_500, 73, 16);
    let in_flight: Vec<VarKey> = var_keys(48, 79, 24);
    let publish = |pool: &PmemPool, t: &DashEh<VarKey>, k: &VarKey, v: u64| {
        let word = k.as_bytes().encode(pool).unwrap();
        (word, t.insert_encoded(k.as_bytes(), word, v))
    };

    let (flush_lo, flush_hi) = {
        let pool = PmemPool::create(cfg).unwrap();
        let t: DashEh<VarKey> = DashEh::create(pool.clone(), dash_cfg).unwrap();
        for (i, k) in base.iter().enumerate() {
            publish(&pool, &t, k, i as u64).1.unwrap();
        }
        let lo = pool.flushes_issued();
        for (i, k) in in_flight.iter().enumerate() {
            publish(&pool, &t, k, 1_000_000 + i as u64).1.unwrap();
        }
        (lo, pool.flushes_issued())
    };

    let step = ((flush_hi - flush_lo) / 24).max(1) as usize;
    for cut in (flush_lo..=flush_hi).step_by(step) {
        let pool = PmemPool::create(cfg).unwrap();
        let t: DashEh<VarKey> = DashEh::create(pool.clone(), dash_cfg).unwrap();
        let mut committed = Vec::new();
        for (i, k) in base.iter().enumerate() {
            let (word, r) = publish(&pool, &t, k, i as u64);
            r.unwrap();
            committed.push((k, word, i as u64));
        }
        pool.set_flush_limit(Some(cut));
        let mut words = Vec::new();
        for (i, k) in in_flight.iter().enumerate() {
            let (word, r) = publish(&pool, &t, k, 1_000_000 + i as u64);
            if r.is_ok() && pool.flushes_issued() <= cut {
                committed.push((k, word, 1_000_000 + i as u64));
            }
            words.push(word);
        }
        let img = pool.crash_image();
        drop(t);

        let pool2 = PmemPool::open(img, cfg).unwrap();
        let t2: DashEh<VarKey> = DashEh::open(pool2.clone()).unwrap();
        for (k, word, v) in &committed {
            assert_eq!(t2.find(*k), Some((*word, *v)), "committed key lost at cut {cut}");
        }
        for (i, k) in in_flight.iter().enumerate() {
            if let Some(found) = t2.find(k) {
                assert_eq!(found, (words[i], 1_000_000 + i as u64), "torn slot at cut {cut}");
                assert!(k.matches(&pool2, found.0), "slot published before its key at cut {cut}");
            }
        }
        for k in var_keys(32, cut ^ 0x79, 16) {
            publish(&pool2, &t2, &k, 5).1.unwrap();
            assert_eq!(t2.get(&k), Some(5));
        }
    }
}

/// `rekey`: a present key's word is swapped for a second, already
/// persisted representation with one 8-byte store. Cut anywhere, the
/// slot holds the old word or the new one — both of which read back as
/// the key — never neither; a rekey whose flush made it reads back
/// through the new word; values and bystanders do not move.
#[test]
fn var_key_rekey_crash_sweep() {
    let cfg = shadow_cfg();
    let dash_cfg = common::small_eh_cfg();
    let keys: Vec<VarKey> = var_keys(1_500, 83, 16);
    let victims: Vec<usize> = (0..keys.len()).step_by(16).collect();
    let load = |pool: &std::sync::Arc<PmemPool>| {
        let t: DashEh<VarKey> = DashEh::create(pool.clone(), dash_cfg).unwrap();
        for (i, k) in keys.iter().enumerate() {
            t.insert(k, i as u64).unwrap();
        }
        t
    };

    let (flush_lo, flush_hi) = {
        let pool = PmemPool::create(cfg).unwrap();
        let t = load(&pool);
        let lo = pool.flushes_issued();
        for &i in &victims {
            let word = keys[i].as_bytes().encode(&pool).unwrap();
            assert!(t.rekey(keys[i].as_bytes(), word).is_some());
        }
        (lo, pool.flushes_issued())
    };

    let step = ((flush_hi - flush_lo) / 24).max(1) as usize;
    for cut in (flush_lo..=flush_hi).step_by(step) {
        let pool = PmemPool::create(cfg).unwrap();
        let t = load(&pool);
        pool.set_flush_limit(Some(cut));
        // (key index, old word, new word, the rekey's flush made it)
        let mut swaps = Vec::new();
        for &i in &victims {
            let new = keys[i].as_bytes().encode(&pool).unwrap();
            let old = t.rekey(keys[i].as_bytes(), new).expect("victim is present");
            assert_ne!(old, new);
            swaps.push((i, old, new, pool.flushes_issued() <= cut));
        }
        let img = pool.crash_image();
        drop(t);

        let pool2 = PmemPool::open(img, cfg).unwrap();
        let t2: DashEh<VarKey> = DashEh::open(pool2.clone()).unwrap();
        for &(i, old, new, committed) in &swaps {
            let (word, value) = t2
                .find(&keys[i])
                .unwrap_or_else(|| panic!("rekeyed key {i} has no slot at cut {cut}"));
            assert_eq!(value, i as u64, "value word of key {i} moved at cut {cut}");
            assert!(word == old || word == new, "key {i}: a third word at cut {cut}");
            assert!(!committed || word == new, "committed rekey of key {i} undone at cut {cut}");
            assert!(keys[i].matches(&pool2, word), "key {i} points at a torn blob at cut {cut}");
        }
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(t2.get(k), Some(i as u64), "key {i} lost at cut {cut}");
        }
        for k in var_keys(32, cut ^ 0x83, 16) {
            t2.insert(&k, 5).unwrap();
            let again = k.as_bytes().encode(&pool2).unwrap();
            assert!(t2.rekey(k.as_bytes(), again).is_some());
            assert_eq!(t2.find(&k), Some((again, 5)));
        }
    }
}

#[test]
fn var_key_delete_crash_sweep() {
    let cfg = shadow_cfg();
    let dash_cfg = DashConfig { bucket_bits: 3, ..Default::default() };
    let keys: Vec<VarKey> = var_keys(1_200, 71, 16);
    let victims: Vec<VarKey> = keys.iter().step_by(8).cloned().collect();

    let (flush_lo, flush_hi) = {
        let pool = PmemPool::create(cfg).unwrap();
        let t: DashEh<VarKey> = DashEh::create(pool.clone(), dash_cfg).unwrap();
        for (i, k) in keys.iter().enumerate() {
            t.insert(k, i as u64).unwrap();
        }
        let lo = pool.flushes_issued();
        for k in &victims {
            assert!(t.remove(k));
        }
        (lo, pool.flushes_issued())
    };

    let step = ((flush_hi - flush_lo) / 12).max(1);
    let mut cut = flush_lo;
    while cut <= flush_hi {
        let pool = PmemPool::create(cfg).unwrap();
        let t: DashEh<VarKey> = DashEh::create(pool.clone(), dash_cfg).unwrap();
        for (i, k) in keys.iter().enumerate() {
            t.insert(k, i as u64).unwrap();
        }
        pool.set_flush_limit(Some(cut));
        for k in &victims {
            let _ = t.remove(k);
        }
        let img = pool.crash_image();
        drop(t);

        let pool2 = PmemPool::open(img, cfg).unwrap();
        let t2: DashEh<VarKey> = DashEh::open(pool2).unwrap();
        let victim_set: std::collections::HashSet<&[u8]> =
            victims.iter().map(|k| k.as_bytes()).collect();
        for (i, k) in keys.iter().enumerate() {
            match t2.get(k) {
                Some(v) => assert_eq!(v, i as u64, "value of var key {i} corrupt at cut {cut}"),
                None => assert!(
                    victim_set.contains(k.as_bytes()),
                    "non-victim var key {i} lost at cut {cut}"
                ),
            }
        }
        cut += step;
    }
}

/// Leak amplification check: repeated insert → crash → recover → delete
/// cycles must not consume the pool. If crashed inserts leaked their key
/// blobs permanently, this loop would exhaust the 64 MB pool quickly.
#[test]
fn crashed_var_key_inserts_do_not_leak() {
    let cfg = shadow_cfg();
    let dash_cfg = common::small_eh_cfg();
    let pool0 = PmemPool::create(cfg).unwrap();
    let t0: DashEh<VarKey> = DashEh::create(pool0.clone(), dash_cfg).unwrap();
    drop(t0);
    let mut img = pool0.crash_image();

    // Each round writes ~1.6 MB of key blobs (4k keys × ~400 B class) and
    // crashes mid-stream; 60 rounds ≈ 96 MB of blob traffic through a
    // 64 MB pool — impossible without reclamation. Each round is two
    // incarnations: one that crashes mid-insert (once flushes have been
    // dropped, the only sound continuation is to take the crash image —
    // see `set_flush_limit`), and a recovery incarnation that deletes
    // whatever committed.
    for round in 0..60u64 {
        let keys = var_keys(4_000, round, 384);
        {
            let pool = PmemPool::open(img, cfg).unwrap();
            let t: DashEh<VarKey> = DashEh::open(pool.clone()).unwrap();
            // Cut flushes mid-batch so inserts are in flight at the crash.
            pool.set_flush_limit(Some(pool.flushes_issued() + 6_000));
            for k in &keys {
                if t.insert(k, round).is_err() {
                    panic!("pool exhausted at round {round}: key blobs are leaking");
                }
            }
            img = pool.crash_image();
        }
        {
            let pool = PmemPool::open(img, cfg).unwrap();
            let t: DashEh<VarKey> = DashEh::open(pool.clone()).unwrap();
            // Delete everything that committed, freeing the blobs.
            for k in &keys {
                let _ = t.remove(k);
            }
            assert_eq!(t.len_scan(), 0, "round {round}: residue after deletes");
            img = pool.crash_image();
        }
    }
}
