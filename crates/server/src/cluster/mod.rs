//! Cluster mode: hash-slot ownership, MOVED/ASK redirects, and live
//! slot migration.
//!
//! The keyspace is partitioned into [`slots::NUM_SLOTS`] hash slots
//! (CRC16 of the key or its `{hash tag}` — [`slots`]). Each process
//! owns a set of slots recorded in a persistent, versioned slot map
//! ([`map`]); a request for a slot this node does not own is answered
//! with `-MOVED <slot> <host:port>` (stable ownership — the client
//! should update its cache) or `-ASK <slot> <host:port>` (one-shot,
//! mid-migration — the client retries at the target with `ASKING`
//! first, without caching).
//!
//! ## The per-slot phase machine
//!
//! Enforcement happens at the command-dispatch seam: every keyed
//! command resolves its slot and consults one `AtomicU8` phase:
//!
//! * `Remote` — not ours: `-MOVED` to the map's owner (`-CLUSTERDOWN`
//!   when unassigned).
//! * `Mine` — serve normally.
//! * `Migrating` — a migration is streaming this slot out, but this
//!   node is still the owner: serve normally (concurrent writes reach
//!   the target through the redo-log tail).
//! * `Frozen` — the migration's ownership flip is in flight: commands
//!   wait briefly (the flip takes milliseconds), then `-TRYAGAIN`.
//! * `Handoff` — flipped at the target but not yet persisted here:
//!   `-ASK` to the target.
//! * `Importing` — this node is receiving the slot: serve only
//!   connections that sent `ASKING` (the migration stream and
//!   redirected clients); everyone else gets `-MOVED` to the still-
//!   current owner. This is what keeps a half-imported range invisible:
//!   ordinary clients cannot read a partially-transferred slot.
//!
//! Only *ownership* is persistent (see [`map`]); every migration phase
//! is volatile. A node that dies mid-migration restarts as the
//! unambiguous owner of everything it owned before the flip.
//!
//! ## Migration (`CLUSTER MIGRATE <start> <end> <host:port>`)
//!
//! Runs on a background thread ([`migrate`]) using the same
//! snapshot+tail cut as `PSYNC` and the same fencing as promotion:
//! subscribe to the op stream (the cut), bulk-copy the range via the
//! epoch-pinned scan, replay the concurrent-write tail, then freeze the
//! range, drain the last in-flight ops, flip ownership at the target
//! (`CLUSTER TAKEOVER`, epoch bump, durable there), persist the local
//! map, and delete the moved keys. Writers never block for longer than
//! the flip.

pub mod slots;

pub(crate) mod map;
pub(crate) mod migrate;

use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};

use crate::metrics::stats;
use crate::resp::Value;
use crate::server::Inner;

use map::SlotMap;
use slots::{key_slot, NUM_SLOTS};

/// Slot phases (the `AtomicU8` values). See the module docs.
pub(crate) const PHASE_REMOTE: u8 = 0;
pub(crate) const PHASE_MINE: u8 = 1;
pub(crate) const PHASE_MIGRATING: u8 = 2;
pub(crate) const PHASE_FROZEN: u8 = 3;
pub(crate) const PHASE_HANDOFF: u8 = 4;
pub(crate) const PHASE_IMPORTING: u8 = 5;

/// How long a command waits on a `Frozen` slot before `-TRYAGAIN`.
/// The flip is milliseconds; this bound only matters if it wedges.
const FROZEN_WAIT: Duration = Duration::from_secs(1);

/// The filename of the persistent slot map, next to the shard pools.
pub(crate) const MAP_FILE: &str = "cluster.map";

/// Status of the (single) outbound migration, for `CLUSTER INFO`.
pub(crate) struct MigrationStatus {
    pub active: bool,
    pub start: u16,
    pub end: u16,
    pub target: String,
    /// `none` → `bulk` → `tail` → `flip` → `cleanup` → `done` | `failed`.
    pub state: &'static str,
    pub error: String,
}

impl MigrationStatus {
    fn idle() -> Self {
        MigrationStatus {
            active: false,
            start: 0,
            end: 0,
            target: String::new(),
            state: "none",
            error: String::new(),
        }
    }
}

/// An inbound import in progress (target side).
pub(crate) struct ImportStatus {
    pub start: u16,
    pub end: u16,
    pub source: String,
}

/// Everything cluster: the slot map, the per-slot phase machine, the
/// migration/import bookkeeping and the redirect counters. One per
/// server when `--cluster-announce` is set.
pub(crate) struct ClusterState {
    /// The `host:port` other nodes and clients reach this node at —
    /// what the slot map records and redirects carry.
    pub announce: String,
    /// Where the map persists (`None` for a volatile store: tests).
    path: Option<PathBuf>,
    map: RwLock<SlotMap>,
    phase: Box<[AtomicU8]>,
    /// Keyed commands currently executing against a `Migrating` slot —
    /// the flip's fence (see [`ClusterState::check_slot`]).
    migrating_inflight: AtomicU64,
    pub(crate) migration: Mutex<MigrationStatus>,
    pub(crate) import: Mutex<Option<ImportStatus>>,
    migration_thread: Mutex<Option<std::thread::JoinHandle<()>>>,
    /// Back-reference to the server (set once after `Arc<Inner>` is
    /// built) — what the migration thread runs against.
    inner: OnceLock<Weak<Inner>>,
    // Counters (CLUSTER INFO + Prometheus).
    pub(crate) moved_redirects: AtomicU64,
    pub(crate) ask_redirects: AtomicU64,
    pub(crate) migrations_started: AtomicU64,
    pub(crate) migrations_completed: AtomicU64,
    pub(crate) migrations_failed: AtomicU64,
    /// Keys streamed by the current/last migration.
    pub(crate) migration_keys: AtomicU64,
    /// Keys streamed by all migrations since this process started.
    pub(crate) keys_migrated_total: AtomicU64,
}

/// RAII token for one keyed command executing against a `Migrating`
/// slot; the flip waits for all of these to drop before it cuts the
/// stream (no op can slip between the dispatch gate and its hub
/// publish).
pub(crate) struct MigratingGuard<'a>(&'a ClusterState);

impl Drop for MigratingGuard<'_> {
    fn drop(&mut self) {
        self.0.migrating_inflight.fetch_sub(1, Ordering::SeqCst);
    }
}

impl ClusterState {
    /// Build the cluster state: load the persisted map when one exists
    /// in the store directory, else start unassigned.
    pub(crate) fn open(announce: String, dir: Option<PathBuf>) -> io::Result<Arc<ClusterState>> {
        let path = dir.map(|d| d.join(MAP_FILE));
        let slot_map = match &path {
            Some(p) if p.exists() => SlotMap::load(p)?,
            _ => SlotMap::new(),
        };
        let state = ClusterState {
            announce,
            path,
            phase: (0..NUM_SLOTS).map(|_| AtomicU8::new(PHASE_REMOTE)).collect(),
            migrating_inflight: AtomicU64::new(0),
            migration: Mutex::new(MigrationStatus::idle()),
            import: Mutex::new(None),
            migration_thread: Mutex::new(None),
            inner: OnceLock::new(),
            moved_redirects: AtomicU64::new(0),
            ask_redirects: AtomicU64::new(0),
            migrations_started: AtomicU64::new(0),
            migrations_completed: AtomicU64::new(0),
            migrations_failed: AtomicU64::new(0),
            migration_keys: AtomicU64::new(0),
            keys_migrated_total: AtomicU64::new(0),
            map: RwLock::new(slot_map),
        };
        state.sync_phases_to_map();
        Ok(Arc::new(state))
    }

    /// Wire the back-reference once the server's `Arc<Inner>` exists.
    pub(crate) fn bind(&self, inner: &Arc<Inner>) {
        let _ = self.inner.set(Arc::downgrade(inner));
    }

    fn inner(&self) -> Option<Arc<Inner>> {
        self.inner.get().and_then(Weak::upgrade)
    }

    /// Reset every slot's phase from map ownership (`Mine`/`Remote`) —
    /// only valid when no migration phases are live (open, ASSIGN).
    fn sync_phases_to_map(&self) {
        let map = self.map.read();
        for slot in 0..NUM_SLOTS {
            let mine = map.owner(slot).is_some_and(|a| **a == *self.announce);
            let phase = if mine { PHASE_MINE } else { PHASE_REMOTE };
            self.phase[slot as usize].store(phase, Ordering::SeqCst);
        }
    }

    pub(crate) fn phase_of(&self, slot: u16) -> u8 {
        self.phase[slot as usize].load(Ordering::SeqCst)
    }

    pub(crate) fn set_phase_range(&self, start: u16, end: u16, phase: u8) {
        for slot in start..=end {
            self.phase[slot as usize].store(phase, Ordering::SeqCst);
        }
    }

    /// Keyed commands in flight against `Migrating` slots (the flip
    /// spins until this is zero after freezing the range).
    pub(crate) fn migrating_inflight(&self) -> u64 {
        self.migrating_inflight.load(Ordering::SeqCst)
    }

    /// Apply a topology change transactionally: mutate a copy, persist
    /// it, then commit it in memory — a failed save leaves both the
    /// file and the served map unchanged.
    pub(crate) fn update_map(&self, f: impl FnOnce(&mut SlotMap)) -> io::Result<u64> {
        let mut guard = self.map.write();
        let mut next = guard.clone();
        f(&mut next);
        if let Some(path) = &self.path {
            next.save(path)?;
        }
        let epoch = next.epoch();
        *guard = next;
        Ok(epoch)
    }

    /// Like [`update_map`](Self::update_map), but commits the change in
    /// memory even when the persist fails — for the one change that
    /// must not be rolled back: recording that a completed takeover
    /// moved ownership away (the target already owns the range
    /// durably; serving stale `Mine` here would split the slot).
    pub(crate) fn update_map_commit(&self, f: impl FnOnce(&mut SlotMap)) -> io::Result<()> {
        let mut guard = self.map.write();
        let mut next = guard.clone();
        f(&mut next);
        let saved = match &self.path {
            Some(path) => next.save(path),
            None => Ok(()),
        };
        *guard = next;
        saved
    }

    pub(crate) fn epoch(&self) -> u64 {
        self.map.read().epoch()
    }

    /// `(slots_assigned, slots_owned_by_this_node)` from the map.
    pub(crate) fn slot_counts(&self) -> (usize, usize) {
        let map = self.map.read();
        (map.slots_assigned(), map.slots_owned_by(&self.announce))
    }

    /// Distinct slot owners in the map.
    pub(crate) fn known_nodes(&self) -> usize {
        self.map.read().nodes().len()
    }

    fn moved(&self, slot: u16) -> Value {
        match self.map.read().owner(slot) {
            Some(addr) => {
                self.moved_redirects.fetch_add(1, Ordering::Relaxed);
                Value::Error(format!("MOVED {slot} {addr}"))
            }
            None => Value::Error(format!("CLUSTERDOWN Hash slot {slot} is not served")),
        }
    }

    fn ask(&self, slot: u16) -> Value {
        let target = self.migration.lock().target.clone();
        if target.is_empty() {
            // Handoff with no migration on the books cannot happen in
            // one process lifetime; fall back to the map.
            return self.moved(slot);
        }
        self.ask_redirects.fetch_add(1, Ordering::Relaxed);
        Value::Error(format!("ASK {slot} {target}"))
    }

    /// The dispatch gate: may this node serve a command touching
    /// `keys` ([`Command::keys`](crate::command::Command::keys))? `Err` is
    /// the redirect (or CROSSSLOT/TRYAGAIN) reply to send instead.
    /// `Ok(Some(guard))` pins the command as in-flight against a
    /// migrating slot; the caller holds it across execution. A command
    /// with no keys bypasses the gate.
    pub(crate) fn check<'a, 'k>(
        &'a self,
        mut keys: impl Iterator<Item = &'k [u8]>,
        asking: bool,
    ) -> Result<Option<MigratingGuard<'a>>, Value> {
        let Some(first) = keys.next() else {
            return Ok(None);
        };
        let slot = key_slot(first);
        if keys.any(|key| key_slot(key) != slot) {
            return Err(Value::Error(
                "CROSSSLOT Keys in request don't hash to the same slot".into(),
            ));
        }
        self.check_slot(slot, asking)
    }

    fn check_slot(&self, slot: u16, asking: bool) -> Result<Option<MigratingGuard<'_>>, Value> {
        let mut deadline: Option<Instant> = None;
        loop {
            match self.phase[slot as usize].load(Ordering::SeqCst) {
                PHASE_MINE => return Ok(None),
                PHASE_MIGRATING => {
                    // Register as in-flight BEFORE re-checking the
                    // phase: if the re-check still says Migrating, the
                    // freeze (which stores Frozen, then reads the
                    // counter) is guaranteed to see this increment —
                    // SeqCst total order — and waits for the guard to
                    // drop. If the phase moved, back out and re-run.
                    self.migrating_inflight.fetch_add(1, Ordering::SeqCst);
                    if self.phase[slot as usize].load(Ordering::SeqCst) == PHASE_MIGRATING {
                        return Ok(Some(MigratingGuard(self)));
                    }
                    self.migrating_inflight.fetch_sub(1, Ordering::SeqCst);
                }
                PHASE_FROZEN => {
                    // The flip is in flight; it takes milliseconds.
                    // Wait it out so writers never see an error for an
                    // ordinary migration, with a bound for the
                    // pathological case.
                    let d = *deadline.get_or_insert_with(|| Instant::now() + FROZEN_WAIT);
                    if Instant::now() >= d {
                        return Err(Value::Error(
                            "TRYAGAIN slot is being migrated, retry shortly".into(),
                        ));
                    }
                    std::thread::sleep(Duration::from_micros(200));
                }
                PHASE_HANDOFF => return Err(self.ask(slot)),
                PHASE_IMPORTING => {
                    if asking {
                        return Ok(None);
                    }
                    return Err(self.moved(slot));
                }
                _ => return Err(self.moved(slot)),
            }
        }
    }
}

fn cluster_err(msg: impl Into<String>) -> Value {
    Value::Error(format!("ERR {}", msg.into()))
}

fn ok() -> Value {
    Value::Simple("OK".into())
}

fn parse_slot(raw: &[u8]) -> Option<u16> {
    std::str::from_utf8(raw).ok()?.parse::<u16>().ok().filter(|s| *s < NUM_SLOTS)
}

fn parse_range(a: &[u8], b: &[u8]) -> Option<(u16, u16)> {
    let (start, end) = (parse_slot(a)?, parse_slot(b)?);
    (start <= end).then_some((start, end))
}

/// Dispatch one `CLUSTER <subcommand> ...`.
pub(crate) fn cluster_command(cl: &Arc<ClusterState>, inner: &Inner, args: &[&[u8]]) -> Value {
    let Some(sub) = args.first() else {
        return cluster_err("CLUSTER requires a subcommand");
    };
    let sub = String::from_utf8_lossy(sub).to_ascii_uppercase();
    let rest = &args[1..];
    match sub.as_str() {
        "INFO" => Value::Bulk(stats::info(inner, stats::CLUSTER).into_bytes()),
        "SLOTS" => {
            let ranges = cl.map.read().ranges();
            Value::Array(
                ranges
                    .into_iter()
                    .map(|(start, end, owner)| {
                        Value::Array(vec![
                            Value::Integer(i64::from(start)),
                            Value::Integer(i64::from(end)),
                            Value::Bulk(owner.as_bytes().to_vec()),
                        ])
                    })
                    .collect(),
            )
        }
        "COUNTKEYSINSLOT" => match rest {
            [slot] => match parse_slot(slot) {
                Some(slot) => Value::Integer(inner.engine.count_keys_in_slot(slot) as i64),
                None => cluster_err("invalid slot"),
            },
            _ => cluster_err("COUNTKEYSINSLOT requires a slot"),
        },
        // Operator topology setup: point a slot range at a node. Run
        // against every node (each keeps its own map); the node that
        // hears its own announce address starts serving the range.
        "ASSIGN" => match rest {
            [start, end, addr] => {
                let Some((start, end)) = parse_range(start, end) else {
                    return cluster_err("invalid slot range");
                };
                let Ok(addr) = std::str::from_utf8(addr) else {
                    return cluster_err("node address must be UTF-8");
                };
                if addr.is_empty() {
                    return cluster_err("node address must not be empty");
                }
                for slot in start..=end {
                    if !matches!(cl.phase_of(slot), PHASE_REMOTE | PHASE_MINE) {
                        return cluster_err(format!("slot {slot} is busy migrating"));
                    }
                }
                let addr = addr.to_string();
                match cl.update_map(|m| {
                    m.assign(start, end, &addr);
                    m.bump_epoch(0);
                }) {
                    Ok(_) => {
                        let phase =
                            if addr == cl.announce { PHASE_MINE } else { PHASE_REMOTE };
                        cl.set_phase_range(start, end, phase);
                        ok()
                    }
                    Err(e) => cluster_err(format!("cannot persist slot map: {e}")),
                }
            }
            _ => cluster_err("ASSIGN requires: start end host:port"),
        },
        "MIGRATE" => match rest {
            [start, end, target] => {
                let Some((start, end)) = parse_range(start, end) else {
                    return cluster_err("invalid slot range");
                };
                let Ok(target) = std::str::from_utf8(target) else {
                    return cluster_err("target address must be UTF-8");
                };
                match migrate::start(cl, start, end, target.to_string()) {
                    Ok(()) => ok(),
                    Err(e) => cluster_err(e),
                }
            }
            _ => cluster_err("MIGRATE requires: start end host:port"),
        },
        // Target side of a migration: accept the range. Purges any
        // leftover keys in the range first (a previously crashed
        // migration may have left a partial import behind) — this is
        // what makes restart + re-migrate converge.
        "IMPORTING" => match rest {
            [start, end, source] => {
                let Some((start, end)) = parse_range(start, end) else {
                    return cluster_err("invalid slot range");
                };
                let Ok(source) = std::str::from_utf8(source) else {
                    return cluster_err("source address must be UTF-8");
                };
                let mut imp = cl.import.lock();
                if let Some(active) = imp.as_ref() {
                    return cluster_err(format!(
                        "an import of {}-{} is already active",
                        active.start, active.end
                    ));
                }
                for slot in start..=end {
                    if cl.phase_of(slot) != PHASE_REMOTE {
                        return cluster_err(format!("slot {slot} is already owned or busy"));
                    }
                }
                if let Err(e) = migrate::purge_range(&inner.engine, start, end) {
                    return cluster_err(format!("cannot purge stale keys: {e}"));
                }
                *imp = Some(ImportStatus { start, end, source: source.to_string() });
                cl.set_phase_range(start, end, PHASE_IMPORTING);
                ok()
            }
            _ => cluster_err("IMPORTING requires: start end host:port"),
        },
        "IMPORT-ABORT" => match rest {
            [start, end] => {
                let Some((start, end)) = parse_range(start, end) else {
                    return cluster_err("invalid slot range");
                };
                let mut imp = cl.import.lock();
                match imp.as_ref() {
                    Some(active) if active.start == start && active.end == end => {
                        *imp = None;
                        drop(imp);
                        cl.set_phase_range(start, end, PHASE_REMOTE);
                        let _ = migrate::purge_range(&inner.engine, start, end);
                        ok()
                    }
                    _ => cluster_err("no active import for that range"),
                }
            }
            _ => cluster_err("IMPORT-ABORT requires: start end"),
        },
        // The fenced ownership flip, target side: requires the matching
        // import to still be active (so a TAKEOVER can never land on a
        // node that aborted or never started the import), records
        // ownership durably, and only then serves the range.
        "TAKEOVER" => match rest {
            [start, end, epoch] => {
                let Some((start, end)) = parse_range(start, end) else {
                    return cluster_err("invalid slot range");
                };
                let Some(epoch) = std::str::from_utf8(epoch)
                    .ok()
                    .and_then(|s| s.parse::<u64>().ok())
                else {
                    return cluster_err("invalid epoch");
                };
                let mut imp = cl.import.lock();
                match imp.as_ref() {
                    Some(active) if active.start == start && active.end == end => {
                        let announce = cl.announce.clone();
                        match cl.update_map(|m| {
                            m.assign(start, end, &announce);
                            m.bump_epoch(epoch);
                        }) {
                            Ok(_) => {
                                *imp = None;
                                drop(imp);
                                cl.set_phase_range(start, end, PHASE_MINE);
                                ok()
                            }
                            // Refuse the takeover outright: the source
                            // keeps ownership, nothing changed here.
                            Err(e) => {
                                cluster_err(format!("cannot persist slot map: {e}"))
                            }
                        }
                    }
                    _ => cluster_err("no active import for that range"),
                }
            }
            _ => cluster_err("TAKEOVER requires: start end epoch"),
        },
        _ => cluster_err(format!("unknown CLUSTER subcommand '{sub}'")),
    }
}

/// Join the migration thread if one exists (server shutdown).
pub(crate) fn join_migration_thread(cl: &ClusterState) {
    if let Some(t) = cl.migration_thread.lock().take() {
        let _ = t.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(announce: &str) -> Arc<ClusterState> {
        ClusterState::open(announce.to_string(), None).unwrap()
    }

    fn keys<'k>(keys: &'k [&'k [u8]]) -> impl Iterator<Item = &'k [u8]> {
        keys.iter().copied()
    }

    #[test]
    fn phase_machine_redirects() {
        let cl = state("127.0.0.1:7000");
        let slot = key_slot(b"foo"); // 12182
        // Unassigned slot: CLUSTERDOWN.
        let Err(Value::Error(e)) = cl.check(keys(&[b"foo"]), false) else {
            panic!("unassigned slot must not be served")
        };
        assert!(e.starts_with("CLUSTERDOWN"), "{e}");
        // Assigned elsewhere: MOVED with slot and owner.
        cl.update_map(|m| m.assign(0, NUM_SLOTS - 1, "10.0.0.9:7001")).unwrap();
        cl.sync_phases_to_map();
        let Err(Value::Error(e)) = cl.check(keys(&[b"foo"]), false) else {
            panic!("remote slot must redirect")
        };
        assert_eq!(e, format!("MOVED {slot} 10.0.0.9:7001"));
        assert_eq!(cl.moved_redirects.load(Ordering::Relaxed), 1);
        // Ours: served.
        cl.update_map(|m| m.assign(0, NUM_SLOTS - 1, "127.0.0.1:7000")).unwrap();
        cl.sync_phases_to_map();
        assert!(cl.check(keys(&[b"foo"]), false).unwrap().is_none());
        // Migrating: served, with an in-flight guard.
        cl.set_phase_range(slot, slot, PHASE_MIGRATING);
        let guard = cl.check(keys(&[b"foo"]), false).unwrap();
        assert!(guard.is_some());
        assert_eq!(cl.migrating_inflight(), 1);
        drop(guard);
        assert_eq!(cl.migrating_inflight(), 0);
        // Handoff: ASK to the migration target.
        cl.migration.lock().target = "10.0.0.9:7001".into();
        cl.set_phase_range(slot, slot, PHASE_HANDOFF);
        let Err(Value::Error(e)) = cl.check(keys(&[b"foo"]), false) else {
            panic!("handoff must redirect")
        };
        assert_eq!(e, format!("ASK {slot} 10.0.0.9:7001"));
        // Importing: only ASKING connections are served.
        cl.set_phase_range(slot, slot, PHASE_IMPORTING);
        assert!(matches!(cl.check(keys(&[b"foo"]), false), Err(Value::Error(e)) if e.starts_with("MOVED")));
        assert!(cl.check(keys(&[b"foo"]), true).unwrap().is_none());
    }

    #[test]
    fn crossslot_is_rejected_and_hash_tags_allow_multikey() {
        let cl = state("127.0.0.1:7000");
        cl.update_map(|m| m.assign(0, NUM_SLOTS - 1, "127.0.0.1:7000")).unwrap();
        cl.sync_phases_to_map();
        let Err(Value::Error(e)) = cl.check(keys(&[b"foo", b"bar"]), false) else {
            panic!("foo (12182) and bar (5061) must not share a command")
        };
        assert!(e.starts_with("CROSSSLOT"), "{e}");
        // Same hash tag → same slot → allowed.
        assert!(cl
            .check(keys(&[b"{user1}.a", b"{user1}.b"]), false)
            .unwrap()
            .is_none());
    }

    #[test]
    fn frozen_slot_times_out_with_tryagain() {
        let cl = state("127.0.0.1:7000");
        let slot = key_slot(b"foo");
        cl.set_phase_range(slot, slot, PHASE_FROZEN);
        let started = Instant::now();
        let Err(Value::Error(e)) = cl.check(keys(&[b"foo"]), false) else {
            panic!("permanently frozen slot must eventually TRYAGAIN")
        };
        assert!(e.starts_with("TRYAGAIN"), "{e}");
        assert!(started.elapsed() >= FROZEN_WAIT, "must have waited out the freeze window");
        // A thaw mid-wait is picked up.
        cl.set_phase_range(slot, slot, PHASE_FROZEN);
        let cl2 = cl.clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            cl2.set_phase_range(slot, slot, PHASE_MINE);
        });
        assert!(cl.check(keys(&[b"foo"]), false).unwrap().is_none());
        t.join().unwrap();
    }
}
