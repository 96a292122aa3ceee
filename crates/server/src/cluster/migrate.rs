//! Live slot migration, source side: stream a slot range to the target
//! with zero lost writes.
//!
//! The transfer reuses the replication machinery's snapshot+tail cut:
//!
//! 1. **Cut** — subscribe to the engine's op stream *first*. Every op
//!    counted after `start_offset` will arrive on the subscription; the
//!    bulk scan started afterwards observes everything at or before it.
//! 2. **Handshake** — `CLUSTER IMPORTING` at the target: it purges any
//!    stale keys in the range (a crashed earlier attempt) and starts
//!    accepting `ASKING`-prefixed writes for it.
//! 3. **Bulk** — walk the epoch-pinned scan, forward every in-range
//!    key's current value as `ASKING`+`SET`. Writers keep writing; their
//!    ops are queued on the subscription.
//! 4. **Tail** — replay the queued ops (in offset order, so last write
//!    wins) until the stream lag is small.
//! 5. **Flip** — freeze the range (`Frozen`: new commands wait), wait
//!    out the commands already past the dispatch gate (the in-flight
//!    guard count), take the write barrier, read the final offset, and
//!    drain the subscription up to it. At that point the target has
//!    *every* acknowledged write.
//! 6. **Takeover** — `CLUSTER TAKEOVER` at the target: it records
//!    ownership durably (epoch bump) and starts serving. From here the
//!    flip cannot be abandoned. A lost reply is resolved by probing
//!    with `CLUSTER IMPORT-ABORT`: if the abort succeeds the takeover
//!    never applied (the import was still open) and the source safely
//!    keeps ownership; if it reports no active import, the takeover
//!    committed and the flip proceeds.
//! 7. **Handoff → Remote** — redirect with `ASK` while the local map
//!    persists the new owner, then `MOVED` from the map.
//! 8. **Cleanup** — delete the moved keys locally (multi-pass, through
//!    the engine's normal delete path so logs, replicas and per-slot
//!    counters stay exact).
//!
//! Failures before step 6 abort cleanly: the source keeps ownership
//! (phases restored to `Mine`) and tells the target to drop the partial
//! import. Failures after step 6 are recorded but cannot un-flip — the
//! target already owns the range durably.

use std::sync::atomic::Ordering;
use std::sync::mpsc::{RecvTimeoutError, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::client::RespClient;
use crate::engine::ShardedDash;
use crate::repl::ReplOp;
use crate::resp::Value;
use crate::server::Inner;

use super::slots::key_slot;
use super::{
    ClusterState, PHASE_FROZEN, PHASE_HANDOFF, PHASE_MIGRATING, PHASE_MINE, PHASE_REMOTE,
};

const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);
/// Keys per epoch-pinned scan page during bulk copy.
const BULK_PAGE: usize = 512;
/// Forwarded ops per ack round-trip batch.
const ACK_BATCH: usize = 128;
/// Stream lag (ops) below which the tail is "caught up" and flips.
const TAIL_LAG_TARGET: u64 = 256;
/// Bound on the tail chase: if writers outrun the stream this long,
/// fail rather than freeze a range that can never drain.
const TAIL_DEADLINE: Duration = Duration::from_secs(120);
/// Bound on the frozen-range drain (milliseconds in practice).
const DRAIN_DEADLINE: Duration = Duration::from_secs(10);
/// Bound on waiting for gate-passed commands to finish after freezing.
const FENCE_DEADLINE: Duration = Duration::from_secs(5);

/// Validate and launch `CLUSTER MIGRATE start end target` on a
/// background thread. The `+OK` means "migration started", not done —
/// poll `CLUSTER INFO` (`migration_active` / `migration_state`).
pub(crate) fn start(
    cl: &Arc<ClusterState>,
    start: u16,
    end: u16,
    target: String,
) -> Result<(), String> {
    if target.is_empty() {
        return Err("target address must not be empty".into());
    }
    if target == cl.announce {
        return Err("cannot migrate a range to this node itself".into());
    }
    let Some(inner) = cl.inner() else {
        return Err("server is not ready".into());
    };
    let mut mig = cl.migration.lock();
    if mig.active {
        return Err(format!(
            "a migration of {}-{} to {} is already active",
            mig.start, mig.end, mig.target
        ));
    }
    for slot in start..=end {
        if cl.phase_of(slot) != PHASE_MINE {
            return Err(format!("slot {slot} is not owned (and idle) by this node"));
        }
    }
    *mig = super::MigrationStatus {
        active: true,
        start,
        end,
        target: target.clone(),
        state: "bulk",
        error: String::new(),
    };
    cl.migration_keys.store(0, Ordering::Relaxed);
    cl.migrations_started.fetch_add(1, Ordering::Relaxed);
    let mut slot_thread = cl.migration_thread.lock();
    if let Some(prev) = slot_thread.take() {
        // The previous migration already finished (active was false);
        // reap its thread.
        let _ = prev.join();
    }
    let cl2 = cl.clone();
    let handle = std::thread::Builder::new()
        .name("dash-migrate".into())
        .spawn(move || run(cl2, inner, start, end, target))
        .map_err(|e| {
            mig.active = false;
            mig.state = "failed";
            mig.error = format!("cannot spawn migration thread: {e}");
            e.to_string()
        })?;
    *slot_thread = Some(handle);
    Ok(())
}

fn run(cl: Arc<ClusterState>, inner: Arc<Inner>, start: u16, end: u16, target: String) {
    match migrate(&cl, &inner, start, end, &target) {
        Ok(()) => {
            cl.migrations_completed.fetch_add(1, Ordering::Relaxed);
            let mut mig = cl.migration.lock();
            mig.active = false;
            mig.state = "done";
        }
        Err(e) => {
            // Pre-takeover failure: this node still owns the range —
            // resume serving it and tell the target to drop what it
            // imported so far.
            cl.set_phase_range(start, end, PHASE_MINE);
            cl.migrations_failed.fetch_add(1, Ordering::Relaxed);
            {
                let mut mig = cl.migration.lock();
                mig.active = false;
                mig.state = "failed";
                mig.error = e;
            }
            let (s, t) = (start.to_string(), end.to_string());
            if let Ok(mut conn) = RespClient::connect_timeout(&target, CONNECT_TIMEOUT) {
                let _ = conn.command(&[b"CLUSTER", b"IMPORT-ABORT", s.as_bytes(), t.as_bytes()]);
            }
        }
    }
}

fn set_state(cl: &ClusterState, state: &'static str) {
    cl.migration.lock().state = state;
}

fn check_shutdown(inner: &Inner) -> Result<(), String> {
    if inner.shutdown.load(Ordering::SeqCst) {
        return Err("server is shutting down".into());
    }
    Ok(())
}

/// The migration proper. `Err` is only possible before the takeover
/// commits at the target; afterwards problems are recorded as soft
/// errors on the (successful) migration status.
fn migrate(
    cl: &ClusterState,
    inner: &Inner,
    start: u16,
    end: u16,
    target: &str,
) -> Result<(), String> {
    let engine = &inner.engine;
    let in_range = |key: &[u8]| (start..=end).contains(&key_slot(key));
    let (start_arg, end_arg) = (start.to_string(), end.to_string());

    // 1. Cut: subscribe before scanning, exactly like PSYNC.
    let sub = engine.repl_subscribe();

    // 2. Handshake.
    let mut conn = RespClient::connect_timeout(target, CONNECT_TIMEOUT)
        .map_err(|e| format!("cannot reach target {target}: {e}"))?;
    // A crashed previous attempt can leave the target with our range
    // still marked importing (its import state is volatile but the
    // target may not have restarted). We are the durable owner of the
    // range — no one else can legitimately be importing it — so a
    // same-range refusal is cleared with IMPORT-ABORT and retried once,
    // which also re-purges the half-imported keys.
    for attempt in 0..2 {
        let reply = conn
            .command(&[
                b"CLUSTER",
                b"IMPORTING",
                start_arg.as_bytes(),
                end_arg.as_bytes(),
                cl.announce.as_bytes(),
            ])
            .map_err(|e| format!("IMPORTING handshake with {target}: {e}"))?;
        match reply {
            Value::Simple(_) => break,
            Value::Error(e) if attempt == 0 && e.contains("already active") => {
                let abort = conn
                    .command(&[
                        b"CLUSTER",
                        b"IMPORT-ABORT",
                        start_arg.as_bytes(),
                        end_arg.as_bytes(),
                    ])
                    .map_err(|e| format!("IMPORT-ABORT at {target}: {e}"))?;
                if let Value::Error(e) = abort {
                    return Err(format!("target stuck importing another range: {e}"));
                }
            }
            Value::Error(e) => return Err(format!("target refused the import: {e}")),
            other => return Err(format!("unexpected IMPORTING reply: {other:?}")),
        }
    }

    // 3. Source serves the range normally while it streams out.
    cl.set_phase_range(start, end, PHASE_MIGRATING);

    // 4. Bulk copy through the epoch-pinned scan.
    let mut pending: Vec<bool> = Vec::with_capacity(ACK_BATCH);
    let mut cursor = 0u64;
    loop {
        check_shutdown(inner)?;
        let (next, keys) = engine
            .scan_keys(cursor, BULK_PAGE)
            .map_err(|e| format!("bulk scan: {e}"))?;
        for key in keys {
            if !in_range(&key) {
                continue;
            }
            // A concurrent DEL may have removed it; the tail replays
            // that DEL, so skipping here is correct either way.
            let Some((value, expire_at_ms)) =
                engine.get_with_expiry(&key).map_err(|e| format!("bulk get: {e}"))?
            else {
                continue;
            };
            conn.enqueue(&[b"ASKING"]);
            if expire_at_ms == 0 {
                conn.enqueue(&[b"SET", &key, &value]);
            } else {
                // The source's absolute deadline travels with the key —
                // the target never re-derives time.
                conn.enqueue(&[
                    b"SET",
                    &key,
                    &value,
                    b"PXAT",
                    expire_at_ms.to_string().as_bytes(),
                ]);
            }
            pending.push(false);
            cl.migration_keys.fetch_add(1, Ordering::Relaxed);
            cl.keys_migrated_total.fetch_add(1, Ordering::Relaxed);
            if pending.len() >= ACK_BATCH {
                flush_acks(&mut conn, &mut pending)?;
            }
        }
        if next == 0 {
            break;
        }
        cursor = next;
    }
    flush_acks(&mut conn, &mut pending)?;

    // 5a. Tail: replay concurrent writes until the lag is small.
    set_state(cl, "tail");
    let mut received = 0u64;
    let tail_deadline = Instant::now() + TAIL_DEADLINE;
    loop {
        check_shutdown(inner)?;
        loop {
            match sub.try_recv() {
                Ok(op) => {
                    received += 1;
                    forward(cl, &mut conn, &mut pending, &op.op, &in_range);
                    if pending.len() >= ACK_BATCH {
                        flush_acks(&mut conn, &mut pending)?;
                    }
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    return Err("op stream overflowed during migration; re-run".into());
                }
            }
        }
        flush_acks(&mut conn, &mut pending)?;
        let lag = engine.repl_offset().saturating_sub(sub.start_offset + received);
        if lag <= TAIL_LAG_TARGET {
            break;
        }
        if Instant::now() >= tail_deadline {
            return Err(format!("write load outran the migration tail (lag {lag} ops)"));
        }
        std::thread::sleep(Duration::from_millis(2));
    }

    // 5b. Flip fence: freeze, let gate-passed commands finish, then
    // drain the stream to the final offset. After this drain the target
    // holds every acknowledged write to the range.
    set_state(cl, "flip");
    cl.set_phase_range(start, end, PHASE_FROZEN);
    let fence_deadline = Instant::now() + FENCE_DEADLINE;
    while cl.migrating_inflight() != 0 {
        if Instant::now() >= fence_deadline {
            return Err("in-flight commands never drained after freeze".into());
        }
        std::thread::sleep(Duration::from_micros(50));
    }
    engine.write_barrier();
    let cut = engine.repl_offset().saturating_sub(sub.start_offset);
    let drain_deadline = Instant::now() + DRAIN_DEADLINE;
    while received < cut {
        match sub.recv_timeout(Duration::from_millis(50)) {
            Ok(op) => {
                received += 1;
                forward(cl, &mut conn, &mut pending, &op.op, &in_range);
            }
            Err(RecvTimeoutError::Timeout) => {
                if Instant::now() >= drain_deadline {
                    return Err(format!(
                        "stream drain stalled at {received}/{cut} ops before the flip"
                    ));
                }
            }
            Err(RecvTimeoutError::Disconnected) => {
                return Err("op stream overflowed during the flip".into());
            }
        }
    }
    flush_acks(&mut conn, &mut pending)?;

    // 6. Takeover: the target records ownership durably and serves.
    let epoch = cl.epoch() + 1;
    let epoch_arg = epoch.to_string();
    let takeover = conn.command(&[
        b"CLUSTER",
        b"TAKEOVER",
        start_arg.as_bytes(),
        end_arg.as_bytes(),
        epoch_arg.as_bytes(),
    ]);
    match takeover {
        Ok(Value::Simple(_)) => {}
        Ok(Value::Error(e)) => return Err(format!("target refused takeover: {e}")),
        Ok(other) => return Err(format!("unexpected TAKEOVER reply: {other:?}")),
        Err(io_err) => {
            // Reply lost mid-flight: the takeover may or may not have
            // applied. Resolve by trying to abort the import on a fresh
            // connection — IMPORT-ABORT succeeds only while the import
            // is still open, i.e. only if the takeover did NOT commit.
            if !takeover_resolved_as_committed(target, &start_arg, &end_arg)? {
                return Err(format!(
                    "takeover reply lost and the target aborted the import; \
                     this node keeps the range ({io_err})"
                ));
            }
        }
    }

    // --- Point of no return: the target durably owns the range. ---

    // 7. ASK while the local map catches up, then MOVED from the map.
    cl.set_phase_range(start, end, PHASE_HANDOFF);
    let mut soft_errors: Vec<String> = Vec::new();
    if let Err(e) = cl.update_map_commit(|m| {
        m.assign(start, end, target);
        m.bump_epoch(epoch);
    }) {
        // The in-memory map still flipped (update_map_commit commits
        // regardless): redirects are correct, only durability lags.
        soft_errors.push(format!("slot map persist failed: {e}"));
    }
    cl.set_phase_range(start, end, PHASE_REMOTE);

    // 8. Cleanup. Drop the subscription first so our own deletes don't
    // queue on it, and delete through the engine's normal path so logs,
    // replicas and slot counters stay exact.
    drop(sub);
    set_state(cl, "cleanup");
    if let Err(e) = purge_range(engine, start, end) {
        soft_errors.push(format!("local cleanup failed: {e}"));
    }
    if !soft_errors.is_empty() {
        cl.migration.lock().error = soft_errors.join("; ");
    }
    Ok(())
}

/// Disambiguate a lost TAKEOVER reply. `Ok(true)`: committed — finish
/// the flip. `Ok(false)`: not committed (the target aborted the still-
/// open import) — the source keeps ownership. `Err`: target unreachable,
/// genuinely unresolvable; fail safe by keeping ownership.
fn takeover_resolved_as_committed(
    target: &str,
    start_arg: &str,
    end_arg: &str,
) -> Result<bool, String> {
    let probe_deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match RespClient::connect_timeout(target, CONNECT_TIMEOUT).and_then(|mut c| {
            c.command(&[b"CLUSTER", b"IMPORT-ABORT", start_arg.as_bytes(), end_arg.as_bytes()])
        }) {
            Ok(Value::Simple(_)) => return Ok(false),
            Ok(_) => return Ok(true), // "no active import" → takeover committed
            Err(_) if Instant::now() < probe_deadline => {
                std::thread::sleep(Duration::from_millis(500));
            }
            Err(e) => {
                return Err(format!(
                    "takeover outcome unknown: reply lost and target unreachable ({e}); \
                     this node keeps the range — verify the target's CLUSTER INFO"
                ));
            }
        }
    }
}

/// Queue one tail op for the target (ASKING + SET/DEL).
fn forward(
    cl: &ClusterState,
    conn: &mut RespClient,
    pending: &mut Vec<bool>,
    op: &ReplOp,
    in_range: &impl Fn(&[u8]) -> bool,
) {
    if !in_range(op.key()) {
        return;
    }
    conn.enqueue(&[b"ASKING"]);
    match op {
        ReplOp::Set { key, value } => {
            conn.enqueue(&[b"SET", key, value]);
            pending.push(false);
        }
        // TTLs migrate as the absolute deadline the source's primary
        // computed — the target never re-derives time.
        ReplOp::SetEx { key, value, expire_at_ms } => {
            conn.enqueue(&[b"SET", key, value, b"PXAT", expire_at_ms.to_string().as_bytes()]);
            pending.push(false);
        }
        ReplOp::Del { key } => {
            conn.enqueue(&[b"DEL", key]);
            pending.push(true);
        }
    }
    cl.migration_keys.fetch_add(1, Ordering::Relaxed);
    cl.keys_migrated_total.fetch_add(1, Ordering::Relaxed);
}

/// Ship the queued ops and verify every ack: each op is an `ASKING`
/// (`+OK`) followed by a `SET` (`+OK`) or `DEL` (integer). Any error
/// reply fails the migration — a silently dropped op is a lost write.
fn flush_acks(conn: &mut RespClient, pending: &mut Vec<bool>) -> Result<(), String> {
    if pending.is_empty() {
        return Ok(());
    }
    conn.flush().map_err(|e| format!("stream to target: {e}"))?;
    for is_del in pending.drain(..) {
        match conn.read_reply().map_err(|e| format!("target ack: {e}"))? {
            Value::Simple(_) => {}
            Value::Error(e) => return Err(format!("target rejected ASKING: {e}")),
            other => return Err(format!("unexpected ASKING ack: {other:?}")),
        }
        let reply = conn.read_reply().map_err(|e| format!("target ack: {e}"))?;
        match (is_del, reply) {
            (false, Value::Simple(_)) | (true, Value::Integer(_)) => {}
            (_, Value::Error(e)) => return Err(format!("target rejected a migrated op: {e}")),
            (_, other) => return Err(format!("unexpected migrated-op ack: {other:?}")),
        }
    }
    Ok(())
}

/// Delete every key in `start..=end` through the engine's apply path
/// ([`ShardedDash::purge`]: multi-pass, each delete logged and published).
pub(crate) fn purge_range(engine: &ShardedDash, start: u16, end: u16) -> Result<u64, String> {
    engine
        .purge(|key| (start..=end).contains(&key_slot(key)))
        .map_err(|e| format!("purge: {e}"))
}
