//! The stats table: every field `INFO`, `CLUSTER INFO` and `/metrics`
//! print, declared once, in one row: its INFO sections and field name,
//! how to read it from a [`Sample`], and, when `/metrics` exports it too,
//! its place in the scrape, TYPE, Prometheus name and HELP. A section
//! prints its rows in table order; the scrape prints the exported rows
//! by place. A new stat is one row (a new series takes a free place).
//!
//! A row that does not apply (a replica's master on a primary, cluster
//! fields outside cluster mode) reads `None` and prints nothing. The
//! per-shard series have a table of their own over [`ShardTelemetry`];
//! what is not one value per row (per-shard INFO lines, replica sinks,
//! latency histograms) is written by hand after its section's rows.

use std::cell::OnceCell;
use std::fmt::{Display, Write};
use std::sync::atomic::Ordering::{Relaxed, SeqCst};

use parking_lot::MutexGuard;

use crate::cluster::{ClusterState, MigrationStatus};
use crate::engine::{ShardTelemetry, ShardedDash};
use crate::server::{Inner, Role};

use super::{CmdFamily, HistSnapshot, Metrics};

/// INFO's section headers in print order: a row's `sections` has bit
/// `i` set to be printed under `SECTIONS[i]`.
const SECTIONS: [&str; 8] =
    ["dash-server", "replication", "stats", "memory", "latency", "keyspace", "shards", "cluster"];
const SERVER: u8 = 1;
const REPLICATION: u8 = 1 << 1;
const STATS: u8 = 1 << 2;
const MEMORY: u8 = 1 << 3;
const LATENCY: u8 = 1 << 4;
const KEYSPACE: u8 = 1 << 5;
const SHARDS: u8 = 1 << 6;
/// `CLUSTER INFO`.
pub(crate) const CLUSTER: u8 = 1 << 7;
/// A bare `INFO`: every section that is O(shards).
pub(crate) const DEFAULT: u8 = SERVER | REPLICATION | STATS | MEMORY | LATENCY | SHARDS;

/// The section `INFO <word>` prints on its own: replication through keyspace.
pub(crate) fn named(word: &[u8]) -> Option<u8> {
    (1..=5).find(|&i| word.eq_ignore_ascii_case(SECTIONS[i].as_bytes())).map(|i| 1 << i)
}

/// A row's value as printed.
fn v(value: impl Display) -> Option<String> {
    Some(value.to_string())
}

/// A shard's record bytes written minus retired since open (negative
/// once recovery retires records an earlier run wrote).
fn blob_net(t: &ShardTelemetry) -> i64 {
    t.blob_bytes_written as i64 - t.blob_bytes_released as i64
}

/// What one render reads: the server, and the per-shard telemetry walk,
/// taken once and only if a printed row needs it.
pub(crate) struct Sample<'a> {
    pub(crate) inner: &'a Inner,
    engine: &'a ShardedDash,
    m: &'a Metrics,
    shards: OnceCell<Vec<ShardTelemetry>>,
}

impl<'a> Sample<'a> {
    pub(crate) fn new(inner: &'a Inner) -> Sample<'a> {
        Sample { inner, engine: &inner.engine, m: &inner.metrics, shards: OnceCell::new() }
    }

    pub(crate) fn shards(&self) -> &[ShardTelemetry] {
        self.shards.get_or_init(|| self.engine.shard_telemetry())
    }

    fn sum(&self, f: fn(&ShardTelemetry) -> u64) -> Option<String> {
        v(self.shards().iter().map(f).sum::<u64>())
    }

    fn replica(&self) -> Option<&'a Inner> {
        (self.inner.role() == Role::Replica).then_some(self.inner)
    }

    fn cluster(&self) -> Option<&'a ClusterState> {
        self.inner.cluster.as_deref()
    }

    /// The outbound migration, once one has started.
    fn migration(&self) -> Option<MutexGuard<'a, MigrationStatus>> {
        self.cluster().map(|c| c.migration.lock()).filter(|m| m.state != "none")
    }
}

/// A Prometheus series: its TYPE, name and HELP.
pub(crate) type Prom = (&'static str, &'static str, &'static str);

/// One row of the table.
pub(crate) struct Stat {
    sections: u8,
    field: &'static str,
    pub(crate) read: fn(&Sample) -> Option<String>,
    /// Its place in the scrape (rows print by ascending place) and its
    /// series, when `/metrics` exports it.
    pub(crate) export: Option<(u8, Prom)>,
}

const fn row(sections: u8, field: &'static str, read: fn(&Sample) -> Option<String>) -> Stat {
    Stat { sections, field, read, export: None }
}

impl Stat {
    const fn prom(mut self, at: u8, series: Prom) -> Stat {
        self.export = Some((at, series));
        self
    }
}

const C: &str = "counter";
const G: &str = "gauge";

/// Section by section, in the order INFO prints the fields.
#[rustfmt::skip]
pub(crate) static ROWS: &[Stat] = &[
    row(SERVER, "shards",                 |s| v(s.engine.shard_count())),
    row(SERVER | KEYSPACE, "keys",        |s| v(s.engine.len())),
    row(SERVER, "recovered_shards",       |s| v(s.engine.recovered_shards())),
    row(SERVER, "event_workers",          |s| v(s.inner.event_workers)).prom(6, (G, "dash_event_workers", "Event-loop worker pool size.")),

    row(REPLICATION, "role",              |s| v(if s.replica().is_some() { "replica" } else { "primary" })),
    // A primary's ops published since the store was created; a replica's
    // primary-numbered position applied. Equal on a quiesced pair: the
    // replica holds every acknowledged write.
    row(REPLICATION, "repl_offset",       |s| v(s.replica().map_or_else(|| s.engine.repl_offset(), |r| r.applied_offset.load(SeqCst)))).prom(20, (C, "dash_repl_offset", "Replication stream offset (ops since store creation).")),
    row(REPLICATION, "connected_replicas", |s| v(s.engine.connected_replicas())).prom(22, (G, "dash_repl_connected_replicas", "Live replica streams.")),
    row(REPLICATION, "log_append_errors", |s| v(s.engine.log_append_errors())).prom(23, (C, "dash_log_append_errors_total", "Redo-log records dropped by a failed write (ops applied, records missing).")),
    row(REPLICATION, "repl_log_flushes",  |s| v(s.engine.repl_log_flushes())).prom(21, (C, "dash_repl_log_flushes_total", "write(2) calls the redo logs issued for records since open (records per flush is the group-commit batching factor).")),
    row(REPLICATION, "repl_log_bytes",    |s| v(s.engine.repl_log_bytes())).prom(25, (G, "dash_repl_log_bytes", "Total bytes across the per-shard redo logs.")),
    row(REPLICATION, "repl_log_segments", |s| v(s.engine.repl_log_segments())).prom(26, (G, "dash_repl_log_segments", "Sealed redo-log segments on disk across shards.")),
    row(REPLICATION, "repl_log_open_scanned_bytes", |s| v(s.engine.repl_log_open_cost().scanned_bytes)).prom(27, (G, "dash_repl_log_open_scanned_bytes", "Redo-log bytes read and validated by the last store open (bounded by the segment cap per shard).")),
    row(REPLICATION, "repl_log_open_us",  |s| v(s.engine.repl_log_open_cost().micros)).prom(28, (G, "dash_repl_log_open_us", "Microseconds the last store open spent reopening the redo logs.")),
    row(REPLICATION, "master_addr",       |s| v(s.replica()?.master_addr.as_ref()?)),
    row(REPLICATION, "master_link",       |s| v(if s.replica()?.link_up.load(SeqCst) { "up" } else { "down" })),

    row(STATS, "connections_accepted",    |s| v(s.m.connections_accepted.get())).prom(1, (C, "dash_connections_accepted_total", "Connections accepted.")),
    row(STATS, "commands_served",         |s| v(s.m.commands_served.get())).prom(2, (C, "dash_commands_served_total", "Commands decoded and executed.")),
    row(STATS, "active_connections",      |s| v(s.m.active_connections.get())).prom(5, (G, "dash_active_connections", "Connections currently registered on an event loop.")),
    row(STATS, "accept_errors",           |s| v(s.m.accept_errors.get())).prom(3, (C, "dash_accept_errors_total", "Accept-loop errors survived (EMFILE and friends).")),
    row(STATS, "worker_panics",           |s| v(s.m.worker_panics.get())).prom(4, (C, "dash_worker_panics_total", "Caught connection-handler and worker panics.")),
    row(STATS, "slowlog_len",             |s| v(s.m.slowlog.len())).prom(7, (G, "dash_slowlog_len", "Entries currently retained in the SLOWLOG ring.")),
    row(STATS, "slowlog_threshold_us",    |s| v(s.m.slowlog.threshold_us())),
    row(STATS, "trace_enabled",           |s| v(u8::from(s.inner.tracer.enabled()))),
    row(STATS, "trace_sample_every",      |s| v(s.inner.tracer.sample_every())),
    row(STATS, "traces_captured",         |s| v(s.inner.tracer.captured_total())).prom(8, (C, "dash_traces_captured_total", "Request spans captured into the flight recorder.")),
    row(STATS, "traces_abandoned",        |s| v(s.inner.tracer.abandoned_total())).prom(9, (C, "dash_traces_abandoned_total", "Captured spans whose reply flush was never observed.")),
    // Hinted keys ÷ windows: how many lookups a pipelined tick or a
    // multi-key call overlapped.
    row(STATS, "prefetch_windows",        |s| v(s.engine.prefetch_windows_total())).prom(18, (C, "dash_prefetch_windows_total", "Lookup hints issued for two or more keys (pipeline windows and multi-key calls).")),
    row(STATS, "prefetch_keys",           |s| v(s.engine.prefetch_keys_total())).prom(19, (C, "dash_prefetch_keys_total", "Keys those hints covered.")),
    row(STATS, "epoch_pins",              |s| s.sum(|t| t.epoch_pins)),
    row(STATS, "write_lock_waits",        |s| s.sum(|t| t.write_lock_waits)),
    row(STATS, "eh_splits",               |s| s.sum(|t| t.eh_splits)),
    row(STATS, "eh_doublings",            |s| s.sum(|t| t.eh_doublings)),
    row(STATS, "eh_merges",               |s| s.sum(|t| t.eh_merges)),
    row(STATS, "blob_bytes_net",          |s| v(s.shards().iter().map(blob_net).sum::<i64>())),
    row(STATS, "expired_keys",            |s| v(s.engine.expired_keys_total())).prom(13, (C, "dash_expired_keys_total", "Keys removed because their TTL deadline passed (lazy + active + sweep).")),
    row(STATS, "evicted_keys",            |s| v(s.engine.evicted_keys_total())).prom(14, (C, "dash_evicted_keys_total", "Keys evicted by the maxmemory policy.")),
    row(STATS, "oom_rejections",          |s| v(s.engine.oom_rejections_total())).prom(15, (C, "dash_oom_rejections_total", "Writes rejected with -OOM (eviction could not make room).")),
    row(STATS, "compactions",             |s| v(s.engine.compactions_total())).prom(16, (C, "dash_compactions_total", "Record reclamation passes that freed space.")),
    row(STATS, "reclaimed_bytes",         |s| v(s.engine.reclaimed_bytes_total())).prom(17, (C, "dash_reclaimed_bytes_total", "Bytes returned to the free lists by reclamation.")),
    row(STATS, "repl_reconnects",         |s| v(s.m.repl_reconnects.get())).prom(24, (C, "dash_repl_reconnects_total", "Replica-side reconnects to the primary.")),

    row(MEMORY, "maxmemory",              |s| v(s.engine.max_memory().unwrap_or(0))).prom(10, (G, "dash_maxmemory_bytes", "Configured memory budget (0 = unlimited).")),
    row(MEMORY, "maxmemory_policy",       |s| v(s.engine.eviction_policy().name())),
    row(MEMORY, "mem_used_bytes",         |s| v(s.engine.mem_used())).prom(11, (G, "dash_mem_used_bytes", "Pool bytes counted against the budget: table, records and pending frees.")),
    row(MEMORY, "dead_bytes",             |s| v(s.engine.dead_bytes())),
    row(MEMORY, "expire_wheel_entries",   |s| v(s.engine.wheel_entries())).prom(12, (G, "dash_expire_wheel_entries", "Timer-wheel entries queued for active expiry.")),

    // The full-scan ground truth beside `keys`, and the one O(keys) read:
    // a difference that persists on a quiescent server is counter drift.
    row(KEYSPACE, "scan_len",             |s| v(s.engine.scan_len())),

    row(CLUSTER, "cluster_enabled",       |s| s.cluster().and(v(1))).prom(29, (G, "dash_cluster_enabled", "1 when this server runs in cluster mode.")),
    row(CLUSTER, "cluster_state",         |s| v(if s.cluster()?.slot_counts().0 == crate::NUM_SLOTS as usize { "ok" } else { "down" })),
    row(CLUSTER, "cluster_announce",      |s| v(&s.cluster()?.announce)),
    row(CLUSTER, "cluster_epoch",         |s| v(s.cluster()?.epoch())).prom(30, (G, "dash_cluster_epoch", "Slot-map epoch (bumps on every topology change).")),
    row(CLUSTER, "cluster_slots_assigned", |s| v(s.cluster()?.slot_counts().0)).prom(31, (G, "dash_cluster_slots_assigned", "Slots with a known owner in this node's map.")),
    row(CLUSTER, "cluster_slots_owned",   |s| v(s.cluster()?.slot_counts().1)).prom(32, (G, "dash_cluster_slots_owned", "Slots this node owns.")),
    row(CLUSTER, "cluster_known_nodes",   |s| v(s.cluster()?.known_nodes())),
    row(CLUSTER, "moved_redirects",       |s| v(s.cluster()?.moved_redirects.load(Relaxed))).prom(33, (C, "dash_cluster_moved_redirects_total", "MOVED redirects issued.")),
    row(CLUSTER, "ask_redirects",         |s| v(s.cluster()?.ask_redirects.load(Relaxed))).prom(34, (C, "dash_cluster_ask_redirects_total", "ASK redirects issued.")),
    row(CLUSTER, "migrations_started",    |s| v(s.cluster()?.migrations_started.load(Relaxed))).prom(35, (C, "dash_cluster_migrations_started_total", "Slot migrations started on this node (source side).")),
    row(CLUSTER, "migrations_completed",  |s| v(s.cluster()?.migrations_completed.load(Relaxed))).prom(36, (C, "dash_cluster_migrations_completed_total", "Slot migrations completed (ownership flipped).")),
    row(CLUSTER, "migrations_failed",     |s| v(s.cluster()?.migrations_failed.load(Relaxed))).prom(37, (C, "dash_cluster_migrations_failed_total", "Slot migrations aborted before the flip.")),
    row(CLUSTER, "keys_migrated",         |s| v(s.cluster()?.keys_migrated_total.load(Relaxed))).prom(38, (C, "dash_cluster_keys_migrated_total", "Keys streamed to migration targets (bulk + tail).")),
    row(CLUSTER, "migration_active",      |s| v(u8::from(s.cluster()?.migration.lock().active))).prom(39, (G, "dash_cluster_migration_active", "1 while an outbound slot migration is running.")),
    row(CLUSTER, "migration_state",       |s| v(s.cluster()?.migration.lock().state)),
    row(CLUSTER, "migration_range",       |s| s.migration().and_then(|m| v(format_args!("{}-{}", m.start, m.end)))),
    row(CLUSTER, "migration_target",      |s| v(&s.migration()?.target)),
    row(CLUSTER, "migration_keys",        |s| s.migration().and_then(|_| v(s.cluster()?.migration_keys.load(Relaxed)))),
    row(CLUSTER, "migration_error",       |s| Some(s.cluster()?.migration.lock().error.replace(['\r', '\n'], " ")).filter(|e| !e.is_empty())),
    row(CLUSTER, "import_active",         |s| v(u8::from(s.cluster()?.import.lock().is_some()))),
    row(CLUSTER, "import_range",          |s| s.cluster()?.import.lock().as_ref().and_then(|i| v(format_args!("{}-{}", i.start, i.end)))),
    row(CLUSTER, "import_source",         |s| v(&s.cluster()?.import.lock().as_ref()?.source)),
];

/// A per-shard series and its read, printed `name{shard="i"}` per shard.
pub(crate) type ShardRow = (Prom, fn(&ShardTelemetry) -> String);

#[rustfmt::skip]
pub(crate) static SHARD_ROWS: &[ShardRow] = &[
    ((G, "dash_shard_keys", "Keys per shard (O(shards) counters, no scan)."), |t| t.keys.to_string()),
    ((G, "dash_shard_capacity_slots", "Table slot capacity per shard."), |t| t.capacity_slots.to_string()),
    ((G, "dash_shard_load_factor", "keys / capacity_slots per shard."), |t| (if t.capacity_slots == 0 { 0.0 } else { t.keys as f64 / t.capacity_slots as f64 }).to_string()),
    ((G, "dash_shard_blob_bytes", "Net record bytes (header, key and value) written minus retired since open."), |t| blob_net(t).to_string()),
    ((G, "dash_blob_dead_bytes", "Dead (retired, unreclaimed) record bytes per shard."), |t| t.dead_bytes.to_string()),
    ((C, "dash_eh_splits_total", "Dash-EH segment splits since open."), |t| t.eh_splits.to_string()),
    ((C, "dash_eh_doublings_total", "Dash-EH directory doublings since open."), |t| t.eh_doublings.to_string()),
    ((C, "dash_eh_merges_total", "Dash-EH segment merges since open."), |t| t.eh_merges.to_string()),
    ((C, "dash_write_lock_waits_total", "Shard write-lock acquisitions that had to wait."), |t| t.write_lock_waits.to_string()),
    ((C, "dash_epoch_pins_total", "Epoch pins taken by engine operations."), |t| t.epoch_pins.to_string()),
];

/// The INFO payload of the `sections` mask: per section, its header, its
/// rows and its hand-written lines, each `\r\n`-terminated.
pub(crate) fn info(inner: &Inner, sections: u8) -> String {
    let s = Sample::new(inner);
    let mut out = String::new();
    for (i, header) in SECTIONS.iter().enumerate().filter(|(i, _)| sections & 1 << i != 0) {
        let bit = 1 << i;
        let _ = write!(out, "# {header}\r\n");
        for row in ROWS.iter().filter(|r| r.sections & bit != 0) {
            if let Some(value) = (row.read)(&s) {
                let _ = write!(out, "{}:{value}\r\n", row.field);
            }
        }
        let shards = || s.shards().iter().enumerate();
        let _ = match bit {
            STATS => s.engine.replica_lags().iter().try_for_each(|(id, lag)| {
                write!(out, "replica_sink{id}:lag_ops={lag}\r\n")
            }),
            MEMORY => shards().try_for_each(|(i, t)| {
                write!(out, "shard{i}:mem_used={},dead={}\r\n", t.mem_used_bytes, t.dead_bytes)
            }),
            LATENCY => latency(&mut out, s.m),
            KEYSPACE => shards().try_for_each(|(i, t)| write!(out, "shard{i}_keys:{}\r\n", t.keys)),
            // How each shard came up.
            SHARDS => s.engine.shard_infos().iter().zip(shards()).try_for_each(|(info, (i, t))| {
                let (keys, version) = (t.keys, info.version);
                let (recovered, clean) = (u8::from(info.recovered), u8::from(info.clean));
                write!(out, "shard{i}:keys={keys},recovered={recovered},clean={clean},version={version}\r\n")
            }),
            _ => Ok(()),
        };
    }
    out
}

/// Per command family and then over all of them: the count, and once
/// there is a sample the p50/p99/p999 in microseconds (bucket upper
/// bounds: the histogram docs give the ~41 % quantization bound).
fn latency(out: &mut String, m: &Metrics) -> std::fmt::Result {
    let mut rows: Vec<_> = CmdFamily::ALL.iter().map(|&f| (f.name(), m.cmd_snapshot(f))).collect();
    let mut all = HistSnapshot::default();
    rows.iter().for_each(|(_, snap)| all.merge(snap));
    rows.push(("all", all));
    for (name, snap) in &rows {
        write!(out, "cmd_{name}_count:{}\r\n", snap.count())?;
        for (label, q) in [("p50", 0.5), ("p99", 0.99), ("p999", 0.999)] {
            if let Some(ns) = snap.quantile_ns(q) {
                write!(out, "cmd_{name}_{label}_us:{}\r\n", ns.div_ceil(1_000))?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_is_declared_once_and_every_place_once() {
        let mut fields: Vec<&str> = ROWS.iter().map(|r| r.field).collect();
        let mut names: Vec<&str> = SHARD_ROWS.iter().map(|((_, name, _), _)| *name).collect();
        let mut places = Vec::new();
        for r in ROWS {
            assert!(r.sections != 0, "{} is in no section", r.field);
            if let Some((at, (kind, name, help))) = r.export {
                assert!(
                    name.starts_with("dash_") && !help.is_empty() && [C, G].contains(&kind),
                    "{name}"
                );
                names.push(name);
                places.push(at);
            }
        }
        for list in [&mut fields, &mut names] {
            let n = list.len();
            list.sort_unstable();
            list.dedup();
            assert_eq!(list.len(), n, "a name is declared twice");
        }
        places.sort_unstable();
        assert!(places.windows(2).all(|w| w[0] < w[1]), "two rows share a scrape place");
    }

    #[test]
    fn only_the_documented_sections_are_selectable() {
        let selectable = [
            ("replication", REPLICATION),
            ("STATS", STATS),
            ("Memory", MEMORY),
            ("latency", LATENCY),
            ("keyspace", KEYSPACE),
        ];
        for (word, bit) in selectable {
            assert_eq!(named(word.as_bytes()), Some(bit), "{word}");
        }
        for word in ["dash-server", "shards", "cluster", "bogus", ""] {
            assert_eq!(named(word.as_bytes()), None, "{word}");
        }
    }
}
