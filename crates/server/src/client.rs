//! A minimal blocking RESP2 client with explicit pipelining — what
//! `dash-loadgen`, the integration tests and the CI smoke job speak to
//! the server with.
//!
//! `enqueue` buffers requests locally; `flush` ships the whole batch in
//! one write; `read_reply` then yields the replies in order. `command`
//! is the one-shot convenience wrapping all three.

use std::io::{ErrorKind, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::time::Duration;

use crate::cluster::slots::key_slot;
use crate::net::sys::read_spare;
use crate::resp::{decode_value, encode_command, Decode, Value};

/// Least spare read-buffer capacity a `read` is issued with.
const READ_CHUNK: usize = 16 * 1024;

pub struct RespClient {
    stream: TcpStream,
    wbuf: Vec<u8>,
    rbuf: Vec<u8>,
    /// Bytes of `rbuf` already decoded into replies.
    rpos: usize,
}

impl RespClient {
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(RespClient { stream, wbuf: Vec::new(), rbuf: Vec::new(), rpos: 0 })
    }

    /// Connect with a deadline, and apply the same deadline to every
    /// subsequent read and write: a dead or wedged node fails fast with
    /// `TimedOut` instead of blocking forever. [`RespClient::connect`]
    /// keeps the historical fully-blocking behavior.
    pub fn connect_timeout(addr: &str, timeout: Duration) -> std::io::Result<Self> {
        let mut last_err = None;
        for resolved in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&resolved, timeout) {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    stream.set_read_timeout(Some(timeout))?;
                    stream.set_write_timeout(Some(timeout))?;
                    return Ok(RespClient { stream, wbuf: Vec::new(), rbuf: Vec::new(), rpos: 0 });
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| {
            std::io::Error::new(ErrorKind::InvalidInput, format!("{addr:?} resolved to nothing"))
        }))
    }

    /// Append one command to the outgoing pipeline (not sent yet).
    pub fn enqueue(&mut self, parts: &[&[u8]]) {
        encode_command(parts, &mut self.wbuf);
    }

    /// Ship every enqueued command in one write.
    pub fn flush(&mut self) -> std::io::Result<()> {
        if !self.wbuf.is_empty() {
            self.stream.write_all(&self.wbuf)?;
            self.wbuf.clear();
        }
        Ok(())
    }

    /// Read the next reply (blocking).
    pub fn read_reply(&mut self) -> std::io::Result<Value> {
        loop {
            match decode_value(&self.rbuf[self.rpos..]) {
                Ok(Decode::Complete(v, used)) => {
                    self.rpos += used;
                    // Compact once the buffer is fully drained so long
                    // pipelines don't accumulate forever.
                    if self.rpos == self.rbuf.len() {
                        self.rbuf.clear();
                        self.rpos = 0;
                    }
                    return Ok(v);
                }
                Ok(Decode::Incomplete) => {
                    // Straight into the buffer's spare capacity: no
                    // zeroed bounce buffer, no second copy.
                    self.rbuf.reserve(READ_CHUNK);
                    let n = read_spare(self.stream.as_raw_fd(), &mut self.rbuf).map_err(|e| {
                        // With a read timeout set, a silent server
                        // surfaces as WouldBlock/TimedOut depending on
                        // the platform; normalize to one clear error.
                        if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) {
                            std::io::Error::new(
                                ErrorKind::TimedOut,
                                "server did not reply within the read timeout",
                            )
                        } else {
                            e
                        }
                    })?;
                    if n == 0 {
                        return Err(std::io::Error::new(
                            ErrorKind::UnexpectedEof,
                            "server closed the connection mid-reply",
                        ));
                    }
                }
                Err(e) => {
                    return Err(std::io::Error::new(ErrorKind::InvalidData, e.to_string()));
                }
            }
        }
    }

    /// Send one command and wait for its reply.
    pub fn command(&mut self, parts: &[&[u8]]) -> std::io::Result<Value> {
        self.enqueue(parts);
        self.flush()?;
        self.read_reply()
    }

    // ---- typed multi-key conveniences -------------------------------------
    //
    // One wire command per call (the server executes the whole key set
    // through the engine's shard-grouped batch paths), with the reply
    // decoded into the natural Rust shape. Server `-ERR` replies and
    // shape mismatches surface as `InvalidData` errors.

    /// `MGET`: values in key order, `None` for absent keys.
    pub fn mget(&mut self, keys: &[&[u8]]) -> std::io::Result<Vec<Option<Vec<u8>>>> {
        let mut parts: Vec<&[u8]> = Vec::with_capacity(keys.len() + 1);
        parts.push(b"MGET");
        parts.extend_from_slice(keys);
        match self.command(&parts)? {
            Value::Array(items) if items.len() == keys.len() => items
                .into_iter()
                .map(|v| match v {
                    Value::Bulk(b) => Ok(Some(b)),
                    Value::Nil => Ok(None),
                    other => Err(bad_reply("MGET", &other)),
                })
                .collect(),
            other => Err(bad_reply("MGET", &other)),
        }
    }

    /// `MSET`: store every pair; the single `+OK` covers the whole batch.
    pub fn mset(&mut self, pairs: &[(&[u8], &[u8])]) -> std::io::Result<()> {
        let mut parts: Vec<&[u8]> = Vec::with_capacity(pairs.len() * 2 + 1);
        parts.push(b"MSET");
        for (k, v) in pairs {
            parts.push(k);
            parts.push(v);
        }
        match self.command(&parts)? {
            Value::Simple(s) if s == "OK" => Ok(()),
            other => Err(bad_reply("MSET", &other)),
        }
    }

    /// Variadic `DEL`: how many of the keys existed and were removed.
    pub fn del(&mut self, keys: &[&[u8]]) -> std::io::Result<i64> {
        self.integer_command(b"DEL", keys)
    }

    /// Variadic `EXISTS`: how many of the keys are present (repeats count).
    pub fn exists(&mut self, keys: &[&[u8]]) -> std::io::Result<i64> {
        self.integer_command(b"EXISTS", keys)
    }

    /// One `SCAN` page: `(next_cursor, keys)`. Pass cursor `0` to start;
    /// a returned `0` means the iteration is complete (Redis semantics).
    pub fn scan(&mut self, cursor: u64, count: usize) -> std::io::Result<(u64, Vec<Vec<u8>>)> {
        let cursor_arg = cursor.to_string().into_bytes();
        let count_arg = count.to_string().into_bytes();
        let reply = self.command(&[b"SCAN", &cursor_arg, b"COUNT", &count_arg])?;
        let Value::Array(mut parts) = reply else {
            return Err(bad_reply("SCAN", &reply));
        };
        if parts.len() != 2 {
            return Err(bad_reply("SCAN", &Value::Array(parts)));
        }
        let keys_value = parts.pop().expect("len checked");
        let cursor_value = parts.pop().expect("len checked");
        let next = match &cursor_value {
            Value::Bulk(b) => std::str::from_utf8(b)
                .ok()
                .and_then(|s| s.parse::<u64>().ok())
                .ok_or_else(|| bad_reply("SCAN", &cursor_value))?,
            other => return Err(bad_reply("SCAN", other)),
        };
        let Value::Array(items) = keys_value else {
            return Err(bad_reply("SCAN", &keys_value));
        };
        let keys = items
            .into_iter()
            .map(|v| match v {
                Value::Bulk(b) => Ok(b),
                other => Err(bad_reply("SCAN", &other)),
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok((next, keys))
    }

    /// Drain a full `SCAN` iteration into one key list (the cursor-driven
    /// equivalent of `KEYS *`, but paged — safe against huge keyspaces).
    pub fn scan_all(&mut self, count: usize) -> std::io::Result<Vec<Vec<u8>>> {
        let mut all = Vec::new();
        let mut cursor = 0u64;
        loop {
            let (next, mut keys) = self.scan(cursor, count)?;
            all.append(&mut keys);
            if next == 0 {
                return Ok(all);
            }
            cursor = next;
        }
    }

    /// `SNAPSHOT`: ask the server to stream an online backup to `path`
    /// on **its** filesystem; returns the record count.
    pub fn snapshot(&mut self, path: &str) -> std::io::Result<i64> {
        match self.command(&[b"SNAPSHOT", path.as_bytes()])? {
            Value::Integer(n) => Ok(n),
            other => Err(bad_reply("SNAPSHOT", &other)),
        }
    }

    // ---- typed INFO accessors ---------------------------------------------
    //
    // INFO is `key:value` lines; these pull single fields out so
    // replication tooling (loadgen's --wait-sync, the CI failover
    // drill, tests) doesn't re-implement the parsing. Every section is
    // O(shards) except `keyspace`, whose `scan_len` ground truth walks
    // every bucket — that one is opt-in via [`RespClient::keyspace_info`]
    // and deliberately absent from the default payload, so a 10 Hz
    // poll never inflicts an O(total keys) scan on a live server.

    /// The raw default `INFO` payload: server, replication, stats,
    /// latency and per-shard lines — all O(shards), safe to poll.
    pub fn info(&mut self) -> std::io::Result<String> {
        self.info_payload(&[b"INFO"])
    }

    /// The raw `INFO replication` payload (cheap: no key counts).
    pub fn replication_info(&mut self) -> std::io::Result<String> {
        self.info_payload(&[b"INFO", b"replication"])
    }

    /// The raw `INFO stats` payload: connection/command totals, event-
    /// core health counters, engine and replication telemetry.
    pub fn stats_info(&mut self) -> std::io::Result<String> {
        self.info_payload(&[b"INFO", b"stats"])
    }

    /// The raw `INFO latency` payload: per-command-family counts and
    /// histogram-derived p50/p99/p999 in microseconds.
    pub fn latency_info(&mut self) -> std::io::Result<String> {
        self.info_payload(&[b"INFO", b"latency"])
    }

    /// The raw `INFO keyspace` payload. **O(total keys)**: contains the
    /// `scan_len` full-iteration ground truth next to the O(shards)
    /// counter — the drift check, priced accordingly.
    pub fn keyspace_info(&mut self) -> std::io::Result<String> {
        self.info_payload(&[b"INFO", b"keyspace"])
    }

    fn info_payload(&mut self, cmd: &[&[u8]]) -> std::io::Result<String> {
        match self.command(cmd)? {
            Value::Bulk(text) => String::from_utf8(text).map_err(|_| {
                std::io::Error::new(ErrorKind::InvalidData, "INFO payload is not UTF-8")
            }),
            other => Err(bad_reply("INFO", &other)),
        }
    }

    /// One `field:value` line out of the full `INFO` (`None` when the
    /// server doesn't report that field).
    pub fn info_field(&mut self, field: &str) -> std::io::Result<Option<String>> {
        Ok(find_field(&self.info()?, field))
    }

    fn repl_field(&mut self, field: &str) -> std::io::Result<String> {
        find_field(&self.replication_info()?, field).ok_or_else(|| {
            std::io::Error::new(
                ErrorKind::InvalidData,
                format!("INFO replication has no {field} field"),
            )
        })
    }

    fn repl_u64(&mut self, field: &str) -> std::io::Result<u64> {
        let value = self.repl_field(field)?;
        value.parse().map_err(|_| {
            std::io::Error::new(
                ErrorKind::InvalidData,
                format!("INFO {field} is not an integer: {value:?}"),
            )
        })
    }

    /// `role`: `"primary"` or `"replica"`.
    pub fn role(&mut self) -> std::io::Result<String> {
        self.repl_field("role")
    }

    /// `repl_offset`: the server's replication stream position. Equal
    /// on a primary and its caught-up replica once writes quiesce.
    pub fn repl_offset(&mut self) -> std::io::Result<u64> {
        self.repl_u64("repl_offset")
    }

    /// `repl_log_flushes`: `write(2)` calls the redo logs have issued for
    /// records since the store was opened.
    pub fn repl_log_flushes(&mut self) -> std::io::Result<u64> {
        self.repl_u64("repl_log_flushes")
    }

    /// `connected_replicas`: live replica streams on a primary.
    pub fn connected_replicas(&mut self) -> std::io::Result<u64> {
        self.repl_u64("connected_replicas")
    }

    /// `master_link` on a replica: `"up"` or `"down"` (`None` on a
    /// primary, which reports no link).
    pub fn master_link(&mut self) -> std::io::Result<Option<String>> {
        Ok(find_field(&self.replication_info()?, "master_link"))
    }

    /// One integer field out of `INFO stats` (e.g. `"worker_panics"`,
    /// `"commands_served"`, `"eh_splits"`).
    pub fn stat_u64(&mut self, field: &str) -> std::io::Result<u64> {
        let text = self.stats_info()?;
        let value = find_field(&text, field).ok_or_else(|| {
            std::io::Error::new(
                ErrorKind::InvalidData,
                format!("INFO stats has no {field} field"),
            )
        })?;
        value.parse().map_err(|_| {
            std::io::Error::new(
                ErrorKind::InvalidData,
                format!("INFO stats {field} is not an integer: {value:?}"),
            )
        })
    }

    // ---- SLOWLOG ----------------------------------------------------------

    /// `SLOWLOG LEN`: entries currently retained in the ring.
    pub fn slowlog_len(&mut self) -> std::io::Result<i64> {
        match self.command(&[b"SLOWLOG", b"LEN"])? {
            Value::Integer(n) => Ok(n),
            other => Err(bad_reply("SLOWLOG LEN", &other)),
        }
    }

    /// `SLOWLOG RESET`: drop every retained entry (ids keep counting).
    pub fn slowlog_reset(&mut self) -> std::io::Result<()> {
        match self.command(&[b"SLOWLOG", b"RESET"])? {
            Value::Simple(s) if s == "OK" => Ok(()),
            other => Err(bad_reply("SLOWLOG RESET", &other)),
        }
    }

    /// `SLOWLOG GET n`: the most recent `n` slow commands, newest first.
    pub fn slowlog_get(&mut self, n: usize) -> std::io::Result<Vec<SlowlogEntry>> {
        let arg = n.to_string().into_bytes();
        let reply = self.command(&[b"SLOWLOG", b"GET", &arg])?;
        let Value::Array(items) = reply else {
            return Err(bad_reply("SLOWLOG GET", &reply));
        };
        items.into_iter().map(decode_slowlog_entry).collect()
    }

    // ---- TRACE ------------------------------------------------------------

    /// `TRACE ON [SAMPLE n]`: enable request tracing, optionally setting
    /// the 1-in-`n` sampling period.
    pub fn trace_on(&mut self, sample_every: Option<u64>) -> std::io::Result<()> {
        let reply = match sample_every {
            Some(n) => {
                let arg = n.to_string().into_bytes();
                self.command(&[b"TRACE", b"ON", b"SAMPLE", &arg])?
            }
            None => self.command(&[b"TRACE", b"ON"])?,
        };
        match reply {
            Value::Simple(s) if s == "OK" => Ok(()),
            other => Err(bad_reply("TRACE ON", &other)),
        }
    }

    /// `TRACE OFF`: stop capturing (rings keep their contents).
    pub fn trace_off(&mut self) -> std::io::Result<()> {
        match self.command(&[b"TRACE", b"OFF"])? {
            Value::Simple(s) if s == "OK" => Ok(()),
            other => Err(bad_reply("TRACE OFF", &other)),
        }
    }

    /// `TRACE DUMP n`: the most recent `n` captured spans, newest first.
    pub fn trace_dump(&mut self, n: usize) -> std::io::Result<Vec<TraceEntry>> {
        let arg = n.to_string().into_bytes();
        let reply = self.command(&[b"TRACE", b"DUMP", &arg])?;
        let Value::Array(items) = reply else {
            return Err(bad_reply("TRACE DUMP", &reply));
        };
        items.into_iter().map(decode_trace_entry).collect()
    }

    /// `TRACE GET id`: one span by server id **or** cross-hop origin id
    /// (`None` if it fell out of the flight recorder). The wire reply is
    /// an array of zero or one records.
    pub fn trace_get(&mut self, id: u64) -> std::io::Result<Option<TraceEntry>> {
        let arg = id.to_string().into_bytes();
        match self.command(&[b"TRACE", b"GET", &arg])? {
            Value::Nil => Ok(None),
            Value::Array(items) if items.is_empty() => Ok(None),
            Value::Array(mut items) if items.len() == 1 => {
                decode_trace_entry(items.pop().expect("len checked")).map(Some)
            }
            other => Err(bad_reply("TRACE GET", &other)),
        }
    }

    fn integer_command(&mut self, name: &'static [u8], keys: &[&[u8]]) -> std::io::Result<i64> {
        let mut parts: Vec<&[u8]> = Vec::with_capacity(keys.len() + 1);
        parts.push(name);
        parts.extend_from_slice(keys);
        match self.command(&parts)? {
            Value::Integer(n) => Ok(n),
            other => Err(bad_reply(std::str::from_utf8(name).unwrap_or("?"), &other)),
        }
    }
}

/// One decoded `SLOWLOG GET` entry (the client-side mirror of the wire
/// array: id, unix time, duration µs, `[command, key prefix]`, worker).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowlogEntry {
    /// Monotonic id (survives wrap and `SLOWLOG RESET`).
    pub id: i64,
    /// Unix timestamp (seconds) when the command finished.
    pub unix_secs: i64,
    /// Execution time in microseconds.
    pub duration_us: i64,
    /// Uppercased command name.
    pub cmd: String,
    /// Prefix of the first argument (usually the key).
    pub key: String,
    /// The event-loop worker that executed it.
    pub worker: i64,
    /// Per-stage nanoseconds in the server's stage order (queue_wait,
    /// parse, dispatch, lock_wait, execute, persist, reply_flush) —
    /// present when the slow command was also a captured trace.
    pub stages_ns: Option<Vec<i64>>,
}

fn decode_slowlog_entry(value: Value) -> std::io::Result<SlowlogEntry> {
    let bad = || bad_reply("SLOWLOG GET", &Value::Nil);
    let Value::Array(fields) = value else { return Err(bad()) };
    if fields.len() != 5 && fields.len() != 6 {
        return Err(bad());
    }
    let [Value::Integer(id), Value::Integer(unix_secs), Value::Integer(duration_us), Value::Array(cmd_parts), Value::Integer(worker)] =
        &fields[..5]
    else {
        return Err(bad());
    };
    let [Value::Bulk(cmd), Value::Bulk(key)] = cmd_parts.as_slice() else {
        return Err(bad());
    };
    let stages_ns = match fields.get(5) {
        None => None,
        Some(Value::Array(stages)) => Some(
            stages
                .iter()
                .map(|v| match v {
                    Value::Integer(ns) => Ok(*ns),
                    _ => Err(bad()),
                })
                .collect::<std::io::Result<Vec<i64>>>()?,
        ),
        Some(_) => return Err(bad()),
    };
    Ok(SlowlogEntry {
        id: *id,
        unix_secs: *unix_secs,
        duration_us: *duration_us,
        cmd: String::from_utf8_lossy(cmd).into_owned(),
        key: String::from_utf8_lossy(key).into_owned(),
        worker: *worker,
        stages_ns,
    })
}

/// One decoded `TRACE DUMP` / `TRACE GET` span: the wire record is a
/// flat field-name/value array, parsed here into the named fields plus
/// a `(stage name, ns)` list for the `*_ns` stage entries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    pub id: i64,
    /// Cross-hop correlation id (equals `id` for local spans).
    pub origin: i64,
    /// Redirect hop count the span arrived with.
    pub hops: i64,
    pub unix_ms: i64,
    pub cmd: String,
    pub key: String,
    /// Event-loop worker id (`-1` = the replication apply thread).
    pub worker: i64,
    /// `sampled` / `threshold` / `forced` / `repl`.
    pub reason: String,
    /// Independently measured total, nanoseconds.
    pub total_ns: i64,
    /// `(stage, ns)` in server stage order, names without the `_ns`.
    pub stages_ns: Vec<(String, i64)>,
}

impl TraceEntry {
    /// One stage's nanoseconds by name (e.g. `"persist"`).
    pub fn stage_ns(&self, stage: &str) -> Option<i64> {
        self.stages_ns.iter().find(|(s, _)| s == stage).map(|&(_, ns)| ns)
    }

    /// Sum of all stage attributions — compare against `total_ns`.
    pub fn stage_sum_ns(&self) -> i64 {
        self.stages_ns.iter().map(|&(_, ns)| ns).sum()
    }
}

fn decode_trace_entry(value: Value) -> std::io::Result<TraceEntry> {
    let bad = || bad_reply("TRACE", &Value::Nil);
    let Value::Array(fields) = value else { return Err(bad()) };
    if !fields.len().is_multiple_of(2) {
        return Err(bad());
    }
    let mut entry = TraceEntry {
        id: 0,
        origin: 0,
        hops: 0,
        unix_ms: 0,
        cmd: String::new(),
        key: String::new(),
        worker: 0,
        reason: String::new(),
        total_ns: 0,
        stages_ns: Vec::new(),
    };
    for pair in fields.chunks_exact(2) {
        let Value::Bulk(name) = &pair[0] else { return Err(bad()) };
        let name = String::from_utf8_lossy(name);
        match (&*name, &pair[1]) {
            ("id", Value::Integer(n)) => entry.id = *n,
            ("origin", Value::Integer(n)) => entry.origin = *n,
            ("hops", Value::Integer(n)) => entry.hops = *n,
            ("unix_ms", Value::Integer(n)) => entry.unix_ms = *n,
            ("cmd", Value::Bulk(b)) => entry.cmd = String::from_utf8_lossy(b).into_owned(),
            ("key", Value::Bulk(b)) => entry.key = String::from_utf8_lossy(b).into_owned(),
            ("worker", Value::Integer(n)) => entry.worker = *n,
            ("reason", Value::Bulk(b)) => entry.reason = String::from_utf8_lossy(b).into_owned(),
            ("total_ns", Value::Integer(n)) => entry.total_ns = *n,
            (stage, Value::Integer(ns)) if stage.ends_with("_ns") => {
                entry.stages_ns.push((stage.trim_end_matches("_ns").to_string(), *ns));
            }
            _ => return Err(bad()),
        }
    }
    Ok(entry)
}

// ---- cluster client -------------------------------------------------------

/// Redirect/retry counters accumulated by a [`ClusterClient`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterClientStats {
    /// `-MOVED` redirects followed (each updates the slot cache).
    pub moved: u64,
    /// `-ASK` redirects followed (one-shot, not cached).
    pub ask: u64,
    /// `-TRYAGAIN` retries (a migration flip in flight).
    pub tryagain: u64,
    /// Full topology refreshes via `CLUSTER SLOTS`.
    pub refreshes: u64,
}

/// A cluster-aware client: caches the slot→node map, follows `MOVED`
/// (updating the cache), retries `ASK` with `ASKING` at the named
/// target, waits out `TRYAGAIN` flips, and refreshes the topology from
/// any reachable node when a connection dies.
///
/// Connections use [`RespClient::connect_timeout`], so a killed node
/// costs one timeout, not a hang.
pub struct ClusterClient {
    seeds: Vec<String>,
    conns: std::collections::HashMap<String, RespClient>,
    /// Slot → owner cache; start empty, learn via `CLUSTER SLOTS` and
    /// `MOVED` replies.
    slots: Vec<Option<std::sync::Arc<str>>>,
    timeout: Duration,
    stats: ClusterClientStats,
    /// Force-trace every Nth keyed command via `TRACEID` (0 = never).
    trace_every: u64,
    trace_tick: u64,
    /// Server-assigned id of the most recent forced trace (for
    /// `TRACE GET` on whichever node ended up serving it).
    last_trace_id: u64,
}

/// Redirect hops per command before declaring a loop.
const MAX_HOPS: usize = 8;
/// `TRYAGAIN` retry budget: 120 × 25ms ≈ 3s, comfortably above the
/// server's 1s frozen-slot wait.
const MAX_TRYAGAIN: usize = 120;

impl ClusterClient {
    /// `seeds` is a comma-separated `host:port` list; the initial
    /// topology comes from the first seed that answers `CLUSTER SLOTS`.
    pub fn connect(seeds: &str, timeout: Duration) -> std::io::Result<Self> {
        let seeds: Vec<String> =
            seeds.split(',').map(str::trim).filter(|s| !s.is_empty()).map(String::from).collect();
        if seeds.is_empty() {
            return Err(std::io::Error::new(ErrorKind::InvalidInput, "no seed addresses"));
        }
        let mut client = ClusterClient {
            seeds,
            conns: std::collections::HashMap::new(),
            slots: vec![None; crate::cluster::slots::NUM_SLOTS as usize],
            timeout,
            stats: ClusterClientStats::default(),
            trace_every: 0,
            trace_tick: 0,
            last_trace_id: 0,
        };
        client.refresh()?;
        Ok(client)
    }

    pub fn stats(&self) -> ClusterClientStats {
        self.stats
    }

    /// Force-trace every `n`th keyed command (0 disables). The trace id
    /// is carried across `MOVED`/`ASK` redirects with an incremented
    /// hop count, so the final server's record shows the whole journey.
    pub fn set_trace_every(&mut self, n: u64) {
        self.trace_every = n;
        self.trace_tick = 0;
    }

    /// Server-assigned id of the most recent forced trace (0 = none
    /// yet). Look it up with `TRACE GET` on the serving node.
    pub fn last_trace_id(&self) -> u64 {
        self.last_trace_id
    }

    /// Distinct node addresses in the current slot cache (seed-order
    /// fallback when the cache is empty).
    pub fn known_nodes(&self) -> Vec<String> {
        let mut nodes: Vec<String> = Vec::new();
        for owner in self.slots.iter().flatten() {
            if !nodes.iter().any(|n| n.as_str() == &**owner) {
                nodes.push(owner.to_string());
            }
        }
        if nodes.is_empty() {
            nodes.extend(self.seeds.iter().cloned());
        }
        nodes
    }

    /// Re-learn the full slot map from the first reachable known node.
    pub fn refresh(&mut self) -> std::io::Result<()> {
        let mut candidates: Vec<String> = self.conns.keys().cloned().collect();
        candidates.extend(self.seeds.iter().cloned());
        let mut last_err: Option<std::io::Error> = None;
        for addr in candidates {
            let reply = match self.conn(&addr).and_then(|c| c.command(&[b"CLUSTER", b"SLOTS"])) {
                Ok(v) => v,
                Err(e) => {
                    self.conns.remove(&addr);
                    last_err = Some(e);
                    continue;
                }
            };
            let Value::Array(ranges) = reply else {
                last_err = Some(bad_reply("CLUSTER SLOTS", &reply));
                continue;
            };
            self.slots.fill(None);
            for range in &ranges {
                let Value::Array(parts) = range else { continue };
                let [Value::Integer(start), Value::Integer(end), Value::Bulk(addr)] =
                    parts.as_slice()
                else {
                    continue;
                };
                let owner: std::sync::Arc<str> =
                    std::sync::Arc::from(String::from_utf8_lossy(addr).into_owned());
                for slot in *start..=*end {
                    if let Some(entry) = self.slots.get_mut(slot as usize) {
                        *entry = Some(owner.clone());
                    }
                }
            }
            self.stats.refreshes += 1;
            return Ok(());
        }
        Err(last_err.unwrap_or_else(|| {
            std::io::Error::new(ErrorKind::NotConnected, "no cluster node reachable")
        }))
    }

    fn conn(&mut self, addr: &str) -> std::io::Result<&mut RespClient> {
        if !self.conns.contains_key(addr) {
            let client = RespClient::connect_timeout(addr, self.timeout)?;
            self.conns.insert(addr.to_string(), client);
        }
        Ok(self.conns.get_mut(addr).expect("just inserted"))
    }

    /// Route one keyed command: pick the cached owner of the key's
    /// slot, follow redirects, survive dead nodes. Non-redirect error
    /// replies come back as `Ok(Value::Error(..))`, like
    /// [`RespClient::command`].
    pub fn command_keyed(&mut self, key: &[u8], parts: &[&[u8]]) -> std::io::Result<Value> {
        let slot = key_slot(key);
        let mut ask_target: Option<String> = None;
        let mut tryagain_left = MAX_TRYAGAIN;
        let mut hops = 0usize;
        // One trace id per command, carried across redirects: 0 asks the
        // first server to assign one; later hops propagate it.
        let mut trace: Option<u64> = if self.trace_every > 0 {
            let tick = self.trace_tick;
            self.trace_tick += 1;
            tick.is_multiple_of(self.trace_every).then_some(0)
        } else {
            None
        };
        while hops < MAX_HOPS {
            let addr = match &ask_target {
                Some(a) => a.clone(),
                None => match &self.slots[slot as usize] {
                    Some(owner) => owner.to_string(),
                    None => {
                        // Unknown owner: learn the topology, else try a seed.
                        let _ = self.refresh();
                        self.slots[slot as usize]
                            .as_ref()
                            .map(|o| o.to_string())
                            .unwrap_or_else(|| self.seeds[0].clone())
                    }
                },
            };
            let asking = ask_target.take().is_some();
            let traced = trace.map(|id| (id, hops as u32));
            let reply = match self.exchange(&addr, parts, asking, traced) {
                Ok((v, assigned)) => {
                    if let Some(tid) = trace.as_mut() {
                        *tid = assigned;
                        self.last_trace_id = assigned;
                    }
                    v
                }
                Err(_) => {
                    // Dead node: drop the connection, re-learn the
                    // topology (the migration may have completed or the
                    // node restarted) and retry.
                    self.conns.remove(&addr);
                    let _ = self.refresh();
                    hops += 1;
                    continue;
                }
            };
            if let Value::Error(e) = &reply {
                if let Some(rest) = e.strip_prefix("MOVED ") {
                    if let Some((_, owner)) = rest.split_once(' ') {
                        self.stats.moved += 1;
                        self.slots[slot as usize] = Some(std::sync::Arc::from(owner));
                        hops += 1;
                        continue;
                    }
                }
                if let Some(rest) = e.strip_prefix("ASK ") {
                    if let Some((_, target)) = rest.split_once(' ') {
                        self.stats.ask += 1;
                        ask_target = Some(target.to_string());
                        hops += 1;
                        continue;
                    }
                }
                if e.starts_with("TRYAGAIN") {
                    if tryagain_left == 0 {
                        return Err(std::io::Error::other(format!(
                            "slot {slot} still migrating after {MAX_TRYAGAIN} retries: {e}"
                        )));
                    }
                    tryagain_left -= 1;
                    std::thread::sleep(Duration::from_millis(25));
                    continue; // retries don't consume redirect hops
                }
            }
            return Ok(reply);
        }
        Err(std::io::Error::other(format!(
            "redirect loop: slot {slot} unresolved after {MAX_HOPS} redirects"
        )))
    }

    /// One request/reply against `addr`, optionally `ASKING`-prefixed
    /// and/or `TRACEID`-prefixed (returns the server-assigned trace id,
    /// 0 when untraced). `ASKING` goes first: `TRACEID` forces capture
    /// of the *next* command, which must be the real one.
    fn exchange(
        &mut self,
        addr: &str,
        parts: &[&[u8]],
        asking: bool,
        trace: Option<(u64, u32)>,
    ) -> std::io::Result<(Value, u64)> {
        let conn = self.conn(addr)?;
        if asking {
            conn.enqueue(&[b"ASKING"]);
        }
        if let Some((id, hops)) = trace {
            let id_arg = id.to_string().into_bytes();
            let hops_arg = hops.to_string().into_bytes();
            conn.enqueue(&[b"TRACEID", &id_arg, &hops_arg]);
        }
        conn.enqueue(parts);
        conn.flush()?;
        if asking {
            match conn.read_reply()? {
                Value::Simple(_) => {}
                other => return Err(bad_reply("ASKING", &other)),
            }
        }
        let mut assigned = trace.map_or(0, |(id, _)| id);
        if trace.is_some() {
            match conn.read_reply()? {
                Value::Integer(n) if n > 0 => assigned = n as u64,
                other => return Err(bad_reply("TRACEID", &other)),
            }
        }
        Ok((conn.read_reply()?, assigned))
    }

    pub fn set(&mut self, key: &[u8], value: &[u8]) -> std::io::Result<()> {
        match self.command_keyed(key, &[b"SET", key, value])? {
            Value::Simple(s) if s == "OK" => Ok(()),
            other => Err(bad_reply("SET", &other)),
        }
    }

    pub fn get(&mut self, key: &[u8]) -> std::io::Result<Option<Vec<u8>>> {
        match self.command_keyed(key, &[b"GET", key])? {
            Value::Bulk(b) => Ok(Some(b)),
            Value::Nil => Ok(None),
            other => Err(bad_reply("GET", &other)),
        }
    }

    pub fn del(&mut self, key: &[u8]) -> std::io::Result<i64> {
        match self.command_keyed(key, &[b"DEL", key])? {
            Value::Integer(n) => Ok(n),
            other => Err(bad_reply("DEL", &other)),
        }
    }
}

/// Find `field:value` in an INFO-style payload.
fn find_field(text: &str, field: &str) -> Option<String> {
    text.lines().find_map(|line| {
        line.trim_end()
            .split_once(':')
            .filter(|(k, _)| *k == field)
            .map(|(_, v)| v.to_string())
    })
}

fn bad_reply(cmd: &str, got: &Value) -> std::io::Error {
    std::io::Error::new(
        ErrorKind::InvalidData,
        format!("unexpected {cmd} reply: {got:?}"),
    )
}
