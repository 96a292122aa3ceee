//! The replica-side sync loop: connect to the primary, bootstrap from
//! the `PSYNC` snapshot+tail stream, apply the tail through the engine's
//! batch write API, reconnect (with a fresh full sync) whenever the link
//! drops, and stop the moment the server is promoted or shut down.
//!
//! Runs on one background thread owned by the server
//! ([`crate::serve_with`] spawns it, shutdown joins it). All reads are
//! under a short timeout so the loop notices shutdown/promotion within
//! ~100 ms even when the primary is silent.

use std::io::{self, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use crate::command::{lookup, Cmd};
use crate::repl::ReplOp;
use crate::resp::{decode_args, decode_value, encode_command, Decode, Value};
use crate::server::{Inner, Role};
use crate::snapshot;

/// How long one blocking read may sit before the loop re-checks
/// shutdown/promotion.
const READ_POLL: Duration = Duration::from_millis(100);
/// Ceiling on the `$len` a FULLRESYNC bulk may claim (a corrupt length
/// prefix must not make the replica reserve gigabytes). Generous: a
/// snapshot is bounded by the primary's pools.
const MAX_SNAPSHOT_BYTES: usize = 4 << 30;

/// Should the sync loop stop (promotion or server shutdown)?
/// Promotion raises `sync_stop` *before* flipping the role and joins
/// this thread before accepting writes — see `Inner::promote`.
fn stopping(inner: &Inner) -> bool {
    inner.shutdown.load(Ordering::SeqCst)
        || inner.sync_stop.load(Ordering::SeqCst)
        || inner.role() != Role::Replica
}

/// The sync thread's entry point: keep a replication session alive
/// against `master` until promoted or shut down.
pub(crate) fn run(inner: Arc<Inner>, master: String) {
    let mut announced_down = false;
    while !stopping(&inner) {
        match session(&inner, &master) {
            // A session only returns Ok when stopping — fall out.
            Ok(()) => break,
            Err(e) => {
                // Each failed session costs a fresh full sync on the
                // next attempt — worth a counter (`repl_reconnects`).
                inner.metrics.repl_reconnects.incr();
                // A drop after an established link is a fresh outage:
                // announce it even if an earlier one was announced too.
                if inner.link_up.swap(false, Ordering::SeqCst) {
                    announced_down = false;
                }
                if !announced_down {
                    crate::log_warn!("repl", "replication link to {master}: {e}; retrying");
                    announced_down = true;
                }
                // Brief backoff, still responsive to shutdown/promote.
                for _ in 0..6 {
                    if stopping(&inner) {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(50));
                }
            }
        }
    }
    inner.link_up.store(false, Ordering::SeqCst);
}

/// A buffered connection to the primary with incremental decoding.
struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    pos: usize,
}

impl Conn {
    fn connect(master: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(master)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_POLL))?;
        stream.set_write_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn { stream, rbuf: Vec::new(), pos: 0 })
    }

    fn send(&mut self, parts: &[&[u8]]) -> io::Result<()> {
        let mut wire = Vec::new();
        encode_command(parts, &mut wire);
        self.stream.write_all(&wire)
    }

    /// One read into the buffer. `Ok(false)` = timeout (nothing read),
    /// `Ok(true)` = bytes arrived, `Err(UnexpectedEof)` = primary gone.
    fn fill(&mut self) -> io::Result<bool> {
        let mut chunk = [0u8; 64 * 1024];
        match self.stream.read(&mut chunk) {
            Ok(0) => Err(io::Error::new(ErrorKind::UnexpectedEof, "primary closed the stream")),
            Ok(n) => {
                self.rbuf.extend_from_slice(&chunk[..n]);
                Ok(true)
            }
            Err(e)
                if e.kind() == ErrorKind::WouldBlock
                    || e.kind() == ErrorKind::TimedOut
                    || e.kind() == ErrorKind::Interrupted =>
            {
                Ok(false)
            }
            Err(e) => Err(e),
        }
    }

    /// Drop consumed bytes once the buffer is fully drained.
    fn compact(&mut self) {
        if self.pos == self.rbuf.len() {
            self.rbuf.clear();
            self.pos = 0;
        } else if self.pos > 0 {
            self.rbuf.drain(..self.pos);
            self.pos = 0;
        }
    }

    /// Read one RESP value (handshake replies), polling for stop.
    fn read_value(&mut self, inner: &Inner) -> io::Result<Option<Value>> {
        loop {
            match decode_value(&self.rbuf[self.pos..]) {
                Ok(Decode::Complete(v, used)) => {
                    self.pos += used;
                    self.compact();
                    return Ok(Some(v));
                }
                Ok(Decode::Incomplete) => {
                    if stopping(inner) {
                        return Ok(None);
                    }
                    self.fill()?;
                }
                Err(e) => return Err(io::Error::new(ErrorKind::InvalidData, e.to_string())),
            }
        }
    }

    /// Read the FULLRESYNC payload: `$<len>\r\n` + `len` raw bytes +
    /// `\r\n`. Read manually (not via `decode_value`) because a
    /// snapshot may legitimately exceed the codec's per-bulk cap.
    fn read_snapshot_bulk(&mut self, inner: &Inner) -> io::Result<Option<Vec<u8>>> {
        let len = loop {
            let head = &self.rbuf[self.pos..];
            if let Some(nl) = head.windows(2).position(|w| w == b"\r\n") {
                if head[0] != b'$' {
                    return Err(io::Error::new(
                        ErrorKind::InvalidData,
                        "FULLRESYNC payload is not a bulk string",
                    ));
                }
                let len: usize = std::str::from_utf8(&head[1..nl])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n <= MAX_SNAPSHOT_BYTES)
                    .ok_or_else(|| {
                        io::Error::new(ErrorKind::InvalidData, "bad FULLRESYNC bulk length")
                    })?;
                self.pos += nl + 2;
                break len;
            }
            if stopping(inner) {
                return Ok(None);
            }
            self.fill()?;
        };
        // Shift the consumed prefix away so the bulk starts at 0, then
        // carve the body out of rbuf in place — duplicating it with a
        // copy would hold ~2x the snapshot in memory at once, on
        // exactly the path the primary side kept single-copy.
        if self.pos > 0 {
            self.rbuf.drain(..self.pos);
            self.pos = 0;
        }
        while self.rbuf.len() < len + 2 {
            if stopping(inner) {
                return Ok(None);
            }
            self.fill()?;
        }
        if &self.rbuf[len..len + 2] != b"\r\n" {
            return Err(io::Error::new(
                ErrorKind::InvalidData,
                "FULLRESYNC bulk not terminated by CRLF",
            ));
        }
        let rest = self.rbuf.split_off(len + 2);
        let mut body = std::mem::replace(&mut self.rbuf, rest);
        body.truncate(len);
        Ok(Some(body))
    }
}

fn bad_stream(msg: impl Into<String>) -> io::Error {
    io::Error::new(ErrorKind::InvalidData, msg.into())
}

fn engine_err(e: crate::engine::EngineError) -> io::Error {
    io::Error::other(format!("applying replicated ops: {e}"))
}

/// One replication session: handshake, full sync, tail. Returns `Ok`
/// only on a deliberate stop (promotion/shutdown); every failure path is
/// an `Err` so [`run`] reconnects and re-syncs.
fn session(inner: &Inner, master: &str) -> io::Result<()> {
    let mut conn = Conn::connect(master)?;
    // Advisory metadata; the primary replies +OK and ignores it.
    let port = inner.addr.port().to_string();
    conn.send(&[b"REPLCONF", b"listening-port", port.as_bytes()])?;
    match conn.read_value(inner)? {
        None => return Ok(()),
        Some(Value::Simple(s)) if s == "OK" => {}
        Some(other) => return Err(bad_stream(format!("REPLCONF got {other:?}"))),
    }
    conn.send(&[b"PSYNC", b"?", b"-1"])?;
    let base_offset = match conn.read_value(inner)? {
        None => return Ok(()),
        Some(Value::Simple(s)) => match s.strip_prefix("FULLRESYNC ") {
            Some(off) => off
                .trim()
                .parse::<u64>()
                .map_err(|_| bad_stream(format!("bad FULLRESYNC offset in {s:?}")))?,
            None => return Err(bad_stream(format!("PSYNC got +{s}"))),
        },
        Some(Value::Error(e)) => return Err(bad_stream(format!("PSYNC refused: {e}"))),
        Some(other) => return Err(bad_stream(format!("PSYNC got {other:?}"))),
    };
    let Some(snap) = conn.read_snapshot_bulk(inner)? else {
        return Ok(());
    };
    let records = snapshot::parse_all(&snap)
        .map_err(|e| bad_stream(format!("bootstrap snapshot: {e}")))?;
    drop(snap);
    // Full-resync semantics: local state is replaced wholesale. On the
    // first sync of a fresh replica the clear is a no-op; after a link
    // loss it removes keys the primary may have deleted meanwhile.
    inner.engine.clear().map_err(engine_err)?;
    let loaded = records.len();
    // Deadlines load verbatim from the snapshot — a replica never
    // derives time (the primary's clock decided them once).
    let ops: Vec<ReplOp> = records
        .into_iter()
        .map(|(key, value, expire_at_ms)| {
            if expire_at_ms == 0 {
                ReplOp::Set { key, value }
            } else {
                ReplOp::SetEx { key, value, expire_at_ms }
            }
        })
        .collect();
    inner.engine.apply_ops(&ops).map_err(engine_err)?;
    drop(ops);
    inner.applied_offset.store(base_offset, Ordering::SeqCst);
    inner.link_up.store(true, Ordering::SeqCst);
    crate::log_info!(
        "repl",
        "replica of {master}: full sync loaded {loaded} records at offset {base_offset}"
    );
    // Tail: decode every complete command in the buffer, apply them as
    // one batch through the engine's batch paths, repeat.
    let mut ops: Vec<ReplOp> = Vec::new();
    // A `TRACEID <id> 0` in the stream marks the NEXT op as traced on
    // the primary: its apply here is timed individually under the same
    // id so `TRACE GET <id>` works on either end.
    let mut pending_trace: Option<u64> = None;
    loop {
        if stopping(inner) {
            return Ok(());
        }
        loop {
            match decode_args(&conn.rbuf[conn.pos..]) {
                // Borrowed from the read buffer, resolved through the server's
                // own table; only an op's key and value are copied out.
                Ok(Decode::Complete(parts, used)) => {
                    conn.pos += used;
                    let cmd = lookup(parts[0]);
                    let op = match (cmd.id, &parts[1..]) {
                        (Cmd::Set, [key, value]) => {
                            ReplOp::Set { key: key.to_vec(), value: value.to_vec() }
                        }
                        // TTL write: `SET key value PXAT <deadline-ms>` —
                        // the absolute-deadline form is the only one the
                        // stream carries (determinism: the primary is the
                        // single clock).
                        (Cmd::Set, [key, value, px, ms]) => {
                            if !px.eq_ignore_ascii_case(b"PXAT") {
                                return Err(bad_stream(format!(
                                    "unexpected SET modifier {:?} in replication stream",
                                    String::from_utf8_lossy(px)
                                )));
                            }
                            let expire_at_ms = std::str::from_utf8(ms)
                                .ok()
                                .and_then(|s| s.parse::<u64>().ok())
                                .ok_or_else(|| bad_stream("bad PXAT deadline in stream"))?;
                            ReplOp::SetEx { key: key.to_vec(), value: value.to_vec(), expire_at_ms }
                        }
                        (Cmd::Del, [key]) => ReplOp::Del { key: key.to_vec() },
                        // Liveness only; does not advance the offset.
                        (Cmd::Ping, []) => continue,
                        // Trace propagation: the next op was traced on
                        // the primary. Not an op — the offset does not
                        // advance. The pending batch is applied first so
                        // the traced op's timing stands alone.
                        (Cmd::TraceId, [id, _]) => {
                            let id = std::str::from_utf8(id)
                                .ok()
                                .and_then(|s| s.parse::<u64>().ok())
                                .ok_or_else(|| bad_stream("bad TRACEID id in stream"))?;
                            apply_batch(inner, &mut ops)?;
                            pending_trace = Some(id);
                            continue;
                        }
                        _ => {
                            return Err(bad_stream(format!(
                                "unexpected command {:?} in replication stream",
                                String::from_utf8_lossy(parts[0])
                            )))
                        }
                    };
                    match pending_trace.take() {
                        Some(id) => apply_traced(inner, cmd.name, op, id)?,
                        None => ops.push(op),
                    }
                }
                Ok(Decode::Incomplete) => break,
                Err(e) => return Err(io::Error::new(ErrorKind::InvalidData, e.to_string())),
            }
        }
        conn.compact();
        apply_batch(inner, &mut ops)?;
        conn.fill()?;
    }
}

/// Apply the queued ops as one batch and advance the applied offset.
fn apply_batch(inner: &Inner, ops: &mut Vec<ReplOp>) -> io::Result<()> {
    if !ops.is_empty() {
        inner.engine.apply_ops(ops).map_err(engine_err)?;
        inner.applied_offset.fetch_add(ops.len() as u64, Ordering::SeqCst);
        ops.clear();
    }
    Ok(())
}

/// Apply one replicated op under a trace span and record the result in
/// the flight recorder: same id as the primary's span (so `TRACE GET`
/// correlates the two), worker [`trace::REPL_WORKER`], reason `repl`.
/// Queue-wait/parse/reply-flush are zero by construction — a replica
/// apply has no client-visible ingress or egress.
fn apply_traced(inner: &Inner, cmd: &str, op: ReplOp, trace_id: u64) -> io::Result<()> {
    use crate::trace::{self, Stage};
    trace::begin_span(trace_id);
    let start = std::time::Instant::now();
    let res = inner.engine.apply_ops(std::slice::from_ref(&op));
    let total_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let d = trace::end_span(start, total_ns);
    let mut stages_ns = [0u64; Stage::COUNT];
    stages_ns[Stage::Dispatch.index()] = d.dispatch_ns;
    stages_ns[Stage::LockWait.index()] = d.lock_wait_ns;
    stages_ns[Stage::Execute.index()] = d.execute_ns;
    stages_ns[Stage::Persist.index()] = d.persist_ns;
    let (ReplOp::Set { key, .. } | ReplOp::SetEx { key, .. } | ReplOp::Del { key }) = &op;
    inner.tracer.record(trace::TraceRecord::new(
        trace_id,
        0,
        &[cmd.as_bytes(), key],
        trace::REPL_WORKER,
        stages_ns,
        total_ns,
        trace::Reason::Repl,
    ));
    res.map_err(engine_err)?;
    inner.applied_offset.fetch_add(1, Ordering::SeqCst);
    Ok(())
}
