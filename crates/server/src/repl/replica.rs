//! The replica-side sync loop: connect to the primary, read the `PSYNC`
//! stream — a snapshot, then the tail, all in the redo log's record
//! codec — applying each op as it arrives through the engine's
//! single-key apply, reconnect (with a fresh full sync) whenever the link
//! drops or the stream is damaged, and stop the moment the server is
//! promoted or shut down.
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

use crate::repl::OpRef;
use crate::resp::{decode_value, encode_command, Decode, Value};
use crate::server::{Inner, Role};
use crate::snapshot::{Item, Reader};

/// How long one blocking read may sit before the loop re-checks
/// shutdown/promotion.
const READ_POLL: Duration = Duration::from_millis(100);

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

    /// Drop the consumed bytes.
    fn compact(&mut self) {
        self.rbuf.drain(..self.pos);
        self.pos = 0;
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
    // Full-resync semantics: the records that follow replace local state
    // wholesale, including what a session that died mid-snapshot loaded.
    inner.engine.purge(|_| true).map_err(engine_err)?;
    // Each drained read is one group commit, and the applied offset moves
    // only once its records are in the log: to the base once the END
    // verifies, then one per tail op. A `MARK <id>` says the NEXT op was
    // traced on the primary: its apply is timed under the same id, so
    // `TRACE GET <id>` works on either end. Deadlines apply verbatim — a
    // replica never derives time.
    let (mut reader, mut synced) = (Reader::default(), false);
    let mut pending_trace: Option<u64> = None;
    loop {
        if stopping(inner) {
            return Ok(());
        }
        let (mut applied, mut loaded) = (0u64, None);
        {
            let _batch = inner.engine.log_batch();
            while let Some((item, used)) = reader
                .next(&conn.rbuf[conn.pos..])
                .map_err(|e| bad_stream(format!("replication stream: {e}")))?
            {
                conn.pos += used;
                match item {
                    Item::Op(op) => {
                        match pending_trace.take() {
                            Some(id) => apply_traced(inner, op, id)?,
                            None => {
                                inner.engine.apply(op).map_err(engine_err)?;
                            }
                        }
                        applied += 1;
                    }
                    // Not an op — the offset does not advance.
                    Item::Mark(id) => pending_trace = (id != 0).then_some(id),
                    // Where the primary's logs stood: a replica's own
                    // log numbers its records, so nothing to apply.
                    Item::Position(_) => {}
                    Item::End { records } => {
                        loaded = Some(records);
                        break;
                    }
                }
            }
        }
        if let Some(records) = loaded {
            synced = true;
            inner.applied_offset.store(base_offset, Ordering::SeqCst);
            inner.link_up.store(true, Ordering::SeqCst);
            crate::log_info!(
                "repl",
                "replica of {master}: full sync loaded {records} records at offset {base_offset}"
            );
            // The same read may already hold tail records.
            continue;
        }
        if synced {
            inner.applied_offset.fetch_add(applied, Ordering::SeqCst);
        }
        conn.compact();
        conn.fill()?;
    }
}

/// Apply one replicated op under a trace span and record the result in
/// the flight recorder: same id as the primary's span (so `TRACE GET`
/// correlates the two), worker [`trace::REPL_WORKER`], reason `repl`.
/// Queue-wait/parse/reply-flush are zero by construction — a replica
/// apply has no client-visible ingress or egress.
fn apply_traced(inner: &Inner, op: OpRef<'_>, trace_id: u64) -> io::Result<()> {
    use crate::trace::{self, Stage};
    pmem::span::begin(trace_id);
    let start = std::time::Instant::now();
    let res = inner.engine.apply(op);
    let total_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let d = trace::end_span(start, total_ns);
    let mut stages_ns = [0u64; Stage::COUNT];
    stages_ns[Stage::Dispatch.index()] = d.dispatch_ns;
    stages_ns[Stage::LockWait.index()] = d.lock_wait_ns;
    stages_ns[Stage::Execute.index()] = d.execute_ns;
    stages_ns[Stage::Persist.index()] = d.persist_ns;
    let (cmd, key): (&[u8], _) = match op {
        OpRef::Set { key, .. } | OpRef::SetEx { key, .. } => (b"SET", key),
        OpRef::Del { key } => (b"DEL", key),
    };
    inner.tracer.record(trace::TraceRecord::new(
        trace_id,
        0,
        &[cmd, key],
        trace::REPL_WORKER,
        stages_ns,
        total_ns,
        trace::Reason::Repl,
    ));
    res.map(drop).map_err(engine_err)
}
