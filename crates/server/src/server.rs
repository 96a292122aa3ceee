//! The networked service: an **event-driven** TCP server speaking the
//! RESP2 commands of the command table ([`crate::commands`], the one
//! list of them) over a [`ShardedDash`] engine.
//!
//! Pipelining comes for free from the decode loop: every complete
//! command sitting in the read buffer is executed and its reply appended
//! to one write buffer, which is flushed in a single burst — a client
//! that sends N requests back-to-back pays one round trip, not N.
//! The multi-key commands (`MGET`, `MSET`, variadic `DEL`/`EXISTS`) are
//! the same single-key engine calls, one per key in argument order: a
//! multi-key command saves the round trips, the decode and the reply
//! framing of its keys, and its keys are hinted and group-committed by
//! the same tick-scoped machinery as a pipeline of singles.
//!
//! Connections are served by a fixed pool of epoll event-loop workers
//! ([`crate::net`]) — default one per CPU, `--event-workers` to
//! override — assigned round-robin at accept time, so connection count
//! costs no thread stacks or scheduler churn, and the idle *event core*
//! makes zero periodic wakeups; the one periodic thread in the process is
//! the ~100 ms expiry/reclamation tick, whose cost is independent of
//! connection count. Shutdown is event-driven too: an eventfd wakes every
//! loop. The one place a connection owns a blocking socket and a
//! dedicated thread is the `PSYNC` replication stream
//! ([`serve_replica_stream`]), which genuinely needs both.
//!
//! This file owns the protocol surface (the command executors, INFO,
//! replication handshake) and the server lifecycle; the readiness
//! machinery lives in [`crate::net`]. **Dispatch** is one lookup: the
//! connection resolves a command's name against the table as it decodes
//! it, and [`execute`] takes the entry through the gates in a fixed order
//! — `ASKING` taken one-shot, replica `-READONLY` (the entry's `write`
//! flag), cluster slot gate (its key spec), arity — into its `match` arm.

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::command::{Cmd, Command};
use crate::engine::ShardedDash;
use crate::metrics::{stats, Metrics, DEFAULT_SLOWLOG_THRESHOLD_US};
use crate::net::EventFd;
use crate::repl::wire::{self, Record};
use crate::resp::{self, encode, Value};

/// How long a blocking reply write (SHUTDOWN ack, replication stream)
/// may stall before the connection is dropped.
pub(crate) const WRITE_TIMEOUT: Duration = Duration::from_secs(30);
/// `SCAN` page size when the client sends no `COUNT`.
const DEFAULT_SCAN_COUNT: usize = 64;
/// Cap on a client-supplied `COUNT` (bounds one reply's memory).
const MAX_SCAN_COUNT: usize = 10_000;

/// Which side of replication this server is on. A server starts as a
/// primary (the default) or as a replica (`--replica-of`); a replica
/// becomes a primary through `REPLICAOF NO ONE` (promotion).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    Primary,
    Replica,
}

/// Options for [`serve_with`].
#[derive(Debug, Clone, Default)]
pub struct ServeOptions {
    /// Start as a read-only replica of the primary at `host:port`:
    /// bootstrap via `PSYNC` (snapshot + tail) and keep applying the
    /// primary's stream until promoted. The engine should be empty —
    /// the first full sync clears it.
    pub replica_of: Option<String>,
    /// Event-loop worker threads serving connections. `None` = one per
    /// available CPU (minimum 1).
    pub event_workers: Option<usize>,
    /// Serve Prometheus text exposition over HTTP on this address
    /// (`GET /metrics`). Served by the accept loop itself — no extra
    /// threads. `None` disables the endpoint.
    pub metrics_addr: Option<String>,
    /// SLOWLOG threshold in microseconds; commands at or above it are
    /// recorded. `None` = [`DEFAULT_SLOWLOG_THRESHOLD_US`].
    pub slowlog_threshold_us: Option<u64>,
    /// Enable cluster mode, announcing this `host:port` to peers and
    /// clients (what redirects and the slot map record for this node).
    /// The literal `"auto"` announces the actual bound address — handy
    /// with port 0. Mutually exclusive with `replica_of`.
    pub cluster_announce: Option<String>,
}

pub(crate) struct Inner {
    pub(crate) engine: ShardedDash,
    pub(crate) shutdown: AtomicBool,
    pub(crate) addr: SocketAddr,
    /// The telemetry registry: every health counter, the per-command
    /// latency histograms and the SLOWLOG ring. `net/` increments here;
    /// what INFO and the metrics endpoint print of it (and of the
    /// engine) is declared in the stats table, `metrics/stats.rs`.
    pub(crate) metrics: Metrics,
    /// The request-tracing control plane: sampling knobs, span ids, and
    /// the per-worker flight-recorder rings behind `TRACE DUMP`.
    pub(crate) tracer: crate::trace::Tracer,
    /// Where the Prometheus endpoint is bound (`--metrics-addr`).
    pub(crate) metrics_addr: Option<SocketAddr>,
    /// Size of the event-loop worker pool.
    pub(crate) event_workers: usize,
    /// One wakeup eventfd per event loop (accept + workers): shutdown
    /// pokes them all so every loop notices the flag immediately.
    wakes: Mutex<Vec<Arc<EventFd>>>,
    /// Dedicated threads serving `PSYNC` replication streams — the only
    /// remaining per-connection threads. Reaped with a real `join` (a
    /// panic is counted, not silently dropped).
    stream_threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// `Role` as a u8 (0 = primary, 1 = replica); flipped by promotion.
    role: AtomicU8,
    /// Replica: the primary this server follows.
    pub(crate) master_addr: Option<String>,
    /// Replica: replication-stream offset applied so far (primary
    /// numbering: FULLRESYNC base + tail ops applied).
    pub(crate) applied_offset: AtomicU64,
    /// Replica: is the link to the primary currently established?
    pub(crate) link_up: AtomicBool,
    /// Replica: tells the sync thread to stop (promotion fence).
    pub(crate) sync_stop: AtomicBool,
    /// Replica: the background sync thread, joined at shutdown.
    replica_thread: Mutex<Option<std::thread::JoinHandle<()>>>,
    /// Cluster mode (slot ownership, redirects, migration) — `Some`
    /// when started with `--cluster-announce`.
    pub(crate) cluster: Option<Arc<crate::cluster::ClusterState>>,
    /// The expiry/reclamation tick thread (~100 ms cadence), joined at
    /// shutdown before the engine closes.
    tick_thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Inner {
    pub(crate) fn role(&self) -> Role {
        if self.role.load(Ordering::SeqCst) == 0 { Role::Primary } else { Role::Replica }
    }

    pub(crate) fn count_accept(&self) {
        self.metrics.connections_accepted.incr();
    }

    pub(crate) fn count_command(&self) {
        self.metrics.commands_served.incr();
    }

    /// Make an event loop's wakeup reachable from [`Inner::wake_all`].
    pub(crate) fn register_wake(&self, wake: Arc<EventFd>) {
        self.wakes.lock().push(wake);
    }

    fn wake_all(&self) {
        for wake in self.wakes.lock().iter() {
            wake.wake();
        }
    }

    /// Raise the shutdown flag and wake every event loop so it notices
    /// now — the event-driven replacement for the old throwaway
    /// self-connect plus 50 ms per-connection polling.
    pub(crate) fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.wake_all();
    }

    /// Start a dedicated thread for an accepted `PSYNC` stream, reaping
    /// finished ones first so handles don't accumulate unjoined on a
    /// long-lived primary.
    pub(crate) fn spawn_stream_thread(self: &Arc<Self>, stream: TcpStream) {
        self.reap_stream_threads();
        let inner = self.clone();
        let handle = std::thread::spawn(move || {
            let _ = serve_replica_stream(stream, &inner);
        });
        self.stream_threads.lock().push(handle);
    }

    /// Join every finished stream thread. Unlike the old
    /// `retain(|h| !h.is_finished())`, a panicked thread is *joined* and
    /// counted in `worker_panics` instead of vanishing with its handle.
    pub(crate) fn reap_stream_threads(&self) {
        let mut threads = self.stream_threads.lock();
        let mut i = 0;
        while i < threads.len() {
            if threads[i].is_finished() {
                if threads.swap_remove(i).join().is_err() {
                    self.metrics.worker_panics.incr();
                }
            } else {
                i += 1;
            }
        }
    }

    /// The tail of teardown, run by the accept loop after its workers
    /// are joined: replication-stream threads, the replica sync thread,
    /// then the engine's pools — the last acknowledged write is durably
    /// on disk when this returns.
    pub(crate) fn finish_shutdown(&self) {
        let threads = std::mem::take(&mut *self.stream_threads.lock());
        for t in threads {
            if t.join().is_err() {
                self.metrics.worker_panics.incr();
            }
        }
        if let Some(t) = self.replica_thread.lock().take() {
            let _ = t.join();
        }
        if let Some(cl) = &self.cluster {
            // The migration loops poll the shutdown flag (~100ms) and
            // bail out; the failed migration is simply re-run later.
            crate::cluster::join_migration_thread(cl);
        }
        if let Some(t) = self.tick_thread.lock().take() {
            let _ = t.join();
        }
        let _ = self.engine.close();
    }

    /// Promote to primary (idempotent). The role only flips — i.e.
    /// writes are only accepted — after the sync thread has been
    /// stopped AND joined: a replicated batch already in flight when
    /// the promotion arrived must fully apply (it is pre-promotion
    /// state) before any client write can land, or the stale batch
    /// could overwrite an acknowledged post-promotion write. Holding
    /// the thread-handle lock across the join serializes concurrent
    /// promotions onto the same fence.
    fn promote(&self) {
        self.sync_stop.store(true, Ordering::SeqCst);
        let mut handle = self.replica_thread.lock();
        if let Some(t) = handle.take() {
            let _ = t.join();
        }
        if self.role.swap(0, Ordering::SeqCst) == 1 {
            self.link_up.store(false, Ordering::SeqCst);
            // This node is the clock now: expiry decisions are made
            // (and published as DELs) here from this point on.
            self.engine.set_local_expiry(true);
        }
    }
}

/// Handle to a running server: address, shutdown, join.
pub struct ServerHandle {
    inner: Arc<Inner>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// Where the Prometheus endpoint is bound (useful with port 0);
    /// `None` when the server was started without `--metrics-addr`.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.inner.metrics_addr
    }

    /// The engine this server serves: direct calls share it with the
    /// connections (and are write-through, see [`ShardedDash::set`]).
    pub fn engine(&self) -> &ShardedDash {
        &self.inner.engine
    }

    /// The shared server state, for unit tests that drive a
    /// [`Conn`](crate::net::conn::Conn) by hand.
    #[cfg(test)]
    pub(crate) fn inner(&self) -> &Arc<Inner> {
        &self.inner
    }

    /// Block until the server stops on its own (a client issued
    /// `SHUTDOWN`) — the serve-forever mode of the `dash-server` binary.
    pub fn join(mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }

    /// Ask the server to stop, wait for every event loop and stream
    /// thread to drain, and close the engine's pools cleanly.
    pub fn shutdown(mut self) {
        self.inner.begin_shutdown();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

/// Serve `engine` on `addr` (e.g. `"127.0.0.1:0"` for an ephemeral
/// port). Returns once the listener is bound; accepting runs on a
/// background thread. Dropping the handle without calling
/// [`ServerHandle::shutdown`] leaves the pools uncleanly closed — the
/// store recovers, but with a version bump, exactly like a crash.
pub fn serve(engine: ShardedDash, addr: impl ToSocketAddrs) -> std::io::Result<ServerHandle> {
    serve_with(engine, addr, ServeOptions::default())
}

/// [`serve`] with options — replica mode, cluster mode, worker count,
/// metrics endpoint.
pub fn serve_with(
    engine: ShardedDash,
    addr: impl ToSocketAddrs,
    opts: ServeOptions,
) -> std::io::Result<ServerHandle> {
    if opts.cluster_announce.is_some() && opts.replica_of.is_some() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "cluster mode and replica mode are mutually exclusive on one server",
        ));
    }
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let cluster = match opts.cluster_announce.as_deref() {
        Some(announce) => {
            let announce =
                if announce == "auto" { addr.to_string() } else { announce.to_string() };
            Some(crate::cluster::ClusterState::open(announce, engine.store_dir())?)
        }
        None => None,
    };
    let event_workers = opts
        .event_workers
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
        .max(1);
    // Bind the metrics endpoint up front, like the service listener:
    // a bad --metrics-addr fails serve_with instead of surfacing later.
    let metrics_listener = match &opts.metrics_addr {
        Some(a) => Some(TcpListener::bind(a)?),
        None => None,
    };
    let metrics_addr = match &metrics_listener {
        Some(l) => Some(l.local_addr()?),
        None => None,
    };
    let inner = Arc::new(Inner {
        engine,
        shutdown: AtomicBool::new(false),
        addr,
        metrics: Metrics::new(
            opts.slowlog_threshold_us.unwrap_or(DEFAULT_SLOWLOG_THRESHOLD_US),
        ),
        tracer: crate::trace::Tracer::new(),
        metrics_addr,
        event_workers,
        wakes: Mutex::new(Vec::new()),
        stream_threads: Mutex::new(Vec::new()),
        role: AtomicU8::new(u8::from(opts.replica_of.is_some())),
        master_addr: opts.replica_of.clone(),
        applied_offset: AtomicU64::new(0),
        link_up: AtomicBool::new(false),
        sync_stop: AtomicBool::new(false),
        replica_thread: Mutex::new(None),
        cluster,
        tick_thread: Mutex::new(None),
    });
    if let Some(cl) = &inner.cluster {
        cl.bind(&inner);
    }
    if let Some(master) = opts.replica_of {
        // A replica is never the expiry clock: due keys are hidden from
        // its reads, but only the primary's replicated DEL deletes them.
        inner.engine.set_local_expiry(false);
        let sync_inner = inner.clone();
        let handle = std::thread::spawn(move || crate::repl::replica::run(sync_inner, master));
        *inner.replica_thread.lock() = Some(handle);
    }
    // The expiry/reclamation tick: active TTL expiry from the timer
    // wheel, one incremental sweep page (catches deadlines set before
    // the last open, which the volatile wheel never saw), and record
    // reclamation when a shard's garbage crosses the threshold. This is
    // the one deliberate periodic wakeup in the process — the *event
    // core* still makes none while idle.
    {
        let tick_inner = inner.clone();
        let handle = std::thread::spawn(move || {
            while !tick_inner.shutdown.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(100));
                tick_inner.engine.expire_tick(512);
                tick_inner.engine.sweep_tick(256);
                tick_inner.engine.reclaim_tick();
            }
        });
        *inner.tick_thread.lock() = Some(handle);
    }
    // Build the whole event core fallibly before anything serves: the
    // worker pool first, then the accept loop wired to it.
    let workers = (0..event_workers)
        .map(|id| crate::net::spawn_worker(id, inner.clone()))
        .collect::<std::io::Result<Vec<_>>>()?;
    let acceptor = crate::net::Acceptor::new(listener, metrics_listener, workers, &inner)?;
    let accept_inner = inner.clone();
    let accept_thread = std::thread::spawn(move || acceptor.run(accept_inner));
    Ok(ServerHandle { inner, accept_thread: Some(accept_thread) })
}

/// What the connection should do once a command's reply is in its write
/// buffer ([`execute`] always puts it there itself).
pub(crate) enum Outcome {
    Replied,
    /// `PSYNC` accepted: the connection becomes a replication stream.
    StartReplication,
    /// `SHUTDOWN`: its `+OK` is in the buffer.
    Shutdown,
}

/// Per-connection command-dispatch state: the cluster `ASKING` flag and
/// the `TRACEID` forced-capture token — both one-shot, licensing only
/// the **next** command.
#[derive(Default)]
pub(crate) struct Session {
    pub(crate) asking: bool,
    /// Set by `TRACEID <id> <hops>`: the next command is trace-captured
    /// under this `(origin id, hop count)` regardless of sampling —
    /// how a cluster client or the replication stream carries one
    /// request's identity across servers.
    pub(crate) trace_force: Option<(u64, u32)>,
}

/// The one way a reply leaves [`execute`]: appended to the connection's
/// write buffer. The hot replies have their own spellings below (static
/// bytes, or an integer formatted on the stack); everything else is a
/// [`Value`] encoded here.
fn reply(out: &mut Vec<u8>, v: Value) -> Outcome {
    encode(&v, out);
    Outcome::Replied
}

fn reply_ok(out: &mut Vec<u8>) -> Outcome {
    out.extend_from_slice(resp::OK);
    Outcome::Replied
}

fn reply_int(out: &mut Vec<u8>, n: i64) -> Outcome {
    resp::encode_integer(n, out);
    Outcome::Replied
}

fn err(out: &mut Vec<u8>, msg: impl Into<String>) -> Outcome {
    reply(out, Value::Error(format!("ERR {}", msg.into())))
}

/// Map an engine error to its reply. [`EngineError::Oom`] gets the
/// Redis `OOM` error class (clients special-case it); everything else
/// is generic `ERR`.
fn engine_err(out: &mut Vec<u8>, e: crate::engine::EngineError) -> Outcome {
    match e {
        crate::engine::EngineError::Oom => reply(out, Value::Error(format!("OOM {e}"))),
        e => err(out, e.to_string()),
    }
}

/// An engine call's count (keys removed, TTL left, records written…) as
/// the integer reply, or its error.
fn reply_count(out: &mut Vec<u8>, n: crate::engine::EngineResult<i64>) -> Outcome {
    match n {
        Ok(n) => reply_int(out, n),
        Err(e) => engine_err(out, e),
    }
}

fn parse_int(b: &[u8]) -> Option<i64> {
    std::str::from_utf8(b).ok().and_then(|s| s.parse::<i64>().ok())
}

const NOT_CLUSTER: &str = "this server was not started in cluster mode";

fn wrong_args(out: &mut Vec<u8>, cmd: &Command) -> Outcome {
    let name = cmd.name.to_ascii_lowercase();
    err(out, format!("wrong number of arguments for '{name}' command"))
}

/// Execute one decoded command, already resolved to its table entry
/// `cmd`, against the engine, appending its reply to `out`. `parts`
/// borrows from the connection's read buffer: nothing here copies an
/// argument unless the command must keep it.
pub(crate) fn execute(
    cmd: &Command,
    parts: &[&[u8]],
    inner: &Inner,
    session: &mut Session,
    out: &mut Vec<u8>,
) -> Outcome {
    let engine = &inner.engine;
    let args = &parts[1..];
    // ASKING is one-shot: it covers exactly the next command.
    let asking = std::mem::take(&mut session.asking);
    // A replica owns no writes: its state is the primary's stream (the
    // sync thread applies that through the engine directly, not through
    // commands). Client writes bounce with the Redis error class.
    if cmd.write && inner.role() == Role::Replica {
        return reply(
            out,
            Value::Error("READONLY You can't write against a read only replica.".into()),
        );
    }
    // The cluster slot gate: every keyed command must hash to a slot
    // this node may serve, or the redirect (MOVED/ASK/TRYAGAIN/
    // CROSSSLOT) is the reply; a command without keys (ASKING and
    // CLUSTER among them) passes. The returned guard marks the command
    // in-flight against a migrating slot until it finishes executing —
    // the migration flip's fence waits on those.
    let _migrating_guard = match &inner.cluster {
        Some(cl) => match cl.check(cmd.keys(args), asking) {
            Ok(guard) => guard,
            Err(redirect) => return reply(out, redirect),
        },
        None => None,
    };
    // The one arity check; the arms below index `args` on its word.
    if !cmd.arity.contains(&args.len()) {
        return wrong_args(out, cmd);
    }
    match cmd.id {
        Cmd::Ping => match args {
            [msg] => {
                resp::encode_bulk(msg, out);
                Outcome::Replied
            }
            _ => reply(out, Value::Simple("PONG".into())),
        },
        Cmd::Get => match engine.get_into(args[0], out) {
            Ok(()) => Outcome::Replied,
            Err(e) => err(out, e.to_string()),
        },
        // `SET key value [EX s | PX ms | EXAT s | PXAT ms]`. The
        // relative forms resolve to an absolute Unix-ms deadline *here*,
        // on the primary — everything downstream (redo log, replica
        // stream, snapshots, migration) carries the absolute deadline
        // and never re-derives time. Plain SET clears any existing TTL.
        Cmd::Set => {
            let expire_at_ms = match args {
                [_, _] => 0,
                [_, _, unit, n] => {
                    let Some(n) = parse_int(n).filter(|n| *n >= 1) else {
                        return err(out, "invalid expire time in 'set' command");
                    };
                    let n = n as u64;
                    let now = crate::expire::now_ms();
                    if unit.eq_ignore_ascii_case(b"EX") {
                        now.saturating_add(n.saturating_mul(1000))
                    } else if unit.eq_ignore_ascii_case(b"PX") {
                        now.saturating_add(n)
                    } else if unit.eq_ignore_ascii_case(b"EXAT") {
                        n.saturating_mul(1000)
                    } else if unit.eq_ignore_ascii_case(b"PXAT") {
                        n
                    } else {
                        return err(out, "syntax error");
                    }
                }
                _ => return wrong_args(out, cmd),
            };
            match engine.set_with_expiry(args[0], args[1], expire_at_ms) {
                Ok(()) => reply_ok(out),
                Err(e) => engine_err(out, e),
            }
        }
        // The multi-key commands are their single-key calls, a key at a
        // time in argument order, under the tick's group commit; their
        // keys are hinted together first (inert, and harmless repeated
        // after the window's own hint). A write checks every key (and
        // value) before it executes any: a bad one writes nothing.
        Cmd::Mget => {
            engine.prefetch(cmd.keys(args));
            let start = out.len();
            resp::encode_array_len(args.len(), out);
            match args.iter().try_for_each(|key| engine.get_into(key, out)) {
                Ok(()) => Outcome::Replied,
                Err(e) => {
                    out.truncate(start);
                    err(out, e.to_string())
                }
            }
        }
        Cmd::Mset => {
            if !args.len().is_multiple_of(2) {
                return wrong_args(out, cmd);
            }
            let pairs = || args.chunks_exact(2);
            let written =
                pairs().try_for_each(|kv| ShardedDash::check_write(kv[0], kv[1])).and_then(|()| {
                    engine.prefetch(cmd.keys(args));
                    pairs().try_for_each(|kv| engine.set(kv[0], kv[1]))
                });
            match written {
                Ok(()) => reply_ok(out),
                Err(e) => engine_err(out, e),
            }
        }
        Cmd::Del => {
            let removed = args.iter().try_for_each(|key| ShardedDash::check_key(key)).and_then(|()| {
                engine.prefetch(cmd.keys(args));
                args.iter().try_fold(0, |n, key| Ok(n + i64::from(engine.del(key)?)))
            });
            reply_count(out, removed)
        }
        // `EXPIRE key s` / `PEXPIRE key ms`: resolved to an absolute
        // deadline here on the primary (the one clock); a non-positive
        // TTL deletes the key now, exactly like Redis.
        Cmd::Expire(unit_ms) => {
            let Some(n) = parse_int(args[1]) else {
                return err(out, "value is not an integer or out of range");
            };
            let now = crate::expire::now_ms();
            // Already due (`n <= 0`): expire_at deletes outright.
            let ttl_ms = if n <= 0 { 0 } else { (n as u64).saturating_mul(unit_ms) };
            reply_count(out, engine.expire_at(args[0], now.saturating_add(ttl_ms)).map(i64::from))
        }
        // TTL rounds the remaining time *up*: a key with 1 ms left reports
        // 1 s, never the "no expiry" -0. Negative: no expiry, or no key.
        Cmd::Ttl(unit_ms) => {
            let round_up = |ms| if ms >= 0 { (ms + unit_ms - 1) / unit_ms } else { ms };
            reply_count(out, engine.ttl_ms(args[0]).map(round_up))
        }
        Cmd::Persist => reply_count(out, engine.persist(args[0]).map(i64::from)),
        // A key listed twice counts twice.
        Cmd::Exists => {
            engine.prefetch(cmd.keys(args));
            let present = args.iter().try_fold(0, |n, key| Ok(n + i64::from(engine.exists(key)?)));
            reply_count(out, present)
        }
        Cmd::Scan => {
            let count = match args {
                [_] => DEFAULT_SCAN_COUNT,
                [_, word, n] if word.eq_ignore_ascii_case(b"COUNT") => {
                    match std::str::from_utf8(n).ok().and_then(|s| s.parse::<usize>().ok()) {
                        Some(n) if n >= 1 => n.min(MAX_SCAN_COUNT),
                        _ => return err(out, "COUNT must be a positive integer"),
                    }
                }
                _ => return wrong_args(out, cmd),
            };
            let Some(cursor) =
                std::str::from_utf8(args[0]).ok().and_then(|s| s.parse::<u64>().ok())
            else {
                return err(out, "invalid cursor");
            };
            match engine.scan_keys(cursor, count) {
                Ok((next, keys)) => reply(
                    out,
                    Value::Array(vec![
                        Value::Bulk(next.to_string().into_bytes()),
                        Value::Array(keys.into_iter().map(Value::Bulk).collect()),
                    ]),
                ),
                Err(e) => err(out, e.to_string()),
            }
        }
        // Test-only: enumerates the whole store in one reply. Only the
        // match-everything pattern is supported; use SCAN in production.
        Cmd::Keys if args[0] == b"*" => match engine.keys() {
            Ok(keys) => reply(out, Value::Array(keys.into_iter().map(Value::Bulk).collect())),
            Err(e) => err(out, e.to_string()),
        },
        Cmd::Keys => err(out, "only the '*' pattern is supported"),
        Cmd::Snapshot => match std::str::from_utf8(args[0]) {
            Ok(path) => {
                reply_count(out, engine.snapshot_to(std::path::Path::new(path)).map(|n| n as i64))
            }
            Err(_) => err(out, "snapshot path must be valid UTF-8"),
        },
        Cmd::Dbsize => {
            // Collapse due timers first so the count never includes
            // an expired-but-unreclaimed key. Only a primary may do
            // this (it publishes the DELs); a replica's count
            // converges through the primary's stream.
            if inner.role() == Role::Primary {
                engine.expire_now();
            }
            reply_int(out, engine.len() as i64)
        }
        // Every INFO form is O(shards) except `INFO keyspace`, which
        // pays an O(total keys) ground-truth scan — deliberately opt-in
        // so monitoring polls never scale with the data they watch.
        Cmd::Info => {
            let text = match args {
                [word] => match stats::named(word) {
                    Some(section) => stats::info(inner, section),
                    None => return err(
                        out,
                        "unknown INFO section ('replication', 'stats', 'latency', 'memory' and 'keyspace' are supported)",
                    ),
                },
                _ => stats::info(inner, stats::DEFAULT),
            };
            resp::encode_bulk(text.as_bytes(), out);
            Outcome::Replied
        }
        // The slow-command ring: `SLOWLOG GET [n]` (newest first),
        // `SLOWLOG LEN`, `SLOWLOG RESET`. Entries are arrays shaped like
        // Redis's: id, unix time, duration µs, [command, key prefix],
        // plus the serving worker id.
        Cmd::Slowlog => match args {
            [sub] if sub.eq_ignore_ascii_case(b"LEN") => {
                reply_int(out, inner.metrics.slowlog.len() as i64)
            }
            [sub] if sub.eq_ignore_ascii_case(b"RESET") => {
                inner.metrics.slowlog.reset();
                reply_ok(out)
            }
            [sub] | [sub, _] if sub.eq_ignore_ascii_case(b"GET") => {
                let n = match args {
                    [_, n] => match parse_int(n) {
                        Some(-1) => usize::MAX,
                        Some(n) if n >= 0 => n as usize,
                        _ => return err(out, "SLOWLOG GET count must be an integer >= -1"),
                    },
                    _ => 10,
                };
                let entries = inner
                    .metrics
                    .slowlog
                    .get(n)
                    .into_iter()
                    .map(|e| {
                        let mut fields = vec![
                            Value::Integer(e.id as i64),
                            Value::Integer(e.unix_secs as i64),
                            Value::Integer(e.duration_us as i64),
                            Value::Array(vec![
                                Value::Bulk(e.cmd.into_bytes()),
                                Value::Bulk(e.key.into_bytes()),
                            ]),
                            Value::Integer(e.worker as i64),
                        ];
                        // The sampled trace's stage breakdown, when the
                        // tracer captured the same request: 7 integers
                        // (ns) in `Stage::ALL` order.
                        if let Some(stages) = e.stages_ns {
                            fields.push(Value::Array(
                                stages.iter().map(|&ns| Value::Integer(ns as i64)).collect(),
                            ));
                        }
                        Value::Array(fields)
                    })
                    .collect();
                reply(out, Value::Array(entries))
            }
            _ => err(out, "SLOWLOG subcommand must be GET [count], LEN or RESET"),
        },
        // The tracing control surface. `TRACE ON [SAMPLE n]` /
        // `TRACE OFF` gate the sampler; DUMP/GET read the flight
        // recorder; THRESHOLD tunes always-on slow capture; STATUS
        // reports the knobs; RESET clears the rings.
        Cmd::Trace => trace_command(inner, args, out),
        // One-shot trace propagation: capture the NEXT command under
        // this identity. `TRACEID 0 0` asks the server to assign a
        // fresh id (the reply), which is how a client starts a trace it
        // can later look up; nonzero ids arrive from cluster clients
        // re-sending after a redirect and from the PSYNC tail.
        Cmd::TraceId => {
            let (Some(id), Some(hops)) = (parse_int(args[0]), parse_int(args[1])) else {
                return err(out, "TRACEID arguments must be integers");
            };
            if id < 0 || hops < 0 {
                return err(out, "TRACEID arguments must be non-negative");
            }
            let id = if id == 0 { inner.tracer.alloc_id() } else { id as u64 };
            session.trace_force = Some((id, hops as u32));
            reply_int(out, id as i64)
        }
        // Replication handshake: REPLCONF carries replica metadata
        // (accepted and ignored — `listening-port` etc. are advisory);
        // PSYNC turns the connection into a replication stream.
        Cmd::Replconf => reply_ok(out),
        Cmd::Psync if inner.role() == Role::Replica => {
            err(out, "PSYNC on a replica (chained replication) is not supported")
        }
        Cmd::Psync => Outcome::StartReplication,
        Cmd::Replicaof => {
            if args[0].eq_ignore_ascii_case(b"NO") && args[1].eq_ignore_ascii_case(b"ONE") {
                // Promote: stop and join the sync loop, then accept
                // writes. +OK is sent only once the fence is complete.
                inner.promote();
                reply_ok(out)
            } else {
                err(
                    out,
                    "attaching to a primary at runtime is not supported; start with --replica-of",
                )
            }
        }
        // Cluster commands exist (as errors) outside cluster mode too,
        // so misdirected clients get a clear diagnosis instead of
        // "unknown command".
        Cmd::Cluster => match &inner.cluster {
            Some(cl) => reply(out, crate::cluster::cluster_command(cl, inner, args)),
            None => err(out, NOT_CLUSTER),
        },
        Cmd::Asking if inner.cluster.is_some() => {
            session.asking = true;
            reply_ok(out)
        }
        Cmd::Asking => err(out, NOT_CLUSTER),
        Cmd::Shutdown => {
            out.extend_from_slice(resp::OK);
            Outcome::Shutdown
        }
        // Test-only: panics inside the command handler, to prove a
        // connection panic is caught, counted, and costs only that
        // connection (not the worker or its other connections).
        #[cfg(test)]
        Cmd::PanicTest => panic!("PANICTEST: injected command-handler panic"),
        Cmd::Unknown => {
            err(out, format!("unknown command '{}'", String::from_utf8_lossy(parts[0])))
        }
    }
}

/// Dispatch the `TRACE` subcommands against [`Inner::tracer`].
fn trace_command(inner: &Inner, args: &[&[u8]], out: &mut Vec<u8>) -> Outcome {
    let t = &inner.tracer;
    match args {
        [sub] if sub.eq_ignore_ascii_case(b"ON") => {
            t.set_enabled(true);
            reply_ok(out)
        }
        [sub, word, n]
            if sub.eq_ignore_ascii_case(b"ON") && word.eq_ignore_ascii_case(b"SAMPLE") =>
        {
            match parse_int(n) {
                Some(n) if n >= 0 => {
                    t.set_sample_every(n as u64);
                    t.set_enabled(true);
                    reply_ok(out)
                }
                _ => err(out, "SAMPLE must be a non-negative integer (0 disables the sampler)"),
            }
        }
        [sub] if sub.eq_ignore_ascii_case(b"OFF") => {
            t.set_enabled(false);
            reply_ok(out)
        }
        [sub] | [sub, _] if sub.eq_ignore_ascii_case(b"DUMP") => {
            let n = match args {
                [_, n] => match parse_int(n) {
                    Some(n) if n >= 1 => n as usize,
                    _ => return err(out, "TRACE DUMP count must be a positive integer"),
                },
                _ => usize::MAX,
            };
            reply(out, Value::Array(t.dump(n).iter().map(trace_record_value).collect()))
        }
        [sub, id] if sub.eq_ignore_ascii_case(b"GET") => match parse_int(id) {
            Some(id) if id >= 1 => reply(
                out,
                Value::Array(t.get(id as u64).iter().map(trace_record_value).collect()),
            ),
            _ => err(out, "TRACE GET id must be a positive integer"),
        },
        [sub, us] if sub.eq_ignore_ascii_case(b"THRESHOLD") => match parse_int(us) {
            Some(us) if us >= 0 => {
                t.set_threshold_us(us as u64);
                reply_ok(out)
            }
            _ => err(out, "THRESHOLD must be microseconds >= 0 (0 disables threshold capture)"),
        },
        [sub] if sub.eq_ignore_ascii_case(b"RESET") => {
            t.reset();
            reply_ok(out)
        }
        [sub] if sub.eq_ignore_ascii_case(b"STATUS") => {
            let pairs: [(&str, i64); 6] = [
                ("enabled", i64::from(t.enabled())),
                ("sample_every", t.sample_every() as i64),
                ("threshold_us", t.threshold_us() as i64),
                ("captured", t.captured_total() as i64),
                ("abandoned", t.abandoned_total() as i64),
                ("retained", t.len() as i64),
            ];
            reply(
                out,
                Value::Array(
                    pairs
                        .iter()
                        .flat_map(|(k, v)| [Value::bulk(k.as_bytes()), Value::Integer(*v)])
                        .collect(),
                ),
            )
        }
        _ => err(
            out,
            "TRACE subcommand must be ON [SAMPLE n], OFF, DUMP [n], GET <id>, THRESHOLD <us>, STATUS or RESET",
        ),
    }
}

/// One flight-recorder span on the wire: a flat array alternating
/// field-name / value, so clients need no fixed-position schema.
/// Durations are nanoseconds (sub-µs stages must survive rounding for
/// the stage-sum ≈ total invariant to be checkable from a dump).
fn trace_record_value(r: &crate::trace::TraceRecord) -> Value {
    let mut fields: Vec<Value> = Vec::with_capacity(2 * (9 + crate::trace::Stage::COUNT));
    let mut push = |name: &str, v: Value| {
        fields.push(Value::bulk(name.as_bytes()));
        fields.push(v);
    };
    push("id", Value::Integer(r.id as i64));
    push("origin", Value::Integer(r.origin as i64));
    push("hops", Value::Integer(i64::from(r.hops)));
    push("unix_ms", Value::Integer(r.unix_ms as i64));
    push("cmd", Value::bulk(r.cmd.as_bytes()));
    push("key", Value::bulk(r.key.as_bytes()));
    push("worker", Value::Integer(r.worker as i64));
    push("reason", Value::bulk(r.reason.name().as_bytes()));
    push("total_ns", Value::Integer(r.total_ns as i64));
    for stage in crate::trace::Stage::ALL {
        push(
            &format!("{}_ns", stage.name()),
            Value::Integer(r.stages_ns[stage.index()] as i64),
        );
    }
    Value::Array(fields)
}

/// Serve one replica over an accepted connection (the `PSYNC` handoff):
/// subscribe to the op stream *first* (pinning the offset cut), then
/// send `+FULLRESYNC <offset>` and, straight after it, one stream of
/// [`crate::repl::wire`] records: an online snapshot written page by
/// page ([`ShardedDash::snapshot_into`], which holds no epoch pin while
/// the socket blocks), its `END`, then the live tail — each traced op
/// preceded by a `MARK` of its trace id, and a `MARK 0` every ~2 s of
/// idleness as a liveness signal.
pub(crate) fn serve_replica_stream(mut stream: TcpStream, inner: &Inner) -> std::io::Result<()> {
    let sub = inner.engine.repl_subscribe();
    stream.write_all(format!("+FULLRESYNC {}\r\n", sub.start_offset).as_bytes())?;
    inner.engine.snapshot_into(&mut stream)?;
    let mut wbuf = Vec::new();
    let encode = |top: crate::repl::TracedOp, out: &mut Vec<u8>| {
        if top.trace_id != 0 {
            wire::encode(Record::Mark(top.trace_id), out);
        }
        wire::encode_record(&top.op, out);
    };
    let mut idle_polls = 0u32;
    loop {
        if inner.shutdown.load(Ordering::SeqCst) {
            return Ok(());
        }
        wbuf.clear();
        match sub.recv_timeout(Duration::from_millis(100)) {
            Ok(op) => {
                encode(op, &mut wbuf);
                // Drain whatever else is queued into the same write —
                // the stream-side analogue of pipelining — but bound
                // the burst so one write_all stays shippable.
                while wbuf.len() < 4 << 20 {
                    match sub.try_recv() {
                        Ok(more) => encode(more, &mut wbuf),
                        Err(_) => break,
                    }
                }
                stream.write_all(&wbuf)?;
                idle_polls = 0;
            }
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                idle_polls += 1;
                if idle_polls >= 20 {
                    // Not an op (the offset does not move on either
                    // side) — just proof of life, and the way a dead
                    // replica connection is detected while idle.
                    wire::encode(Record::Mark(0), &mut wbuf);
                    stream.write_all(&wbuf)?;
                    idle_polls = 0;
                }
            }
            // The hub dropped this sink as too slow: close the stream
            // so the replica reconnects and runs a fresh full sync.
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => return Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::RespClient;
    use crate::engine::EngineConfig;
    use crate::repl::ReplOp;
    use crate::resp::encode_command;
    use std::io::Read;

    fn mem_server() -> ServerHandle {
        let engine = ShardedDash::open(&EngineConfig {
            shards: 2,
            shard_bytes: 16 << 20,
            dir: None,
            ..EngineConfig::default()
        })
        .unwrap();
        serve(engine, "127.0.0.1:0").unwrap()
    }

    #[test]
    fn command_surface_end_to_end() {
        let server = mem_server();
        let mut c = RespClient::connect(server.addr()).unwrap();
        assert_eq!(c.command(&[b"PING"]).unwrap(), Value::Simple("PONG".into()));
        assert_eq!(c.command(&[b"PING", b"hey"]).unwrap(), Value::bulk(*b"hey"));
        assert_eq!(c.command(&[b"GET", b"nope"]).unwrap(), Value::Nil);
        assert_eq!(c.command(&[b"SET", b"a", b"1"]).unwrap(), Value::Simple("OK".into()));
        assert_eq!(c.command(&[b"GET", b"a"]).unwrap(), Value::bulk(*b"1"));
        assert_eq!(c.command(&[b"EXISTS", b"a", b"nope", b"a"]).unwrap(), Value::Integer(2));
        assert_eq!(c.command(&[b"DBSIZE"]).unwrap(), Value::Integer(1));
        assert_eq!(c.command(&[b"DEL", b"a", b"nope"]).unwrap(), Value::Integer(1));
        assert_eq!(c.command(&[b"DBSIZE"]).unwrap(), Value::Integer(0));
        let Value::Bulk(info) = c.command(&[b"INFO"]).unwrap() else {
            panic!("INFO must return a bulk string");
        };
        let info = String::from_utf8(info).unwrap();
        assert!(info.contains("shards:2"), "{info}");
        assert!(info.contains("recovered_shards:0"), "{info}");
        // The event core's health counters: nothing failed or panicked
        // while this test drove the whole command surface.
        assert!(info.contains("worker_panics:0"), "{info}");
        assert!(info.contains("accept_errors:0"), "{info}");
        assert!(info.contains("active_connections:1"), "{info}");
        server.shutdown();
    }

    #[test]
    fn multi_key_commands_end_to_end() {
        let server = mem_server();
        let mut c = RespClient::connect(server.addr()).unwrap();
        c.mset(&[(b"a", b"1"), (b"b", b"2"), (b"c", b"3")]).unwrap();
        assert_eq!(
            c.mget(&[b"a", b"missing", b"c", b"a"]).unwrap(),
            vec![Some(b"1".to_vec()), None, Some(b"3".to_vec()), Some(b"1".to_vec())],
            "MGET must preserve key order and report absences as Nil"
        );
        assert_eq!(c.exists(&[b"a", b"b", b"missing", b"a"]).unwrap(), 3);
        // One key or several: the same arm, the same semantics.
        assert_eq!(c.exists(&[b"b"]).unwrap(), 1);
        assert_eq!(c.del(&[b"b"]).unwrap(), 1);
        assert_eq!(c.exists(&[b"b"]).unwrap(), 0);
        assert_eq!(c.command(&[b"SET", b"b", b"2"]).unwrap(), Value::Simple("OK".into()));
        assert_eq!(c.del(&[b"a", b"missing", b"c"]).unwrap(), 2);
        assert_eq!(c.command(&[b"DBSIZE"]).unwrap(), Value::Integer(1));
        // Arity errors are replies, not disconnects.
        let Value::Error(e) = c.command(&[b"MSET", b"odd", b"pair", b"dangling"]).unwrap() else {
            panic!("odd MSET arity must produce an error reply");
        };
        assert!(e.contains("wrong number of arguments"), "{e}");
        let Value::Error(e) = c.command(&[b"MGET"]).unwrap() else {
            panic!("empty MGET must produce an error reply");
        };
        assert!(e.contains("wrong number of arguments"), "{e}");
        assert_eq!(c.command(&[b"PING"]).unwrap(), Value::Simple("PONG".into()));
        server.shutdown();
    }

    #[test]
    fn pipelined_batch_gets_replies_in_order() {
        let server = mem_server();
        let mut c = RespClient::connect(server.addr()).unwrap();
        for i in 0..100u32 {
            c.enqueue(&[b"SET", format!("k{i}").as_bytes(), format!("v{i}").as_bytes()]);
        }
        for i in 0..100u32 {
            c.enqueue(&[b"GET", format!("k{i}").as_bytes()]);
        }
        c.flush().unwrap();
        for _ in 0..100 {
            assert_eq!(c.read_reply().unwrap(), Value::Simple("OK".into()));
        }
        for i in 0..100u32 {
            assert_eq!(c.read_reply().unwrap(), Value::bulk(format!("v{i}").into_bytes()));
        }
        server.shutdown();
    }

    #[test]
    fn errors_are_replies_not_disconnects() {
        let server = mem_server();
        let mut c = RespClient::connect(server.addr()).unwrap();
        let Value::Error(e) = c.command(&[b"NOSUCH", b"x"]).unwrap() else {
            panic!("unknown command must produce an error reply");
        };
        assert!(e.contains("unknown command"), "{e}");
        let Value::Error(e) = c.command(&[b"SET", b"only-key"]).unwrap() else {
            panic!("arity error must produce an error reply");
        };
        assert!(e.contains("wrong number of arguments"), "{e}");
        // The connection is still healthy afterwards.
        assert_eq!(c.command(&[b"PING"]).unwrap(), Value::Simple("PONG".into()));
        server.shutdown();
    }

    #[test]
    fn protocol_error_closes_connection() {
        let server = mem_server();
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.write_all(b"GET inline\r\n").unwrap();
        let mut reply = Vec::new();
        s.read_to_end(&mut reply).unwrap(); // server replies then hangs up
        let text = String::from_utf8_lossy(&reply);
        assert!(text.starts_with("-ERR"), "{text}");
        assert!(text.contains("inline"), "{text}");
        server.shutdown();
    }

    #[test]
    fn concurrent_clients() {
        let server = mem_server();
        let addr = server.addr();
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                scope.spawn(move || {
                    let mut c = RespClient::connect(addr).unwrap();
                    for i in 0..200u32 {
                        let key = format!("c{t}-{i}");
                        assert_eq!(
                            c.command(&[b"SET", key.as_bytes(), key.as_bytes()]).unwrap(),
                            Value::Simple("OK".into())
                        );
                        assert_eq!(
                            c.command(&[b"GET", key.as_bytes()]).unwrap(),
                            Value::bulk(key.into_bytes())
                        );
                    }
                });
            }
        });
        let mut c = RespClient::connect(addr).unwrap();
        assert_eq!(c.command(&[b"DBSIZE"]).unwrap(), Value::Integer(800));
        assert_eq!(c.info_field("worker_panics").unwrap().as_deref(), Some("0"));
        server.shutdown();
    }

    /// A panic inside one connection's command handler costs that
    /// connection only: it is caught, counted in `worker_panics`, and
    /// the worker keeps serving its other connections.
    #[test]
    fn handler_panic_is_caught_counted_and_isolated() {
        // One worker, so the survivor provably shares its event loop
        // with the panicking connection.
        let engine =
            ShardedDash::open(&EngineConfig { shards: 2, shard_bytes: 16 << 20, dir: None, ..EngineConfig::default() })
                .unwrap();
        let server = serve_with(
            engine,
            "127.0.0.1:0",
            ServeOptions { event_workers: Some(1), ..Default::default() },
        )
        .unwrap();
        let mut survivor = RespClient::connect(server.addr()).unwrap();
        assert_eq!(survivor.command(&[b"SET", b"k", b"v"]).unwrap(), Value::Simple("OK".into()));

        let mut victim = TcpStream::connect(server.addr()).unwrap();
        let mut buf = Vec::new();
        encode_command(&[b"PANICTEST"], &mut buf);
        victim.write_all(&buf).unwrap();
        // The handler panics before any reply: the connection is
        // dropped, observed here as EOF (not a hang, not a server loss).
        let mut got = Vec::new();
        victim.read_to_end(&mut got).unwrap();
        assert!(got.is_empty(), "panicked handler must not send a reply: {got:?}");

        // The worker survived: its other connection is still served.
        assert_eq!(survivor.command(&[b"GET", b"k"]).unwrap(), Value::bulk(*b"v"));
        assert_eq!(survivor.info_field("worker_panics").unwrap().as_deref(), Some("1"));
        server.shutdown();
    }

    /// A panic mid-pipeline, under group commit: the mutations the tick
    /// had already applied reach the log (the batch scope flushes on
    /// unwind — they are in the pool, so a log without them would have a
    /// gap), and the worker's scope is not left open: the next
    /// connection's write is in the log by the time its reply is read.
    #[test]
    fn handler_panic_mid_pipeline_flushes_the_tick_and_closes_its_batch() {
        let dir = std::env::temp_dir().join(format!("dash-panic-batch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let engine = ShardedDash::open(&EngineConfig {
            shards: 1,
            shard_bytes: 16 << 20,
            dir: Some(dir.clone()),
            ..EngineConfig::default()
        })
        .unwrap();
        let server = serve_with(
            engine,
            "127.0.0.1:0",
            ServeOptions { event_workers: Some(1), ..Default::default() },
        )
        .unwrap();
        let logged = || -> Vec<ReplOp> {
            let mut ops = Vec::new();
            for file in crate::repl::log::replay_from(&dir.join("repl-0.log"), 0).unwrap() {
                ops.append(&mut crate::repl::log::read_log(&file.path).unwrap().0);
            }
            ops
        };
        let set = |k: &[u8], v: &[u8]| ReplOp::Set { key: k.to_vec(), value: v.to_vec() };

        let mut victim = TcpStream::connect(server.addr()).unwrap();
        let mut pipeline = Vec::new();
        encode_command(&[b"SET", b"a", b"1"], &mut pipeline);
        encode_command(&[b"SET", b"b", b"2"], &mut pipeline);
        encode_command(&[b"PANICTEST"], &mut pipeline);
        encode_command(&[b"SET", b"c", b"3"], &mut pipeline);
        victim.write_all(&pipeline).unwrap();
        // EOF: the connection was dropped by the caught panic.
        let mut got = Vec::new();
        let _ = victim.read_to_end(&mut got);
        assert_eq!(logged(), vec![set(b"a", b"1"), set(b"b", b"2")]);
        assert_eq!(server.engine().get(b"c").unwrap(), None, "nothing runs after the panic");

        // Same worker, next connection: were the scope still open, this
        // tick's would nest inside it and never flush.
        let mut survivor = RespClient::connect(server.addr()).unwrap();
        assert_eq!(survivor.command(&[b"SET", b"d", b"4"]).unwrap(), Value::Simple("OK".into()));
        assert_eq!(logged(), vec![set(b"a", b"1"), set(b"b", b"2"), set(b"d", b"4")]);
        assert_eq!(survivor.info_field("worker_panics").unwrap().as_deref(), Some("1"));
        assert_eq!(survivor.info_field("log_append_errors").unwrap().as_deref(), Some("0"));
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shutdown_command_stops_the_server() {
        let server = mem_server();
        let addr = server.addr();
        let mut c = RespClient::connect(addr).unwrap();
        assert_eq!(c.command(&[b"SHUTDOWN"]).unwrap(), Value::Simple("OK".into()));
        // The accept thread exits; join via the handle must not hang.
        server.shutdown();
        // New connections are refused (or reset) once the listener died.
        std::thread::sleep(Duration::from_millis(50));
        let mut failed = false;
        for _ in 0..20 {
            match TcpStream::connect(addr) {
                Err(_) => {
                    failed = true;
                    break;
                }
                Ok(_) => std::thread::sleep(Duration::from_millis(50)),
            }
        }
        assert!(failed, "listener must stop accepting after SHUTDOWN");
    }
}
