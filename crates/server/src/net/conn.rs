//! The non-blocking connection state machine: one [`Conn`] per client,
//! driven by its event loop whenever epoll reports readiness.
//!
//! A readiness tick does bounded work — read what the socket has,
//! execute every complete pipelined command into the write buffer, and
//! write what the socket will take — and then parks the connection
//! again with exactly the epoll interest that can make further
//! progress. Two rules bound memory against a client that writes
//! commands faster than it reads replies (or never reads them at all):
//!
//! * **Write backpressure.** Once [`HIGH_WATER`] reply bytes are
//!   pending, the connection stops *executing* (and stops reading), and
//!   re-arms only for writability; decoding resumes as the kernel
//!   drains the buffer. Pending replies are therefore bounded by
//!   `HIGH_WATER` plus one command's reply.
//! * **Bounded read bursts.** At most [`MAX_READS_PER_EVENT`] chunks
//!   are read per tick; level-triggered epoll re-arms the rest, so one
//!   firehose connection cannot starve its loop-mates.
//!
//! And what a burst did grow is given back: a buffer that one large
//! command or reply stretched returns to its resting size once it drains
//! ([`release_if_oversized`]), so peak capacity is not pinned for the
//! life of the connection.
//!
//! **Decode a window, hint it, execute it in order.** Bytes are read
//! straight into the read buffer. [`Conn::run_commands`] then takes the
//! buffered pipeline a *window* at a time — up to [`WINDOW`] complete
//! commands:
//!
//! 1. **decode** each command once, into slices *of the read buffer*
//!    ([`decode_args`]) held in a fixed array on the stack, and **resolve**
//!    its name against the command table ([`lookup`]) — once: every
//!    later step takes the entry;
//! 2. **hint** the engine with the keys of the window's keyed commands
//!    (the entry's key spec → [`ShardedDash::prefetch`]), which starts
//!    loading the buckets, records and values their lookups will read —
//!    for all of them at once, so that sixteen lookups wait for their
//!    cache misses together instead of one after another;
//! 3. **execute** the commands strictly in order, each reply appended to
//!    the write buffer by [`execute`] itself (a `GET` value goes pool →
//!    write buffer in one copy), and time each under its entry's family.
//!
//! A window reorders *nothing*. The hint only reads and prefetches — it
//! is not an early execution, and what a command sees is decided when it
//! runs: `SET k` then `GET k` in one window returns the new value. A
//! command is consumed from the read buffer only as it starts, so one
//! that backpressure (or a `SHUTDOWN`/`PSYNC` ahead of it) keeps from
//! starting is decoded and resolved again by a later window — never
//! executed twice, never dropped — and a protocol error behind `k` good
//! commands is reported after their `k` replies. One-shot session state (`ASKING`,
//! `TRACEID`), the panic boundary and the trace spans are per command,
//! as ever. A buffer holding a single complete command — depth-1 traffic
//! — is a window of one, and skips the hint: there is nothing to overlap
//! it with. That is a property of the input, not a setting. In steady
//! state a request allocates nothing.
//!
//! [`ShardedDash::prefetch`]: crate::engine::ShardedDash::prefetch
//!
//! **Group commit, scoped to the tick.** [`Conn::run_commands`] holds one
//! [`LogBatch`](crate::engine::LogBatch) for as long as it executes: the
//! redo-log records of the tick's mutations are buffered, and written
//! out — one `write(2)` per shard touched — when it returns, which is
//! before [`Conn::on_ready`] hands any of the tick's reply bytes to the
//! socket. Acknowledged therefore still implies logged, at a fraction of
//! a syscall per pipelined write.
//!
//! The slow paths keep their blocking shape deliberately: `SHUTDOWN`'s
//! `+OK` and the `PSYNC` handoff flush with a bounded blocking write,
//! because both are once-per-connection events whose next act (server
//! teardown, replication streaming) is blocking anyway.

use std::collections::VecDeque;
use std::io::{self, ErrorKind, Write};
use std::mem::MaybeUninit;
use std::net::TcpStream;
use std::os::unix::io::{AsRawFd, RawFd};
use std::time::{Duration, Instant};

use crate::command::{lookup, Command};
use crate::engine::{ShardedDash, PREFETCH_WINDOW};
use crate::metrics::CmdFamily;
use crate::resp::{decode_args, encode, Args, Decode, ProtocolError, Value};
use crate::server::{execute, Inner, Outcome, Session, WRITE_TIMEOUT};
use crate::trace::{self, Stage};

use super::sys::{read_spare, Interest};

/// The read buffer's resting capacity, and so the most one `read` asks
/// for on a connection that keeps up.
const READ_CHUNK: usize = 64 * 1024;
/// Spare read-buffer capacity below which a `read` first grows the
/// buffer (a partial command is sitting in it).
const MIN_READ_SPARE: usize = READ_CHUNK / 4;
/// Reads per readiness tick before yielding to other connections.
const MAX_READS_PER_EVENT: usize = 4;
/// Pending-reply bytes above which the connection stops executing
/// commands until the kernel drains the write side.
const HIGH_WATER: usize = 1 << 20;
/// Consumed-prefix size above which a partially written buffer is
/// compacted instead of growing.
const COMPACT_AT: usize = 1 << 20;
/// Captured spans that may await their reply-flush completion on one
/// connection. A deeply pipelined connection past this loses its oldest
/// spans (counted as abandoned) rather than growing without bound.
const PENDING_TRACE_CAP: usize = 128;
/// Commands decoded, hinted and then executed together: as many as the
/// engine hints at once (see [`PREFETCH_WINDOW`] for the sizing). A deeper
/// pipeline is consecutive windows.
const WINDOW: usize = PREFETCH_WINDOW;
/// Bytes of the key kept for the worker-panic log line.
const PANIC_CTX_LEN: usize = 24;

/// The error sent to a connection the shutdown path can no longer
/// serve, so clients can tell an orderly shutdown from a network fault.
pub(crate) const SHUTDOWN_ERR: &[u8] = b"-ERR server shutting down\r\n";

/// What the event loop should do with the connection after a tick.
#[derive(Debug)]
pub(crate) enum Drive {
    /// Keep it registered (interest may have changed).
    Continue,
    /// Deregister and drop it.
    Close,
    /// `PSYNC` accepted: hand the (flushed, re-blocked) socket to a
    /// dedicated replication-stream thread.
    Replicate,
}

/// Why a window stopped decoding.
enum WindowEnd {
    /// It holds [`WINDOW`] commands; more may follow.
    Full,
    /// The read buffer holds no further complete command.
    Drained,
    /// What follows the window's commands is not RESP.
    Malformed(ProtocolError),
}

/// Why the command-execution loop stopped.
enum Ran {
    /// Every complete command in the read buffer was executed.
    Drained,
    /// Stopped at [`HIGH_WATER`]; more complete commands may remain.
    Paused,
    /// `SHUTDOWN` executed (its `+OK` is in the write buffer).
    Shutdown,
    /// `PSYNC` accepted.
    Replicate,
}

pub(crate) struct Conn {
    stream: TcpStream,
    /// Id of the event-loop worker driving this connection (SLOWLOG
    /// entries carry it, so a hot worker is attributable).
    worker: u64,
    rbuf: Vec<u8>,
    consumed: usize,
    wbuf: Vec<u8>,
    wpos: usize,
    /// The interest currently registered with epoll (owned by the
    /// worker; stored here so a tick can tell whether it changed).
    pub(crate) registered: Interest,
    /// Protocol error replied: close once the write buffer drains.
    close_after_flush: bool,
    /// Client half-closed its write side; serve what's buffered, then
    /// close once replies are flushed.
    peer_eof: bool,
    /// Per-connection dispatch state (the cluster `ASKING` flag).
    session: Session,
    /// Monotonic count of reply bytes written to the socket. Together
    /// with `pending()` it orders captured spans against the byte
    /// stream, surviving write-buffer clears and compactions.
    wsent: u64,
    /// When the next command's queue-wait clock started: socket
    /// readiness for the first command of a tick, the previous
    /// command's completion for pipelined successors.
    cmd_mark: Option<Instant>,
    /// Captured spans (already in the flight recorder) whose replies
    /// have not fully reached the kernel yet; completed (reply-flush
    /// stage stamped) as `wsent` passes their end offset.
    pending_traces: VecDeque<PendingTrace>,
    /// The command in flight, for the worker-panic log line.
    panic: PanicContext,
}

/// In-flight command context for the worker-panic log line: the table
/// name, a key prefix (a fixed-size copy, no per-command allocation) and
/// the active trace span id (0 when untraced).
#[derive(Default)]
struct PanicContext {
    cmd: &'static str,
    key: [u8; PANIC_CTX_LEN],
    key_len: u8,
    span: u64,
}

impl PanicContext {
    /// Remember the command about to execute.
    fn note(&mut self, cmd: &'static Command, parts: &[&[u8]], span_id: u64) {
        self.cmd = cmd.name;
        let key = parts.get(1).copied().unwrap_or(b"");
        let k = key.len().min(PANIC_CTX_LEN);
        self.key[..k].copy_from_slice(&key[..k]);
        self.key_len = k as u8;
        self.span = span_id;
    }
}

/// A captured span waiting for its reply bytes to reach the kernel.
struct PendingTrace {
    id: u64,
    family: CmdFamily,
    /// Every stage but reply-flush, for the per-stage histograms.
    stages_ns: [u64; Stage::COUNT],
    /// When execution finished: the reply-flush stage runs from here.
    exec_end: Instant,
    /// `wsent` value at which this span's reply is fully written.
    end_off: u64,
}

/// Up to [`WINDOW`] decoded commands, inline. The slots are initialised
/// only as commands are pushed: building and dropping a whole
/// `[Args; WINDOW]` measures ~80 ns, which a depth-1 request — a window of
/// one — would pay in full on every round trip.
struct Window<'a> {
    slots: [MaybeUninit<Decoded<'a>>; WINDOW],
    len: usize,
}

/// A command, the table entry its name resolved to, and the read-buffer
/// offset just past it.
type Decoded<'a> = (Args<'a>, &'static Command, usize);

impl<'a> Window<'a> {
    fn new() -> Self {
        Window { slots: [const { MaybeUninit::uninit() }; WINDOW], len: 0 }
    }

    /// Append a command, resolving its name (panics past [`WINDOW`]).
    fn push(&mut self, parts: Args<'a>, end: usize) {
        let cmd = lookup(parts[0]);
        self.slots[self.len].write((parts, cmd, end));
        self.len += 1;
    }

    fn commands(&self) -> &[Decoded<'a>] {
        // SAFETY: `push` initialised the first `len` slots and nothing
        // de-initialises one before `drop`; `MaybeUninit<T>` has `T`'s
        // layout, so they are `len` consecutive `Decoded`.
        unsafe { std::slice::from_raw_parts(self.slots.as_ptr().cast(), self.len) }
    }
}

impl Drop for Window<'_> {
    fn drop(&mut self) {
        for slot in &mut self.slots[..self.len] {
            // SAFETY: initialised by `push` (see `commands`), dropped
            // exactly once: here.
            unsafe { slot.assume_init_drop() };
        }
    }
}

/// Fill the (empty) `window` with up to [`WINDOW`] complete commands
/// decoded from `buf[from..]`, each once, as slices of `buf`, each
/// resolved to its table entry, and say why decoding stopped. Nothing is
/// consumed: that happens as each command starts executing.
fn decode_window<'a>(buf: &'a [u8], from: usize, window: &mut Window<'a>) -> WindowEnd {
    let mut pos = from;
    while window.len < WINDOW {
        match decode_args(&buf[pos..]) {
            Ok(Decode::Complete(parts, used)) => {
                pos += used;
                window.push(parts, pos);
            }
            Ok(Decode::Incomplete) => return WindowEnd::Drained,
            Err(e) => return WindowEnd::Malformed(e),
        }
    }
    WindowEnd::Full
}

/// Hint the engine with the keys the window's commands address (the
/// first [`WINDOW`] of them: a multi-key command hints its own key list
/// again when it runs), so their lookups start loading together.
fn hint_window(engine: &ShardedDash, window: &[Decoded<'_>]) {
    let mut keys: [&[u8]; WINDOW] = [&[]; WINDOW];
    let mut n = 0;
    let keyed = window.iter().flat_map(|(parts, cmd, _)| cmd.keys(&parts[1..]));
    for key in keyed.take(WINDOW) {
        keys[n] = key;
        n += 1;
    }
    engine.prefetch(&keys[..n]);
}

fn dur_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Give back what one large command or reply made a connection buffer
/// grow to: called on a buffer that has just drained, it returns an
/// oversized one to its resting capacity, so that a 16 MiB `MSET` (or a
/// trip to [`HIGH_WATER`]) does not pin that memory until the client
/// disconnects.
fn release_if_oversized(buf: &mut Vec<u8>) {
    if buf.is_empty() && buf.capacity() > 4 * READ_CHUNK {
        buf.shrink_to(READ_CHUNK);
    }
}

impl Conn {
    /// Wrap an accepted stream (already nonblocking + nodelay).
    pub(crate) fn new(stream: TcpStream, worker: u64) -> Conn {
        Conn {
            stream,
            worker,
            rbuf: Vec::with_capacity(READ_CHUNK),
            consumed: 0,
            wbuf: Vec::new(),
            wpos: 0,
            registered: Interest::READ,
            close_after_flush: false,
            peer_eof: false,
            session: Session::default(),
            wsent: 0,
            cmd_mark: None,
            pending_traces: VecDeque::new(),
            panic: PanicContext::default(),
        }
    }

    pub(crate) fn fd(&self) -> RawFd {
        self.stream.as_raw_fd()
    }

    /// Reply bytes not yet written to the socket.
    fn pending(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// The epoll interest that can make progress right now.
    pub(crate) fn desired_interest(&self) -> Interest {
        Interest {
            readable: !self.close_after_flush && !self.peer_eof && self.pending() < HIGH_WATER,
            writable: self.pending() > 0,
        }
    }

    /// One readiness tick. `Err` means the connection is broken and
    /// should be dropped (the thread-per-connection model's behavior).
    pub(crate) fn on_ready(
        &mut self,
        readable: bool,
        writable: bool,
        inner: &Inner,
    ) -> io::Result<Drive> {
        if writable {
            self.flush_some()?;
            self.complete_traces(inner);
        }
        if readable && !self.close_after_flush && !self.peer_eof && self.pending() < HIGH_WATER {
            self.read_burst()?;
            // Queue-wait starts at readiness: commands now buffered have
            // been waiting since this moment (unless a prior command's
            // completion already started the clock).
            if self.cmd_mark.is_none() && self.rbuf.len() > self.consumed {
                self.cmd_mark = Some(Instant::now());
            }
        }
        // Execute + flush until neither can progress: a tick that
        // drains the write buffer below HIGH_WATER resumes executing
        // commands that backpressure had parked in the read buffer.
        loop {
            match self.run_commands(inner) {
                Ran::Shutdown => {
                    // Deliver the +OK before the listener dies; then the
                    // whole server winds down, so blocking (bounded by
                    // the write timeout) costs nothing.
                    let _ = self.flush_blocking();
                    inner.begin_shutdown();
                    return Ok(Drive::Close);
                }
                Ran::Replicate => {
                    // Flush pipelined replies ahead of the handoff; a
                    // failure here closes instead of streaming to a
                    // replica that already lost its socket.
                    self.flush_blocking()?;
                    return Ok(Drive::Replicate);
                }
                Ran::Drained => {
                    self.flush_some()?;
                    self.complete_traces(inner);
                    break;
                }
                Ran::Paused => {
                    self.flush_some()?;
                    self.complete_traces(inner);
                    if self.pending() >= HIGH_WATER {
                        break; // clogged: wait for EPOLLOUT
                    }
                }
            }
        }
        if (self.close_after_flush || self.peer_eof) && self.pending() == 0 {
            return Ok(Drive::Close);
        }
        Ok(Drive::Continue)
    }

    /// Take the socket for the replication handoff (blocking mode was
    /// restored by the preceding [`Conn::flush_blocking`]).
    pub(crate) fn into_stream(self) -> TcpStream {
        self.stream
    }

    /// Read what the socket has, up to the burst bound, straight into
    /// the read buffer's spare capacity.
    fn read_burst(&mut self) -> io::Result<()> {
        for _ in 0..MAX_READS_PER_EVENT {
            if self.rbuf.capacity() - self.rbuf.len() < MIN_READ_SPARE {
                self.rbuf.reserve(READ_CHUNK);
            }
            let spare = self.rbuf.capacity() - self.rbuf.len();
            match read_spare(self.stream.as_raw_fd(), &mut self.rbuf) {
                Ok(0) => {
                    self.peer_eof = true;
                    return Ok(());
                }
                Ok(n) if n < spare => return Ok(()), // socket drained
                Ok(_) => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Execute complete commands from the read buffer into the write
    /// buffer, a window at a time, until the buffer drains, backpressure
    /// pauses it, or a connection-fate command (SHUTDOWN/PSYNC) executes.
    fn run_commands(&mut self, inner: &Inner) -> Ran {
        // The tick's group commit: redo records buffer while this is
        // held and are written out when it drops — on every way out of
        // this function, a panic's unwind included — so before the
        // caller can put a reply byte on the socket.
        let _batch = inner.engine.log_batch();
        loop {
            if self.pending() >= HIGH_WATER {
                return Ran::Paused;
            }
            let end = {
                let t_window = Instant::now();
                let mut window = Window::new();
                let end = decode_window(&self.rbuf, self.consumed, &mut window);
                let window = window.commands();
                let len = window.len();
                // A lone command has nothing to overlap its lookup with
                // and goes straight on.
                let t_ready = if len > 1 {
                    hint_window(&inner.engine, window);
                    Instant::now()
                } else {
                    t_window
                };
                // Decode and hint served the whole window: each command's
                // parse stage carries an equal share of them.
                let shared_parse_ns = dur_ns(t_ready - t_window) / len.max(1) as u64;
                // Execute: strictly in order, each command consumed only
                // as it starts. One that backpressure or a fate command
                // ahead of it keeps from starting stays in the read
                // buffer and is decoded again by a later window.
                let (mut queue_until, mut parse_from) = (t_window, t_ready);
                for &(ref parts, cmd, end) in window {
                    if self.pending() >= HIGH_WATER {
                        return Ran::Paused;
                    }
                    self.consumed = end;
                    inner.count_command();
                    // The instrumentation seam: every executed command is
                    // timed here, and the elapsed time feeds the per-family
                    // histogram and (if over threshold) the SLOWLOG. A
                    // command is *captured* — full per-stage attribution —
                    // when a TRACEID forced it or the 1-in-N sampler picked
                    // it; everything else pays only the timestamps below.
                    let queue_start = self.cmd_mark.take();
                    let forced = self.session.trace_force.take();
                    let tracing = inner.tracer.enabled();
                    let captured =
                        forced.is_some() || (tracing && inner.tracer.sample_tick());
                    let span_id = if captured {
                        let id = match forced {
                            Some((id, _)) => id,
                            None => inner.tracer.alloc_id(),
                        };
                        trace::begin_span(id);
                        id
                    } else {
                        0
                    };
                    self.panic.note(cmd, parts, span_id);
                    let started = Instant::now();
                    let outcome = execute(cmd, parts, inner, &mut self.session, &mut self.wbuf);
                    let exec_end = Instant::now();
                    let exec_ns = dur_ns(exec_end - started);
                    // End the span whatever the outcome, so the
                    // thread-locals are disarmed before the next command.
                    let detail =
                        if captured { Some(trace::end_span(started, exec_ns)) } else { None };
                    self.panic.span = 0;
                    let mut stages: Option<[u64; Stage::COUNT]> = None;
                    let mut pre_total_ns = 0u64;
                    if tracing || captured {
                        // Queue wait ends where the window began (for its
                        // first command) or the previous command ended;
                        // the stages of a window's spans partition the
                        // wall time from its queue start to its last
                        // execute end.
                        let queue_ns = queue_start
                            .map_or(0, |t| dur_ns(queue_until.saturating_duration_since(t)));
                        let parse_ns = shared_parse_ns
                            + dur_ns(started.saturating_duration_since(parse_from));
                        if let Some(d) = detail {
                            let mut s = [0u64; Stage::COUNT];
                            s[Stage::QueueWait.index()] = queue_ns;
                            s[Stage::Parse.index()] = parse_ns;
                            s[Stage::Dispatch.index()] = d.dispatch_ns;
                            s[Stage::LockWait.index()] = d.lock_wait_ns;
                            s[Stage::Execute.index()] = d.execute_ns;
                            s[Stage::Persist.index()] = d.persist_ns;
                            stages = Some(s);
                            pre_total_ns = queue_ns + parse_ns + exec_ns;
                        } else {
                            // Not sampled, but slow enough to capture
                            // anyway — coarse: the whole execute seam lands
                            // in the execute stage.
                            let threshold_us = inner.tracer.threshold_us();
                            let total = queue_ns + parse_ns + exec_ns;
                            if threshold_us > 0 && total >= threshold_us.saturating_mul(1000) {
                                let mut s = [0u64; Stage::COUNT];
                                s[Stage::QueueWait.index()] = queue_ns;
                                s[Stage::Parse.index()] = parse_ns;
                                s[Stage::Execute.index()] = exec_ns;
                                stages = Some(s);
                                pre_total_ns = total;
                            }
                        }
                    }
                    inner.metrics.observe_command(cmd.family, parts, exec_ns, self.worker, stages);
                    match outcome {
                        Outcome::Replied => {
                            if let Some(s) = stages {
                                let end_off = self.wsent + self.pending() as u64;
                                Self::push_pending_trace(
                                    &mut self.pending_traces,
                                    inner,
                                    cmd.family,
                                    parts,
                                    self.worker,
                                    span_id,
                                    forced,
                                    s,
                                    pre_total_ns,
                                    exec_end,
                                    end_off,
                                );
                            }
                        }
                        Outcome::Shutdown => return Ran::Shutdown,
                        Outcome::StartReplication => return Ran::Replicate,
                    }
                    // The next pipelined command has been queued since
                    // this one finished.
                    self.cmd_mark = Some(exec_end);
                    (queue_until, parse_from) = (exec_end, exec_end);
                }
                end
            };
            match end {
                WindowEnd::Full => {}
                WindowEnd::Drained => {
                    if self.consumed > 0 {
                        self.rbuf.drain(..self.consumed);
                        self.consumed = 0;
                    }
                    // No buffered command bytes left: the queue-wait
                    // clock must restart at the next readiness, not
                    // bill the idle gap between requests to the next
                    // command. A partial command keeps the mark — its
                    // first bytes ARE already waiting.
                    if self.rbuf.is_empty() {
                        self.cmd_mark = None;
                        release_if_oversized(&mut self.rbuf);
                    }
                    return Ran::Drained;
                }
                WindowEnd::Malformed(e) => {
                    // Protocol errors are fatal for the connection: the
                    // good commands ahead of it have been answered; now
                    // reply, discard the unparseable tail, and hang up
                    // once the replies are flushed.
                    encode(&Value::Error(format!("ERR {e}")), &mut self.wbuf);
                    self.rbuf.clear();
                    self.consumed = 0;
                    self.close_after_flush = true;
                    return Ran::Drained;
                }
            }
        }
    }

    /// Write as much pending reply as the socket takes right now.
    fn flush_some(&mut self) -> io::Result<()> {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => {
                    return Err(io::Error::new(ErrorKind::WriteZero, "socket accepted 0 bytes"))
                }
                Ok(n) => {
                    self.wpos += n;
                    self.wsent += n as u64;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
            release_if_oversized(&mut self.wbuf);
        } else if self.wpos > COMPACT_AT {
            self.wbuf.drain(..self.wpos);
            self.wpos = 0;
        }
        Ok(())
    }

    /// Flush everything, blocking (bounded by [`WRITE_TIMEOUT`]), and
    /// leave the socket in blocking mode — the SHUTDOWN / PSYNC paths.
    fn flush_blocking(&mut self) -> io::Result<()> {
        self.stream.set_nonblocking(false)?;
        self.stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
        self.stream.write_all(&self.wbuf[self.wpos..])?;
        self.wsent += (self.wbuf.len() - self.wpos) as u64;
        self.wbuf.clear();
        self.wpos = 0;
        Ok(())
    }

    /// Publish a captured span to the flight recorder and queue it to
    /// complete when its reply bytes reach the kernel. Publishing comes
    /// first, before any reply byte can leave: whoever has read the reply
    /// finds the span, whichever connection or worker they ask through.
    /// The reply-flush stage is stamped in [`Conn::complete_traces`].
    /// (An associated function over the queue: `parts` still borrows
    /// the read buffer. `end_off` is the `wsent` value at which the
    /// span's reply will be fully written.)
    #[allow(clippy::too_many_arguments)]
    fn push_pending_trace(
        pending_traces: &mut VecDeque<PendingTrace>,
        inner: &Inner,
        family: CmdFamily,
        parts: &[&[u8]],
        worker: u64,
        span_id: u64,
        forced: Option<(u64, u32)>,
        stages_ns: [u64; Stage::COUNT],
        pre_total_ns: u64,
        exec_end: Instant,
        end_off: u64,
    ) {
        if pending_traces.len() >= PENDING_TRACE_CAP {
            pending_traces.pop_front();
            inner.tracer.note_abandoned(1);
        }
        let (id, hops, reason) = match forced {
            Some((fid, hops)) => (fid, hops, trace::Reason::Forced),
            None if span_id != 0 => (span_id, 0, trace::Reason::Sampled),
            None => (inner.tracer.alloc_id(), 0, trace::Reason::Threshold),
        };
        inner.tracer.record(trace::TraceRecord::new(
            id,
            hops,
            parts,
            worker,
            stages_ns,
            pre_total_ns,
            reason,
        ));
        pending_traces.push_back(PendingTrace { id, family, stages_ns, exec_end, end_off });
    }

    /// Complete every pending span whose reply bytes have fully reached
    /// the kernel: stamp the reply-flush stage onto its flight-recorder
    /// entry and feed the per-stage histograms.
    fn complete_traces(&mut self, inner: &Inner) {
        if self.pending_traces.is_empty() {
            return;
        }
        let now = Instant::now();
        while let Some(front) = self.pending_traces.front() {
            if self.wsent < front.end_off {
                break;
            }
            let mut pt = self.pending_traces.pop_front().expect("front exists");
            let flush_ns = dur_ns(now.saturating_duration_since(pt.exec_end));
            pt.stages_ns[Stage::ReplyFlush.index()] = flush_ns;
            inner.metrics.observe_stages(pt.family, &pt.stages_ns);
            inner.tracer.stamp_reply_flush(self.worker, pt.id, flush_ns);
        }
    }

    /// The connection is going away: spans still waiting for their
    /// reply flush keep a zero reply-flush stage for good. Count them
    /// so `TRACE STATUS` can tell a fast flush from a lost one.
    pub(crate) fn abandon_traces(&mut self, inner: &Inner) {
        let n = self.pending_traces.len() as u64;
        if n > 0 {
            self.pending_traces.clear();
            inner.tracer.note_abandoned(n);
        }
    }

    /// The last command this connection started executing (table name,
    /// key prefix, active trace id) — the worker-panic log line.
    pub(crate) fn panic_context(&self) -> (&'static str, String, u64) {
        let p = &self.panic;
        let key = String::from_utf8_lossy(&p.key[..p.key_len as usize]).into_owned();
        (p.cmd, key, p.span)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::RespClient;
    use crate::engine::EngineConfig;
    use std::net::TcpListener;

    /// Call `on_ready` on `conn` until `done` says its peer has what it
    /// was waiting for (spurious readiness is harmless on a nonblocking
    /// socket).
    fn drive_until(conn: &mut Conn, inner: &Inner, done: impl Fn() -> bool) {
        while !done() {
            assert!(matches!(conn.on_ready(true, true, inner), Ok(Drive::Continue)));
            std::thread::yield_now();
        }
    }

    /// One oversized command and one oversized reply must not pin their
    /// buffers' peak capacity on the connection: both are back at the
    /// resting size once drained, and the connection pipelines on.
    #[test]
    fn buffers_shrink_back_after_a_large_command_and_keep_pipelining() {
        let engine = ShardedDash::open(&EngineConfig {
            shards: 2,
            shard_bytes: 32 << 20,
            dir: None,
            ..EngineConfig::default()
        })
        .unwrap();
        let server = crate::server::serve(engine, "127.0.0.1:0").unwrap();
        let inner = server.inner().clone();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();

        let client = std::thread::spawn(move || {
            let mut c = RespClient::connect(addr).unwrap();
            // 2 MiB of command, then 2 MiB of reply.
            let big = vec![0xABu8; 512 << 10];
            c.mset(&[(b"big0", &big), (b"big1", &big), (b"big2", &big), (b"big3", &big)]).unwrap();
            let got = c.mget(&[b"big0", b"big1", b"big2", b"big3"]).unwrap();
            assert!(got.iter().all(|v| v.as_deref() == Some(big.as_slice())));
            c
        });
        let (stream, _) = listener.accept().unwrap();
        stream.set_nonblocking(true).unwrap();
        let mut conn = Conn::new(stream, 0);
        drive_until(&mut conn, &inner, || client.is_finished());
        let mut c = client.join().unwrap();
        assert_eq!(
            (conn.rbuf.capacity(), conn.wbuf.capacity()),
            (READ_CHUNK, READ_CHUNK),
            "drained buffers must be back at their resting capacity"
        );

        let client = std::thread::spawn(move || {
            c.enqueue(&[b"SET", b"small", b"v"]);
            c.enqueue(&[b"GET", b"small"]);
            c.enqueue(&[b"PING"]);
            c.flush().unwrap();
            assert_eq!(c.read_reply().unwrap(), Value::Simple("OK".into()));
            assert_eq!(c.read_reply().unwrap(), Value::bulk(*b"v"));
            assert_eq!(c.read_reply().unwrap(), Value::Simple("PONG".into()));
            c // kept open: a hang-up would end the drive with `Close`
        });
        drive_until(&mut conn, &inner, || client.is_finished());
        let _c = client.join().unwrap();
        assert_eq!((conn.rbuf.capacity(), conn.wbuf.capacity()), (READ_CHUNK, READ_CHUNK));
        drop(conn);
        server.shutdown();
    }

    /// Backpressure cuts a window: the commands it had decoded but not
    /// started stay in the read buffer, unconsumed and uncounted, and run
    /// — once — when the client reads again.
    #[test]
    fn a_window_cut_by_backpressure_leaves_the_rest_unconsumed() {
        const GETS: usize = 6 * WINDOW; // ~20 MiB of replies: more than socket buffers hold
        let engine = ShardedDash::open(&EngineConfig {
            shards: 2,
            shard_bytes: 32 << 20,
            dir: None,
            ..EngineConfig::default()
        })
        .unwrap();
        // Five replies reach the high-water mark: inside the first window.
        let big = vec![0x5Au8; HIGH_WATER / 5];
        engine.set(b"big", &big).unwrap();
        let server = crate::server::serve(engine, "127.0.0.1:0").unwrap();
        let inner = server.inner().clone();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();

        let (sent, wait_sent) = std::sync::mpsc::channel();
        let (resume, wait_resume) = std::sync::mpsc::channel::<()>();
        let client = std::thread::spawn(move || {
            let mut c = RespClient::connect(addr).unwrap();
            for _ in 0..GETS {
                c.enqueue(&[b"GET", b"big"]);
            }
            c.flush().unwrap();
            sent.send(()).unwrap();
            wait_resume.recv().unwrap();
            let hits = (0..GETS).filter(|_| c.read_reply().unwrap() == Value::Bulk(big.clone()));
            (hits.count(), c) // `c` kept open: a hang-up would end the drive with `Close`
        });
        let (stream, _) = listener.accept().unwrap();
        stream.set_nonblocking(true).unwrap();
        let mut conn = Conn::new(stream, 0);
        wait_sent.recv().unwrap();
        let before = inner.metrics.commands_served.get();
        // Tick until the write side is clogged (the client is not
        // reading); the whole pipeline, sent before the first tick, is
        // buffered by then.
        for tick in 0.. {
            assert!(matches!(conn.on_ready(true, true, &inner), Ok(Drive::Continue)));
            if conn.pending() >= HIGH_WATER {
                break;
            }
            assert!(tick < 100_000, "{GETS} replies never clogged the socket");
        }
        let executed = (inner.metrics.commands_served.get() - before) as usize;
        assert!(executed < GETS, "the socket swallowed {GETS} replies: nothing was cut");
        let mut left = 0;
        let mut at = conn.consumed;
        while let Ok(Decode::Complete(_, used)) = decode_args(&conn.rbuf[at..]) {
            at += used;
            left += 1;
        }
        assert_eq!(executed + left, GETS, "an unexecuted command must stay buffered");
        assert!(!conn.desired_interest().readable, "and the connection must stop reading");

        resume.send(()).unwrap();
        drive_until(&mut conn, &inner, || client.is_finished());
        let (answered, _c) = client.join().unwrap();
        assert_eq!(answered, GETS, "every GET answered, with the value");
        assert_eq!((inner.metrics.commands_served.get() - before) as usize, GETS);
        drop(conn);
        server.shutdown();
    }

    #[test]
    fn only_a_drained_oversized_buffer_is_released() {
        let mut buf = Vec::with_capacity(8 * READ_CHUNK);
        buf.push(1u8);
        release_if_oversized(&mut buf);
        assert!(buf.capacity() >= 8 * READ_CHUNK, "bytes still buffered: leave it alone");
        buf.clear();
        release_if_oversized(&mut buf);
        assert_eq!(buf.capacity(), READ_CHUNK);
        let mut modest = Vec::<u8>::with_capacity(4 * READ_CHUNK);
        release_if_oversized(&mut modest);
        assert_eq!(modest.capacity(), 4 * READ_CHUNK, "up to 4x the chunk is not oversized");
    }
}
