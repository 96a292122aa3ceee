//! Safe wrappers over the `libc` shim: `epoll`, `eventfd`, a `read`
//! into a `Vec`'s spare capacity, and the `RLIMIT_NOFILE` helpers the
//! high-connection paths need.
//!
//! Everything here is Linux-only, like the rest of the tree (the pmem
//! substrate already binds `mmap` directly). The wrappers own their
//! descriptors and close them on drop; errors surface as `io::Error`
//! from `errno` so callers keep the usual `ErrorKind` matching.

use std::io;
use std::os::unix::io::RawFd;

/// An owned epoll instance.
#[derive(Debug)]
pub struct Epoll {
    fd: RawFd,
}

/// One decoded readiness record: which registration (token) and what
/// kind of readiness. `error` folds EPOLLERR and EPOLLHUP together —
/// both mean "drive the connection and let the read/write fail".
#[derive(Debug, Clone, Copy)]
pub struct Event {
    pub token: u64,
    pub readable: bool,
    pub writable: bool,
    pub error: bool,
}

/// Interest set for a registration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    pub readable: bool,
    pub writable: bool,
}

impl Interest {
    pub const READ: Interest = Interest { readable: true, writable: false };
    pub const WRITE: Interest = Interest { readable: false, writable: true };

    fn bits(self) -> u32 {
        let mut bits = libc::EPOLLRDHUP;
        if self.readable {
            bits |= libc::EPOLLIN;
        }
        if self.writable {
            bits |= libc::EPOLLOUT;
        }
        bits
    }
}

impl Epoll {
    pub fn new() -> io::Result<Epoll> {
        let fd = unsafe { libc::epoll_create1(libc::EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: libc::c_int, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let mut ev = libc::epoll_event { events: interest.bits(), u64: token };
        let rc = unsafe { libc::epoll_ctl(self.fd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(libc::EPOLL_CTL_ADD, fd, token, interest)
    }

    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(libc::EPOLL_CTL_MOD, fd, token, interest)
    }

    pub fn del(&self, fd: RawFd) -> io::Result<()> {
        // The event argument is ignored for DEL (must merely be non-null
        // on pre-2.6.9 kernels — keep it non-null anyway).
        self.ctl(libc::EPOLL_CTL_DEL, fd, 0, Interest { readable: false, writable: false })
    }

    /// Wait for readiness, `timeout_ms < 0` = block indefinitely.
    /// Retries `EINTR` internally; appends decoded events to `out`.
    pub fn wait(&self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
        const CAP: usize = 256;
        let mut buf = [libc::epoll_event { events: 0, u64: 0 }; CAP];
        let n = loop {
            let n = unsafe { libc::epoll_wait(self.fd, buf.as_mut_ptr(), CAP as i32, timeout_ms) };
            if n >= 0 {
                break n as usize;
            }
            let e = io::Error::last_os_error();
            if e.kind() != io::ErrorKind::Interrupted {
                return Err(e);
            }
        };
        for ev in &buf[..n] {
            // Copy out of the (possibly packed) struct before use.
            let bits = { ev.events };
            out.push(Event {
                token: { ev.u64 },
                readable: bits & (libc::EPOLLIN | libc::EPOLLRDHUP) != 0,
                writable: bits & libc::EPOLLOUT != 0,
                error: bits & (libc::EPOLLERR | libc::EPOLLHUP) != 0,
            });
        }
        Ok(())
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        unsafe { libc::close(self.fd) };
    }
}

/// An owned eventfd used as a cross-thread wakeup: any thread may
/// [`EventFd::wake`]; the owning event loop registers it for `EPOLLIN`
/// and [`EventFd::drain`]s it when it fires. Nonblocking on both ends.
#[derive(Debug)]
pub struct EventFd {
    fd: RawFd,
}

impl EventFd {
    pub fn new() -> io::Result<EventFd> {
        let fd = unsafe { libc::eventfd(0, libc::EFD_CLOEXEC | libc::EFD_NONBLOCK) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(EventFd { fd })
    }

    pub fn raw(&self) -> RawFd {
        self.fd
    }

    /// Post a wakeup. Infallible by construction: the only way an
    /// eventfd write fails (besides EBADF) is counter overflow, which
    /// still leaves the descriptor readable — the wakeup is delivered
    /// either way.
    pub fn wake(&self) {
        let one: u64 = 1;
        unsafe { libc::write(self.fd, (&one as *const u64).cast(), 8) };
    }

    /// Consume pending wakeups so the next `epoll_wait` sleeps.
    pub fn drain(&self) {
        let mut counter: u64 = 0;
        unsafe { libc::read(self.fd, (&mut counter as *mut u64).cast(), 8) };
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        unsafe { libc::close(self.fd) };
    }
}

/// One `read(2)` from `fd` into `buf`'s spare capacity, extending `buf`
/// by what arrived: no zero-filled bounce buffer, no second copy.
pub(crate) fn read_spare(fd: RawFd, buf: &mut Vec<u8>) -> io::Result<usize> {
    let spare = buf.spare_capacity_mut();
    // SAFETY: the kernel writes at most `spare.len()` bytes into memory
    // this `Vec` owns and has not yet exposed.
    let n = unsafe { libc::read(fd, spare.as_mut_ptr().cast(), spare.len()) };
    if n < 0 {
        return Err(io::Error::last_os_error());
    }
    let n = n as usize;
    // SAFETY: `read` initialized the first `n` spare bytes, `n` at most
    // the spare capacity.
    unsafe { buf.set_len(buf.len() + n) };
    Ok(n)
}

/// `(soft, hard)` RLIMIT_NOFILE for this process.
pub fn nofile_limit() -> io::Result<(u64, u64)> {
    let mut lim = libc::rlimit { rlim_cur: 0, rlim_max: 0 };
    if unsafe { libc::getrlimit(libc::RLIMIT_NOFILE, &mut lim) } < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok((lim.rlim_cur, lim.rlim_max))
}

/// Set RLIMIT_NOFILE to `(soft, hard)` — test support for the EMFILE
/// regression coverage, and the backing call for [`ensure_nofile_limit`].
pub fn set_nofile_limit(soft: u64, hard: u64) -> io::Result<()> {
    let lim = libc::rlimit { rlim_cur: soft, rlim_max: hard };
    if unsafe { libc::setrlimit(libc::RLIMIT_NOFILE, &lim) } < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// Raise the soft RLIMIT_NOFILE toward the hard limit until at least
/// `want` descriptors are allowed (a process may always raise soft up to
/// hard unprivileged). Returns the resulting soft limit; `Ok` even when
/// the hard limit caps it below `want` — the caller sees what it got.
pub fn ensure_nofile_limit(want: u64) -> io::Result<u64> {
    let (soft, hard) = nofile_limit()?;
    if soft >= want {
        return Ok(soft);
    }
    let target = want.min(hard);
    set_nofile_limit(target, hard)?;
    Ok(target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    #[test]
    fn epoll_reports_socket_readiness_by_token() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();

        let ep = Epoll::new().unwrap();
        ep.add(server_side.as_raw_fd(), 7, Interest::READ).unwrap();

        let mut events = Vec::new();
        ep.wait(&mut events, 0).unwrap();
        assert!(events.is_empty(), "no bytes yet: {events:?}");

        (&client).write_all(b"x").unwrap();
        ep.wait(&mut events, 1000).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);

        // Switching interest to write-only silences the pending read.
        ep.modify(
            server_side.as_raw_fd(),
            7,
            Interest { readable: false, writable: true },
        )
        .unwrap();
        events.clear();
        ep.wait(&mut events, 100).unwrap();
        assert_eq!(events.len(), 1);
        assert!(events[0].writable && !events[0].readable, "{:?}", events[0]);

        ep.del(server_side.as_raw_fd()).unwrap();
        events.clear();
        ep.wait(&mut events, 0).unwrap();
        assert!(events.is_empty());
    }

    #[test]
    fn eventfd_wake_crosses_threads_and_drains() {
        let ep = Epoll::new().unwrap();
        let ev = std::sync::Arc::new(EventFd::new().unwrap());
        ep.add(ev.raw(), 1, Interest::READ).unwrap();

        let poster = ev.clone();
        let t = std::thread::spawn(move || poster.wake());
        let mut events = Vec::new();
        ep.wait(&mut events, 2000).unwrap();
        t.join().unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 1);

        ev.drain();
        events.clear();
        ep.wait(&mut events, 0).unwrap();
        assert!(events.is_empty(), "drained eventfd must go quiet");
    }

    #[test]
    fn nofile_limit_is_sane_and_raisable_to_itself() {
        let (soft, hard) = nofile_limit().unwrap();
        assert!(soft > 0 && hard >= soft);
        assert_eq!(ensure_nofile_limit(soft).unwrap(), soft);
    }
}
