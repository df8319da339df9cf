//! Raw file-descriptor plumbing for the epoll reactor: `epoll(7)`,
//! `eventfd(2)` and `getrlimit(2)` without a libc crate.
//!
//! `std` already links the platform C library, so — exactly like the
//! `signal(2)` declaration in `tpq-serve` — we declare the handful of
//! symbols we need ourselves and keep the workspace dependency-free. The
//! module is Linux-only (`epoll` and `eventfd` are Linux APIs); the serve
//! crate gates its reactor on the same `cfg`, so `tpq serve` runs on
//! Linux only while everything else builds elsewhere.
//!
//! Two safe wrappers cover everything the reactor needs:
//!
//! * [`Epoll`] — an epoll instance. Interest is registered per fd with a
//!   `u64` token that comes back verbatim in every ready event, so the
//!   reactor can map events to connection slots without a lookup table.
//! * [`EventFd`] — a nonblocking `eventfd` used as the reactor's
//!   self-wakeup: pool workers [`signal`](EventFd::signal) it after
//!   pushing a completed response, which makes a blocked
//!   [`Epoll::wait`] return immediately. Thread-safe through `&self`
//!   (both syscalls are atomic on the kernel side).
//!
//! ```no_run
//! use tpq_base::fd::{Epoll, EventFd, EpollEvent, EPOLLIN, EPOLLET};
//!
//! let epoll = Epoll::new().unwrap();
//! let wake = EventFd::new().unwrap();
//! epoll.add(wake.raw(), EPOLLIN | EPOLLET, 7).unwrap();
//! wake.signal();
//! let mut events = [EpollEvent::default(); 8];
//! let n = epoll.wait(&mut events, 1000).unwrap();
//! assert_eq!(events[..n][0].token(), 7);
//! ```

use std::io;
use std::os::raw::{c_int, c_uint, c_void};

/// Readable (or a peer hang-up is pending — Linux folds both in).
pub const EPOLLIN: u32 = 0x001;
/// Writable without blocking.
pub const EPOLLOUT: u32 = 0x004;
/// Error condition on the fd (always reported; no need to register).
pub const EPOLLERR: u32 = 0x008;
/// Hang-up: both directions closed (always reported).
pub const EPOLLHUP: u32 = 0x010;
/// Peer closed its writing half (must be registered to be reported).
pub const EPOLLRDHUP: u32 = 0x2000;
/// Edge-triggered delivery: one event per readiness *transition*; the
/// consumer must then read/write until `EAGAIN` or it will never hear
/// about that fd again.
pub const EPOLLET: u32 = 1 << 31;

const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const EPOLL_CLOEXEC: c_int = 0x80000;
const EFD_CLOEXEC: c_int = 0x80000;
const EFD_NONBLOCK: c_int = 0x800;
const RLIMIT_NOFILE: c_int = 7;

/// One ready event, ABI-compatible with the kernel's `struct epoll_event`.
/// The struct is packed on x86-64 (a historical quirk of the 64-bit ABI)
/// and naturally aligned everywhere else.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Debug, Clone, Copy, Default)]
pub struct EpollEvent {
    events: u32,
    data: u64,
}

impl EpollEvent {
    /// The readiness mask (`EPOLLIN | …`) the kernel reported.
    pub fn events(&self) -> u32 {
        // By-value read: the field may be unaligned on x86-64, so no
        // reference to it may be formed.
        self.events
    }

    /// The token the fd was registered with.
    pub fn token(&self) -> u64 {
        self.data
    }
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    fn close(fd: c_int) -> c_int;
    fn getrlimit(resource: c_int, rlim: *mut RLimit) -> c_int;
}

#[repr(C)]
struct RLimit {
    cur: u64,
    max: u64,
}

/// The process's open-file limit as `(soft, hard)`, or `None` if the
/// query fails. Connection-scaling tests and benches size their fd
/// budgets from this instead of hard-coding a target that EMFILEs on a
/// constrained machine.
pub fn nofile_limit() -> Option<(u64, u64)> {
    let mut rlim = RLimit { cur: 0, max: 0 };
    match unsafe { getrlimit(RLIMIT_NOFILE, &mut rlim) } {
        0 => Some((rlim.cur, rlim.max)),
        _ => None,
    }
}

/// An owned epoll instance; the fd closes on drop.
#[derive(Debug)]
pub struct Epoll {
    fd: c_int,
}

impl Epoll {
    /// Create an epoll instance (close-on-exec).
    pub fn new() -> io::Result<Epoll> {
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: c_int, fd: i32, events: u32, token: u64) -> io::Result<()> {
        let mut event = EpollEvent { events, data: token };
        if unsafe { epoll_ctl(self.fd, op, fd, &mut event) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Register interest in `events` on `fd`; ready events carry `token`
    /// back. Registration counts as an edge: an fd that is already ready
    /// is reported by the next [`wait`](Epoll::wait).
    pub fn add(&self, fd: i32, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, token)
    }

    /// Replace the interest mask (and token) of an already-registered fd.
    pub fn modify(&self, fd: i32, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, token)
    }

    /// Drop an fd from the interest list. Closing an fd deregisters it
    /// implicitly; this exists for fds that outlive their registration.
    pub fn delete(&self, fd: i32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Block until at least one registered fd is ready, `timeout_ms`
    /// elapses (`-1` = forever, `0` = poll), or a signal interrupts the
    /// wait. Returns how many entries of `events` were filled; `EINTR`
    /// maps to `Ok(0)` so callers treat it like a timeout tick.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        let n = unsafe {
            epoll_wait(self.fd, events.as_mut_ptr(), events.len().min(4096) as c_int, timeout_ms)
        };
        if n < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(e);
        }
        Ok(n as usize)
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        unsafe { close(self.fd) };
    }
}

/// An owned nonblocking `eventfd`, used as a cross-thread wakeup for an
/// [`Epoll`] loop. Both [`signal`](EventFd::signal) and
/// [`drain`](EventFd::drain) take `&self` and are safe to call from any
/// thread concurrently.
#[derive(Debug)]
pub struct EventFd {
    fd: c_int,
}

impl EventFd {
    /// Create the eventfd (counter 0, nonblocking, close-on-exec).
    pub fn new() -> io::Result<EventFd> {
        let fd = unsafe { eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(EventFd { fd })
    }

    /// The raw fd, for registration with [`Epoll::add`].
    pub fn raw(&self) -> i32 {
        self.fd
    }

    /// Add 1 to the counter, waking any epoll waiting on `EPOLLIN`.
    /// Best-effort: the only failure mode of a nonblocking eventfd write
    /// is a full (`u64::MAX - 1`) counter, which still leaves the fd
    /// readable — the wakeup the caller wanted is already pending.
    pub fn signal(&self) {
        let value: u64 = 1;
        unsafe { write(self.fd, (&value as *const u64).cast(), 8) };
    }

    /// Read-and-zero the counter, re-arming edge-triggered interest.
    /// Returns the number of signals folded into this wakeup (0 if the
    /// counter was already empty).
    pub fn drain(&self) -> u64 {
        let mut value: u64 = 0;
        let n = unsafe { read(self.fd, (&mut value as *mut u64).cast(), 8) };
        if n == 8 {
            value
        } else {
            0
        }
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        unsafe { close(self.fd) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eventfd_signals_wake_epoll_and_drain_rearms() {
        let epoll = Epoll::new().unwrap();
        let wake = EventFd::new().unwrap();
        epoll.add(wake.raw(), EPOLLIN | EPOLLET, 42).unwrap();

        // No signal yet: a zero-timeout wait sees nothing.
        let mut events = [EpollEvent::default(); 4];
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);

        wake.signal();
        wake.signal();
        let n = epoll.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token(), 42);
        assert_ne!(events[0].events() & EPOLLIN, 0);

        // Both signals fold into one counter read; after the drain the
        // edge is re-armed and silence means silence.
        assert_eq!(wake.drain(), 2);
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);

        // A fresh signal after the drain is a new edge.
        wake.signal();
        assert_eq!(epoll.wait(&mut events, 1000).unwrap(), 1);
        assert_eq!(wake.drain(), 1);
    }

    #[test]
    fn epoll_reports_readiness_present_at_registration() {
        // ADD on an already-readable fd must count as an edge, or the
        // reactor would hang on data that raced connection registration.
        let wake = EventFd::new().unwrap();
        wake.signal();
        let epoll = Epoll::new().unwrap();
        epoll.add(wake.raw(), EPOLLIN | EPOLLET, 9).unwrap();
        let mut events = [EpollEvent::default(); 4];
        assert_eq!(epoll.wait(&mut events, 1000).unwrap(), 1);
        assert_eq!(events[0].token(), 9);
    }

    #[test]
    fn modify_and_delete_round_trip() {
        let epoll = Epoll::new().unwrap();
        let wake = EventFd::new().unwrap();
        epoll.add(wake.raw(), EPOLLIN, 1).unwrap();
        epoll.modify(wake.raw(), EPOLLIN, 2).unwrap();
        wake.signal();
        let mut events = [EpollEvent::default(); 4];
        assert_eq!(epoll.wait(&mut events, 1000).unwrap(), 1);
        assert_eq!(events[0].token(), 2, "modify replaced the token");
        epoll.delete(wake.raw()).unwrap();
        wake.signal();
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0, "deleted fd is silent");
    }

    #[test]
    fn nofile_limit_is_queryable() {
        let (soft, hard) = nofile_limit().expect("getrlimit");
        assert!(soft >= 64, "implausibly low fd limit: {soft}");
        assert!(hard >= soft);
    }
}
