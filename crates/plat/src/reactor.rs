//! Readiness reactor without `mio` or `libc`.
//!
//! The paper's §4.3 asynchronous enclave calls exist because
//! thread-per-connection cannot hold tens of thousands of mostly-idle
//! TLS sessions. The service layer therefore needs a readiness API —
//! one thread parked in the kernel watching every session socket —
//! and, per the workspace's hermetic-build policy, it has to come from
//! `std` plus direct syscalls rather than a crates.io event library.
//!
//! On Linux (x86_64/aarch64) this wraps `epoll` invoked via inline
//! `asm!`, the same idiom [`crate::entropy`] uses for `getrandom`. An
//! `eventfd`-backed [`Notifier`] doubles as the cross-thread waker so
//! worker pools can interrupt a blocked [`Reactor::wait`]. On any
//! other platform [`Reactor::new`] returns `ErrorKind::Unsupported`
//! and callers are expected to fall back to their threaded path.

use std::fs::File;
use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, FromRawFd, RawFd};
use std::sync::Arc;
use std::time::Duration;

/// Readiness interest for a registered file descriptor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest {
    pub readable: bool,
    pub writable: bool,
    /// Edge-triggered delivery (`EPOLLET`). Level-triggered when false.
    pub edge: bool,
}

impl Interest {
    pub const READABLE: Interest = Interest {
        readable: true,
        writable: false,
        edge: false,
    };
    pub const WRITABLE: Interest = Interest {
        readable: false,
        writable: true,
        edge: false,
    };

    pub fn readable_writable() -> Interest {
        Interest {
            readable: true,
            writable: true,
            edge: false,
        }
    }

    pub fn edge(mut self) -> Interest {
        self.edge = true;
        self
    }
}

/// One readiness event returned by [`Reactor::wait`].
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// The token supplied at registration time.
    pub token: u64,
    pub readable: bool,
    pub writable: bool,
    /// Peer hung up (`EPOLLHUP`/`EPOLLRDHUP`); drain then close.
    pub closed: bool,
    /// Error condition on the fd (`EPOLLERR`).
    pub error: bool,
}

/// Token reserved for the reactor's internal waker; never surfaced.
const WAKE_TOKEN: u64 = u64::MAX;

/// An `eventfd`-backed doorbell: `notify` from any thread, `drain`
/// from the owner. Registerable with a [`Reactor`] via `AsRawFd`.
#[derive(Clone)]
pub struct Notifier {
    fd: Arc<File>,
}

impl Notifier {
    pub fn new() -> io::Result<Notifier> {
        let raw = sys::eventfd()?;
        // SAFETY: eventfd() returned a freshly created fd we own.
        let fd = unsafe { File::from_raw_fd(raw) };
        Ok(Notifier { fd: Arc::new(fd) })
    }

    /// Rings the doorbell. Cheap and signal-safe; callable from any
    /// thread. A full counter (already 2^64-2 pending) is ignored.
    pub fn notify(&self) {
        let one = 1u64.to_ne_bytes();
        let _ = (&*self.fd).write(&one);
    }

    /// Clears pending notifications, returning how many `notify`
    /// calls were coalesced since the last drain.
    pub fn drain(&self) -> u64 {
        let mut buf = [0u8; 8];
        match (&*self.fd).read(&mut buf) {
            Ok(8) => u64::from_ne_bytes(buf),
            _ => 0,
        }
    }
}

impl AsRawFd for Notifier {
    fn as_raw_fd(&self) -> RawFd {
        self.fd.as_raw_fd()
    }
}

/// Cross-thread handle that interrupts a blocked [`Reactor::wait`].
#[derive(Clone)]
pub struct Waker {
    notifier: Notifier,
}

impl Waker {
    pub fn wake(&self) {
        self.notifier.notify();
    }
}

/// An epoll-backed readiness multiplexer.
///
/// Register sockets with a `u64` token, then park in [`wait`] until
/// any of them becomes ready or a [`Waker`] fires. Registration takes
/// `&self`; [`wait`] takes `&mut self`, because it fills the reactor's
/// one event buffer.
///
/// [`wait`]: Reactor::wait
pub struct Reactor {
    ep: File,
    wake: Notifier,
    /// What the kernel reports from one `epoll_pwait`, kept across
    /// calls.
    raw: Vec<sys::EpollEvent>,
}

impl Reactor {
    /// Creates a reactor, or `ErrorKind::Unsupported` on platforms
    /// without epoll — callers should fall back to threaded serving.
    pub fn new() -> io::Result<Reactor> {
        let raw = sys::epoll_create()?;
        // SAFETY: epoll_create() returned a freshly created fd we own.
        let ep = unsafe { File::from_raw_fd(raw) };
        let wake = Notifier::new()?;
        let r = Reactor {
            ep,
            wake,
            raw: Vec::new(),
        };
        r.register(&r.wake, WAKE_TOKEN, Interest::READABLE)?;
        Ok(r)
    }

    /// Adds `fd` with the given token. The token comes back verbatim
    /// in [`Event::token`]; `u64::MAX` is reserved for the waker.
    pub fn register(&self, fd: &impl AsRawFd, token: u64, interest: Interest) -> io::Result<()> {
        sys::epoll_ctl(
            self.ep.as_raw_fd(),
            sys::EPOLL_CTL_ADD,
            fd.as_raw_fd(),
            sys::mask(interest),
            token,
        )
    }

    /// Replaces the interest set (and token) of a registered fd.
    pub fn modify(&self, fd: &impl AsRawFd, token: u64, interest: Interest) -> io::Result<()> {
        sys::epoll_ctl(
            self.ep.as_raw_fd(),
            sys::EPOLL_CTL_MOD,
            fd.as_raw_fd(),
            sys::mask(interest),
            token,
        )
    }

    /// Removes a registered fd. Safe to call on an fd about to close.
    pub fn deregister(&self, fd: &impl AsRawFd) -> io::Result<()> {
        sys::epoll_ctl(
            self.ep.as_raw_fd(),
            sys::EPOLL_CTL_DEL,
            fd.as_raw_fd(),
            0,
            0,
        )
    }

    /// Blocks until readiness, wake-up, or timeout. Events are
    /// appended to `events` (cleared first), at most as many as its
    /// capacity (clamped to 64..=4096); returns the count. `None`
    /// blocks indefinitely. A [`Waker`] firing just unblocks the call
    /// — it never surfaces as an event.
    pub fn wait(
        &mut self,
        events: &mut Vec<Event>,
        timeout: Option<Duration>,
    ) -> io::Result<usize> {
        events.clear();
        let max = events.capacity().clamp(64, 4096);
        self.raw.resize(max, sys::EpollEvent::default());
        let n = loop {
            match sys::epoll_wait(self.ep.as_raw_fd(), &mut self.raw, timeout) {
                Ok(n) => break n,
                // EINTR: a signal interrupted the park; just retry.
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        };
        for ev in &self.raw[..n] {
            let (bits, token) = (ev.events, ev.data);
            if token == WAKE_TOKEN {
                self.wake.drain();
                continue;
            }
            events.push(Event {
                token,
                readable: bits & (sys::EPOLLIN | sys::EPOLLHUP | sys::EPOLLRDHUP) != 0,
                writable: bits & sys::EPOLLOUT != 0,
                closed: bits & (sys::EPOLLHUP | sys::EPOLLRDHUP) != 0,
                error: bits & sys::EPOLLERR != 0,
            });
        }
        Ok(events.len())
    }

    /// A cloneable handle that interrupts [`Reactor::wait`] from any
    /// thread (used by worker pools posting completions).
    pub fn waker(&self) -> Waker {
        Waker {
            notifier: self.wake.clone(),
        }
    }
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod sys {
    use super::{Duration, Interest};
    use std::io;

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;
    const EPOLLET: u32 = 1 << 31;

    pub const EPOLL_CTL_ADD: usize = 1;
    pub const EPOLL_CTL_DEL: usize = 2;
    pub const EPOLL_CTL_MOD: usize = 3;

    const EPOLL_CLOEXEC: usize = 0x80000;
    const EFD_CLOEXEC: usize = 0x80000;
    const EFD_NONBLOCK: usize = 0x800;

    // The kernel packs epoll_event on x86_64 only; elsewhere the
    // struct has natural alignment (4 bytes padding before data).
    #[cfg(target_arch = "x86_64")]
    #[repr(C, packed)]
    #[derive(Clone, Copy, Default)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    #[cfg(not(target_arch = "x86_64"))]
    #[repr(C)]
    #[derive(Clone, Copy, Default)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    #[cfg(target_arch = "x86_64")]
    mod nr {
        pub const IOCTL: usize = 16;
        pub const EPOLL_CTL: usize = 233;
        pub const EPOLL_PWAIT: usize = 281;
        pub const EVENTFD2: usize = 290;
        pub const EPOLL_CREATE1: usize = 291;
    }

    #[cfg(target_arch = "aarch64")]
    mod nr {
        pub const EVENTFD2: usize = 19;
        pub const IOCTL: usize = 29;
        pub const EPOLL_CREATE1: usize = 20;
        pub const EPOLL_CTL: usize = 21;
        pub const EPOLL_PWAIT: usize = 22;
    }

    #[cfg(target_arch = "x86_64")]
    fn syscall5(n: usize, a: usize, b: usize, c: usize, d: usize, e: usize) -> isize {
        let ret: isize;
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") n => ret,
                in("rdi") a,
                in("rsi") b,
                in("rdx") c,
                in("r10") d,
                in("r8") e,
                in("r9") 0usize,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret
    }

    #[cfg(target_arch = "aarch64")]
    fn syscall5(n: usize, a: usize, b: usize, c: usize, d: usize, e: usize) -> isize {
        let ret: isize;
        unsafe {
            std::arch::asm!(
                "svc 0",
                in("x8") n,
                inlateout("x0") a => ret,
                in("x1") b,
                in("x2") c,
                in("x3") d,
                in("x4") e,
                in("x5") 0usize,
                options(nostack),
            );
        }
        ret
    }

    fn check(ret: isize) -> io::Result<isize> {
        if ret < 0 {
            Err(io::Error::from_raw_os_error(-ret as i32))
        } else {
            Ok(ret)
        }
    }

    pub fn mask(interest: Interest) -> u32 {
        let mut m = EPOLLRDHUP;
        if interest.readable {
            m |= EPOLLIN;
        }
        if interest.writable {
            m |= EPOLLOUT;
        }
        if interest.edge {
            m |= EPOLLET;
        }
        m
    }

    pub fn epoll_create() -> io::Result<i32> {
        check(syscall5(nr::EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0, 0)).map(|fd| fd as i32)
    }

    pub fn eventfd() -> io::Result<i32> {
        check(syscall5(
            nr::EVENTFD2,
            0,
            EFD_CLOEXEC | EFD_NONBLOCK,
            0,
            0,
            0,
        ))
        .map(|fd| fd as i32)
    }

    pub fn epoll_ctl(ep: i32, op: usize, fd: i32, events: u32, token: u64) -> io::Result<()> {
        let ev = EpollEvent {
            events,
            data: token,
        };
        check(syscall5(
            nr::EPOLL_CTL,
            ep as usize,
            op,
            fd as usize,
            &ev as *const EpollEvent as usize,
            0,
        ))
        .map(|_| ())
    }

    /// `ioctl(fd, FIONREAD)`: the bytes a socket holds unread.
    pub fn unread(fd: i32) -> io::Result<usize> {
        const FIONREAD: usize = 0x541B;
        let mut n: i32 = 0;
        let out = &mut n as *mut i32 as usize;
        check(syscall5(nr::IOCTL, fd as usize, FIONREAD, out, 0, 0))?;
        Ok(n.max(0) as usize)
    }

    pub fn epoll_wait(
        ep: i32,
        buf: &mut [EpollEvent],
        timeout: Option<Duration>,
    ) -> io::Result<usize> {
        let ms: isize = match timeout {
            None => -1,
            // Round up, so a park never ends before its deadline.
            Some(d) => d.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as isize,
        };
        // epoll_pwait(ep, events, max, timeout, sigmask=NULL); aarch64
        // has no plain epoll_wait, so use pwait on both arches.
        check(syscall5(
            nr::EPOLL_PWAIT,
            ep as usize,
            buf.as_mut_ptr() as usize,
            buf.len(),
            ms as usize,
            0,
        ))
        .map(|n| n as usize)
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod sys {
    use super::{Duration, Interest};
    use std::io;

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;

    pub const EPOLL_CTL_ADD: usize = 1;
    pub const EPOLL_CTL_DEL: usize = 2;
    pub const EPOLL_CTL_MOD: usize = 3;

    #[derive(Clone, Copy, Default)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    fn unsupported<T>() -> io::Result<T> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "reactor requires Linux epoll",
        ))
    }

    pub fn mask(_interest: Interest) -> u32 {
        0
    }

    pub fn epoll_create() -> io::Result<i32> {
        unsupported()
    }

    pub fn eventfd() -> io::Result<i32> {
        unsupported()
    }

    pub fn epoll_ctl(_ep: i32, _op: usize, _fd: i32, _events: u32, _token: u64) -> io::Result<()> {
        unsupported()
    }

    pub fn unread(_fd: i32) -> io::Result<usize> {
        unsupported()
    }

    pub fn epoll_wait(
        _ep: i32,
        _buf: &mut [EpollEvent],
        _t: Option<Duration>,
    ) -> io::Result<usize> {
        unsupported()
    }
}

/// The bytes `fd` (a socket) holds unread: what a read would return now,
/// so a caller can size its buffer once.
///
/// # Errors
///
/// As the `FIONREAD` ioctl; `Unsupported` where [`supported`] is false.
pub fn unread(fd: &impl AsRawFd) -> io::Result<usize> {
    sys::unread(fd.as_raw_fd())
}

/// True when this platform has a working reactor backend.
pub fn supported() -> bool {
    cfg!(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))
}

#[cfg(all(
    test,
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::time::Instant;

    fn pair() -> (TcpStream, TcpStream) {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let a = TcpStream::connect(l.local_addr().unwrap()).unwrap();
        let (b, _) = l.accept().unwrap();
        (a, b)
    }

    #[test]
    fn readable_event_fires_on_data() {
        let mut r = Reactor::new().unwrap();
        let (mut a, b) = pair();
        b.set_nonblocking(true).unwrap();
        r.register(&b, 7, Interest::READABLE).unwrap();

        let mut events = Vec::with_capacity(8);
        let n = r
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert_eq!(n, 0, "no data yet");

        a.write_all(b"x").unwrap();
        let n = r.wait(&mut events, Some(Duration::from_secs(2))).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);
    }

    /// `unread` is what a read would return now: nothing, then what the
    /// peer wrote, then nothing again once it is read.
    #[test]
    fn unread_counts_what_a_read_would_return() -> io::Result<()> {
        let (mut a, mut b) = pair();
        assert_eq!(unread(&b)?, 0);
        a.write_all(&[7u8; 5000])?;
        let deadline = Instant::now() + Duration::from_secs(2);
        while unread(&b)? < 5000 && Instant::now() < deadline {}
        assert_eq!(unread(&b)?, 5000);
        b.read_exact(&mut [0u8; 5000])?;
        assert_eq!(unread(&b)?, 0);
        Ok(())
    }

    #[test]
    fn writable_interest_and_modify() {
        let mut r = Reactor::new().unwrap();
        let (_a, b) = pair();
        b.set_nonblocking(true).unwrap();
        r.register(&b, 1, Interest::READABLE).unwrap();
        let mut events = Vec::new();
        assert_eq!(
            r.wait(&mut events, Some(Duration::from_millis(10)))
                .unwrap(),
            0
        );

        // An idle socket with empty send buffer is instantly writable.
        r.modify(&b, 2, Interest::readable_writable()).unwrap();
        assert_eq!(
            r.wait(&mut events, Some(Duration::from_secs(2))).unwrap(),
            1
        );
        assert_eq!(events[0].token, 2);
        assert!(events[0].writable);

        r.deregister(&b).unwrap();
        assert_eq!(
            r.wait(&mut events, Some(Duration::from_millis(10)))
                .unwrap(),
            0
        );
    }

    #[test]
    fn hangup_reported_as_closed() {
        let mut r = Reactor::new().unwrap();
        let (a, b) = pair();
        b.set_nonblocking(true).unwrap();
        r.register(&b, 9, Interest::READABLE).unwrap();
        drop(a);
        let mut events = Vec::new();
        assert_eq!(
            r.wait(&mut events, Some(Duration::from_secs(2))).unwrap(),
            1
        );
        assert!(events[0].closed);
    }

    #[test]
    fn waker_unblocks_wait_without_surfacing_events() {
        let mut r = Reactor::new().unwrap();
        let waker = r.waker();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            waker.wake();
        });
        let start = Instant::now();
        let mut events = Vec::new();
        let n = r.wait(&mut events, Some(Duration::from_secs(10))).unwrap();
        assert_eq!(n, 0, "wake must not surface as an event");
        assert!(start.elapsed() < Duration::from_secs(5));
        t.join().unwrap();

        // Coalesced wakes drain in one go; the next wait times out.
        let w = r.waker();
        w.wake();
        w.wake();
        assert_eq!(
            r.wait(&mut events, Some(Duration::from_millis(5))).unwrap(),
            0
        );
        assert_eq!(
            r.wait(&mut events, Some(Duration::from_millis(5))).unwrap(),
            0
        );
    }

    #[test]
    fn edge_triggered_fires_once_per_arrival() {
        let mut r = Reactor::new().unwrap();
        let (mut a, b) = pair();
        b.set_nonblocking(true).unwrap();
        r.register(&b, 3, Interest::READABLE.edge()).unwrap();
        a.write_all(b"hello").unwrap();

        let mut events = Vec::new();
        assert_eq!(
            r.wait(&mut events, Some(Duration::from_secs(2))).unwrap(),
            1
        );
        // Data still unread: level-triggered would fire again, edge stays quiet.
        assert_eq!(
            r.wait(&mut events, Some(Duration::from_millis(20)))
                .unwrap(),
            0
        );
    }

    #[test]
    fn notifier_counts_coalesced_notifies() {
        let n = Notifier::new().unwrap();
        n.notify();
        n.notify();
        n.notify();
        assert_eq!(n.drain(), 3);
        assert_eq!(n.drain(), 0);
    }
}
