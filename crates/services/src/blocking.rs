//! The blocking driver: the paper's thread-per-connection model (§6).
//! One accept thread hands each connection to a [`JobPool`] of
//! `workers` carriers as one job; the carrier serves the whole
//! connection with blocking socket calls on an async-ecall slot it
//! borrows from the [`SlotPool`] for the connection's lifetime (which
//! matters when the plane is a LibSEAL instance with the §4.3
//! runtime). It drives a session the way an application drives a TLS
//! library — one call per operation (feed, handshake, read, write,
//! take), not the reactor's batched pump: that per-call sequence is
//! the transitions-per-call model Tables 2–4 and Figs. 5/7 measure,
//! and the event-loop gate's transitions-per-request reference.
//!
//! Request semantics come from the [`App`] and connection policy from
//! [`crate::conn`], exactly as under the reactor; only the I/O —
//! blocking reads bounded by the phase deadline — lives here.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use libseal_httpx::http::RecvBuf;
use libseal_lthread::{JobPool, PoolConfig};
use libseal_tlsx::ssl::ReadOutcome;

use crate::conn::{
    count_shed, cut_request, receive, respond, wants_close, App, Cut, Phase, SlotPool,
};
use crate::server::ServeConfig;
use crate::Result;

/// Socket timeout tick: short enough that a carrier blocked on a quiet
/// peer notices shutdown or drain within about a second.
const TICK: Duration = Duration::from_secs(1);

/// Spawns the accept thread, which owns the carriers; `halt` tells it
/// a stop or drain was requested. Once halted it stops accepting, and
/// joins the carriers as they close still-queued connections unserved
/// and finish in-flight ones within a [`TICK`].
pub(crate) fn serve<A: App>(
    listener: TcpListener,
    cfg: ServeConfig,
    app: Arc<A>,
    halt: impl Fn() -> bool + Clone + Send + 'static,
) -> io::Result<std::thread::JoinHandle<()>> {
    let pool = JobPool::new(PoolConfig {
        carriers: cfg.workers,
    });
    let slots = SlotPool::for_plane(&*cfg.plane, cfg.workers);
    let cfg = Arc::new(cfg);
    // Live connections (queued + being served): the cap's admission
    // counter.
    let live = Arc::new(AtomicUsize::new(0));
    // Each accepted connection gets a stable id the audit plane hashes
    // for shard routing.
    let mut conn_id = 0;
    let accept = move || {
        while !halt() {
            match plat::failpoint::check("services::accept").and_then(|()| listener.accept()) {
                Ok((sock, _)) => {
                    if live.load(Ordering::Acquire) >= cfg.max_connections {
                        // Shed: refuse fast instead of queueing work no
                        // carrier will reach in time.
                        count_shed();
                        continue;
                    }
                    let _ = sock.set_nodelay(true);
                    live.fetch_add(1, Ordering::AcqRel);
                    conn_id += 1;
                    let (cfg, app, slots, live, halt) = (
                        Arc::clone(&cfg),
                        Arc::clone(&app),
                        Arc::clone(&slots),
                        Arc::clone(&live),
                        halt.clone(),
                    );
                    let job = move || {
                        let slot = slots.acquire();
                        // Still queued when the server halted: close
                        // unserved.
                        if !halt() {
                            let _ = serve_connection(sock, &cfg, slot.idx, conn_id, &*app, &halt);
                        }
                        live.fetch_sub(1, Ordering::AcqRel);
                    };
                    if pool.spawn(job).is_err() {
                        break;
                    }
                }
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_micros(200));
                }
                Err(_) => {
                    // Transient accept failures (ECONNABORTED on a
                    // reset connection, EMFILE under fd pressure,
                    // EINTR) must not kill the listener for the
                    // server's remaining lifetime: count, back off
                    // briefly, retry. Halting is the only exit.
                    app.on_accept_error();
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        }
        pool.shutdown();
    };
    std::thread::Builder::new()
        .name("blocking-accept".into())
        .spawn(accept)
}

/// Serves one connection until close, EOF, eviction or halt. `slot`
/// is the connection's async-call slot, `conn_id` the shard affinity.
fn serve_connection<A: App>(
    mut sock: TcpStream,
    cfg: &ServeConfig,
    slot: usize,
    conn_id: u64,
    app: &A,
    halt: &dyn Fn() -> bool,
) -> Result<()> {
    // Short socket-level ticks so blocked reads and writes observe
    // halt requests and phase deadlines.
    sock.set_read_timeout(Some(TICK))?;
    sock.set_write_timeout(Some(TICK.min(cfg.timeouts.write)))?;
    let plane = &*cfg.plane;
    let sid = plane.open_session(slot, conn_id)?;
    let mut state = app.open_conn();
    let write = cfg.timeouts.write;
    // Sends the session's pending ciphertext.
    let flush = |sock: &mut TcpStream| -> Result<()> {
        write_deadline(sock, &plane.take_output(slot, sid)?, write)
    };

    let mut buf = [0u8; 16 * 1024];
    let mut plain = RecvBuf::default();
    let mut established = false;
    // The phase whose deadline is armed; `None` after a handler ran, so
    // whatever phase comes next gets a fresh deadline.
    let mut phase = Some(Phase::Handshake);
    let mut deadline = Instant::now() + cfg.timeouts.handshake;
    let mut serve = || -> Result<()> {
        loop {
            // Get as far as the bytes already received allow.
            if !established {
                flush(&mut sock)?;
                established = plane.do_handshake(slot, sid)?;
            }
            if established {
                match cut_request(&mut plain, &cfg.limits, app) {
                    Cut::Request(req) => {
                        respond(app, &mut state, &req, |parts| {
                            plane.ssl_write(slot, sid, parts)?;
                            flush(&mut sock)
                        })?;
                        // A halt lands between requests: the response
                        // above was delivered (and is durable), so
                        // closing here loses nothing.
                        if wants_close(&req) || halt() {
                            return Ok(());
                        }
                        phase = None;
                        continue;
                    }
                    Cut::Reject(rsp) => {
                        plane.ssl_write(slot, sid, &[&rsp.head_bytes(), &rsp.body])?;
                        return flush(&mut sock);
                    }
                    Cut::NeedMore => {}
                }
                match plane.ssl_read(slot, sid)? {
                    ReadOutcome::Data(d) => {
                        receive(&mut plain, d, &cfg.limits);
                        continue;
                    }
                    ReadOutcome::WantRead => {}
                    ReadOutcome::Closed => return Ok(()),
                }
            }
            // Out of bytes: wait for more, for as long as the phase
            // the connection is now in allows.
            let next = Phase::of(established, false, plain.front());
            if let Some(d) = Phase::advance(&mut phase, next, &cfg.timeouts) {
                deadline = d;
            }
            flush(&mut sock)?;
            match read_deadline(&mut sock, &mut buf, deadline, halt) {
                Ok(0) => return Ok(()),
                Ok(n) => plane.provide_input(slot, sid, &buf[..n])?,
                Err(e) => {
                    if e.kind() == io::ErrorKind::TimedOut && !halt() {
                        next.count_timeout();
                    }
                    return Err(e.into());
                }
            }
        }
    };
    let result = serve();
    // Always release the application and session state, whatever path
    // left the loop.
    app.close_conn(&mut state);
    let _ = plane.close_session(slot, sid);
    result
}

/// Writes `out` within the write-phase deadline; a peer that stops
/// reading is evicted and counted.
fn write_deadline(sock: &mut TcpStream, out: &[u8], timeout: Duration) -> Result<()> {
    let deadline = Instant::now() + timeout;
    let mut rest = out;
    while !rest.is_empty() {
        match sock.write(rest) {
            Ok(0) => return Err(io::Error::from(io::ErrorKind::WriteZero).into()),
            Ok(n) => rest = &rest[n..],
            Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(ref e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if Instant::now() >= deadline {
                    Phase::Write.count_timeout();
                    return Err(io::Error::from(io::ErrorKind::TimedOut).into());
                }
            }
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

/// Deadline-bounded read. The socket's read timeout is [`TICK`], so
/// each timed-out tick re-checks `halt` and the overall `deadline` — a
/// peer that stops sending can wedge a carrier for at most one phase
/// deadline, and a halt is honoured between ticks.
///
/// Returns `TimedOut` when the deadline passes or `halt` fires.
fn read_deadline(
    sock: &mut TcpStream,
    buf: &mut [u8],
    deadline: Instant,
    halt: &dyn Fn() -> bool,
) -> io::Result<usize> {
    loop {
        match sock.read(buf) {
            Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(ref e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if halt() || Instant::now() >= deadline {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "read deadline elapsed",
                    ));
                }
            }
            r => return r,
        }
    }
}
