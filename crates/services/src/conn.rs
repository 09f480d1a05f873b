//! Connection policy shared by both drivers: what a service plugs in
//! ([`App`]), which phase a connection is in and how long it may stay
//! there (a connection whose handler runs is in none, and has no
//! deadline), how one request is cut out of the decrypted stream (or the
//! stream rejected), the respond step, and which async-call slot a
//! plane call runs on ([`SlotPool`]). Nothing here touches a socket —
//! the reactor ([`crate::event`]) and the blocking loop
//! ([`crate::blocking`]) own the I/O and call in, so a deadline or
//! limit rule changes in one place.

use std::sync::Arc;
use std::time::{Duration, Instant};

use libseal::plane::AuditPlane;
use libseal_httpx::http::{head_complete, Limits, RecvBuf, Request, Response};
use libseal_httpx::ParseError;
use plat::sync::{Condvar, Mutex};

/// What a service plugs into the connection engine.
///
/// One implementation exists per service (Apache, Squid); the drivers
/// own sockets, TLS and scheduling, the `App` owns request semantics
/// and metrics.
pub trait App: Send + Sync + 'static {
    /// Per-connection application state. Under the reactor it travels
    /// into the worker job with each request and returns with the
    /// completion, so handlers may block on it (e.g. Squid's upstream
    /// leg) without synchronisation.
    type Conn: Send + 'static;

    /// State for a freshly accepted connection. Must not block: this
    /// may run on the reactor.
    fn open_conn(&self) -> Self::Conn;

    /// Serves one request. Never runs on the reactor; may block.
    fn handle(&self, conn: &mut Self::Conn, req: &Request) -> Response;

    /// Tear-down hook (upstream close, etc.). May run on the reactor;
    /// keep it brief.
    fn close_conn(&self, _conn: &mut Self::Conn) {}

    /// Telemetry span wrapped around `handle` + the response write.
    fn span_name(&self) -> &'static str;

    /// A response was written (count it, record latency, label
    /// routes). `conn` is the state `handle` left behind.
    fn on_request(&self, conn: &Self::Conn, path: &str, started: Instant);

    /// A connection sent provably-not-HTTP bytes (it gets a 400).
    fn on_malformed(&self);

    /// `accept(2)` failed transiently.
    fn on_accept_error(&self);
}

/// Per-phase eviction deadlines.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PhaseTimeouts {
    /// Accept → TLS establishment.
    pub handshake: Duration,
    /// First decrypted request byte → complete header section.
    pub header: Duration,
    /// Complete head → complete body.
    pub body: Duration,
    /// Response queued → handed to the socket.
    pub write: Duration,
    /// Established with no partial request and nothing to write; an
    /// inactivity timer, renewed by traffic.
    pub idle: Duration,
}

impl Default for PhaseTimeouts {
    fn default() -> PhaseTimeouts {
        PhaseTimeouts {
            handshake: Duration::from_secs(10),
            header: Duration::from_secs(10),
            body: Duration::from_secs(30),
            write: Duration::from_secs(30),
            idle: Duration::from_secs(60),
        }
    }
}

/// Connection lifecycle phase, each with its own deadline. Deadlines
/// are *per phase*, not per byte: a slowloris trickling one header
/// byte per second never pushes its header deadline out. A connection
/// whose handler runs owes the server nothing and is in no phase: its
/// driver holds `None` for the armed phase until the handler returns.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Phase {
    /// TLS handshake in progress.
    Handshake,
    /// Reading a request head.
    Head,
    /// Head complete; reading the body.
    Body,
    /// Unflushed response bytes waiting on the socket.
    Write,
    /// Established, no partial request, nothing to write.
    Idle,
}

impl Phase {
    /// The phase of a connection with no handler running, whose
    /// handshake has (not) completed, with (no) response bytes still
    /// queued and `plain` decrypted-but-unparsed request bytes.
    pub fn of(established: bool, write_pending: bool, plain: &[u8]) -> Phase {
        if !established {
            Phase::Handshake
        } else if write_pending {
            Phase::Write
        } else if plain.is_empty() {
            Phase::Idle
        } else if head_complete(plain) {
            Phase::Body
        } else {
            Phase::Head
        }
    }

    /// Moves the `armed` phase (`None`: nothing armed, as after a
    /// handler) to `next` and returns the deadline to arm, if one must
    /// be armed. The deadline only moves when the phase *changes* —
    /// progress within a phase (one more header byte, one more flushed
    /// chunk) never extends it, which is what defeats slowloris-style
    /// trickling — except that idle is an inactivity timer, renewed by
    /// every bit of traffic.
    pub fn advance(
        armed: &mut Option<Phase>,
        next: Phase,
        timeouts: &PhaseTimeouts,
    ) -> Option<Instant> {
        if *armed == Some(next) && next != Phase::Idle {
            return None;
        }
        *armed = Some(next);
        let timeout = match next {
            Phase::Handshake => timeouts.handshake,
            Phase::Head => timeouts.header,
            Phase::Body => timeouts.body,
            Phase::Write => timeouts.write,
            Phase::Idle => timeouts.idle,
        };
        Some(Instant::now() + timeout)
    }

    /// Counts a connection evicted because this phase's deadline
    /// passed.
    pub fn count_timeout(self) {
        libseal_telemetry::counter(match self {
            Phase::Handshake => "services_handshake_timeouts_total",
            Phase::Head => "services_header_timeouts_total",
            Phase::Body => "services_body_timeouts_total",
            Phase::Write => "services_write_timeouts_total",
            // Named before the blocking driver had an idle bound.
            Phase::Idle => "services_event_idle_evictions_total",
        })
        .inc();
    }
}

/// Counts a connection refused at the `max_connections` cap.
pub(crate) fn count_shed() {
    libseal_telemetry::counter("services_sheds_total").inc();
}

/// Lends async-call slot indices to concurrent callers of the plane.
///
/// `AsyncRuntime` panics if two threads share a slot. Under the reactor
/// each plane call (the reactor's batched pump, a carrier's write)
/// borrows a slot for the call; under the blocking driver a connection
/// borrows one for its lifetime. Callers wait while none is free;
/// without a runtime the pool is sized so that nobody waits.
pub(crate) struct SlotPool {
    free: Mutex<Vec<usize>>,
    freed: Condvar,
}

impl SlotPool {
    /// The slots for `plane` called from `workers` pool carriers (and
    /// a reactor): the runtime's, or `workers + 2` without one.
    pub(crate) fn for_plane(plane: &dyn AuditPlane, workers: usize) -> Arc<SlotPool> {
        let n = plane.async_slots().unwrap_or(workers + 2);
        Arc::new(SlotPool {
            free: Mutex::new((0..n.max(1)).rev().collect()),
            freed: Condvar::new(),
        })
    }

    pub(crate) fn acquire(self: &Arc<Self>) -> SlotGuard {
        let mut free = self.free.lock();
        loop {
            if let Some(idx) = free.pop() {
                return SlotGuard {
                    pool: Arc::clone(self),
                    idx,
                };
            }
            free = self.freed.wait(free);
        }
    }
}

/// A borrowed slot, returned on drop.
pub(crate) struct SlotGuard {
    pool: Arc<SlotPool>,
    pub(crate) idx: usize,
}

impl Drop for SlotGuard {
    fn drop(&mut self) {
        self.pool.free.lock().push(self.idx);
        self.pool.freed.notify_one();
    }
}

/// What the front of a connection's plaintext buffer holds.
pub(crate) enum Cut {
    /// One complete request, removed from the buffer.
    Request(Request),
    /// A prefix of a request; read more.
    NeedMore,
    /// Bytes no further input can turn into a servable request: answer
    /// with this response and close. The buffer has been released.
    Reject(Response),
}

/// Cuts one request out of `plain`, or decides the stream must be
/// rejected: provably not HTTP (400), or past a buffer cap (431/413).
/// A request's body is moved out of `plain`, not copied
/// ([`RecvBuf::take_request`]).
pub(crate) fn cut_request<A: App>(plain: &mut RecvBuf, limits: &Limits, app: &A) -> Cut {
    let status = match plain.take_request(limits) {
        Ok(req) => return Cut::Request(req),
        // Belt-and-braces buffer cap for streams the parser keeps
        // waiting on (e.g. a chunked body whose size line never
        // terminates): no single message may make us buffer more than
        // head + body limits.
        Err(ParseError::Incomplete) => {
            if plain.len() <= message_cap(limits) {
                return Cut::NeedMore;
            }
            413
        }
        Err(e) => e.close_status(),
    };
    if status == 400 {
        app.on_malformed();
    } else {
        libseal_telemetry::counter("services_limit_rejections_total").inc();
    }
    // The limit cases must stop buffering *now*.
    *plain = RecvBuf::default();
    Cut::Reject(Response::new(status, b"request rejected".to_vec()))
}

/// Appends decrypted bytes to a connection's plaintext, counting a body
/// that arrived over several reads and was gathered into one buffer
/// (`services_body_gathers_total`): the one copy of a request body the
/// untrusted receive path makes.
pub(crate) fn receive(plain: &mut RecvBuf, data: Vec<u8>, limits: &Limits) {
    if plain.push(data, limits) {
        libseal_telemetry::counter("services_body_gathers_total").inc();
    }
}

/// The most plaintext one message may make a connection buffer: head
/// plus body limits.
pub(crate) fn message_cap(limits: &Limits) -> usize {
    limits.max_head_bytes.saturating_add(limits.max_body_bytes)
}

/// Whether the client asked for this response to be the last.
pub(crate) fn wants_close(req: &Request) -> bool {
    req.headers
        .get("Connection")
        .is_some_and(|v| v.eq_ignore_ascii_case("close"))
}

/// The respond step: route the request and write the response back
/// through `write` (the driver's audited write, handed the head and the
/// body as they lie: the response is never re-serialised into one
/// buffer) under the service's span — so enclave transitions charged on
/// this thread while it is open land in its boundary tally — then
/// report the served request. A failed write reports nothing.
pub(crate) fn respond<A: App, T, E>(
    app: &A,
    conn: &mut A::Conn,
    req: &Request,
    write: impl FnOnce(&[&[u8]]) -> Result<T, E>,
) -> Result<T, E> {
    let started = Instant::now();
    let written = {
        let _span =
            libseal_telemetry::global().span(app.span_name(), libseal_telemetry::Side::Untrusted);
        let response = app.handle(conn, req);
        write(&[&response.head_bytes(), &response.body])?
    };
    app.on_request(conn, req.path(), started);
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// From nothing armed (a handler just returned) any phase arms; an
    /// unchanged phase keeps its deadline, except idle, which traffic
    /// renews; a changed phase arms afresh.
    #[test]
    fn a_deadline_moves_only_when_the_phase_changes() {
        let t = PhaseTimeouts::default();
        let all = [
            Phase::Handshake,
            Phase::Head,
            Phase::Body,
            Phase::Write,
            Phase::Idle,
        ];
        for next in all {
            let mut armed = None;
            let first = Phase::advance(&mut armed, next, &t);
            assert!(first.is_some(), "{next:?} from nothing armed");
            assert_eq!(armed, Some(next));
            let again = Phase::advance(&mut armed, next, &t);
            assert_eq!(again.is_some(), next == Phase::Idle, "{next:?} unchanged");
            assert!(again.is_none_or(|d| d >= first.unwrap()));
            for from in all.into_iter().filter(|&p| p != next) {
                let mut armed = Some(from);
                assert!(Phase::advance(&mut armed, next, &t).is_some());
                assert_eq!(armed, Some(next), "{from:?} -> {next:?}");
            }
        }
    }
}
