//! The event-driven driver: one reactor thread multiplexing every
//! connection, with application handlers on a pool of worker threads.
//! Request semantics come from the [`App`] and connection policy from
//! [`crate::conn`], exactly as under the blocking driver.
//!
//! The paper's services (§6) are thread-per-connection; at thousands
//! of mostly-idle TLS sessions that design spends a kernel thread (and
//! with auditing, an async-call slot) per parked socket. This module
//! restructures serving around readiness:
//!
//! - a [`plat::reactor::Reactor`] (epoll) watches the listener and all
//!   client sockets; idle sessions cost a registered interest, not a
//!   stack;
//! - sockets that became readable in the same sweep are drained
//!   through **one** batched enclave transition
//!   ([`AuditPlane::pump_batch`]), amortising the §4.2 transition cost
//!   across sessions exactly like the seal/verify batch entries;
//! - parsed requests run on a [`JobPool`] of `workers` OS threads, so
//!   the group-commit barrier inside `ssl_write` blocks a pool thread
//!   — never the reactor — and as many responses as there are workers
//!   share counter binds and fsyncs;
//! - one [`plat::timer::Deadlines`] set holds every deadline the loop
//!   keeps: the phase deadline of each connection whose peer owes it
//!   bytes (none while its handler runs), the accept-failure backoff
//!   and the drain cut-off. The reactor parks until the earliest of
//!   them, or with no timeout when none is armed.
//!
//! The loop is written against the session surface
//! ([`AuditPlane`]) and does not know which TLS library stands behind
//! it: a native plane's sessions go through the same batch call (a
//! plain loop there — nothing to amortise) and its responses are
//! encrypted on the pool workers like audited ones.
//!
//! Asynchronous-runtime slots admit one caller at a time, so every
//! plane call made by the event core — the reactor's batched pump
//! and each worker's write — borrows a slot index from the
//! [`SlotPool`] both drivers size the same way, without pinning slots
//! to parked connections.

use std::collections::HashMap;
use std::io::{self, Read};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use libseal::plane::AuditPlane;
use libseal::SessionInput;
use libseal_httpx::http::{RecvBuf, Request};
use libseal_lthread::{JobPool, PoolConfig};
use libseal_tlsx::record;
use libseal_tlsx::stream::{FlushOutcome, WireBuf};
use plat::reactor::{Event, Interest, Reactor, Waker};
use plat::timer::Deadlines;

use crate::conn::{
    count_shed, cut_request, message_cap, receive, respond, wants_close, App, Cut, Phase, SlotPool,
};
use crate::server::ServeConfig;

/// Token of the listening socket.
const LISTENER: u64 = 0;
/// Timer token that re-arms a paused listener.
const ACCEPT_RESUME: u64 = u64::MAX - 1;
/// Timer token of the drain deadline: the loop exits when it fires,
/// even if stragglers remain.
const DRAIN: u64 = u64::MAX - 2;
/// How long the listener stays silenced after a failed accept.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(5);
/// Wire bytes of one full record.
const RECORD: usize = record::HEADER + record::MAX_RECORD + record::TAG;
/// Pending audit work (unresolved group-commit tickets + verifier
/// lag) above which the listener pauses instead of admitting more
/// connections: admission control must kick in while the audit plane
/// is saturated, not after memory fills with unserviceable sessions.
const AUDIT_BACKLOG_PAUSE: u64 = 256;

/// A running event loop.
pub(crate) struct EventHandle {
    pub join: std::thread::JoinHandle<()>,
    /// Interrupts a parked reactor (use after flipping the shutdown
    /// flag).
    pub waker: Waker,
}

/// The session surface plus the slot discipline for calling it.
#[derive(Clone)]
struct Sessions {
    plane: Arc<dyn AuditPlane>,
    slots: Arc<SlotPool>,
}

impl Sessions {
    fn new_session(&self, affinity: u64) -> libseal::Result<u64> {
        let g = self.slots.acquire();
        self.plane.open_session(g.idx, affinity)
    }

    fn close_session(&self, sid: u64) {
        let g = self.slots.acquire();
        let _ = self.plane.close_session(g.idx, sid);
    }

    fn write_take(&self, sid: u64, parts: &[&[u8]]) -> libseal::Result<Vec<u8>> {
        let g = self.slots.acquire();
        self.plane.ssl_write_take(g.idx, sid, parts)
    }

    fn pump(&self, items: Vec<SessionInput>) -> libseal::Result<Vec<libseal::SessionOutcome>> {
        let g = self.slots.acquire();
        self.plane.pump_batch(g.idx, items)
    }
}

/// Worker → reactor completion.
struct Completion<C> {
    token: u64,
    state: C,
    /// The response's ciphertext, ready for the wire (the worker
    /// already paid the `ssl_write` transition and group-commit
    /// barrier); `None` when it could not be written — drop the
    /// connection.
    wire: Option<Vec<u8>>,
    close: bool,
}

struct Conn<C> {
    sock: TcpStream,
    /// The connection's TLS session on the plane.
    sid: u64,
    /// Outbound ciphertext not yet accepted by the socket.
    wire: WireBuf,
    /// Inbound decrypted bytes not yet parsed into a request.
    plain: RecvBuf,
    /// Application state; `None` exactly while a job holds it (the
    /// connection is busy: a request is in flight on the pool).
    state: Option<C>,
    /// Close once `wire` drains (Connection: close, malformed, or the
    /// peer's close_notify).
    close_after_flush: bool,
    /// The peer is gone (EOF or close_notify); no further requests.
    peer_closed: bool,
    /// Fatal; tear down at the next opportunity.
    dead: bool,
    /// Writable interest is currently registered.
    want_write: bool,
    /// Readable interest is dropped: the handler is running and `plain`
    /// already holds more than one message's limits.
    read_paused: bool,
    /// The TLS handshake has completed (a pump reported it).
    established: bool,
    /// Phase whose deadline is currently armed; `None` while the
    /// handler runs: the peer owes nothing then, and no deadline is
    /// armed.
    phase: Option<Phase>,
}

impl<C> Conn<C> {
    /// The readiness the connection waits for.
    fn interest(&self) -> Interest {
        Interest {
            readable: !self.read_paused,
            writable: self.want_write,
            edge: false,
        }
    }
}

fn open_conn_gauge() -> libseal_telemetry::Gauge {
    libseal_telemetry::gauge("services_event_open_connections")
}

/// Starts the reactor for `listener`. Fails (before any thread spawns)
/// if the epoll instance or its waker cannot be created.
pub(crate) fn serve<A: App>(
    listener: TcpListener,
    cfg: ServeConfig,
    app: Arc<A>,
    shutdown: Arc<AtomicBool>,
    draining: Arc<AtomicBool>,
) -> io::Result<EventHandle> {
    listener.set_nonblocking(true)?;
    let reactor = Reactor::new()?;
    reactor.register(&listener, LISTENER, Interest::READABLE)?;
    let waker = reactor.waker();

    let sessions = Sessions {
        plane: Arc::clone(&cfg.plane),
        slots: SlotPool::for_plane(&*cfg.plane, cfg.workers),
    };

    let pool = JobPool::new(PoolConfig {
        carriers: cfg.workers,
    });
    let (done_tx, done_rx) = mpsc::channel();
    let lp = Loop {
        reactor,
        deadlines: Deadlines::default(),
        conns: HashMap::new(),
        sid_token: HashMap::new(),
        listener,
        accept_paused: false,
        next_token: 1,
        app,
        sessions,
        pool,
        cfg,
        done_tx,
        done_rx,
        waker: waker.clone(),
        shutdown,
        draining,
        drain_armed: false,
    };
    let join = std::thread::Builder::new()
        .name("event-reactor".into())
        .spawn(move || lp.run())?;
    Ok(EventHandle { join, waker })
}

struct Loop<A: App> {
    reactor: Reactor,
    deadlines: Deadlines,
    conns: HashMap<u64, Conn<A::Conn>>,
    /// Session id → connection token.
    sid_token: HashMap<u64, u64>,
    listener: TcpListener,
    accept_paused: bool,
    next_token: u64,
    app: Arc<A>,
    sessions: Sessions,
    cfg: ServeConfig,
    pool: JobPool,
    done_tx: Sender<Completion<A::Conn>>,
    done_rx: Receiver<Completion<A::Conn>>,
    waker: Waker,
    shutdown: Arc<AtomicBool>,
    /// Graceful-drain request: stop accepting, deliver in-flight
    /// responses, then exit.
    draining: Arc<AtomicBool>,
    /// The drain began: [`DRAIN`] is (or was) armed.
    drain_armed: bool,
}

impl<A: App> Loop<A> {
    fn run(mut self) {
        let mut events: Vec<Event> = Vec::with_capacity(1024);
        'serve: while !self.shutdown.load(Ordering::Acquire) {
            if self.draining.load(Ordering::Acquire) && !self.drain_armed {
                self.begin_drain();
            }
            // Draining connections close as their last bytes flush;
            // `DRAIN` cuts off stragglers (a stuck peer must not hold
            // shutdown).
            if self.drain_armed && self.conns.is_empty() {
                break;
            }
            // Sockets, the waker (completions, stop, drain) and the
            // earliest deadline are everything that can wake the loop.
            let timeout = self
                .deadlines
                .next_deadline()
                .map(|d| d.saturating_duration_since(Instant::now()));
            if self.reactor.wait(&mut events, timeout).is_err() {
                break;
            }

            // Phase 1: accept and read. Every ready session contributes
            // its bytes to one batch.
            let mut batch: Vec<SessionInput> = Vec::new();
            let mut touched: Vec<u64> = Vec::new();
            for &ev in &events {
                if ev.token == LISTENER {
                    self.accept();
                    continue;
                }
                if !self.conns.contains_key(&ev.token) {
                    continue;
                }
                if ev.readable || ev.closed || ev.error {
                    self.read_ready(ev.token, &mut batch);
                }
                touched.push(ev.token);
            }

            // Phase 2: one call — behind an audited plane, one enclave
            // transition — for every session that became ready this
            // sweep.
            if !batch.is_empty() {
                self.pump(batch);
            }

            // Phase 3: dispatch parsed requests, push ciphertext,
            // re-arm phase deadlines, reap the fallen.
            touched.sort_unstable();
            touched.dedup();
            for token in touched {
                self.post_activity(token);
            }

            // Phase 4: responses finished by the workers.
            while let Ok(c) = self.done_rx.try_recv() {
                self.complete(c);
            }

            // Phase 5: deadlines — phase-deadline eviction, accept
            // resume and the drain cut-off.
            for token in self.deadlines.expired(Instant::now()) {
                match token {
                    ACCEPT_RESUME => self.resume_accept(),
                    DRAIN => break 'serve,
                    _ => self.evict(token),
                }
            }
        }

        // Shutdown: close every session, then the pool drains
        // already-queued jobs as it drops.
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for t in tokens {
            self.teardown(t);
        }
    }

    /// A connection's phase deadline passed (only a connection whose
    /// peer owes it bytes has one): count and evict it.
    fn evict(&mut self, token: u64) {
        let Some(phase) = self.conns.get(&token).and_then(|c| c.phase) else {
            return;
        };
        phase.count_timeout();
        self.teardown(token);
    }

    /// Enters graceful drain: the listener goes quiet and every
    /// connection's current response becomes its last, so connections
    /// with no in-flight work close now and the rest as soon as their
    /// response has flushed, within `drain_timeout`. Workers'
    /// group-commit barriers already ran by the time a completion
    /// reaches the reactor, so every delivered response is durable.
    fn begin_drain(&mut self) {
        self.drain_armed = true;
        self.deadlines
            .schedule(DRAIN, Instant::now() + self.cfg.drain_timeout);
        if !self.accept_paused {
            let _ = self.reactor.deregister(&self.listener);
        }
        self.accept_paused = true;
        self.deadlines.cancel(ACCEPT_RESUME);
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for t in tokens {
            if let Some(conn) = self.conns.get_mut(&t) {
                conn.close_after_flush = true;
            }
            self.finish(t);
        }
    }

    /// Drains the accept queue. A failed accept pauses the listener
    /// for [`ACCEPT_BACKOFF`] instead of spinning on a level-triggered
    /// error, then retries until shutdown — transient failures
    /// (EMFILE, ECONNABORTED) must not kill the server.
    fn accept(&mut self) {
        loop {
            // Admission control first: above the connection cap, or
            // with the audit plane saturated, admitting more sessions
            // only converts load into memory. At the cap each queued
            // accept is refused fast (the client sees a reset — its
            // cue to back off); under audit backpressure the listener
            // pauses and the backlog queues instead.
            if self.conns.len() < self.cfg.max_connections
                && self.sessions.plane.audit_backlog() > AUDIT_BACKLOG_PAUSE
            {
                libseal_telemetry::counter("services_event_backpressure_pauses_total").inc();
                let _ = self.reactor.deregister(&self.listener);
                self.accept_paused = true;
                self.deadlines
                    .schedule(ACCEPT_RESUME, Instant::now() + ACCEPT_BACKOFF);
                break;
            }
            match plat::failpoint::check("services::accept").and_then(|()| self.listener.accept()) {
                Ok((sock, _)) => {
                    if self.drain_armed {
                        // Draining: refuse by dropping the socket.
                        continue;
                    }
                    if self.conns.len() >= self.cfg.max_connections {
                        count_shed();
                        continue;
                    }
                    let _ = sock.set_nodelay(true);
                    if sock.set_nonblocking(true).is_err() {
                        continue;
                    }
                    self.admit(sock);
                }
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.app.on_accept_error();
                    let _ = self.reactor.deregister(&self.listener);
                    self.accept_paused = true;
                    self.deadlines
                        .schedule(ACCEPT_RESUME, Instant::now() + ACCEPT_BACKOFF);
                    break;
                }
            }
        }
    }

    fn resume_accept(&mut self) {
        if !self.accept_paused || self.drain_armed {
            return;
        }
        self.accept_paused = false;
        if self
            .reactor
            .register(&self.listener, LISTENER, Interest::READABLE)
            .is_err()
        {
            // Try again next backoff period rather than going deaf.
            self.accept_paused = true;
            self.deadlines
                .schedule(ACCEPT_RESUME, Instant::now() + ACCEPT_BACKOFF);
            return;
        }
        // Serve whatever queued while we were paused.
        self.accept();
    }

    fn admit(&mut self, sock: TcpStream) {
        // The token doubles as the connection's shard affinity, so it
        // is assigned before the session opens.
        let token = self.next_token;
        self.next_token += 1;
        let Ok(sid) = self.sessions.new_session(token) else {
            return;
        };
        if self
            .reactor
            .register(&sock, token, Interest::READABLE)
            .is_err()
        {
            self.sessions.close_session(sid);
            return;
        }
        self.sid_token.insert(sid, token);
        self.conns.insert(
            token,
            Conn {
                sock,
                sid,
                wire: WireBuf::new(),
                plain: RecvBuf::default(),
                state: Some(self.app.open_conn()),
                close_after_flush: false,
                peer_closed: false,
                dead: false,
                want_write: false,
                read_paused: false,
                established: false,
                phase: Some(Phase::Handshake),
            },
        );
        open_conn_gauge().add(1);
        self.deadlines
            .schedule(token, Instant::now() + self.cfg.timeouts.handshake);
    }

    /// Reads what the socket holds into the sweep's batch, into one
    /// buffer sized to it ([`plat::reactor::unread`]): all of it while
    /// the connection is idle, but while its handler runs no more than
    /// one record past the read-pause threshold. A fast writer keeps the
    /// socket readable, so an unbounded read could take everything it
    /// sends before [`Loop::pump`] pauses reads; bytes that arrive
    /// meanwhile wait for the next sweep. EINTR is retried inside;
    /// bytes read before an error are kept.
    fn read_ready(&mut self, token: u64, batch: &mut Vec<SessionInput>) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let limit = if conn.state.is_none() {
            message_cap(&self.cfg.limits).saturating_sub(conn.plain.len()) + RECORD
        } else {
            usize::MAX
        };
        // Readable with nothing unread is the peer's EOF or an error,
        // which a one-byte read reports.
        let want = match plat::reactor::unread(&conn.sock) {
            Ok(n) => n.clamp(1, limit),
            Err(_) => {
                conn.dead = true;
                return;
            }
        };
        let mut input = Vec::with_capacity(want);
        match (&mut conn.sock).take(want as u64).read_to_end(&mut input) {
            // Short of what was unread means the peer's EOF.
            Ok(n) if n < want => conn.peer_closed = true,
            Ok(_) => {}
            Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => {}
            Err(_) => conn.dead = true,
        }
        if !input.is_empty() {
            batch.push(SessionInput {
                sid: conn.sid,
                input,
            });
        }
    }

    /// One batched call moves every ready session: handshakes
    /// progress, requests decrypt, close_notify surfaces.
    fn pump(&mut self, batch: Vec<SessionInput>) {
        let tokens: Vec<u64> = batch
            .iter()
            .filter_map(|i| self.sid_token.get(&i.sid).copied())
            .collect();
        match self.sessions.pump(batch) {
            Ok(outcomes) => {
                for o in outcomes {
                    let Some(&token) = self.sid_token.get(&o.sid) else {
                        continue;
                    };
                    let Some(conn) = self.conns.get_mut(&token) else {
                        continue;
                    };
                    // Flight bytes (or the failure's alert) first, so
                    // they reach the wire even on teardown.
                    conn.wire.push(o.output);
                    receive(&mut conn.plain, o.data, &self.cfg.limits);
                    // A busy connection reads no further than one
                    // message's limits ahead: past them, its read
                    // interest is dropped until the handler completes.
                    if conn.state.is_none()
                        && !conn.read_paused
                        && conn.plain.len() > message_cap(&self.cfg.limits)
                    {
                        conn.read_paused = true;
                        libseal_telemetry::counter("services_event_read_pauses_total").inc();
                        let _ = self.reactor.modify(&conn.sock, token, conn.interest());
                    }
                    if o.established {
                        conn.established = true;
                    }
                    if o.closed {
                        conn.peer_closed = true;
                    }
                    if o.error.is_some() {
                        conn.dead = true;
                    }
                }
            }
            Err(_) => {
                // The batch entry itself failed (runtime teardown):
                // every session in it is unusable.
                for token in tokens {
                    if let Some(c) = self.conns.get_mut(&token) {
                        c.dead = true;
                    }
                }
            }
        }
    }

    /// Moves a connection on after its socket or its handler did
    /// something: dispatches a buffered request if it may take one,
    /// flushes, re-arms its deadline and tears it down once finished.
    fn post_activity(&mut self, token: u64) {
        let Some(conn) = self.conns.get(&token) else {
            return;
        };
        if !conn.dead && conn.state.is_some() && !conn.close_after_flush && !conn.peer_closed {
            self.try_dispatch(token);
        }
        self.flush(token);
        self.reschedule(token);
        self.finish(token);
    }

    /// Cuts one complete request out of the connection's plaintext and
    /// hands it to the pool. At most one request per connection is in
    /// flight; pipelined bytes wait in `plain` until the completion.
    fn try_dispatch(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.plain.is_empty() {
            return;
        }
        match cut_request(&mut conn.plain, &self.cfg.limits, &*self.app) {
            Cut::Request(req) => self.spawn_job(token, req),
            Cut::NeedMore => {}
            Cut::Reject(rsp) => {
                conn.close_after_flush = true;
                self.encrypt_now(token, &[&rsp.head_bytes(), &rsp.body]);
            }
        }
    }

    /// Reactor-side encryption for loop-originated responses (the 400
    /// path). Rare enough that an audited plane's synchronous
    /// transition is acceptable.
    fn encrypt_now(&mut self, token: u64, parts: &[&[u8]]) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        match self.sessions.write_take(conn.sid, parts) {
            Ok(wire) => conn.wire.push(wire),
            Err(_) => conn.dead = true,
        }
    }

    fn spawn_job(&mut self, token: u64, req: Request) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let Some(mut state) = conn.state.take() else {
            return;
        };
        // The peer owes nothing while the handler runs.
        conn.phase = None;
        self.deadlines.cancel(token);
        let sid = conn.sid;
        let sessions = self.sessions.clone();
        let app = Arc::clone(&self.app);
        let done_tx = self.done_tx.clone();
        let waker = self.waker.clone();
        let spawned = self.pool.spawn(move || {
            let wire = respond(&*app, &mut state, &req, |parts| {
                sessions.write_take(sid, parts)
            })
            .ok();
            let delivered = done_tx
                .send(Completion {
                    token,
                    state,
                    wire,
                    close: wants_close(&req),
                })
                .is_ok();
            if delivered {
                waker.wake();
            }
        });
        if spawned.is_err() {
            // Pool already shut down (reactor exiting); the closure —
            // and the state inside — was dropped.
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.dead = true;
            }
        }
    }

    fn complete(&mut self, c: Completion<A::Conn>) {
        let Some(conn) = self.conns.get_mut(&c.token) else {
            // The connection failed while the job ran and was torn
            // down.
            let mut state = c.state;
            self.app.close_conn(&mut state);
            return;
        };
        conn.state = Some(c.state);
        match c.wire {
            Some(wire) => conn.wire.push(wire),
            None => conn.dead = true,
        }
        if std::mem::take(&mut conn.read_paused) {
            let _ = self.reactor.modify(&conn.sock, c.token, conn.interest());
        }
        if c.close {
            conn.close_after_flush = true;
        }
        // Dispatches a pipelined follow-up request, if one is already
        // buffered, and flushes the response.
        self.post_activity(c.token);
    }

    /// Pushes queued ciphertext; tracks writable interest so the loop
    /// neither busy-polls an idle socket nor misses a drained buffer.
    fn flush(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if !conn.wire.is_empty() {
            match conn.wire.flush_to(&mut conn.sock) {
                Ok(FlushOutcome::Done) => {}
                Ok(FlushOutcome::WantWrite) => {
                    if !conn.want_write {
                        conn.want_write = true;
                        let _ = self.reactor.modify(&conn.sock, token, conn.interest());
                    }
                    return;
                }
                Err(_) => {
                    conn.dead = true;
                    return;
                }
            }
        }
        if conn.want_write {
            conn.want_write = false;
            let _ = self.reactor.modify(&conn.sock, token, conn.interest());
        }
    }

    /// Re-arms the deadline of a connection whose handler is not
    /// running if its phase calls for it (see [`Phase::advance`]).
    fn reschedule(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token).filter(|c| c.state.is_some()) else {
            return;
        };
        let next = Phase::of(conn.established, !conn.wire.is_empty(), conn.plain.front());
        if let Some(deadline) = Phase::advance(&mut conn.phase, next, &self.cfg.timeouts) {
            self.deadlines.schedule(token, deadline);
        }
    }

    /// Tears the connection down once it has nothing left to do:
    /// immediately when dead, after the flush when closing, never
    /// while a worker still owns its state (the orphaned completion
    /// cleans up instead).
    fn finish(&mut self, token: u64) {
        let Some(conn) = self.conns.get(&token) else {
            return;
        };
        if conn.dead
            || (conn.state.is_some()
                && (conn.peer_closed || (conn.close_after_flush && conn.wire.is_empty())))
        {
            self.teardown(token);
        }
    }

    fn teardown(&mut self, token: u64) {
        let Some(mut conn) = self.conns.remove(&token) else {
            return;
        };
        open_conn_gauge().sub(1);
        self.deadlines.cancel(token);
        let _ = self.reactor.deregister(&conn.sock);
        if let Some(mut state) = conn.state.take() {
            self.app.close_conn(&mut state);
        }
        self.sid_token.remove(&conn.sid);
        self.sessions.close_session(conn.sid);
    }
}
