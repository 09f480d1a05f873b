//! The server lifecycle and its configuration, written once for both
//! services: `ServeConfig` carries every serving knob, [`Config`]
//! adds the one thing a service brings (Apache's router, Squid's
//! upstream leg), and [`Server`] owns the listener, the driver's
//! thread and start / stop / drain.

use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use libseal::plane::AuditPlane;
use libseal_httpx::http::Limits;

use crate::conn::{App, PhaseTimeouts};
use crate::tlsadapter::TlsMode;
use crate::Result;

/// What the connection engine needs to know to serve, whatever the
/// service.
pub(crate) struct ServeConfig {
    /// Where TLS terminates: the one session surface both drivers
    /// program against, whichever library `TlsMode` named.
    pub(crate) plane: Arc<dyn AuditPlane>,
    pub(crate) workers: usize,
    pub(crate) event_loop: bool,
    pub(crate) timeouts: PhaseTimeouts,
    pub(crate) max_connections: usize,
    pub(crate) drain_timeout: Duration,
    pub(crate) limits: Limits,
}

/// Server configuration (builder): the serving knobs, the same for
/// every service, plus the service's own part `S`.
/// [`crate::apache::ApacheConfig`] and [`crate::squid::SquidConfig`]
/// are this type.
///
/// ```
/// # use std::sync::Arc;
/// # use libseal_services::apache::{ApacheConfig, StaticContentRouter};
/// # fn demo(tls: libseal_services::TlsMode) -> ApacheConfig {
/// ApacheConfig::new(tls, Arc::new(StaticContentRouter))
///     .workers(8)
///     .event_loop(false) // paper-faithful thread-per-connection
/// # }
/// ```
pub struct Config<S> {
    pub(crate) serve: ServeConfig,
    pub(crate) service: S,
}

impl<S> Config<S> {
    /// The defaults: 4 workers, the event-driven driver, a 60 s
    /// idle-session timeout, no connection cap, default phase
    /// deadlines and HTTP limits, and a 5 s drain bound. `tls` is
    /// resolved to its session surface here, once: a `Config` starts
    /// exactly one server.
    pub(crate) fn with_defaults(tls: TlsMode, service: S) -> Config<S> {
        Config {
            serve: ServeConfig {
                plane: tls.plane(),
                workers: 4,
                event_loop: true,
                timeouts: PhaseTimeouts::default(),
                max_connections: usize::MAX,
                drain_timeout: Duration::from_secs(5),
                limits: Limits::default(),
            },
            service,
        }
    }

    /// Job-pool carriers (application threads `A` in §4.3 terms), the
    /// same under both drivers: the blocking driver runs a connection
    /// per carrier at a time, the reactor a request per carrier.
    #[must_use]
    pub fn workers(mut self, n: usize) -> Self {
        self.serve.workers = n;
        self
    }

    /// Selects the event-driven driver (default) or, with `false`, the
    /// paper's thread-per-connection one.
    #[must_use]
    pub fn event_loop(mut self, on: bool) -> Self {
        self.serve.event_loop = on;
        self
    }

    /// Idle keep-alive connections are evicted after this long
    /// without traffic (default 60 s).
    #[must_use]
    pub fn idle_timeout(mut self, d: Duration) -> Self {
        self.serve.timeouts.idle = d;
        self
    }

    /// Most concurrent connections; accepts beyond the cap are shed
    /// (refused fast) instead of queued. Default: unlimited.
    #[must_use]
    pub fn max_connections(mut self, n: usize) -> Self {
        self.serve.max_connections = n.max(1);
        self
    }

    /// Deadline for a client to finish its TLS handshake (default
    /// 10 s); expiry evicts the connection.
    #[must_use]
    pub fn handshake_timeout(mut self, d: Duration) -> Self {
        self.serve.timeouts.handshake = d;
        self
    }

    /// Deadline to finish a request's header section once its first
    /// byte arrived (default 10 s). The deadline is per phase, not
    /// per byte: trickling headers does not extend it.
    #[must_use]
    pub fn header_timeout(mut self, d: Duration) -> Self {
        self.serve.timeouts.header = d;
        self
    }

    /// Deadline to finish a request body once the head completed
    /// (default 30 s).
    #[must_use]
    pub fn body_timeout(mut self, d: Duration) -> Self {
        self.serve.timeouts.body = d;
        self
    }

    /// Deadline for a peer to drain a queued response (default 30 s);
    /// a stuck reader is evicted, not held forever.
    #[must_use]
    pub fn write_timeout(mut self, d: Duration) -> Self {
        self.serve.timeouts.write = d;
        self
    }

    /// Bound on the graceful drain in [`Server::drain`]: how long
    /// in-flight requests get to deliver before teardown cuts
    /// stragglers off (default 5 s).
    #[must_use]
    pub fn drain_timeout(mut self, d: Duration) -> Self {
        self.serve.drain_timeout = d;
        self
    }

    /// HTTP parser limits (head bytes, header count, body bytes);
    /// breaching them answers 431/413 and closes the connection.
    #[must_use]
    pub fn http_limits(mut self, limits: Limits) -> Self {
        self.serve.limits = limits;
        self
    }
}

/// A running server: the `A` personality of the connection engine.
/// [`crate::ApacheServer`] and [`crate::SquidProxy`] are this type.
pub struct Server<A: App> {
    addr: SocketAddr,
    pub(crate) app: Arc<A>,
    shutdown: Arc<AtomicBool>,
    /// Graceful-drain request ([`Server::drain`]): stop accepting,
    /// deliver in-flight responses, then exit.
    draining: Arc<AtomicBool>,
    /// The driver's thread: the reactor, or the blocking driver's
    /// accept thread (which joins its pool carriers).
    driver: Option<std::thread::JoinHandle<()>>,
    /// Present under the reactor: interrupts its park on stop.
    waker: Option<plat::reactor::Waker>,
    /// Kept to seal pending audit batches to durable after drain.
    plane: Arc<dyn AuditPlane>,
}

impl<A: App> Server<A> {
    /// Binds an ephemeral local port and starts the configured driver.
    pub(crate) fn launch(cfg: ServeConfig, app: A) -> Result<Server<A>> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let app = Arc::new(app);
        let shutdown = Arc::new(AtomicBool::new(false));
        let draining = Arc::new(AtomicBool::new(false));
        let plane = Arc::clone(&cfg.plane);
        let (driver, waker) = if cfg.event_loop {
            let handle = crate::event::serve(
                listener,
                cfg,
                Arc::clone(&app),
                Arc::clone(&shutdown),
                Arc::clone(&draining),
            )?;
            (handle.join, Some(handle.waker))
        } else {
            let halt = {
                let (shutdown, draining) = (Arc::clone(&shutdown), Arc::clone(&draining));
                move || shutdown.load(Ordering::Acquire) || draining.load(Ordering::Acquire)
            };
            let accept = crate::blocking::serve(listener, cfg, Arc::clone(&app), halt)?;
            (accept, None)
        };
        Ok(Server {
            addr,
            app,
            shutdown,
            draining,
            driver: Some(driver),
            waker,
            plane,
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The process-wide telemetry registry the server reports into.
    pub fn telemetry(&self) -> &'static libseal_telemetry::Registry {
        libseal_telemetry::global()
    }

    /// Stops the server and joins its threads (what dropping it does).
    pub fn stop(self) {}

    /// Gracefully drains the server: stop accepting, deliver in-flight
    /// responses (bounded by the configured drain deadline under the
    /// reactor), then seal pending audit batches to durable storage.
    pub fn drain(mut self) {
        self.halt(false);
        // Every delivered response already awaited group-commit
        // durability on its write path; this catches batches still
        // staged when the last worker exited.
        let _ = self.plane.drain(0);
    }

    /// Raises the drain flag (or, with `now`, the shutdown flag) and
    /// joins the driver's thread.
    fn halt(&mut self, now: bool) {
        let flag = if now { &self.shutdown } else { &self.draining };
        flag.store(true, Ordering::Release);
        if let Some(w) = &self.waker {
            w.wake();
        }
        if let Some(driver) = self.driver.take() {
            let _ = driver.join();
        }
    }
}

impl<A: App> Drop for Server<A> {
    fn drop(&mut self) {
        self.halt(true);
    }
}
