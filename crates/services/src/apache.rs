//! An Apache-like web server terminating STLS: the [`Router`]
//! personality of the connection engine (see the crate docs for the
//! two drivers).
//!
//! Routers plug the application in: static content for the TLS
//! micro-benchmarks (Fig. 7a, Tabs 2-4) or the Git/ownCloud backends
//! for Fig. 5. The paper's large-scale Git deployment (§6.4), Apache
//! as an audited reverse proxy in front of backend servers, is a
//! [`crate::squid::SquidProxy`] with a fixed origin.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use libseal_httpx::http::{Request, Response};

use crate::server::{Config, Server};
use crate::tlsadapter::TlsMode;
use crate::Result;

/// Application logic behind the server.
pub trait Router: Send + Sync {
    /// Produces the response for one request.
    fn handle(&self, req: &Request) -> Response;
}

/// Serves `GET /content/<n>` with an `n`-byte body (the paper's
/// variable content-size workload).
pub struct StaticContentRouter;

impl Router for StaticContentRouter {
    fn handle(&self, req: &Request) -> Response {
        if let Some(size) = req.path().strip_prefix("/content/") {
            if let Ok(n) = size.parse::<usize>() {
                return Response::new(200, vec![b'x'; n]);
            }
        }
        Response::new(404, b"not found".to_vec())
    }
}

/// Wraps a router with a fixed application-processing delay, modelling
/// backend work (the real git-http-backend, PHP engine, etc.) that the
/// TLS layer under study is not responsible for.
pub struct DelayRouter {
    /// Simulated processing time per request.
    pub delay: std::time::Duration,
    /// Burn CPU (true) or sleep (false). CPU-bound work models a
    /// saturated application core (the paper's Git backend); sleeping
    /// models waiting on external resources.
    pub busy: bool,
    /// The wrapped application.
    pub inner: Arc<dyn Router>,
}

impl Router for DelayRouter {
    fn handle(&self, req: &Request) -> Response {
        if !self.delay.is_zero() {
            if self.busy {
                libseal_sgxsim::cost::spin_for_nanos(self.delay.as_nanos() as u64);
            } else {
                std::thread::sleep(self.delay);
            }
        }
        self.inner.handle(req)
    }
}

/// Router from a plain function.
pub struct FnRouter<F: Fn(&Request) -> Response + Send + Sync>(pub F);

impl<F: Fn(&Request) -> Response + Send + Sync> Router for FnRouter<F> {
    fn handle(&self, req: &Request) -> Response {
        self.0(req)
    }
}

/// Serves `GET /metrics` with a plain-text snapshot of the process-wide
/// telemetry registry (counters, gauges, histograms and recent span
/// traces from every instrumented crate), delegating everything else to
/// the wrapped router (404 when standalone).
pub struct MetricsRouter {
    inner: Option<Arc<dyn Router>>,
}

impl MetricsRouter {
    /// A standalone metrics endpoint: `/metrics` only, 404 elsewhere.
    pub fn new() -> Self {
        MetricsRouter { inner: None }
    }

    /// Wraps `inner`, adding the `/metrics` route in front of it.
    pub fn wrapping(inner: Arc<dyn Router>) -> Self {
        MetricsRouter { inner: Some(inner) }
    }
}

impl Default for MetricsRouter {
    fn default() -> Self {
        Self::new()
    }
}

impl Router for MetricsRouter {
    fn handle(&self, req: &Request) -> Response {
        if req.method == "GET" && req.path() == "/metrics" {
            let body = libseal_telemetry::global().render_text();
            return Response::new(200, body.into_bytes());
        }
        match &self.inner {
            Some(inner) => inner.handle(req),
            None => Response::new(404, b"not found".to_vec()),
        }
    }
}

/// Server-side request metrics: lifecycle counters, latency histogram
/// and bounded-cardinality per-route counters.
struct ApacheMetrics {
    requests: libseal_telemetry::Counter,
    request_ns: libseal_telemetry::Histogram,
    accept_errors: libseal_telemetry::Counter,
    malformed_requests: libseal_telemetry::Counter,
    /// Route label -> counter; capped at [`ROUTE_CARDINALITY_CAP`]
    /// labels, everything beyond lands on `other`.
    routes: plat::sync::Mutex<std::collections::HashMap<String, libseal_telemetry::Counter>>,
}

/// Most distinct per-route counters before falling back to `other` —
/// keeps a path-scanning client from minting unbounded metric names.
const ROUTE_CARDINALITY_CAP: usize = 32;

/// Longest route label kept verbatim — a single huge path segment must
/// not mint an arbitrarily long metric name.
const ROUTE_LABEL_MAX: usize = 48;

fn apache_metrics() -> &'static ApacheMetrics {
    static M: std::sync::OnceLock<ApacheMetrics> = std::sync::OnceLock::new();
    M.get_or_init(|| ApacheMetrics {
        requests: libseal_telemetry::counter("services_apache_requests_total"),
        request_ns: libseal_telemetry::histogram("services_apache_request_ns"),
        accept_errors: libseal_telemetry::counter("services_apache_accept_errors_total"),
        malformed_requests: libseal_telemetry::counter("services_apache_malformed_requests_total"),
        routes: plat::sync::Mutex::new(std::collections::HashMap::new()),
    })
}

/// First path segment, sanitised to a metric-name-safe `[a-z0-9_]`
/// label and truncated to [`ROUTE_LABEL_MAX`] characters.
fn route_label(path: &str) -> String {
    let seg = path
        .trim_start_matches('/')
        .split(['/', '?'])
        .next()
        .unwrap_or("");
    if seg.is_empty() {
        return "root".to_string();
    }
    seg.chars()
        .take(ROUTE_LABEL_MAX)
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect()
}

fn bump_route(path: &str) {
    let label = route_label(path);
    let mut routes = apache_metrics().routes.lock();
    let counter = match routes.get(&label) {
        Some(c) => c.clone(),
        None => {
            let effective = if routes.len() >= ROUTE_CARDINALITY_CAP {
                "other".to_string()
            } else {
                label
            };
            routes
                .entry(effective.clone())
                .or_insert_with(|| {
                    libseal_telemetry::counter(&format!(
                        "services_apache_route_{effective}_requests_total"
                    ))
                })
                .clone()
        }
    };
    counter.inc();
}

/// Server configuration: the shared serving knobs plus the router.
pub type ApacheConfig = Config<Arc<dyn Router>>;

impl ApacheConfig {
    /// A configuration serving `router` with the default knobs.
    pub fn new(tls: TlsMode, router: Arc<dyn Router>) -> ApacheConfig {
        Config::with_defaults(tls, router)
    }
}

/// The Apache personality of the connection engine: route via the
/// configured [`Router`].
pub struct ApacheApp {
    router: Arc<dyn Router>,
    served: AtomicU64,
}

impl crate::conn::App for ApacheApp {
    type Conn = ();

    fn open_conn(&self) {}

    fn handle(&self, _conn: &mut (), req: &Request) -> Response {
        self.router.handle(req)
    }

    fn span_name(&self) -> &'static str {
        "apache_request"
    }

    fn on_request(&self, _conn: &(), path: &str, started: std::time::Instant) {
        let m = apache_metrics();
        m.requests.inc();
        m.request_ns.record_duration(started.elapsed());
        bump_route(path);
        self.served.fetch_add(1, Ordering::Relaxed);
    }

    fn on_malformed(&self) {
        apache_metrics().malformed_requests.inc();
    }

    fn on_accept_error(&self) {
        apache_metrics().accept_errors.inc();
    }
}

/// A running server instance.
pub type ApacheServer = Server<ApacheApp>;

impl ApacheServer {
    /// Starts the server on an ephemeral local port.
    ///
    /// # Errors
    ///
    /// Socket binding failures.
    pub fn start(config: ApacheConfig) -> Result<ApacheServer> {
        let app = ApacheApp {
            router: config.service,
            served: AtomicU64::new(0),
        };
        Server::launch(config.serve, app)
    }

    /// Requests served so far.
    pub fn requests_served(&self) -> u64 {
        self.app.served.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_labels_are_metric_name_safe() {
        assert_eq!(route_label("/"), "root");
        assert_eq!(route_label(""), "root");
        assert_eq!(route_label("/content/4096"), "content");
        assert_eq!(route_label("/Git-Upload.Pack"), "git_upload_pack");
        assert_eq!(route_label("/a%2F..%2Fetc?x=1"), "a_2f___2fetc");
        assert!(route_label("/weird$(){}//x")
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'));
    }

    #[test]
    fn route_labels_are_length_bounded() {
        let long = format!("/{}", "a".repeat(4096));
        assert_eq!(route_label(&long).len(), ROUTE_LABEL_MAX);
    }
}
