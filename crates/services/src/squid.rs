//! A Squid-like TLS-terminating forward proxy.
//!
//! Two TLS legs, as in the paper's Dropbox deployment (§6.4, §6.6):
//! clients connect to the proxy over STLS (terminated natively or via
//! LibSEAL — the audit point), and the proxy opens its own STLS
//! connection to the origin for each client connection. Every request
//! is forwarded verbatim and every response relayed back, so the Squid
//! figure's two-handshake overhead is reproduced.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use libseal_crypto::ed25519::VerifyingKey;
use libseal_httpx::http::{Request, Response};
use libseal_tlsx::attest::AttestationPolicy;

use crate::client::{HttpsClient, PersistentConnection};
use crate::server::{Config, Server};
use crate::tlsadapter::TlsMode;
use crate::Result;

/// Proxy-side request metrics.
struct SquidMetrics {
    requests: libseal_telemetry::Counter,
    request_ns: libseal_telemetry::Histogram,
    accept_errors: libseal_telemetry::Counter,
    malformed_requests: libseal_telemetry::Counter,
}

fn squid_metrics() -> &'static SquidMetrics {
    static M: std::sync::OnceLock<SquidMetrics> = std::sync::OnceLock::new();
    M.get_or_init(|| SquidMetrics {
        requests: libseal_telemetry::counter("services_squid_requests_total"),
        request_ns: libseal_telemetry::histogram("services_squid_request_ns"),
        accept_errors: libseal_telemetry::counter("services_squid_accept_errors_total"),
        malformed_requests: libseal_telemetry::counter("services_squid_malformed_requests_total"),
    })
}

/// Proxy configuration: the shared serving knobs plus the upstream
/// leg.
pub type SquidConfig = Config<HttpsClient>;

impl SquidConfig {
    /// A configuration with the default knobs. `upstream` is the
    /// origin server; `upstream_roots` the CA roots trusted for its
    /// certificate, which must name `upstream_subject` (the proxy's
    /// upstream leg pins the subject — a valid certificate for some
    /// other host is rejected).
    pub fn new(
        tls: TlsMode,
        upstream: SocketAddr,
        upstream_roots: Vec<VerifyingKey>,
        upstream_subject: &str,
    ) -> SquidConfig {
        let origin = HttpsClient::new(upstream, upstream_roots, upstream_subject);
        Config::with_defaults(tls, origin)
    }

    /// Requires the origin certificate to pass `policy` (RA-TLS) on
    /// the upstream leg: the embedded enclave quote must verify and
    /// commit to the certificate key before any request is forwarded.
    #[must_use]
    pub fn attestation(mut self, policy: Arc<AttestationPolicy>) -> SquidConfig {
        self.service = self.service.attestation(policy);
        self
    }
}

/// The Squid personality of the connection engine. The upstream leg
/// is per client connection (as Squid tunnels), opened lazily on the
/// first request *inside the handler* — the origin handshake must
/// never block the reactor.
pub struct SquidApp {
    origin: HttpsClient,
    proxied: AtomicU64,
}

impl crate::conn::App for SquidApp {
    /// The upstream leg; `None` until the first request dials it, and
    /// again after it failed.
    type Conn = Option<PersistentConnection>;

    fn open_conn(&self) -> Self::Conn {
        None
    }

    fn handle(&self, conn: &mut Self::Conn, req: &Request) -> Response {
        if conn.is_none() {
            match self.origin.connect() {
                Ok(c) => *conn = Some(c),
                Err(_) => return Response::new(502, b"bad gateway".to_vec()),
            }
        }
        match conn.as_mut().expect("origin leg just opened").request(req) {
            Ok(rsp) => rsp,
            Err(_) => {
                // The origin leg died; drop it so the next request
                // redials instead of failing forever.
                *conn = None;
                Response::new(502, b"bad gateway".to_vec())
            }
        }
    }

    fn close_conn(&self, conn: &mut Self::Conn) {
        if let Some(mut origin) = conn.take() {
            origin.close();
        }
    }

    fn span_name(&self) -> &'static str {
        "squid_request"
    }

    fn on_request(&self, conn: &Self::Conn, _path: &str, started: std::time::Instant) {
        // No upstream leg after `handle` means this response was the
        // proxy's own 502, not a proxied request.
        if conn.is_none() {
            return;
        }
        squid_metrics().requests.inc();
        squid_metrics()
            .request_ns
            .record_duration(started.elapsed());
        self.proxied.fetch_add(1, Ordering::Relaxed);
    }

    fn on_malformed(&self) {
        squid_metrics().malformed_requests.inc();
    }

    fn on_accept_error(&self) {
        squid_metrics().accept_errors.inc();
    }
}

/// A running proxy.
pub type SquidProxy = Server<SquidApp>;

impl SquidProxy {
    /// Starts the proxy on an ephemeral local port.
    ///
    /// # Errors
    ///
    /// Socket binding failures.
    pub fn start(config: SquidConfig) -> Result<SquidProxy> {
        let app = SquidApp {
            origin: config.service,
            proxied: AtomicU64::new(0),
        };
        Server::launch(config.serve, app)
    }

    /// Requests proxied so far.
    pub fn requests_proxied(&self) -> u64 {
        self.app.proxied.load(Ordering::Relaxed)
    }
}
