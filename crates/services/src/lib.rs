#![warn(missing_docs)]
//! Simulated Internet services and servers for evaluating LibSEAL.
//!
//! The paper evaluates LibSEAL with Apache (serving Git and ownCloud)
//! and Squid (proxying Dropbox). This crate provides from-scratch
//! equivalents that terminate STLS either natively or through
//! LibSEAL — a choice ([`TlsMode`]) made when a server is configured
//! and invisible afterwards: both are one session surface
//! ([`libseal::AuditPlane`], see [`tlsadapter`]) and nothing below
//! the configuration branches on it (§4.1, the drop-in claim):
//!
//! - [`apache::ApacheServer`] — a web server with pluggable routers
//!   (static content, Git, ownCloud);
//! - [`squid::SquidProxy`] — a TLS-terminating proxy to one origin with
//!   two TLS legs (client↔proxy, proxy↔origin), also the audited
//!   reverse proxy of the paper's Git deployment (§6.4);
//!
//! Both are one connection engine with two personalities. A service
//! is an `App` (request semantics and metrics: Apache routes, Squid
//! forwards over its upstream leg); the engine owns sockets, TLS and
//! scheduling, and runs under one of two drivers over the same
//! connection policy (phase deadlines, HTTP limits, `Connection:
//! close`, the audited respond step):
//!
//! - the **reactor** (default): one epoll thread multiplexes every
//!   connection, ready sessions are drained through one batched call
//!   per sweep (one enclave transition behind LibSEAL), and handlers
//!   run — and encrypt their responses — on the job pool's worker
//!   threads;
//! - the **blocking** driver (`event_loop(false)`): the paper's
//!   thread-per-connection model — a fixed pool of workers, each
//!   serving whole connections with one call per TLS operation and
//!   owning one async-ecall slot. The paper-figure binaries pin it,
//!   and it is the fallback where readiness polling is unsupported.
//!
//! [`server::Config`] carries the serving knobs, each defined once
//! for both services ([`apache::ApacheConfig`] adds the router,
//! [`squid::SquidConfig`] the upstream leg), and [`server::Server`]
//! is the one start / stop / drain lifecycle. The remaining modules:
//!
//! - [`git`] — an in-memory Git backend speaking the smart-HTTP-like
//!   dialect the Git SSM parses, with teleport/rollback/hide-ref
//!   attack injection and a synthetic commit-history generator;
//! - [`owncloud`] — a collaborative-document sync service with
//!   lost-edit/tamper/stale-snapshot injection;
//! - [`dropbox`] — a file-metadata service speaking
//!   `commit_batch`/`list`, with blocklist-corruption/hidden-file/
//!   phantom-file injection and a simulated WAN latency floor;
//! - [`client`] — STLS HTTP clients and a closed-loop load generator
//!   measuring throughput and latency percentiles.

pub mod apache;
pub(crate) mod blocking;
pub mod client;
pub(crate) mod conn;
pub mod dropbox;
pub(crate) mod event;
pub mod git;
pub mod owncloud;
pub mod server;
pub mod squid;
pub mod tlsadapter;

pub use apache::{ApacheServer, MetricsRouter, Router, StaticContentRouter};
pub use client::{HttpsClient, LoadGenerator, LoadStats};
pub use squid::SquidProxy;
pub use tlsadapter::TlsMode;

/// Errors from the service layer.
#[derive(Debug)]
pub enum ServiceError {
    /// Transport failure.
    Io(std::io::Error),
    /// TLS failure.
    Tls(libseal_tlsx::TlsError),
    /// LibSEAL failure.
    LibSeal(libseal::LibSealError),
    /// Protocol failure.
    Protocol(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Io(e) => write!(f, "io: {e}"),
            ServiceError::Tls(e) => write!(f, "tls: {e}"),
            ServiceError::LibSeal(e) => write!(f, "libseal: {e}"),
            ServiceError::Protocol(m) => write!(f, "protocol: {m}"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Io(e) => Some(e),
            ServiceError::Tls(e) => Some(e),
            ServiceError::LibSeal(e) => Some(e),
            ServiceError::Protocol(_) => None,
        }
    }
}

impl From<std::io::Error> for ServiceError {
    fn from(e: std::io::Error) -> Self {
        ServiceError::Io(e)
    }
}

impl From<libseal_tlsx::TlsError> for ServiceError {
    fn from(e: libseal_tlsx::TlsError) -> Self {
        ServiceError::Tls(e)
    }
}

impl From<libseal::LibSealError> for ServiceError {
    fn from(e: libseal::LibSealError) -> Self {
        ServiceError::LibSeal(e)
    }
}

/// Convenience alias for fallible service operations.
pub type Result<T> = std::result::Result<T, ServiceError>;
