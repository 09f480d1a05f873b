//! Service-specific modules (SSMs, §5.1).
//!
//! An SSM teaches LibSEAL one service's protocol: the relational
//! schema of its audit log, how to extract loggable tuples from a
//! request/response pair, the integrity invariants as SQL, and the
//! trimming queries that keep the log bounded. The paper sizes these
//! at 250-450 lines each; Git, ownCloud and Dropbox are its §6
//! evaluation targets.

pub mod dropbox;
pub mod git;
pub mod owncloud;

use libseal_httpx::http::{self, Frame, Limits};
use libseal_httpx::json::Json;
use libseal_sealdb::{DeltaSpec, MatViewSpec};

use crate::log::{AuditLog, TableSpec};
use crate::Result;

pub use dropbox::DropboxModule;
pub use git::GitModule;
pub use owncloud::OwnCloudModule;

/// A named integrity invariant; the SQL selects *violations* (the
/// query is the negation of the invariant, §5.2).
#[derive(Clone, Copy, Debug)]
pub struct Invariant {
    /// Human-readable name.
    pub name: &'static str,
    /// Violation-selecting SQL (the full-scan reference evaluation).
    pub sql: &'static str,
    /// Incremental evaluation metadata; `None` keeps this invariant on
    /// the full-scan path.
    ///
    /// The audit log's logical time is monotone, so an invariant whose
    /// subqueries only reference rows with `time <` the violating
    /// row's time has *stable* partitions: once all rows at or before
    /// time T exist, the verdict for partition T never changes on
    /// later appends. The one exception in the shipped services (an
    /// untimed NOT EXISTS) is handled with a
    /// [`libseal_sealdb::RescanRule`].
    pub delta: Option<DeltaSpec>,
}

impl Invariant {
    /// The sealdb view registration of this invariant, named after
    /// it, or `None` for full-scan-only invariants.
    pub fn matview_spec(&self) -> Option<MatViewSpec> {
        Some(MatViewSpec {
            name: self.name,
            full_sql: self.sql,
            delta: self.delta?,
        })
    }
}

/// A service-specific module.
pub trait ServiceModule: Send + Sync {
    /// Module name (e.g. "git").
    fn name(&self) -> &'static str;

    /// `CREATE TABLE`/`CREATE VIEW` statements for the audit schema.
    fn schema_sql(&self) -> &'static str;

    /// Audited tables and their primary keys (for the hash chain).
    fn tables(&self) -> Vec<TableSpec>;

    /// The integrity invariants.
    fn invariants(&self) -> &'static [Invariant];

    /// Trimming queries removing entries no longer needed (§5.1).
    fn trim_queries(&self) -> &'static [&'static str];

    /// Parses one request/response pair and appends the pertinent
    /// tuples; returns how many tuples were logged.
    ///
    /// # Errors
    ///
    /// Log append failures; malformed traffic is *not* an error (the
    /// SSM simply logs nothing for messages it does not understand).
    fn log_pair(&self, req: &[u8], rsp: &[u8], log: &mut AuditLog) -> Result<usize>;
}

/// The prelude the JSON-over-POST services (ownCloud, Dropbox) share:
/// frames one request/response pair into the request, its JSON body
/// and the response. `None` is traffic an SSM logs nothing for: not
/// HTTP, not a POST to a path `audited` accepts, a body that is not
/// JSON, or any status but 200. The route is decided on the head, so a
/// route the SSM does not audit costs no body read.
fn json_post_pair<'a>(
    req: &'a [u8],
    rsp: &'a [u8],
    audited: impl Fn(&str) -> bool,
) -> Option<(Frame<'a>, Json, Frame<'a>)> {
    let request = http::frame_request(req, &Limits::default()).ok()?;
    if request.method() != "POST" || !audited(request.path()) {
        return None;
    }
    let req_json = Json::parse_bytes(&request.body()).ok()?;
    let response = http::frame_response(rsp, &Limits::default()).ok()?;
    (response.status() == 200).then_some((request, req_json, response))
}
