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
    pub delta: Option<DeltaSpec>,
}

/// Incremental evaluation metadata: how an invariant's violation set
/// decomposes into partitions that can be re-evaluated independently
/// when base rows are appended.
///
/// The audit log's logical time is monotone, so an invariant whose
/// subqueries only reference rows with `time <` the violating row's
/// time has *stable* partitions: once all rows at or before time T
/// exist, the verdict for partition T never changes on later appends.
/// The one exception in the shipped services (an untimed NOT EXISTS)
/// is handled with a [`RescanRule`].
#[derive(Clone, Copy, Debug)]
pub struct DeltaSpec {
    /// The invariant SQL restricted to one partition; `?1` is bound to
    /// the partition value. Must project the same columns as the full
    /// query.
    pub delta_sql: &'static str,
    /// Output column (0-based) holding the partition value.
    pub partition_col: usize,
    /// Dirty-tracking rules, one per base table feeding the query.
    pub sources: &'static [SourceRule],
}

/// How inserts into one base table dirty the invariant's view.
#[derive(Clone, Copy, Debug)]
pub struct SourceRule {
    /// Base table name.
    pub table: &'static str,
    /// Source column whose value names the partition an inserted row
    /// dirties; `None` when inserts into this table cannot add
    /// violations (they only reference `time <` rows of other
    /// partitions — the monotone-time argument above).
    pub partition_col: Option<&'static str>,
    /// Lookup re-dirtying partitions whose existing violations the
    /// inserted row may *clear*.
    pub rescan: Option<RescanRule>,
}

/// Rescan lookup: run `sql` with the inserted row's `bind_cols`
/// values bound to `?1..?n`; the first column of each returned row is
/// a partition to re-dirty.
#[derive(Clone, Copy, Debug)]
pub struct RescanRule {
    /// Partition lookup query.
    pub sql: &'static str,
    /// Inserted-row columns bound, in order, to the parameters.
    pub bind_cols: &'static [&'static str],
}

impl Invariant {
    /// Backing-table name of this invariant's materialized view.
    pub fn view_name(&self) -> String {
        format!("mv_{}", self.name.replace('-', "_"))
    }

    /// Converts the static delta metadata into a sealdb view
    /// registration, or `None` for full-scan-only invariants.
    pub fn matview_spec(&self) -> Option<libseal_sealdb::MatViewSpec> {
        let delta = self.delta?;
        Some(libseal_sealdb::MatViewSpec {
            name: self.view_name(),
            full_sql: self.sql.to_string(),
            delta_sql: delta.delta_sql.to_string(),
            partition_col: delta.partition_col,
            sources: delta
                .sources
                .iter()
                .map(|s| libseal_sealdb::SourceRule {
                    table: s.table.to_string(),
                    partition_col: s.partition_col.map(str::to_string),
                    rescan: s.rescan.map(|r| libseal_sealdb::RescanRule {
                        sql: r.sql.to_string(),
                        bind_cols: r.bind_cols.iter().map(|c| c.to_string()).collect(),
                    }),
                })
                .collect(),
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
