//! The Git service-specific module (§3.1, §5.1, §6.2).
//!
//! Protocol understood (a simplified smart-HTTP dialect served by
//! `libseal-services`):
//!
//! - fetch: `GET /repo/<name>/info/refs?service=git-upload-pack`; the
//!   response body advertises refs, one per line: `<cid> <refname>`.
//! - push: `POST /repo/<name>/git-receive-pack`; the request body
//!   carries commands, one per line: `<old-cid> <new-cid> <refname>`
//!   (an all-zero new cid deletes the ref).
//!
//! The audit schema, both invariants and both trimming queries are
//! taken **verbatim** from the paper.

use libseal_httpx::http::{self, Limits};
use libseal_sealdb::{DeltaSpec, SourceRule, Value};

use super::{Invariant, ServiceModule};
use crate::log::{AuditLog, TableSpec};
use crate::Result;

/// The all-zero commit id that deletes a ref.
pub const ZERO_CID: &str = "0000000000000000000000000000000000000000";

/// Git SSM.
pub struct GitModule;

/// The paper's Git audit schema (§3.1).
pub const GIT_SCHEMA: &str = "
CREATE TABLE updates(time INTEGER, repo TEXT, branch TEXT, cid TEXT, type TEXT);
CREATE TABLE advertisements(time INTEGER, repo TEXT, branch TEXT, cid TEXT);
CREATE VIEW branchcnt AS
SELECT DISTINCT a.time,a.repo,COUNT(u.branch) AS cnt
FROM advertisements a
JOIN updates u ON u.time < a.time AND u.repo = a.repo
WHERE u.type != 'delete' AND u.time = (SELECT MAX(time)
    FROM updates WHERE branch = u.branch
    AND repo = u.repo AND time < a.time) GROUP BY a.time,a.repo,a.branch;
";

/// Soundness (§6.2, verbatim): every advertisement matches the most
/// recent update for its (repo, branch).
pub const GIT_SOUNDNESS: &str = "SELECT * FROM advertisements a WHERE cid != (
SELECT u.cid FROM updates u WHERE u.repo = a.repo AND
u.branch = a.branch AND u.time < a.time ORDER BY
u.time DESC LIMIT 1)";

/// Completeness (§1, verbatim): every advertisement lists all live
/// branches.
pub const GIT_COMPLETENESS: &str = "SELECT time, repo FROM advertisements
NATURAL JOIN branchcnt
GROUP BY time, repo, cnt HAVING COUNT(branch) != cnt";

/// [`GIT_SOUNDNESS`] restricted to one advertisement time.
pub const GIT_SOUNDNESS_DELTA: &str = "SELECT * FROM advertisements a
WHERE a.time = ?1 AND cid != (
SELECT u.cid FROM updates u WHERE u.repo = a.repo AND
u.branch = a.branch AND u.time < a.time ORDER BY
u.time DESC LIMIT 1)";

/// [`GIT_COMPLETENESS`] restricted to one advertisement time.
///
/// The full query goes through the `branchcnt` schema view, which
/// joins *all* advertisements against *all* updates — evaluating it
/// per partition would re-materialize the whole view and cost O(log)
/// each time. This delta inlines the per-partition live-branch count
/// as correlated subqueries over indexed columns instead: advertised
/// branches at (time, repo) vs the repo's live branches (latest
/// non-delete update per branch before the advertisement). The final
/// `> 0` guard mirrors the view's inner JOIN, which silently skips
/// advertisements of repos with no live branches.
pub const GIT_COMPLETENESS_DELTA: &str = "SELECT DISTINCT a.time, a.repo
FROM advertisements a
WHERE a.time = ?1
AND (SELECT COUNT(branch) FROM advertisements x
     WHERE x.time = a.time AND x.repo = a.repo)
 != (SELECT COUNT(u.branch) FROM updates u
     WHERE u.repo = a.repo AND u.time < a.time AND u.type != 'delete'
     AND u.time = (SELECT MAX(time) FROM updates
                   WHERE branch = u.branch AND repo = u.repo
                   AND time < a.time))
AND (SELECT COUNT(u.branch) FROM updates u
     WHERE u.repo = a.repo AND u.time < a.time AND u.type != 'delete'
     AND u.time = (SELECT MAX(time) FROM updates
                   WHERE branch = u.branch AND repo = u.repo
                   AND time < a.time)) > 0";

// Both invariants only compare an advertisement against updates with
// strictly earlier times, and logical time is monotone: an update
// appended at time T can only influence advertisements that do not
// exist yet. Inserts into `updates` therefore dirty nothing.
const GIT_SOURCES: &[SourceRule] = &[
    SourceRule {
        table: "advertisements",
        partition_col: Some("time"),
        rescan: None,
    },
    SourceRule {
        table: "updates",
        partition_col: None,
        rescan: None,
    },
];

const INVARIANTS: &[Invariant] = &[
    Invariant {
        name: "git-soundness",
        sql: GIT_SOUNDNESS,
        delta: Some(DeltaSpec {
            delta_sql: GIT_SOUNDNESS_DELTA,
            partition_col: 0,
            sources: GIT_SOURCES,
        }),
    },
    Invariant {
        name: "git-completeness",
        sql: GIT_COMPLETENESS,
        delta: Some(DeltaSpec {
            delta_sql: GIT_COMPLETENESS_DELTA,
            partition_col: 0,
            sources: GIT_SOURCES,
        }),
    },
];

/// Trimming queries (§5.1, verbatim).
const TRIM: &[&str] = &[
    "DELETE FROM advertisements",
    "DELETE FROM updates WHERE time NOT IN
(SELECT MAX(time) FROM updates GROUP BY repo, branch)",
];

impl GitModule {
    /// Extracts the repository name from a smart-HTTP path like
    /// `/repo/<name>/info/refs` or `/repo/<name>/git-receive-pack`.
    fn repo_from_path(path: &str) -> Option<&str> {
        let rest = path.strip_prefix("/repo/")?;
        let end = rest.find('/')?;
        Some(&rest[..end])
    }
}

impl ServiceModule for GitModule {
    fn name(&self) -> &'static str {
        "git"
    }

    fn schema_sql(&self) -> &'static str {
        GIT_SCHEMA
    }

    fn tables(&self) -> Vec<TableSpec> {
        vec![
            TableSpec {
                name: "updates",
                key_cols: &["time", "repo", "branch"],
            },
            TableSpec {
                name: "advertisements",
                key_cols: &["time", "repo", "branch"],
            },
        ]
    }

    fn invariants(&self) -> &'static [Invariant] {
        INVARIANTS
    }

    fn trim_queries(&self) -> &'static [&'static str] {
        TRIM
    }

    fn log_pair(&self, req: &[u8], rsp: &[u8], log: &mut AuditLog) -> Result<usize> {
        // Routed on the head: a route that is neither a push nor a ref
        // advertisement costs no body read.
        let Ok(request) = http::frame_request(req, &Limits::default()) else {
            return Ok(0);
        };
        let mut logged = 0usize;

        if request.method() == "POST" && request.path().ends_with("/git-receive-pack") {
            let Some(repo) = Self::repo_from_path(request.path()) else {
                return Ok(0);
            };
            let repo = repo.to_string();
            let body = request.body();
            let body = String::from_utf8_lossy(&body);
            let time = log.next_time() as i64;
            for line in body.lines() {
                let mut parts = line.split_whitespace();
                let (Some(_old), Some(new), Some(refname)) =
                    (parts.next(), parts.next(), parts.next())
                else {
                    continue;
                };
                let kind = if new == ZERO_CID { "delete" } else { "update" };
                log.append(
                    "updates",
                    &[
                        Value::Integer(time),
                        Value::Text(repo.clone()),
                        Value::Text(refname.to_string()),
                        Value::Text(new.to_string()),
                        Value::Text(kind.to_string()),
                    ],
                )?;
                logged += 1;
            }
        } else if request.method() == "GET"
            && request.path().ends_with("/info/refs")
            && request.query_param("service") == Some("git-upload-pack")
        {
            let Some(repo) = Self::repo_from_path(request.path()) else {
                return Ok(0);
            };
            let repo = repo.to_string();
            let Ok(response) = http::frame_response(rsp, &Limits::default()) else {
                return Ok(0);
            };
            if response.status() != 200 {
                return Ok(0);
            }
            let body = response.body();
            let body = String::from_utf8_lossy(&body);
            let time = log.next_time() as i64;
            for line in body.lines() {
                let mut parts = line.split_whitespace();
                let (Some(cid), Some(refname)) = (parts.next(), parts.next()) else {
                    continue;
                };
                log.append(
                    "advertisements",
                    &[
                        Value::Integer(time),
                        Value::Text(repo.clone()),
                        Value::Text(refname.to_string()),
                        Value::Text(cid.to_string()),
                    ],
                )?;
                logged += 1;
            }
        }
        Ok(logged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{LogBacking, NoGuard};
    use libseal_crypto::ed25519::SigningKey;
    use libseal_httpx::http::{Request, Response};

    fn fresh_log(m: &GitModule) -> AuditLog {
        AuditLog::open(
            LogBacking::Memory,
            [0u8; 32],
            SigningKey::from_seed(&[1u8; 32]),
            Box::new(NoGuard),
            m.schema_sql(),
            m.tables(),
        )
        .unwrap()
    }

    fn push_pair(repo: &str, lines: &str) -> (Vec<u8>, Vec<u8>) {
        let req = Request::new(
            "POST",
            &format!("/repo/{repo}/git-receive-pack"),
            lines.as_bytes().to_vec(),
        );
        let rsp = Response::new(200, b"ok\n".to_vec());
        (req.to_bytes(), rsp.to_bytes())
    }

    fn fetch_pair(repo: &str, advert: &str) -> (Vec<u8>, Vec<u8>) {
        let req = Request::new(
            "GET",
            &format!("/repo/{repo}/info/refs?service=git-upload-pack"),
            Vec::new(),
        );
        let rsp = Response::new(200, advert.as_bytes().to_vec());
        (req.to_bytes(), rsp.to_bytes())
    }

    #[test]
    fn push_logs_updates() {
        let m = GitModule;
        let mut log = fresh_log(&m);
        let (req, rsp) = push_pair("proj", "aaa bbb refs/heads/main\nccc ddd refs/heads/dev\n");
        assert_eq!(m.log_pair(&req, &rsp, &mut log).unwrap(), 2);
        let r = log
            .query("SELECT branch, cid, type FROM updates ORDER BY branch", &[])
            .unwrap();
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[1][1], Value::Text("bbb".into()));
        assert_eq!(r.rows[1][2], Value::Text("update".into()));
    }

    #[test]
    fn deletion_logged_as_delete() {
        let m = GitModule;
        let mut log = fresh_log(&m);
        let (req, rsp) = push_pair("proj", &format!("abc {ZERO_CID} refs/heads/dead\n"));
        m.log_pair(&req, &rsp, &mut log).unwrap();
        let r = log.query("SELECT type FROM updates", &[]).unwrap();
        assert_eq!(r.scalar().unwrap(), &Value::Text("delete".into()));
    }

    #[test]
    fn fetch_logs_advertisements() {
        let m = GitModule;
        let mut log = fresh_log(&m);
        let (req, rsp) = fetch_pair("proj", "bbb refs/heads/main\nddd refs/heads/dev\n");
        assert_eq!(m.log_pair(&req, &rsp, &mut log).unwrap(), 2);
        let r = log
            .query("SELECT COUNT(*) FROM advertisements", &[])
            .unwrap();
        assert_eq!(r.scalar().unwrap(), &Value::Integer(2));
    }

    #[test]
    fn irrelevant_traffic_ignored() {
        let m = GitModule;
        let mut log = fresh_log(&m);
        let req = Request::new("GET", "/static/logo.png", Vec::new()).to_bytes();
        let rsp = Response::new(200, b"png".to_vec()).to_bytes();
        assert_eq!(m.log_pair(&req, &rsp, &mut log).unwrap(), 0);
        assert_eq!(m.log_pair(b"garbage", b"junk", &mut log).unwrap(), 0);
    }

    #[test]
    fn end_to_end_rollback_detection() {
        let m = GitModule;
        let mut log = fresh_log(&m);
        let (req, rsp) = push_pair("p", "0 c1 refs/heads/main\n");
        m.log_pair(&req, &rsp, &mut log).unwrap();
        let (req, rsp) = push_pair("p", "c1 c2 refs/heads/main\n");
        m.log_pair(&req, &rsp, &mut log).unwrap();
        // Attack: advertise the stale c1.
        let (req, rsp) = fetch_pair("p", "c1 refs/heads/main\n");
        m.log_pair(&req, &rsp, &mut log).unwrap();
        let v = log.query(GIT_SOUNDNESS, &[]).unwrap();
        assert_eq!(v.rows.len(), 1);
    }

    #[test]
    fn end_to_end_reference_deletion_detection() {
        let m = GitModule;
        let mut log = fresh_log(&m);
        let (req, rsp) = push_pair("p", "0 c1 refs/heads/main\n0 d1 refs/heads/dev\n");
        m.log_pair(&req, &rsp, &mut log).unwrap();
        // Attack: only main advertised.
        let (req, rsp) = fetch_pair("p", "c1 refs/heads/main\n");
        m.log_pair(&req, &rsp, &mut log).unwrap();
        let v = log.query(GIT_COMPLETENESS, &[]).unwrap();
        assert_eq!(v.rows.len(), 1);
    }

    #[test]
    fn trimming_preserves_detection_power() {
        let m = GitModule;
        let mut log = fresh_log(&m);
        for i in 0..5 {
            let (req, rsp) = push_pair("p", &format!("x c{i} refs/heads/main\n"));
            m.log_pair(&req, &rsp, &mut log).unwrap();
        }
        let (req, rsp) = fetch_pair("p", "c4 refs/heads/main\n");
        m.log_pair(&req, &rsp, &mut log).unwrap();
        assert!(log.query(GIT_SOUNDNESS, &[]).unwrap().is_empty());
        log.trim(m.trim_queries()).unwrap();
        log.commit().and_then(|()| log.verify()).unwrap();
        // Only the newest update survives.
        let r = log.query("SELECT COUNT(*) FROM updates", &[]).unwrap();
        assert_eq!(r.scalar().unwrap(), &Value::Integer(1));
        // A stale advertisement after trimming is still caught.
        let (req, rsp) = fetch_pair("p", "c0 refs/heads/main\n");
        m.log_pair(&req, &rsp, &mut log).unwrap();
        assert_eq!(log.query(GIT_SOUNDNESS, &[]).unwrap().rows.len(), 1);
    }
}
