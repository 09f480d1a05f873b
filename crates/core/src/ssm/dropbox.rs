//! The Dropbox service-specific module (§6.1, §6.2).
//!
//! The audit schema is taken verbatim from §6.2:
//!
//! ```text
//! commit_batch(time,file,blocks,account,host,size)
//! list(time,file,blocks,account,host,size)
//! ```
//!
//! Protocol understood (JSON over HTTP, served or proxied by
//! `libseal-services`):
//!
//! - `POST /dropbox/commit_batch`
//!   `{account, host, commits: [{file, blocks: [h...], size}]}`
//!   (size `-1` deletes the file);
//! - `POST /dropbox/list` `{account}` →
//!   `{files: [{file, blocks: [h...], size}]}`.

use libseal_httpx::json::Json;
use libseal_sealdb::{DeltaSpec, SourceRule, Value};

use super::{json_post_pair, Invariant, ServiceModule};
use crate::log::{AuditLog, TableSpec};
use crate::Result;

/// Dropbox SSM.
pub struct DropboxModule;

/// Audit schema (§6.2, verbatim relations).
pub const DROPBOX_SCHEMA: &str = "
CREATE TABLE commit_batch(time INTEGER, file TEXT, blocks TEXT,
                          account TEXT, host TEXT, size INTEGER);
CREATE TABLE list(time INTEGER, file TEXT, blocks TEXT,
                  account TEXT, host TEXT, size INTEGER);
";

/// Blocklist soundness: every listed file carries exactly the most
/// recently committed blocklist, and deleted files are never listed.
pub const DB_BLOCKLIST_SOUND: &str = "SELECT * FROM list l WHERE EXISTS (
  SELECT 1 FROM commit_batch c WHERE c.account = l.account
  AND c.file = l.file AND c.time < l.time
  AND c.time = (SELECT MAX(time) FROM commit_batch
                WHERE account = l.account AND file = l.file AND time < l.time)
  AND (c.size = -1 OR c.blocks != l.blocks))";

/// Phantom files: a listed file that was never committed.
pub const DB_PHANTOM_FILE: &str = "SELECT * FROM list l WHERE NOT EXISTS (
  SELECT 1 FROM commit_batch c WHERE c.account = l.account
  AND c.file = l.file AND c.time < l.time)";

/// List completeness: every live file (latest commit not a deletion)
/// appears in each later list response for its account.
pub const DB_LIST_COMPLETE: &str = "SELECT c.account, c.file, l.time
FROM commit_batch c
JOIN (SELECT DISTINCT account, time FROM list) l
  ON l.account = c.account AND c.time < l.time
WHERE c.size != -1
AND c.time = (SELECT MAX(time) FROM commit_batch
              WHERE account = c.account AND file = c.file AND time < l.time)
AND NOT EXISTS (SELECT 1 FROM list x WHERE x.account = l.account
                AND x.time = l.time AND x.file = c.file)";

/// [`DB_BLOCKLIST_SOUND`] restricted to one list time.
pub const DB_BLOCKLIST_SOUND_DELTA: &str = "SELECT * FROM list l WHERE l.time = ?1 AND EXISTS (
  SELECT 1 FROM commit_batch c WHERE c.account = l.account
  AND c.file = l.file AND c.time < l.time
  AND c.time = (SELECT MAX(time) FROM commit_batch
                WHERE account = l.account AND file = l.file AND time < l.time)
  AND (c.size = -1 OR c.blocks != l.blocks))";

/// [`DB_PHANTOM_FILE`] restricted to one list time.
pub const DB_PHANTOM_FILE_DELTA: &str = "SELECT * FROM list l WHERE l.time = ?1 AND NOT EXISTS (
  SELECT 1 FROM commit_batch c WHERE c.account = l.account
  AND c.file = l.file AND c.time < l.time)";

/// [`DB_LIST_COMPLETE`] restricted to one list time. The partition
/// filter lives INSIDE the derived table, not the outer WHERE: the
/// inner `time = ?1` takes the index fast path, and the hash join
/// then probes every commit against the partition's one or two
/// accounts instead of pairing all commits with all list times and
/// paying the correlated MAX per pair.
pub const DB_LIST_COMPLETE_DELTA: &str = "SELECT c.account, c.file, l.time
FROM commit_batch c
JOIN (SELECT DISTINCT account, time FROM list WHERE time = ?1) l
  ON l.account = c.account AND c.time < l.time
WHERE c.size != -1
AND c.time = (SELECT MAX(time) FROM commit_batch
              WHERE account = c.account AND file = c.file AND time < l.time)
AND NOT EXISTS (SELECT 1 FROM list x WHERE x.account = l.account
                AND x.time = l.time AND x.file = c.file)";

// All three invariants key violations by a list-response time and
// only consult commits with strictly earlier times; time is monotone,
// so a commit append can only influence future list responses.
const DROPBOX_SOURCES: &[SourceRule] = &[
    SourceRule {
        table: "list",
        partition_col: Some("time"),
        rescan: None,
    },
    SourceRule {
        table: "commit_batch",
        partition_col: None,
        rescan: None,
    },
];

const INVARIANTS: &[Invariant] = &[
    Invariant {
        name: "dropbox-blocklist-soundness",
        sql: DB_BLOCKLIST_SOUND,
        delta: Some(DeltaSpec {
            delta_sql: DB_BLOCKLIST_SOUND_DELTA,
            partition_col: 0,
            sources: DROPBOX_SOURCES,
        }),
    },
    Invariant {
        name: "dropbox-phantom-file",
        sql: DB_PHANTOM_FILE,
        delta: Some(DeltaSpec {
            delta_sql: DB_PHANTOM_FILE_DELTA,
            partition_col: 0,
            sources: DROPBOX_SOURCES,
        }),
    },
    Invariant {
        name: "dropbox-list-completeness",
        sql: DB_LIST_COMPLETE,
        delta: Some(DeltaSpec {
            delta_sql: DB_LIST_COMPLETE_DELTA,
            partition_col: 2,
            sources: DROPBOX_SOURCES,
        }),
    },
];

/// Trimming: list responses are checked once; only the latest commit
/// per (account, file) is needed afterwards.
const TRIM: &[&str] = &[
    "DELETE FROM list",
    "DELETE FROM commit_batch WHERE time NOT IN
     (SELECT MAX(time) FROM commit_batch GROUP BY account, file)",
];

fn blocks_text(v: Option<&Json>) -> String {
    match v.and_then(Json::as_array) {
        Some(items) => items
            .iter()
            .filter_map(Json::as_str)
            .collect::<Vec<_>>()
            .join(","),
        None => String::new(),
    }
}

impl ServiceModule for DropboxModule {
    fn name(&self) -> &'static str {
        "dropbox"
    }

    fn schema_sql(&self) -> &'static str {
        DROPBOX_SCHEMA
    }

    fn tables(&self) -> Vec<TableSpec> {
        vec![
            TableSpec {
                name: "commit_batch",
                key_cols: &["time", "file"],
            },
            TableSpec {
                name: "list",
                key_cols: &["time", "file"],
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
        let audited = |path: &str| matches!(path, "/dropbox/commit_batch" | "/dropbox/list");
        let Some((request, req_json, response)) = json_post_pair(req, rsp, audited) else {
            return Ok(0);
        };
        let account = req_json
            .get("account")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string();
        let host = req_json
            .get("host")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string();
        if account.is_empty() {
            return Ok(0);
        }
        let mut logged = 0usize;

        match request.path() {
            "/dropbox/commit_batch" => {
                let Some(commits) = req_json.get("commits").and_then(Json::as_array) else {
                    return Ok(0);
                };
                let time = log.next_time() as i64;
                for c in commits {
                    let Some(file) = c.get("file").and_then(Json::as_str) else {
                        continue;
                    };
                    let blocks = blocks_text(c.get("blocks"));
                    let size = c.get("size").and_then(Json::as_i64).unwrap_or(0);
                    log.append(
                        "commit_batch",
                        &[
                            Value::Integer(time),
                            Value::Text(file.to_string()),
                            Value::Text(blocks),
                            Value::Text(account.clone()),
                            Value::Text(host.clone()),
                            Value::Integer(size),
                        ],
                    )?;
                    logged += 1;
                }
            }
            "/dropbox/list" => {
                let rsp_json = match Json::parse_bytes(&response.body()) {
                    Ok(j) => j,
                    Err(_) => return Ok(0),
                };
                let Some(files) = rsp_json.get("files").and_then(Json::as_array) else {
                    return Ok(0);
                };
                let time = log.next_time() as i64;
                for f in files {
                    let Some(file) = f.get("file").and_then(Json::as_str) else {
                        continue;
                    };
                    let blocks = blocks_text(f.get("blocks"));
                    let size = f.get("size").and_then(Json::as_i64).unwrap_or(0);
                    log.append(
                        "list",
                        &[
                            Value::Integer(time),
                            Value::Text(file.to_string()),
                            Value::Text(blocks),
                            Value::Text(account.clone()),
                            Value::Text(host.clone()),
                            Value::Integer(size),
                        ],
                    )?;
                    logged += 1;
                }
            }
            _ => {}
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

    fn fresh_log(m: &DropboxModule) -> AuditLog {
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

    fn commit(log: &mut AuditLog, m: &DropboxModule, file: &str, blocks: &str, size: i64) {
        let body = format!(
            r#"{{"account":"acct","host":"h1","commits":[{{"file":"{file}","blocks":["{blocks}"],"size":{size}}}]}}"#
        );
        let req = Request::new("POST", "/dropbox/commit_batch", body.into_bytes()).to_bytes();
        let rsp = Response::new(200, br#"{"ok":true}"#.to_vec()).to_bytes();
        m.log_pair(&req, &rsp, log).unwrap();
    }

    fn list(log: &mut AuditLog, m: &DropboxModule, files: &[(&str, &str, i64)]) {
        let items: Vec<String> = files
            .iter()
            .map(|(f, b, s)| format!(r#"{{"file":"{f}","blocks":["{b}"],"size":{s}}}"#))
            .collect();
        let req = Request::new(
            "POST",
            "/dropbox/list",
            br#"{"account":"acct","host":"h1"}"#.to_vec(),
        )
        .to_bytes();
        let rsp = Response::new(
            200,
            format!(r#"{{"files":[{}]}}"#, items.join(",")).into_bytes(),
        )
        .to_bytes();
        m.log_pair(&req, &rsp, log).unwrap();
    }

    #[test]
    fn faithful_listing_passes() {
        let m = DropboxModule;
        let mut log = fresh_log(&m);
        commit(&mut log, &m, "a.txt", "h1", 100);
        commit(&mut log, &m, "b.txt", "h2", 200);
        list(&mut log, &m, &[("a.txt", "h1", 100), ("b.txt", "h2", 200)]);
        for inv in INVARIANTS {
            assert!(
                log.query(inv.sql, &[]).unwrap().is_empty(),
                "{} fired",
                inv.name
            );
        }
    }

    #[test]
    fn corrupted_blocklist_detected() {
        let m = DropboxModule;
        let mut log = fresh_log(&m);
        commit(&mut log, &m, "a.txt", "h1", 100);
        // Server serves a DIFFERENT blocklist.
        list(&mut log, &m, &[("a.txt", "hX", 100)]);
        let v = log.query(DB_BLOCKLIST_SOUND, &[]).unwrap();
        assert_eq!(v.rows.len(), 1);
    }

    #[test]
    fn lost_file_detected() {
        let m = DropboxModule;
        let mut log = fresh_log(&m);
        commit(&mut log, &m, "a.txt", "h1", 100);
        commit(&mut log, &m, "b.txt", "h2", 200);
        // b.txt silently vanishes from the listing.
        list(&mut log, &m, &[("a.txt", "h1", 100)]);
        let v = log.query(DB_LIST_COMPLETE, &[]).unwrap();
        assert_eq!(v.rows.len(), 1);
        assert_eq!(v.rows[0][1], Value::Text("b.txt".into()));
    }

    #[test]
    fn deleted_file_must_disappear() {
        let m = DropboxModule;
        let mut log = fresh_log(&m);
        commit(&mut log, &m, "a.txt", "h1", 100);
        commit(&mut log, &m, "a.txt", "h1", -1); // deletion
                                                 // Server still lists it: violation.
        list(&mut log, &m, &[("a.txt", "h1", 100)]);
        let v = log.query(DB_BLOCKLIST_SOUND, &[]).unwrap();
        assert_eq!(v.rows.len(), 1);
        // And a listing without it is clean.
        list(&mut log, &m, &[]);
        assert_eq!(log.query(DB_BLOCKLIST_SOUND, &[]).unwrap().rows.len(), 1);
        assert!(log.query(DB_LIST_COMPLETE, &[]).unwrap().is_empty());
    }

    #[test]
    fn phantom_file_detected() {
        let m = DropboxModule;
        let mut log = fresh_log(&m);
        list(&mut log, &m, &[("ghost.txt", "h9", 10)]);
        let v = log.query(DB_PHANTOM_FILE, &[]).unwrap();
        assert_eq!(v.rows.len(), 1);
    }

    #[test]
    fn trimming_keeps_latest_commits() {
        let m = DropboxModule;
        let mut log = fresh_log(&m);
        commit(&mut log, &m, "a.txt", "h1", 100);
        commit(&mut log, &m, "a.txt", "h2", 120);
        commit(&mut log, &m, "b.txt", "h3", 50);
        list(&mut log, &m, &[("a.txt", "h2", 120), ("b.txt", "h3", 50)]);
        log.trim(m.trim_queries()).unwrap();
        log.commit().and_then(|()| log.verify()).unwrap();
        let r = log.query("SELECT COUNT(*) FROM commit_batch", &[]).unwrap();
        assert_eq!(r.scalar().unwrap(), &Value::Integer(2));
        let r = log.query("SELECT COUNT(*) FROM list", &[]).unwrap();
        assert_eq!(r.scalar().unwrap(), &Value::Integer(0));
        // Detection still works after trimming.
        list(&mut log, &m, &[("a.txt", "h1", 100)]); // stale blocklist
        assert_eq!(log.query(DB_BLOCKLIST_SOUND, &[]).unwrap().rows.len(), 1);
    }

    #[test]
    fn per_file_log_size_is_small() {
        // §6.5: Dropbox log size is proportional to #files with a
        // small constant per file.
        let m = DropboxModule;
        let mut log = fresh_log(&m);
        let before = log.size_bytes();
        commit(&mut log, &m, "f", "0123456789abcdef0123456789abcdef", 4096);
        let per_file = log.size_bytes() - before;
        assert!(per_file < 1024, "per-file log cost {per_file} too large");
    }
}
