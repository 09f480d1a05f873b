//! The ownCloud Documents service-specific module (§6.1, §6.2).
//!
//! The paper defers the full ownCloud schema to its technical report;
//! this reconstruction follows the §6.2 prose: a document is a
//! snapshot plus an ordered list of updates, and the invariants check
//! that (i) snapshots served to joining clients match the latest saved
//! snapshot, and (ii) the update stream relayed to each client is a
//! gapless, content-faithful prefix of the aggregate update history.
//!
//! Protocol understood (JSON over HTTP, served by `libseal-services`):
//!
//! - `POST /owncloud/join`  `{doc, client}` →
//!   `{snapshot, seq}` (current snapshot and its baseline sequence);
//! - `POST /owncloud/sync`  `{doc, client, ops: [{seq?, content}...]}` →
//!   `{acks, ops: [{seq, content}...]}` (new ops from other clients);
//! - `POST /owncloud/leave` `{doc, client, snapshot}` → `{ok}`.

use libseal_httpx::json::Json;
use libseal_sealdb::{DeltaSpec, RescanRule, SourceRule, Value};

use super::{json_post_pair, Invariant, ServiceModule};
use crate::log::{AuditLog, TableSpec};
use crate::Result;

/// ownCloud SSM.
pub struct OwnCloudModule;

/// Audit schema: one relation of document events.
pub const OWNCLOUD_SCHEMA: &str = "
CREATE TABLE docupdates(time INTEGER, doc TEXT, client TEXT, kind TEXT,
                        seq INTEGER, content TEXT);
";

/// Snapshot soundness: a snapshot served on join equals the most
/// recently saved snapshot of the document.
pub const OC_SNAPSHOT_SOUND: &str = "SELECT * FROM docupdates d
WHERE d.kind = 'snapshot_sent' AND d.content != (
  SELECT s.content FROM docupdates s WHERE s.doc = d.doc
  AND s.kind = 'snapshot_save' AND s.time < d.time
  ORDER BY s.time DESC LIMIT 1)";

/// Update faithfulness: every update relayed to a client was received
/// from some client with the same sequence number and content.
pub const OC_UPDATE_SOUND: &str = "SELECT * FROM docupdates d
WHERE d.kind = 'sent_update' AND NOT EXISTS (
  SELECT 1 FROM docupdates r WHERE r.kind = 'recv_update'
  AND r.doc = d.doc AND r.seq = d.seq AND r.content = d.content)";

/// Prefix completeness: the stream relayed to each client is gapless
/// from its join baseline (a gap means a lost edit).
pub const OC_PREFIX_COMPLETE: &str = "SELECT * FROM docupdates d
WHERE d.kind = 'sent_update' AND d.seq != 1 + (
  SELECT MAX(x.seq) FROM docupdates x WHERE x.doc = d.doc
  AND x.client = d.client AND (x.kind = 'sent_update' OR x.kind = 'join')
  AND x.time < d.time)";

/// [`OC_SNAPSHOT_SOUND`] restricted to one event time.
pub const OC_SNAPSHOT_SOUND_DELTA: &str = "SELECT * FROM docupdates d
WHERE d.time = ?1 AND d.kind = 'snapshot_sent' AND d.content != (
  SELECT s.content FROM docupdates s WHERE s.doc = d.doc
  AND s.kind = 'snapshot_save' AND s.time < d.time
  ORDER BY s.time DESC LIMIT 1)";

/// [`OC_UPDATE_SOUND`] restricted to one event time.
pub const OC_UPDATE_SOUND_DELTA: &str = "SELECT * FROM docupdates d
WHERE d.time = ?1 AND d.kind = 'sent_update' AND NOT EXISTS (
  SELECT 1 FROM docupdates r WHERE r.kind = 'recv_update'
  AND r.doc = d.doc AND r.seq = d.seq AND r.content = d.content)";

/// [`OC_PREFIX_COMPLETE`] restricted to one event time.
pub const OC_PREFIX_COMPLETE_DELTA: &str = "SELECT * FROM docupdates d
WHERE d.time = ?1 AND d.kind = 'sent_update' AND d.seq != 1 + (
  SELECT MAX(x.seq) FROM docupdates x WHERE x.doc = d.doc
  AND x.client = d.client AND (x.kind = 'sent_update' OR x.kind = 'join')
  AND x.time < d.time)";

// Snapshot soundness and prefix completeness only consult earlier
// events, so each inserted row can only dirty its own partition.
const OC_TIMED_SOURCES: &[SourceRule] = &[SourceRule {
    table: "docupdates",
    partition_col: Some("time"),
    rescan: None,
}];

// Update soundness is the one untimed invariant: its NOT EXISTS has
// no time bound, so a recv_update appended *later* can clear a
// sent_update violation recorded earlier. The rescan re-dirties every
// sent_update partition matching the inserted row's (doc, seq,
// content); the `?4` guard makes it a no-op for other event kinds.
const OC_UPDATE_SOURCES: &[SourceRule] = &[SourceRule {
    table: "docupdates",
    partition_col: Some("time"),
    rescan: Some(RescanRule {
        sql: "SELECT d.time FROM docupdates d
WHERE ?4 = 'recv_update' AND d.kind = 'sent_update'
AND d.doc = ?1 AND d.seq = ?2 AND d.content = ?3",
        bind_cols: &["doc", "seq", "content", "kind"],
    }),
}];

const INVARIANTS: &[Invariant] = &[
    Invariant {
        name: "owncloud-snapshot-soundness",
        sql: OC_SNAPSHOT_SOUND,
        delta: Some(DeltaSpec {
            delta_sql: OC_SNAPSHOT_SOUND_DELTA,
            partition_col: 0,
            sources: OC_TIMED_SOURCES,
        }),
    },
    Invariant {
        name: "owncloud-update-soundness",
        sql: OC_UPDATE_SOUND,
        delta: Some(DeltaSpec {
            delta_sql: OC_UPDATE_SOUND_DELTA,
            partition_col: 0,
            sources: OC_UPDATE_SOURCES,
        }),
    },
    Invariant {
        name: "owncloud-prefix-completeness",
        sql: OC_PREFIX_COMPLETE,
        delta: Some(DeltaSpec {
            delta_sql: OC_PREFIX_COMPLETE_DELTA,
            partition_col: 0,
            sources: OC_TIMED_SOURCES,
        }),
    },
];

/// Trimming: keep the latest snapshot per document and everything
/// after it.
const TRIM: &[&str] = &["DELETE FROM docupdates WHERE time < (
  SELECT MAX(s.time) FROM docupdates s WHERE s.doc = docupdates.doc
  AND s.kind = 'snapshot_save')"];

impl OwnCloudModule {
    #[allow(clippy::too_many_arguments)]
    fn event(
        log: &mut AuditLog,
        time: i64,
        doc: &str,
        client: &str,
        kind: &str,
        seq: i64,
        content: &str,
    ) -> Result<()> {
        log.append(
            "docupdates",
            &[
                Value::Integer(time),
                Value::Text(doc.to_string()),
                Value::Text(client.to_string()),
                Value::Text(kind.to_string()),
                Value::Integer(seq),
                Value::Text(content.to_string()),
            ],
        )
    }
}

impl ServiceModule for OwnCloudModule {
    fn name(&self) -> &'static str {
        "owncloud"
    }

    fn schema_sql(&self) -> &'static str {
        OWNCLOUD_SCHEMA
    }

    fn tables(&self) -> Vec<TableSpec> {
        vec![TableSpec {
            name: "docupdates",
            key_cols: &["time", "doc", "kind", "seq"],
        }]
    }

    fn invariants(&self) -> &'static [Invariant] {
        INVARIANTS
    }

    fn trim_queries(&self) -> &'static [&'static str] {
        TRIM
    }

    fn log_pair(&self, req: &[u8], rsp: &[u8], log: &mut AuditLog) -> Result<usize> {
        let audited = |path: &str| path.starts_with("/owncloud/");
        let Some((request, req_json, response)) = json_post_pair(req, rsp, audited) else {
            return Ok(0);
        };
        let rsp_json = Json::parse_bytes(&response.body()).unwrap_or(Json::Null);

        let doc = req_json.get("doc").and_then(Json::as_str).unwrap_or("");
        let client = req_json.get("client").and_then(Json::as_str).unwrap_or("");
        if doc.is_empty() || client.is_empty() {
            return Ok(0);
        }
        let mut logged = 0usize;

        match request.path() {
            "/owncloud/join" => {
                // Server returned the snapshot + baseline seq.
                let snapshot = rsp_json
                    .get("snapshot")
                    .and_then(Json::as_str)
                    .unwrap_or("");
                let seq = rsp_json.get("seq").and_then(Json::as_i64).unwrap_or(0);
                let t = log.next_time() as i64;
                Self::event(log, t, doc, client, "join", seq, "")?;
                logged += 1;
                let t = log.next_time() as i64;
                Self::event(log, t, doc, client, "snapshot_sent", seq, snapshot)?;
                logged += 1;
            }
            "/owncloud/sync" => {
                // Client-supplied ops: the server assigns sequence
                // numbers which it acknowledges in the response.
                let acks = rsp_json.get("acks").and_then(Json::as_array).unwrap_or(&[]);
                if let Some(ops) = req_json.get("ops").and_then(Json::as_array) {
                    for (op, ack) in ops.iter().zip(acks.iter()) {
                        let content = op.get("content").and_then(Json::as_str).unwrap_or("");
                        let seq = ack.as_i64().unwrap_or(0);
                        let t = log.next_time() as i64;
                        Self::event(log, t, doc, client, "recv_update", seq, content)?;
                        logged += 1;
                    }
                }
                // Ops relayed to this client.
                if let Some(ops) = rsp_json.get("ops").and_then(Json::as_array) {
                    for op in ops {
                        let content = op.get("content").and_then(Json::as_str).unwrap_or("");
                        let seq = op.get("seq").and_then(Json::as_i64).unwrap_or(0);
                        let t = log.next_time() as i64;
                        Self::event(log, t, doc, client, "sent_update", seq, content)?;
                        logged += 1;
                    }
                }
            }
            "/owncloud/leave" => {
                if let Some(snapshot) = req_json.get("snapshot").and_then(Json::as_str) {
                    let seq = req_json.get("seq").and_then(Json::as_i64).unwrap_or(0);
                    let t = log.next_time() as i64;
                    Self::event(log, t, doc, client, "snapshot_save", seq, snapshot)?;
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

    fn fresh_log(m: &OwnCloudModule) -> AuditLog {
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

    fn pair(path: &str, req_body: &str, rsp_body: &str) -> (Vec<u8>, Vec<u8>) {
        (
            Request::new("POST", path, req_body.as_bytes().to_vec()).to_bytes(),
            Response::new(200, rsp_body.as_bytes().to_vec()).to_bytes(),
        )
    }

    #[test]
    fn join_and_sync_logged() {
        let m = OwnCloudModule;
        let mut log = fresh_log(&m);
        let (req, rsp) = pair(
            "/owncloud/join",
            r#"{"doc":"d1","client":"alice"}"#,
            r#"{"snapshot":"Hello","seq":0}"#,
        );
        assert_eq!(m.log_pair(&req, &rsp, &mut log).unwrap(), 2);
        let (req, rsp) = pair(
            "/owncloud/sync",
            r#"{"doc":"d1","client":"alice","ops":[{"content":"+x"}]}"#,
            r#"{"acks":[1],"ops":[]}"#,
        );
        assert_eq!(m.log_pair(&req, &rsp, &mut log).unwrap(), 1);
        let r = log
            .query("SELECT kind, seq FROM docupdates ORDER BY time", &[])
            .unwrap();
        assert_eq!(r.rows.len(), 3);
        assert_eq!(r.rows[2][0], Value::Text("recv_update".into()));
        assert_eq!(r.rows[2][1], Value::Integer(1));
    }

    #[test]
    fn stale_snapshot_detected() {
        let m = OwnCloudModule;
        let mut log = fresh_log(&m);
        // Alice saves snapshot "v2".
        let (req, rsp) = pair(
            "/owncloud/leave",
            r#"{"doc":"d1","client":"alice","snapshot":"v2","seq":5}"#,
            r#"{"ok":true}"#,
        );
        m.log_pair(&req, &rsp, &mut log).unwrap();
        // Bob joins and is served the STALE snapshot "v1".
        let (req, rsp) = pair(
            "/owncloud/join",
            r#"{"doc":"d1","client":"bob"}"#,
            r#"{"snapshot":"v1","seq":5}"#,
        );
        m.log_pair(&req, &rsp, &mut log).unwrap();
        let v = log.query(OC_SNAPSHOT_SOUND, &[]).unwrap();
        assert_eq!(v.rows.len(), 1);
    }

    #[test]
    fn correct_snapshot_passes() {
        let m = OwnCloudModule;
        let mut log = fresh_log(&m);
        let (req, rsp) = pair(
            "/owncloud/leave",
            r#"{"doc":"d1","client":"alice","snapshot":"v2","seq":5}"#,
            r#"{"ok":true}"#,
        );
        m.log_pair(&req, &rsp, &mut log).unwrap();
        let (req, rsp) = pair(
            "/owncloud/join",
            r#"{"doc":"d1","client":"bob"}"#,
            r#"{"snapshot":"v2","seq":5}"#,
        );
        m.log_pair(&req, &rsp, &mut log).unwrap();
        assert!(log.query(OC_SNAPSHOT_SOUND, &[]).unwrap().is_empty());
    }

    #[test]
    fn forged_update_detected() {
        let m = OwnCloudModule;
        let mut log = fresh_log(&m);
        // Alice sends op seq 1 "+a".
        let (req, rsp) = pair(
            "/owncloud/sync",
            r#"{"doc":"d1","client":"alice","ops":[{"content":"+a"}]}"#,
            r#"{"acks":[1],"ops":[]}"#,
        );
        m.log_pair(&req, &rsp, &mut log).unwrap();
        // Server relays a TAMPERED op to bob (content differs).
        let (req, rsp) = pair(
            "/owncloud/sync",
            r#"{"doc":"d1","client":"bob","ops":[]}"#,
            r#"{"acks":[],"ops":[{"seq":1,"content":"+EVIL"}]}"#,
        );
        m.log_pair(&req, &rsp, &mut log).unwrap();
        let v = log.query(OC_UPDATE_SOUND, &[]).unwrap();
        assert_eq!(v.rows.len(), 1);
    }

    #[test]
    fn lost_edit_detected_as_gap() {
        let m = OwnCloudModule;
        let mut log = fresh_log(&m);
        // Bob joins at baseline 0.
        let (req, rsp) = pair(
            "/owncloud/join",
            r#"{"doc":"d1","client":"bob"}"#,
            r#"{"snapshot":"","seq":0}"#,
        );
        m.log_pair(&req, &rsp, &mut log).unwrap();
        // Alice contributes ops 1 and 2.
        let (req, rsp) = pair(
            "/owncloud/sync",
            r#"{"doc":"d1","client":"alice","ops":[{"content":"+a"},{"content":"+b"}]}"#,
            r#"{"acks":[1,2],"ops":[]}"#,
        );
        m.log_pair(&req, &rsp, &mut log).unwrap();
        // Server relays only op 2 to bob: op 1 was LOST.
        let (req, rsp) = pair(
            "/owncloud/sync",
            r#"{"doc":"d1","client":"bob","ops":[]}"#,
            r#"{"acks":[],"ops":[{"seq":2,"content":"+b"}]}"#,
        );
        m.log_pair(&req, &rsp, &mut log).unwrap();
        let v = log.query(OC_PREFIX_COMPLETE, &[]).unwrap();
        assert_eq!(v.rows.len(), 1);
    }

    #[test]
    fn faithful_relay_passes_all() {
        let m = OwnCloudModule;
        let mut log = fresh_log(&m);
        let (req, rsp) = pair(
            "/owncloud/join",
            r#"{"doc":"d1","client":"bob"}"#,
            r#"{"snapshot":"","seq":0}"#,
        );
        m.log_pair(&req, &rsp, &mut log).unwrap();
        let (req, rsp) = pair(
            "/owncloud/sync",
            r#"{"doc":"d1","client":"alice","ops":[{"content":"+a"},{"content":"+b"}]}"#,
            r#"{"acks":[1,2],"ops":[]}"#,
        );
        m.log_pair(&req, &rsp, &mut log).unwrap();
        let (req, rsp) = pair(
            "/owncloud/sync",
            r#"{"doc":"d1","client":"bob","ops":[]}"#,
            r#"{"acks":[],"ops":[{"seq":1,"content":"+a"},{"seq":2,"content":"+b"}]}"#,
        );
        m.log_pair(&req, &rsp, &mut log).unwrap();
        for inv in INVARIANTS {
            assert!(
                log.query(inv.sql, &[]).unwrap().is_empty(),
                "{} fired",
                inv.name
            );
        }
    }

    #[test]
    fn trimming_keeps_latest_snapshot_era() {
        let m = OwnCloudModule;
        let mut log = fresh_log(&m);
        for round in 0..3 {
            let (req, rsp) = pair(
                "/owncloud/sync",
                r#"{"doc":"d1","client":"alice","ops":[{"content":"+x"}]}"#,
                &format!(r#"{{"acks":[{}],"ops":[]}}"#, round + 1),
            );
            m.log_pair(&req, &rsp, &mut log).unwrap();
            let (req, rsp) = pair(
                "/owncloud/leave",
                &format!(
                    r#"{{"doc":"d1","client":"alice","snapshot":"v{round}","seq":{}}}"#,
                    round + 1
                ),
                r#"{"ok":true}"#,
            );
            m.log_pair(&req, &rsp, &mut log).unwrap();
        }
        log.trim(m.trim_queries()).unwrap();
        log.commit().and_then(|()| log.verify()).unwrap();
        // Only the final snapshot_save (and nothing older) remains.
        let r = log.query("SELECT COUNT(*) FROM docupdates", &[]).unwrap();
        assert_eq!(r.scalar().unwrap(), &Value::Integer(1));
        let r = log
            .query(
                "SELECT content FROM docupdates WHERE kind = 'snapshot_save'",
                &[],
            )
            .unwrap();
        assert_eq!(r.scalar().unwrap(), &Value::Text("v2".into()));
    }
}
