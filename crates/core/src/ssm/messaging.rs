//! A messaging service-specific module (the §2.2 "communication and
//! instant messaging" scenario).
//!
//! The paper motivates but does not evaluate this class of service:
//! relayed messages must be delivered unmodified, to the right
//! recipients, and must not be dropped. This module demonstrates
//! LibSEAL's generality claim (R1) by auditing a simple store-and-
//! forward protocol:
//!
//! - `POST /msg/send` `{from, to, body}` → `{id}` — the server accepts
//!   a message and assigns a sequence id;
//! - `POST /msg/inbox` `{user, after}` →
//!   `{messages: [{id, from, body}...]}` — the recipient drains
//!   messages with id greater than `after`.

use libseal_httpx::json::Json;
use libseal_sealdb::Value;

use super::{json_post_pair, Invariant, ServiceModule};
use crate::log::{AuditLog, TableSpec};
use crate::Result;

/// Messaging SSM.
pub struct MessagingModule;

/// Audit schema: accepted and delivered message events.
pub const MESSAGING_SCHEMA: &str = "
CREATE TABLE accepted(time INTEGER, id INTEGER, sender TEXT,
                      recipient TEXT, body TEXT);
CREATE TABLE delivered(time INTEGER, id INTEGER, recipient TEXT,
                       sender TEXT, body TEXT);
";

/// Soundness: every delivered message was accepted with the same
/// sender, recipient and body (no forgery, no tampering, no
/// misdelivery).
pub const MSG_SOUNDNESS: &str = "SELECT * FROM delivered d
WHERE NOT EXISTS (SELECT 1 FROM accepted a WHERE a.id = d.id
  AND a.sender = d.sender AND a.recipient = d.recipient
  AND a.body = d.body AND a.time < d.time)";

/// Completeness: when an inbox drain delivers message `id`, every
/// accepted message for that recipient with a smaller id must already
/// have been delivered no later than that drain (no silent drops).
pub const MSG_COMPLETENESS: &str = "SELECT a.id, a.recipient FROM accepted a
JOIN delivered d ON d.recipient = a.recipient AND d.id > a.id
WHERE NOT EXISTS (SELECT 1 FROM delivered x WHERE x.recipient = a.recipient
  AND x.id = a.id AND x.time <= d.time)";

// Messaging invariants stay on the full-scan path (delta: None):
// completeness compares same-time rows (`x.time <= d.time`), so the
// monotone-time partition argument does not apply. This also keeps
// the mixed incremental/full-scan checker path exercised.
const INVARIANTS: &[Invariant] = &[
    Invariant {
        name: "messaging-soundness",
        sql: MSG_SOUNDNESS,
        delta: None,
    },
    Invariant {
        name: "messaging-completeness",
        sql: MSG_COMPLETENESS,
        delta: None,
    },
];

/// Trimming: a delivered message pair is settled once checked; keep
/// accepted-but-undelivered messages (they are exactly the evidence of
/// a pending drop).
const TRIM: &[&str] = &[
    "DELETE FROM accepted WHERE id IN (SELECT id FROM delivered
       WHERE delivered.recipient = accepted.recipient)",
    "DELETE FROM delivered",
];

impl ServiceModule for MessagingModule {
    fn name(&self) -> &'static str {
        "messaging"
    }

    fn schema_sql(&self) -> &'static str {
        MESSAGING_SCHEMA
    }

    fn tables(&self) -> Vec<TableSpec> {
        vec![
            TableSpec {
                name: "accepted",
                key_cols: &["time", "id"],
            },
            TableSpec {
                name: "delivered",
                key_cols: &["time", "id", "recipient"],
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
        let Some((request, req_json, response)) = json_post_pair(req, rsp) else {
            return Ok(0);
        };
        let rsp_json = Json::parse_bytes(&response.body).unwrap_or(Json::Null);
        let mut logged = 0usize;

        match request.path() {
            "/msg/send" => {
                let (Some(from), Some(to), Some(body)) = (
                    req_json.get("from").and_then(Json::as_str),
                    req_json.get("to").and_then(Json::as_str),
                    req_json.get("body").and_then(Json::as_str),
                ) else {
                    return Ok(0);
                };
                let Some(id) = rsp_json.get("id").and_then(Json::as_i64) else {
                    return Ok(0);
                };
                let t = log.next_time() as i64;
                log.append(
                    "accepted",
                    &[
                        Value::Integer(t),
                        Value::Integer(id),
                        Value::Text(from.to_string()),
                        Value::Text(to.to_string()),
                        Value::Text(body.to_string()),
                    ],
                )?;
                logged += 1;
            }
            "/msg/inbox" => {
                let Some(user) = req_json.get("user").and_then(Json::as_str) else {
                    return Ok(0);
                };
                let Some(messages) = rsp_json.get("messages").and_then(Json::as_array) else {
                    return Ok(0);
                };
                let t = log.next_time() as i64;
                for m in messages {
                    let (Some(id), Some(from), Some(body)) = (
                        m.get("id").and_then(Json::as_i64),
                        m.get("from").and_then(Json::as_str),
                        m.get("body").and_then(Json::as_str),
                    ) else {
                        continue;
                    };
                    log.append(
                        "delivered",
                        &[
                            Value::Integer(t),
                            Value::Integer(id),
                            Value::Text(user.to_string()),
                            Value::Text(from.to_string()),
                            Value::Text(body.to_string()),
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

    fn fresh_log(m: &MessagingModule) -> AuditLog {
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

    fn send(log: &mut AuditLog, m: &MessagingModule, from: &str, to: &str, body: &str, id: i64) {
        let req = Request::new(
            "POST",
            "/msg/send",
            format!(r#"{{"from":"{from}","to":"{to}","body":"{body}"}}"#).into_bytes(),
        );
        let rsp = Response::new(200, format!(r#"{{"id":{id}}}"#).into_bytes());
        m.log_pair(&req.to_bytes(), &rsp.to_bytes(), log).unwrap();
    }

    fn drain(log: &mut AuditLog, m: &MessagingModule, user: &str, messages: &str) {
        let req = Request::new(
            "POST",
            "/msg/inbox",
            format!(r#"{{"user":"{user}","after":0}}"#).into_bytes(),
        );
        let rsp = Response::new(200, format!(r#"{{"messages":{messages}}}"#).into_bytes());
        m.log_pair(&req.to_bytes(), &rsp.to_bytes(), log).unwrap();
    }

    #[test]
    fn faithful_relay_is_clean() {
        let m = MessagingModule;
        let mut log = fresh_log(&m);
        send(&mut log, &m, "alice", "bob", "hi", 1);
        send(&mut log, &m, "carol", "bob", "yo", 2);
        drain(
            &mut log,
            &m,
            "bob",
            r#"[{"id":1,"from":"alice","body":"hi"},{"id":2,"from":"carol","body":"yo"}]"#,
        );
        for inv in INVARIANTS {
            assert!(log.query(inv.sql, &[]).unwrap().is_empty(), "{}", inv.name);
        }
    }

    #[test]
    fn tampered_message_detected() {
        let m = MessagingModule;
        let mut log = fresh_log(&m);
        send(&mut log, &m, "alice", "bob", "pay 10", 1);
        // The server alters the body in transit.
        drain(
            &mut log,
            &m,
            "bob",
            r#"[{"id":1,"from":"alice","body":"pay 1000"}]"#,
        );
        assert_eq!(log.query(MSG_SOUNDNESS, &[]).unwrap().rows.len(), 1);
    }

    #[test]
    fn forged_sender_detected() {
        let m = MessagingModule;
        let mut log = fresh_log(&m);
        send(&mut log, &m, "alice", "bob", "hello", 1);
        drain(
            &mut log,
            &m,
            "bob",
            r#"[{"id":1,"from":"mallory","body":"hello"}]"#,
        );
        assert_eq!(log.query(MSG_SOUNDNESS, &[]).unwrap().rows.len(), 1);
    }

    #[test]
    fn dropped_message_detected() {
        let m = MessagingModule;
        let mut log = fresh_log(&m);
        send(&mut log, &m, "alice", "bob", "first", 1);
        send(&mut log, &m, "alice", "bob", "second", 2);
        // The server silently drops message 1 but delivers 2.
        drain(
            &mut log,
            &m,
            "bob",
            r#"[{"id":2,"from":"alice","body":"second"}]"#,
        );
        assert_eq!(log.query(MSG_COMPLETENESS, &[]).unwrap().rows.len(), 1);
    }

    #[test]
    fn misdelivery_detected() {
        let m = MessagingModule;
        let mut log = fresh_log(&m);
        send(&mut log, &m, "alice", "bob", "secret", 1);
        // Delivered to carol instead.
        drain(
            &mut log,
            &m,
            "carol",
            r#"[{"id":1,"from":"alice","body":"secret"}]"#,
        );
        assert_eq!(log.query(MSG_SOUNDNESS, &[]).unwrap().rows.len(), 1);
    }

    #[test]
    fn trimming_keeps_undelivered_evidence() {
        let m = MessagingModule;
        let mut log = fresh_log(&m);
        send(&mut log, &m, "alice", "bob", "delivered", 1);
        send(&mut log, &m, "alice", "bob", "pending", 2);
        drain(
            &mut log,
            &m,
            "bob",
            r#"[{"id":1,"from":"alice","body":"delivered"}]"#,
        );
        log.trim(m.trim_queries()).unwrap();
        log.verify().unwrap();
        // The undelivered message survives as evidence.
        let r = log.query("SELECT id FROM accepted", &[]).unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][0], Value::Integer(2));
    }
}
