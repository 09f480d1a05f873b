//! A collaborative-document sync service (ownCloud Documents
//! analogue, §6.1): clients join sessions, exchange JSON-encoded
//! updates, and save snapshots when they leave. Attack injection
//! covers the violations LibSEAL's ownCloud invariants detect: lost
//! edits, tampered updates and stale snapshots.

use std::collections::BTreeMap;
use std::sync::Arc;

use libseal_httpx::http::{Request, Response};
use libseal_httpx::json::Json;
use plat::sync::Mutex;

use crate::apache::Router;

/// Integrity attacks the server can be told to perform.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OwnCloudAttack {
    /// Serve faithfully.
    None,
    /// Drop one update when relaying (a lost edit).
    DropUpdate {
        /// Document.
        doc: String,
        /// Sequence number to drop.
        seq: i64,
    },
    /// Tamper with one update's content when relaying.
    TamperUpdate {
        /// Document.
        doc: String,
        /// Sequence number to corrupt.
        seq: i64,
        /// Replacement content.
        content: String,
    },
    /// Serve an old snapshot to joining clients.
    StaleSnapshot {
        /// Document.
        doc: String,
    },
}

#[derive(Default)]
struct DocState {
    snapshot: String,
    snapshot_seq: i64,
    prev_snapshot: Option<(String, i64)>,
    /// Global op history: (seq, content).
    ops: Vec<(i64, String)>,
    /// Per-client delivery cursor (next op index to send).
    cursors: BTreeMap<String, usize>,
}

/// The document sync server.
pub struct OwnCloudServer {
    docs: Mutex<BTreeMap<String, DocState>>,
    attack: Mutex<OwnCloudAttack>,
    /// Simulated application-layer processing per request (the paper's
    /// ownCloud is bottlenecked by its PHP engine; §6.4).
    pub php_delay: std::time::Duration,
}

impl Default for OwnCloudServer {
    fn default() -> Self {
        Self::new()
    }
}

impl OwnCloudServer {
    /// Creates an empty server.
    pub fn new() -> Self {
        OwnCloudServer {
            docs: Mutex::new(BTreeMap::new()),
            attack: Mutex::new(OwnCloudAttack::None),
            php_delay: std::time::Duration::ZERO,
        }
    }

    /// Creates a server with a simulated PHP processing delay.
    pub fn with_php_delay(delay: std::time::Duration) -> Self {
        OwnCloudServer {
            php_delay: delay,
            ..Self::new()
        }
    }

    /// Arms an attack.
    pub fn set_attack(&self, attack: OwnCloudAttack) {
        *self.attack.lock() = attack;
    }

    fn join(&self, doc: &str, client: &str) -> Json {
        let mut docs = self.docs.lock();
        let d = docs.entry(doc.to_string()).or_default();
        let attack = self.attack.lock().clone();
        let (snapshot, seq) = match &attack {
            OwnCloudAttack::StaleSnapshot { doc: ad } if ad == doc => d
                .prev_snapshot
                .clone()
                .unwrap_or((d.snapshot.clone(), d.snapshot_seq)),
            _ => (d.snapshot.clone(), d.snapshot_seq),
        };
        // The client starts receiving ops after the snapshot baseline.
        let baseline_idx = d.ops.iter().filter(|(s, _)| *s <= seq).count();
        d.cursors.insert(client.to_string(), baseline_idx);
        Json::object([
            ("snapshot", Json::str(snapshot)),
            ("seq", Json::num(seq as f64)),
        ])
    }

    fn sync(&self, doc: &str, client: &str, ops: &[Json]) -> Json {
        let mut docs = self.docs.lock();
        let d = docs.entry(doc.to_string()).or_default();
        let attack = self.attack.lock().clone();

        // Where this client's delivery stood before this round.
        let cursor = *d.cursors.get(client).unwrap_or(&0);
        let pre_len = d.ops.len();

        // Accept the client's new ops, assigning global sequence
        // numbers.
        let mut acks = Vec::new();
        for op in ops {
            let content = op.get("content").and_then(Json::as_str).unwrap_or("");
            let seq = d.ops.last().map(|(s, _)| *s).unwrap_or(0) + 1;
            d.ops.push((seq, content.to_string()));
            acks.push(Json::num(seq as f64));
        }

        // Relay ops the client has not seen, excluding the ones it
        // just sent (attack hooks here).
        let mut sent = Vec::new();
        for (seq, content) in d.ops[cursor.min(pre_len)..pre_len].iter() {
            match &attack {
                OwnCloudAttack::DropUpdate { doc: ad, seq: aseq } if ad == doc && aseq == seq => {
                    continue; // Lost edit.
                }
                OwnCloudAttack::TamperUpdate {
                    doc: ad,
                    seq: aseq,
                    content: evil,
                } if ad == doc && aseq == seq => {
                    sent.push(Json::object([
                        ("seq", Json::num(*seq as f64)),
                        ("content", Json::str(evil.clone())),
                    ]));
                }
                _ => {
                    sent.push(Json::object([
                        ("seq", Json::num(*seq as f64)),
                        ("content", Json::str(content.clone())),
                    ]));
                }
            }
        }
        d.cursors.insert(client.to_string(), d.ops.len());
        Json::object([("acks", Json::Array(acks)), ("ops", Json::Array(sent))])
    }

    fn leave(&self, doc: &str, client: &str, snapshot: &str, seq: i64) -> Json {
        let mut docs = self.docs.lock();
        let d = docs.entry(doc.to_string()).or_default();
        d.prev_snapshot = Some((d.snapshot.clone(), d.snapshot_seq));
        d.snapshot = snapshot.to_string();
        d.snapshot_seq = seq;
        d.cursors.remove(client);
        Json::object([("ok", Json::Bool(true))])
    }
}

impl Router for Arc<OwnCloudServer> {
    fn handle(&self, req: &Request) -> Response {
        if !self.php_delay.is_zero() {
            // The PHP engine burns CPU (it is the paper's bottleneck).
            libseal_sgxsim::cost::spin_for_nanos(self.php_delay.as_nanos() as u64);
        }
        if req.method != "POST" {
            return Response::new(405, b"POST only".to_vec());
        }
        let Ok(body) = Json::parse_bytes(&req.body) else {
            return Response::new(400, b"bad json".to_vec());
        };
        let doc = body.get("doc").and_then(Json::as_str).unwrap_or("");
        let client = body.get("client").and_then(Json::as_str).unwrap_or("");
        if doc.is_empty() || client.is_empty() {
            return Response::new(400, b"missing doc/client".to_vec());
        }
        let out = match req.path() {
            "/owncloud/join" => self.join(doc, client),
            "/owncloud/sync" => {
                let empty: Vec<Json> = Vec::new();
                let ops = body
                    .get("ops")
                    .and_then(Json::as_array)
                    .unwrap_or(&empty)
                    .to_vec();
                self.sync(doc, client, &ops)
            }
            "/owncloud/leave" => {
                let snapshot = body.get("snapshot").and_then(Json::as_str).unwrap_or("");
                let seq = body.get("seq").and_then(Json::as_i64).unwrap_or(0);
                self.leave(doc, client, snapshot, seq)
            }
            _ => return Response::new(404, b"unknown endpoint".to_vec()),
        };
        Response::new(200, out.to_string().into_bytes())
    }
}

/// Builds the JSON requests a document-editing client issues.
pub struct EditWorkload {
    doc: String,
    client: String,
    counter: u64,
}

impl EditWorkload {
    /// Creates an edit workload for (`doc`, `client`).
    pub fn new(doc: &str, client: &str) -> Self {
        EditWorkload {
            doc: doc.to_string(),
            client: client.to_string(),
            counter: 0,
        }
    }

    /// The join request.
    pub fn join(&self) -> Request {
        Request::new(
            "POST",
            "/owncloud/join",
            format!(r#"{{"doc":"{}","client":"{}"}}"#, self.doc, self.client).into_bytes(),
        )
    }

    /// The next sync request carrying one edit (alternating single
    /// characters and paragraphs, per §6.4's workload description).
    pub fn next_edit(&mut self) -> Request {
        self.counter += 1;
        let content = if self.counter.is_multiple_of(5) {
            format!("paragraph-{} lorem ipsum dolor sit amet", self.counter)
        } else {
            format!("+{}", (b'a' + (self.counter % 26) as u8) as char)
        };
        Request::new(
            "POST",
            "/owncloud/sync",
            format!(
                r#"{{"doc":"{}","client":"{}","ops":[{{"content":"{}"}}]}}"#,
                self.doc, self.client, content
            )
            .into_bytes(),
        )
    }

    /// The leave request saving `snapshot`.
    pub fn leave(&self, snapshot: &str, seq: i64) -> Request {
        Request::new(
            "POST",
            "/owncloud/leave",
            format!(
                r#"{{"doc":"{}","client":"{}","snapshot":"{}","seq":{}}}"#,
                self.doc, self.client, snapshot, seq
            )
            .into_bytes(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sync_req(server: &Arc<OwnCloudServer>, doc: &str, client: &str, ops: &str) -> Json {
        let req = Request::new(
            "POST",
            "/owncloud/sync",
            format!(r#"{{"doc":"{doc}","client":"{client}","ops":{ops}}}"#).into_bytes(),
        );
        let rsp = server.handle(&req);
        Json::parse_bytes(&rsp.body).unwrap()
    }

    #[test]
    fn ops_are_relayed_between_clients() {
        let s = Arc::new(OwnCloudServer::new());
        let _ = sync_req(&s, "d", "alice", r#"[{"content":"+a"}]"#);
        let out = sync_req(&s, "d", "bob", "[]");
        let ops = out.get("ops").unwrap().as_array().unwrap();
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].get("content").unwrap().as_str(), Some("+a"));
        // Bob does not receive them twice.
        let out = sync_req(&s, "d", "bob", "[]");
        assert!(out.get("ops").unwrap().as_array().unwrap().is_empty());
    }

    #[test]
    fn drop_attack_skips_op() {
        let s = Arc::new(OwnCloudServer::new());
        let _ = sync_req(&s, "d", "alice", r#"[{"content":"+a"},{"content":"+b"}]"#);
        s.set_attack(OwnCloudAttack::DropUpdate {
            doc: "d".into(),
            seq: 1,
        });
        let out = sync_req(&s, "d", "bob", "[]");
        let ops = out.get("ops").unwrap().as_array().unwrap();
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].get("seq").unwrap().as_i64(), Some(2));
    }

    #[test]
    fn snapshot_save_and_serve() {
        let s = Arc::new(OwnCloudServer::new());
        let req = Request::new(
            "POST",
            "/owncloud/leave",
            br#"{"doc":"d","client":"alice","snapshot":"v1","seq":3}"#.to_vec(),
        );
        s.handle(&req);
        let req = Request::new(
            "POST",
            "/owncloud/join",
            br#"{"doc":"d","client":"bob"}"#.to_vec(),
        );
        let rsp = s.handle(&req);
        let j = Json::parse_bytes(&rsp.body).unwrap();
        assert_eq!(j.get("snapshot").unwrap().as_str(), Some("v1"));
        assert_eq!(j.get("seq").unwrap().as_i64(), Some(3));
    }

    #[test]
    fn stale_snapshot_attack() {
        let s = Arc::new(OwnCloudServer::new());
        for (v, seq) in [("v1", 1), ("v2", 2)] {
            let req = Request::new(
                "POST",
                "/owncloud/leave",
                format!(r#"{{"doc":"d","client":"a","snapshot":"{v}","seq":{seq}}}"#).into_bytes(),
            );
            s.handle(&req);
        }
        s.set_attack(OwnCloudAttack::StaleSnapshot { doc: "d".into() });
        let req = Request::new(
            "POST",
            "/owncloud/join",
            br#"{"doc":"d","client":"bob"}"#.to_vec(),
        );
        let rsp = s.handle(&req);
        let j = Json::parse_bytes(&rsp.body).unwrap();
        assert_eq!(j.get("snapshot").unwrap().as_str(), Some("v1"));
    }

    #[test]
    fn edit_workload_shapes() {
        let mut w = EditWorkload::new("d", "alice");
        let mut saw_paragraph = false;
        for _ in 0..10 {
            let req = w.next_edit();
            let body = String::from_utf8(req.body).unwrap();
            if body.contains("paragraph-") {
                saw_paragraph = true;
            }
        }
        assert!(saw_paragraph);
    }
}
