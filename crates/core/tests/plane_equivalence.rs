//! The session surface is one trait: whatever `build_plane()` returns
//! — one enclave at `shards(1)`, a fleet at `shards(2)` — and whichever
//! of its two data paths drives it — the per-call path
//! (`provide_input` / `do_handshake` / `ssl_read` / `ssl_write` /
//! `take_output`) or the batched path (`pump_batch` + `ssl_write_take`)
//! — one scripted Git session must look the same to its client and to
//! the audit log.
//!
//! The four runs share one `#[test]` on purpose: the appended-tuple
//! count is read from the process-wide `core_appends_total` counter,
//! which a concurrently running test in this binary would disturb.

use std::sync::Arc;

use libseal::{AuditPlane, GitModule, LibSealConfig, SessionInput};
use libseal_httpx::http::{parse_request, parse_response, Request, Response};
use libseal_sgxsim::cost::CostModel;
use libseal_tlsx::cert::CertificateAuthority;
use libseal_tlsx::ssl::{ReadOutcome, Ssl, SslConfig};

/// How the script reaches the plane.
#[derive(Clone, Copy, Debug)]
enum Path {
    PerCall,
    Batched,
}

/// What one run of the script observed.
#[derive(Debug, PartialEq)]
struct Observed {
    /// Response plaintext as the client decrypted it, in order.
    responses: Vec<Vec<u8>>,
    /// The fetch's `Libseal-Check-Result` header.
    check_result: String,
    /// Tuples the SSM appended (checkpoint rows excluded).
    appended: u64,
}

struct Driver {
    plane: Arc<dyn AuditPlane>,
    path: Path,
    sid: u64,
    client: Ssl,
}

impl Driver {
    /// Moves the client's pending wire bytes into the session and the
    /// session's into the client; returns the plaintext the service
    /// side read.
    fn exchange(&mut self) -> Vec<u8> {
        let to_server = self.client.take_output();
        let (data, to_client) = match self.path {
            Path::PerCall => {
                if !to_server.is_empty() {
                    self.plane.provide_input(0, self.sid, &to_server).unwrap();
                }
                let mut data = Vec::new();
                if self.plane.do_handshake(0, self.sid).unwrap() {
                    while let ReadOutcome::Data(d) = self.plane.ssl_read(0, self.sid).unwrap() {
                        data.extend_from_slice(&d);
                    }
                }
                (data, self.plane.take_output(0, self.sid).unwrap())
            }
            Path::Batched => {
                let item = SessionInput {
                    sid: self.sid,
                    input: to_server,
                };
                let mut out = self.plane.pump_batch(0, vec![item]).unwrap();
                let o = out.pop().expect("one outcome per item");
                assert_eq!(o.sid, self.sid);
                assert!(o.error.is_none(), "{:?}", o.error);
                (o.data, o.output)
            }
        };
        if !to_client.is_empty() {
            self.client.provide_input(&to_client);
            if !self.client.is_established() {
                self.client.do_handshake().unwrap();
            }
        }
        data
    }

    /// One request/response pair; returns the response plaintext the
    /// client decrypted.
    fn roundtrip(&mut self, req: &Request, rsp: &Response) -> Vec<u8> {
        self.client.ssl_write(&req.to_bytes()).unwrap();
        let seen = self.exchange();
        parse_request(&seen).expect("the service side reads the whole request");
        let wire = match self.path {
            Path::PerCall => {
                self.plane
                    .ssl_write(0, self.sid, &[&rsp.head_bytes(), &rsp.body])
                    .unwrap();
                self.plane.take_output(0, self.sid).unwrap()
            }
            Path::Batched => self
                .plane
                .ssl_write_take(0, self.sid, &[&rsp.head_bytes(), &rsp.body])
                .unwrap(),
        };
        self.client.provide_input(&wire);
        let mut plain = Vec::new();
        while let ReadOutcome::Data(d) = self.client.ssl_read().unwrap() {
            plain.extend_from_slice(&d);
        }
        parse_response(&plain).expect("the client reads the whole response");
        plain
    }
}

fn run(shards: usize, path: Path) -> Observed {
    let ca = CertificateAuthority::new("CA", &[1u8; 32]);
    let (key, cert) = ca.issue_identity("svc.test", &[2u8; 32]).unwrap();
    let plane = LibSealConfig::builder(cert, key)
        .ssm(Arc::new(GitModule))
        .cost_model(CostModel::free())
        .shards(shards)
        .epoch_interval(0)
        .build_plane()
        .unwrap();
    assert_eq!(plane.shards(), shards);
    let appends = libseal::telemetry::global().counter("core_appends_total");
    let before = appends.get();

    let sid = plane.open_session(0, 7).unwrap();
    let mut client = Ssl::new(SslConfig::client(vec![ca.root_key()]), [3u8; 64]);
    client.do_handshake().unwrap();
    let mut d = Driver {
        plane,
        path,
        sid,
        client,
    };
    for _ in 0..10 {
        d.exchange();
        if d.client.is_established() {
            break;
        }
    }
    assert!(d.client.is_established());
    // The client's Finished reaches the server.
    d.exchange();

    let mut responses = Vec::new();
    for (old, new) in [("0", "c1"), ("c1", "c2"), ("c2", "c3")] {
        let push = Request::new(
            "POST",
            "/repo/proj/git-receive-pack",
            format!("{old} {new} refs/heads/main\n").into_bytes(),
        );
        responses.push(d.roundtrip(&push, &Response::new(200, b"ok\n".to_vec())));
    }
    // The service advertises a stale commit, so the in-band verdict is
    // a violation report rather than a bare "ok".
    let mut fetch = Request::new(
        "GET",
        "/repo/proj/info/refs?service=git-upload-pack",
        Vec::new(),
    );
    fetch.headers.insert("Libseal-Check", "1");
    let advert = Response::new(200, b"c2 refs/heads/main\n".to_vec());
    responses.push(d.roundtrip(&fetch, &advert));
    let (verdict, _) = parse_response(responses.last().unwrap()).unwrap();
    let check_result = verdict
        .headers
        .get("Libseal-Check-Result")
        .expect("the check result travels in-band")
        .to_string();
    let appended = appends.get() - before;

    d.plane.close_session(0, d.sid).unwrap();
    d.plane.drain(0).unwrap();
    d.plane.verify_log(0).unwrap();
    Observed {
        responses,
        check_result,
        appended,
    }
}

#[test]
fn one_session_looks_the_same_on_every_plane_and_path() {
    let reference = run(1, Path::PerCall);
    assert!(
        reference.check_result.contains("git-soundness"),
        "{}",
        reference.check_result
    );
    assert_eq!(reference.appended, 4, "three updates and one advertisement");
    for (shards, path) in [(1, Path::Batched), (2, Path::PerCall), (2, Path::Batched)] {
        assert_eq!(run(shards, path), reference, "shards({shards}), {path:?}");
    }
}
