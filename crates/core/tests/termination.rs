//! End-to-end tests of the LibSEAL TLS termination shim: a real STLS
//! client talks to a service that uses LibSEAL as its TLS library, and
//! the audit log observes everything (Fig. 1 flow).

use std::sync::Arc;

use libseal::ssm::git::ZERO_CID;
use libseal::{AuditPlane, GitModule, LibSeal, LibSealConfig, LogBacking};
use libseal_httpx::http::{parse_response, Request, Response};
use libseal_sgxsim::cost::CostModel;
use libseal_tlsx::cert::CertificateAuthority;
use libseal_tlsx::ssl::{ReadOutcome, Ssl, SslConfig};

struct TestRig {
    ls: Arc<LibSeal>,
    client: Ssl,
    sid: u64,
}

fn rig(audited: bool) -> TestRig {
    let ca = CertificateAuthority::new("CA", &[1u8; 32]);
    let (key, cert) = ca.issue_identity("svc.test", &[2u8; 32]).unwrap();
    let mut builder = LibSealConfig::builder(cert, key)
        .cost_model(CostModel::free())
        .backing(LogBacking::Memory)
        .check_interval(0); // explicit checks in tests
    if audited {
        builder = builder.ssm(Arc::new(GitModule));
    }
    handshake(LibSeal::new(builder.build()).unwrap(), &ca)
}

/// Opens a session on `ls` and completes the handshake of a fresh
/// client trusting `ca`.
fn handshake(ls: Arc<LibSeal>, ca: &CertificateAuthority) -> TestRig {
    let sid = ls.new_session(0).unwrap();
    let mut client = Ssl::new(SslConfig::client(vec![ca.root_key()]), [3u8; 64]);
    client.do_handshake().unwrap();
    // Pump the handshake both ways until established.
    for _ in 0..10 {
        let to_server = client.take_output();
        if !to_server.is_empty() {
            ls.provide_input(0, sid, &to_server).unwrap();
        }
        let _ = ls.do_handshake(0, sid);
        let to_client = ls.take_output(0, sid).unwrap();
        if !to_client.is_empty() {
            client.provide_input(&to_client);
            let _ = client.do_handshake();
        }
        if client.is_established() {
            break;
        }
    }
    // Flush the client's final Finished to the server.
    let fin = client.take_output();
    if !fin.is_empty() {
        ls.provide_input(0, sid, &fin).unwrap();
        let _ = ls.do_handshake(0, sid);
    }
    assert!(client.is_established());
    TestRig { ls, client, sid }
}

/// Client sends `req`; the "service" (this function) echoes `rsp`
/// through LibSEAL; returns the decrypted response seen by the client.
fn roundtrip(rig: &mut TestRig, req: &Request, rsp: &Response) -> Response {
    rig.client.ssl_write(&req.to_bytes()).unwrap();
    let wire = rig.client.take_output();
    rig.ls.provide_input(0, rig.sid, &wire).unwrap();

    // The service reads the request plaintext...
    let mut req_seen = Vec::new();
    loop {
        match rig.ls.ssl_read(0, rig.sid).unwrap() {
            ReadOutcome::Data(d) => {
                req_seen.extend_from_slice(&d);
                if libseal_httpx::http::parse_request(&req_seen).is_ok() {
                    break;
                }
            }
            ReadOutcome::WantRead => break,
            ReadOutcome::Closed => panic!("closed"),
        }
    }
    // ...and writes its response.
    rig.ls.ssl_write(0, rig.sid, &[&rsp.to_bytes()]).unwrap();
    let wire = rig.ls.take_output(0, rig.sid).unwrap();
    rig.client.provide_input(&wire);
    let mut rsp_bytes = Vec::new();
    loop {
        match rig.client.ssl_read().unwrap() {
            ReadOutcome::Data(d) => {
                rsp_bytes.extend_from_slice(&d);
                if let Ok((r, _)) = parse_response(&rsp_bytes) {
                    return r;
                }
            }
            ReadOutcome::WantRead => {
                panic!(
                    "response incomplete: {}",
                    String::from_utf8_lossy(&rsp_bytes)
                )
            }
            ReadOutcome::Closed => panic!("closed"),
        }
    }
}

fn push(rig: &mut TestRig, repo: &str, lines: &str) {
    let req = Request::new(
        "POST",
        &format!("/repo/{repo}/git-receive-pack"),
        lines.as_bytes().to_vec(),
    );
    let rsp = Response::new(200, b"ok\n".to_vec());
    roundtrip(rig, &req, &rsp);
}

fn fetch(rig: &mut TestRig, repo: &str, advert: &str, check: bool) -> Response {
    let mut req = Request::new(
        "GET",
        &format!("/repo/{repo}/info/refs?service=git-upload-pack"),
        Vec::new(),
    );
    if check {
        req.headers.insert("Libseal-Check", "1");
    }
    let rsp = Response::new(200, advert.as_bytes().to_vec());
    roundtrip(rig, &req, &rsp)
}

#[test]
fn request_response_flow_is_logged() {
    let mut rig = rig(true);
    push(&mut rig, "proj", "0 c1 refs/heads/main\n");
    fetch(&mut rig, "proj", "c1 refs/heads/main\n", false);
    let (entries, _, _) = rig.ls.log_stats(0).unwrap();
    assert_eq!(entries, 2, "one update + one advertisement");
    rig.ls.verify_log(0).unwrap();
}

#[test]
fn clean_history_checks_ok_in_band() {
    let mut rig = rig(true);
    push(&mut rig, "proj", "0 c1 refs/heads/main\n");
    let rsp = fetch(&mut rig, "proj", "c1 refs/heads/main\n", true);
    assert_eq!(rsp.headers.get("Libseal-Check-Result"), Some("ok"));
}

#[test]
fn rollback_attack_reported_in_band() {
    let mut rig = rig(true);
    push(&mut rig, "proj", "0 c1 refs/heads/main\n");
    push(&mut rig, "proj", "c1 c2 refs/heads/main\n");
    // The service advertises the STALE commit.
    let rsp = fetch(&mut rig, "proj", "c1 refs/heads/main\n", true);
    let header = rsp.headers.get("Libseal-Check-Result").unwrap();
    assert!(
        header.contains("git-soundness"),
        "expected soundness violation, got {header}"
    );
}

#[test]
fn reference_deletion_reported() {
    let mut rig = rig(true);
    push(
        &mut rig,
        "proj",
        "0 c1 refs/heads/main\n0 d1 refs/heads/dev\n",
    );
    let rsp = fetch(&mut rig, "proj", "c1 refs/heads/main\n", true);
    let header = rsp.headers.get("Libseal-Check-Result").unwrap();
    assert!(header.contains("git-completeness"), "{header}");
}

#[test]
fn legitimate_deletion_not_reported() {
    let mut rig = rig(true);
    push(
        &mut rig,
        "proj",
        "0 c1 refs/heads/main\n0 d1 refs/heads/dev\n",
    );
    push(&mut rig, "proj", &format!("d1 {ZERO_CID} refs/heads/dev\n"));
    let rsp = fetch(&mut rig, "proj", "c1 refs/heads/main\n", true);
    assert_eq!(rsp.headers.get("Libseal-Check-Result"), Some("ok"));
}

#[test]
fn unaudited_instance_passes_data_through() {
    let mut rig = rig(false);
    let req = Request::new("GET", "/anything", Vec::new());
    let rsp = Response::new(200, b"payload".to_vec());
    let seen = roundtrip(&mut rig, &req, &rsp);
    assert_eq!(seen.body, b"payload");
    assert!(rig.ls.check_now(0).is_err(), "auditing disabled");
}

#[test]
fn explicit_check_and_trim() {
    let mut rig = rig(true);
    for i in 0..5 {
        push(&mut rig, "proj", &format!("x c{i} refs/heads/main\n"));
    }
    fetch(&mut rig, "proj", "c4 refs/heads/main\n", false);
    let outcome = rig.ls.check_now(0).unwrap();
    assert_eq!(outcome.total_violations(), 0);
    let (before, _, _) = rig.ls.log_stats(0).unwrap();
    rig.ls.trim_now(0).unwrap();
    let (after, _, _) = rig.ls.log_stats(0).unwrap();
    assert!(after < before, "{after} !< {before}");
    rig.ls.verify_log(0).unwrap();
}

#[test]
fn tampering_with_log_detected() {
    let mut rig = rig(true);
    push(&mut rig, "proj", "0 c1 refs/heads/main\n");
    rig.ls.verify_log(0).unwrap();
    // The provider edits the audit data directly (bypassing append).
    rig.ls
        .with_log(0, |log| {
            log.db_mut()
                .execute("UPDATE updates SET cid = 'FORGED'")
                .unwrap();
        })
        .unwrap();
    assert!(rig.ls.verify_log(0).is_err());
}

#[test]
fn deleting_log_rows_detected() {
    let mut rig = rig(true);
    push(&mut rig, "proj", "0 c1 refs/heads/main\n");
    push(&mut rig, "proj", "c1 c2 refs/heads/main\n");
    rig.ls
        .with_log(0, |log| {
            log.db_mut()
                .execute("DELETE FROM updates WHERE cid = 'c1'")
                .unwrap();
        })
        .unwrap();
    assert!(rig.ls.verify_log(0).is_err());
}

#[test]
fn ex_data_lives_outside_without_transitions() {
    let rig = rig(true);
    let before = rig.ls.stats().ecalls;
    rig.ls.set_ex_data(rig.sid, 7, b"request context".to_vec());
    assert_eq!(rig.ls.get_ex_data(rig.sid, 7).unwrap(), b"request context");
    let after = rig.ls.stats().ecalls;
    assert_eq!(before, after, "ex_data access must not transition");
}

#[test]
fn shadow_has_no_key_material() {
    let rig = rig(true);
    let shadow = rig.ls.shadow(rig.sid).unwrap();
    assert!(shadow.established);
    // The shadow type has no fields that could carry keys; assert its
    // contents are exactly handshake status + ex_data.
    assert!(shadow.ex_data.is_empty());
    let debug = format!("{shadow:?}");
    assert!(!debug.contains("key"), "shadow leaks: {debug}");
}

#[test]
fn persistent_log_survives_restart_and_verifies() {
    let dir = plat::tmp::TempPath::new("libseal-e2e", "log");
    let ca = CertificateAuthority::new("CA", &[1u8; 32]);
    let (key, cert) = ca.issue_identity("svc.test", &[2u8; 32]).unwrap();
    {
        let cfg = LibSealConfig::builder(cert.clone(), key.clone())
            .ssm(Arc::new(GitModule))
            .cost_model(CostModel::free())
            .backing(LogBacking::Disk(dir.to_path_buf()))
            .check_interval(0)
            .build();
        let ls = LibSeal::new(cfg).unwrap();
        ls.with_log(0, |log| {
            let t = log.next_time() as i64;
            log.append(
                "updates",
                &[
                    libseal_sealdb::Value::Integer(t),
                    libseal_sealdb::Value::Text("r".into()),
                    libseal_sealdb::Value::Text("main".into()),
                    libseal_sealdb::Value::Text("c1".into()),
                    libseal_sealdb::Value::Text("update".into()),
                ],
            )
            .unwrap();
        })
        .unwrap();
        ls.verify_log(0).unwrap();
    }
    // "Restart": open a new instance over the same sealed journal.
    {
        let cfg = LibSealConfig::builder(cert, key)
            .ssm(Arc::new(GitModule))
            .cost_model(CostModel::free())
            .backing(LogBacking::Disk(dir.to_path_buf()))
            .check_interval(0)
            .build();
        let ls = LibSeal::new(cfg).unwrap();
        let (entries, _, _) = ls.log_stats(0).unwrap();
        assert_eq!(entries, 1);
        ls.verify_log(0).unwrap();
    }
    // The sealed journal on disk is not plaintext.
    let raw = std::fs::read(&dir).unwrap();
    let as_text = String::from_utf8_lossy(&raw);
    assert!(!as_text.contains("INSERT"), "journal leaked plaintext SQL");
    assert!(!as_text.contains("main"), "journal leaked data");
}

#[test]
fn secure_callback_fires_via_ocall() {
    use std::sync::atomic::{AtomicU32, Ordering};
    let ca = CertificateAuthority::new("CA", &[1u8; 32]);
    let (key, cert) = ca.issue_identity("svc.test", &[2u8; 32]).unwrap();
    let cfg = LibSealConfig::builder(cert, key)
        .ssm(Arc::new(GitModule))
        .cost_model(CostModel::free())
        .build();
    let ls = LibSeal::new(cfg).unwrap();

    let hits = Arc::new(AtomicU32::new(0));
    let h = Arc::clone(&hits);
    ls.set_info_callback(
        0,
        Arc::new(move |_code, _arg| {
            h.fetch_add(1, Ordering::SeqCst);
        }),
    )
    .unwrap();

    let sid = ls.new_session(0).unwrap();
    let mut client = Ssl::new(SslConfig::client(vec![ca.root_key()]), [3u8; 64]);
    client.do_handshake().unwrap();
    for _ in 0..10 {
        let out = client.take_output();
        if !out.is_empty() {
            ls.provide_input(0, sid, &out).unwrap();
        }
        let _ = ls.do_handshake(0, sid);
        let back = ls.take_output(0, sid).unwrap();
        if !back.is_empty() {
            client.provide_input(&back);
            let _ = client.do_handshake();
        }
        if client.is_established() {
            break;
        }
    }
    let fin = client.take_output();
    if !fin.is_empty() {
        ls.provide_input(0, sid, &fin).unwrap();
        let _ = ls.do_handshake(0, sid);
    }
    assert!(hits.load(Ordering::SeqCst) >= 1, "callback never fired");
    // The callback ran through the ocall accounting path.
    let snap = ls.stats();
    assert!(snap.by_name.contains_key("info_callback"));
}

#[test]
fn async_runtime_serves_sessions() {
    use libseal_lthread::RuntimeConfig;
    let ca = CertificateAuthority::new("CA", &[1u8; 32]);
    let (key, cert) = ca.issue_identity("svc.test", &[2u8; 32]).unwrap();
    let cfg = LibSealConfig::builder(cert, key)
        .ssm(Arc::new(GitModule))
        .cost_model(CostModel::free())
        .build();
    let ls = LibSeal::with_async(
        cfg,
        RuntimeConfig {
            sgx_threads: 2,
            lthreads_per_thread: 4,
            slots: 2,
            stack_size: 256 * 1024,
        },
    )
    .unwrap();

    let sid = ls.new_session(0).unwrap();
    let mut client = Ssl::new(SslConfig::client(vec![ca.root_key()]), [3u8; 64]);
    client.do_handshake().unwrap();
    for _ in 0..10 {
        let out = client.take_output();
        if !out.is_empty() {
            ls.provide_input(0, sid, &out).unwrap();
        }
        let _ = ls.do_handshake(0, sid);
        let back = ls.take_output(0, sid).unwrap();
        if !back.is_empty() {
            client.provide_input(&back);
            let _ = client.do_handshake();
        }
        if client.is_established() {
            break;
        }
    }
    assert!(client.is_established());
    let snap = ls.stats();
    assert!(snap.async_ecalls > 0);
    assert_eq!(snap.ecalls, 0, "async mode must not take sync transitions");
}

#[test]
fn client_certificates_identify_users() {
    // §6.3 "Impersonating clients": with TLS client authentication the
    // enclave knows WHO sent each request; a provider cannot fabricate
    // client actions without a client key.
    let ca = CertificateAuthority::new("CA", &[1u8; 32]);
    let (skey, scert) = ca.issue_identity("svc.test", &[2u8; 32]).unwrap();
    let (ckey, ccert) = ca.issue_identity("alice", &[5u8; 32]).unwrap();
    let cfg = LibSealConfig::builder(scert, skey)
        .ssm(Arc::new(GitModule))
        .cost_model(CostModel::free())
        .verify_clients(true)
        .ca_roots(vec![ca.root_key()])
        .build();
    let ls = LibSeal::new(cfg).unwrap();
    let sid = ls.new_session(0).unwrap();

    let client_cfg = Arc::new(libseal_tlsx::ssl::SslConfig {
        role: libseal_tlsx::ssl::Role::Client,
        cert: Some(ccert),
        key: Some(ckey),
        ca_roots: vec![ca.root_key()],
        verify_peer: true,
        expected_subject: None,
        attestation: None,
    });
    let mut client = Ssl::new(client_cfg, [3u8; 64]);
    client.do_handshake().unwrap();
    for _ in 0..10 {
        let out = client.take_output();
        if !out.is_empty() {
            ls.provide_input(0, sid, &out).unwrap();
        }
        let _ = ls.do_handshake(0, sid);
        let back = ls.take_output(0, sid).unwrap();
        if !back.is_empty() {
            client.provide_input(&back);
            let _ = client.do_handshake();
        }
        if client.is_established() {
            break;
        }
    }
    let fin = client.take_output();
    if !fin.is_empty() {
        ls.provide_input(0, sid, &fin).unwrap();
        let _ = ls.do_handshake(0, sid);
    }
    assert!(client.is_established());

    // A client WITHOUT a certificate is rejected.
    let sid2 = ls.new_session(0).unwrap();
    let anon_cfg = libseal_tlsx::ssl::SslConfig::client(vec![ca.root_key()]);
    let mut anon = Ssl::new(anon_cfg, [4u8; 64]);
    anon.do_handshake().unwrap();
    let mut failed = false;
    for _ in 0..10 {
        let out = anon.take_output();
        if !out.is_empty() {
            ls.provide_input(0, sid2, &out).unwrap();
        }
        if ls.do_handshake(0, sid2).is_err() {
            failed = true;
            break;
        }
        let back = ls.take_output(0, sid2).unwrap();
        if !back.is_empty() {
            anon.provide_input(&back);
            if anon.do_handshake().is_err() {
                failed = true;
                break;
            }
        }
    }
    assert!(failed, "anonymous client must not complete the handshake");
}

#[test]
fn check_interval_triggers_automatically() {
    let _s = plat::failpoint::scenario(); // serialize with the enqueue-fault test
    let ca = CertificateAuthority::new("CA", &[1u8; 32]);
    let (key, cert) = ca.issue_identity("svc.test", &[2u8; 32]).unwrap();
    let cfg = LibSealConfig::builder(cert, key)
        .ssm(Arc::new(GitModule))
        .cost_model(CostModel::free())
        .check_interval(3)
        .build();
    let ls = LibSeal::new(cfg).unwrap();
    let sid = ls.new_session(0).unwrap();
    let mut client = Ssl::new(
        libseal_tlsx::ssl::SslConfig::client(vec![ca.root_key()]),
        [3u8; 64],
    );
    client.do_handshake().unwrap();
    let mut rig = TestRig { ls, client, sid };
    // Complete the handshake using the same pump as rig().
    for _ in 0..10 {
        let out = rig.client.take_output();
        if !out.is_empty() {
            rig.ls.provide_input(0, rig.sid, &out).unwrap();
        }
        let _ = rig.ls.do_handshake(0, rig.sid);
        let back = rig.ls.take_output(0, rig.sid).unwrap();
        if !back.is_empty() {
            rig.client.provide_input(&back);
            let _ = rig.client.do_handshake();
        }
        if rig.client.is_established() {
            break;
        }
    }
    let fin = rig.client.take_output();
    if !fin.is_empty() {
        rig.ls.provide_input(0, rig.sid, &fin).unwrap();
        let _ = rig.ls.do_handshake(0, rig.sid);
    }

    // 9 pushes => 3 automatic check+trim rounds; only the latest update
    // per branch survives. Checks drain on the background verifier, so
    // barrier on lag == 0 before inspecting the log.
    for i in 0..9 {
        push(&mut rig, "proj", &format!("x c{i} refs/heads/main\n"));
    }
    rig.ls.verifier_barrier().unwrap();
    assert_eq!(rig.ls.verifier_lag(), 0);
    // The last trim is staged; the next commit (here verify_log's
    // catch-up seal) rebuilds the chain and makes it durable.
    rig.ls.verify_log(0).unwrap();
    let (entries, _, _) = rig.ls.log_stats(0).unwrap();
    assert!(
        entries <= 3,
        "auto-trim should bound the log, got {entries}"
    );
}

/// A due check the verifier does not take — here an injected
/// `core::verifier::enqueue` fault, in production a verifier that has
/// shut down — is not lost: it runs inline on the request path, trim
/// included, so the log stays bounded.
#[test]
fn an_enqueue_fault_runs_the_due_check_inline_and_the_log_stays_bounded() {
    let s = plat::failpoint::scenario();
    s.set(
        "core::verifier::enqueue",
        plat::failpoint::FaultSpec::error(),
    );
    let ca = CertificateAuthority::new("CA", &[1u8; 32]);
    let (key, cert) = ca.issue_identity("svc.test", &[2u8; 32]).unwrap();
    let cfg = LibSealConfig::builder(cert, key)
        .ssm(Arc::new(GitModule))
        .cost_model(CostModel::free())
        .check_interval(3)
        .build();
    let mut rig = handshake(LibSeal::new(cfg).unwrap(), &ca);
    for i in 0..9 {
        push(&mut rig, "proj", &format!("x c{i} refs/heads/main\n"));
    }
    // 9 pushes => 3 due checks, each refused by the queue and run on
    // the spot: nothing to wait for before inspecting the log.
    assert_eq!(s.hits("core::verifier::enqueue"), 3);
    assert_eq!(rig.ls.verifier_lag(), 0);
    let (entries, _, _) = rig.ls.log_stats(0).unwrap();
    assert!(
        entries <= 3,
        "inline auto-trim should bound the log, got {entries}"
    );
    rig.ls.verifier_barrier().unwrap();
    rig.ls.verify_log(0).unwrap();
}

#[test]
fn garbage_streams_cannot_exhaust_enclave_memory() {
    // A peer streaming a request that never completes (a huge declared
    // Content-Length) must hit the audit buffer cap, not grow enclave
    // memory forever (§6.3 interface hardening). Provably-malformed
    // bytes are dropped instead (see ssl_read), so the cap guards the
    // Incomplete-forever case. Use a small configured cap so the test
    // is fast.
    let ca = CertificateAuthority::new("CA", &[1u8; 32]);
    let (key, cert) = ca.issue_identity("svc.test", &[2u8; 32]).unwrap();
    let cfg = LibSealConfig::builder(cert, key)
        .ssm(Arc::new(GitModule))
        .cost_model(CostModel::free())
        .check_interval(0)
        .max_message_buffer(1024 * 1024)
        .build();
    let ls = LibSeal::new(cfg).unwrap();
    let sid = ls.new_session(0).unwrap();
    let mut client = Ssl::new(SslConfig::client(vec![ca.root_key()]), [3u8; 64]);
    client.do_handshake().unwrap();
    let mut rig = TestRig { ls, client, sid };
    for _ in 0..10 {
        let out = rig.client.take_output();
        if !out.is_empty() {
            rig.ls.provide_input(0, rig.sid, &out).unwrap();
        }
        let _ = rig.ls.do_handshake(0, rig.sid);
        let back = rig.ls.take_output(0, rig.sid).unwrap();
        if !back.is_empty() {
            rig.client.provide_input(&back);
            let _ = rig.client.do_handshake();
        }
        if rig.client.is_established() {
            break;
        }
    }
    let fin = rig.client.take_output();
    if !fin.is_empty() {
        rig.ls.provide_input(0, rig.sid, &fin).unwrap();
        let _ = rig.ls.do_handshake(0, rig.sid);
    }
    rig.client
        .ssl_write(b"POST /upload HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n")
        .unwrap();
    let wire = rig.client.take_output();
    rig.ls.provide_input(0, rig.sid, &wire).unwrap();
    let _ = rig.ls.ssl_read(0, rig.sid);
    let junk = vec![b'#'; 256 * 1024];
    let mut rejected = false;
    for _ in 0..32 {
        rig.client.ssl_write(&junk).unwrap();
        let wire = rig.client.take_output();
        rig.ls.provide_input(0, rig.sid, &wire).unwrap();
        // Drain everything buffered, as a server loop would.
        loop {
            match rig.ls.ssl_read(0, rig.sid) {
                Ok(ReadOutcome::Data(_)) => {}
                Ok(_) => break,
                Err(e) => {
                    assert!(e.to_string().contains("buffer limit"), "{e}");
                    rejected = true;
                    break;
                }
            }
        }
        if rejected {
            break;
        }
    }
    assert!(rejected, "cap never enforced");
}

#[test]
fn malformed_response_is_forwarded_not_stalled() {
    // A service writing a non-HTTP response behind an audited instance
    // must not stall the client: the bytes pass through unaudited.
    let mut rig = rig(true);
    // Complete request first so pairing state is sane.
    rig.client
        .ssl_write(&Request::new("GET", "/weird", Vec::new()).to_bytes())
        .unwrap();
    let wire = rig.client.take_output();
    rig.ls.provide_input(0, rig.sid, &wire).unwrap();
    while let Ok(ReadOutcome::Data(_)) = rig.ls.ssl_read(0, rig.sid) {}

    // The "service" answers with garbage that can never parse as HTTP.
    rig.ls
        .ssl_write(0, rig.sid, &[b"TOTALLY-NOT-HTTP\r\n\r\nraw payload"])
        .unwrap();
    let wire = rig.ls.take_output(0, rig.sid).unwrap();
    assert!(!wire.is_empty(), "malformed response must still be sent");
    rig.client.provide_input(&wire);
    match rig.client.ssl_read().unwrap() {
        ReadOutcome::Data(d) => {
            assert_eq!(d, b"TOTALLY-NOT-HTTP\r\n\r\nraw payload");
        }
        other => panic!("client stalled: {other:?}"),
    }
}

/// The verifier's lag bound is hard: every audited pair reserves its
/// place in the due-check queue before the audit lock and hands it back
/// when no check falls due, so however many sessions write at once the
/// lag never exceeds `VERIFIER_LAG_BOUND` — and a violating pair is
/// detected at most `VERIFIER_LAG_BOUND × check_interval` pairs late.
#[test]
fn verifier_lag_stays_within_its_bound_under_concurrent_sessions() {
    let _s = plat::failpoint::scenario(); // serialize with the enqueue-fault test
    use std::sync::atomic::{AtomicBool, Ordering};
    const SESSIONS: usize = 16;
    const PUSHES: usize = 12;
    let ca = CertificateAuthority::new("CA", &[1u8; 32]);
    let (key, cert) = ca.issue_identity("svc.test", &[2u8; 32]).unwrap();
    let cfg = LibSealConfig::builder(cert, key)
        .ssm(Arc::new(GitModule))
        .cost_model(CostModel::free())
        .check_interval(1)
        // Every session parks inside an ecall at the commit barrier;
        // the sealer and the verifier need slots of their own.
        .tcs_count(64)
        .build();
    let ls = LibSeal::new(cfg).unwrap();
    let rigs: Vec<TestRig> = (0..SESSIONS)
        .map(|_| handshake(Arc::clone(&ls), &ca))
        .collect();

    let done = Arc::new(AtomicBool::new(false));
    let watcher = {
        let (ls, done) = (Arc::clone(&ls), Arc::clone(&done));
        std::thread::spawn(move || {
            let mut max = 0;
            while !done.load(Ordering::SeqCst) {
                max = max.max(ls.verifier_lag());
                std::thread::yield_now();
            }
            max
        })
    };
    let start = Arc::new(std::sync::Barrier::new(SESSIONS));
    let writers: Vec<_> = rigs
        .into_iter()
        .enumerate()
        .map(|(n, mut rig)| {
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                for i in 0..PUSHES {
                    push(
                        &mut rig,
                        &format!("repo{n}"),
                        &format!("x c{i} refs/heads/main\n"),
                    );
                }
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }
    done.store(true, Ordering::SeqCst);
    let max = watcher.join().unwrap();
    assert!(
        max <= libseal::queue::VERIFIER_LAG_BOUND as u64,
        "verifier lag reached {max}"
    );
    ls.verify_log(0).unwrap();
}
