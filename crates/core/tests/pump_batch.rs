//! The batched TLS pump: many sessions progress through **one**
//! enclave transition per readiness sweep (`tls_batch`), the entry the
//! event-driven serve loops drain ready sockets through. These tests
//! drive LibSEAL exclusively via [`LibSeal::pump_batch`] +
//! [`LibSeal::ssl_write_take`] — no per-session provide_input /
//! do_handshake / ssl_read calls — and verify the audit pipeline and
//! the transition accounting underneath.

use std::sync::Arc;

use libseal::fleet::route_affinity;
use libseal::{AuditPlane, GitModule, LibSeal, LibSealConfig, LogBacking, SessionInput};
use libseal::{LibSealConfigBuilder, LibSealError, ShardedPlane};
use libseal_httpx::http::{parse_response, Request, Response};
use libseal_sealdb::Value;
use libseal_sgxsim::cost::CostModel;
use libseal_tlsx::cert::CertificateAuthority;
use libseal_tlsx::ssl::{ReadOutcome, Ssl, SslConfig};

struct Rig {
    ls: Arc<LibSeal>,
    clients: Vec<(u64, Ssl)>,
}

fn rig(n: usize, audited: bool) -> Rig {
    rig_with(n, |b| {
        if audited {
            b.ssm(Arc::new(GitModule))
        } else {
            b
        }
    })
}

fn rig_with(n: usize, configure: impl FnOnce(LibSealConfigBuilder) -> LibSealConfigBuilder) -> Rig {
    let ca = CertificateAuthority::new("CA", &[1u8; 32]);
    let (key, cert) = ca.issue_identity("svc.test", &[2u8; 32]).unwrap();
    let builder = LibSealConfig::builder(cert, key)
        .cost_model(CostModel::free())
        .backing(LogBacking::Memory)
        .check_interval(0);
    let ls = LibSeal::new(configure(builder).build()).unwrap();
    let clients = (0..n)
        .map(|i| {
            let sid = ls.new_session(0).unwrap();
            let mut entropy = [0u8; 64];
            entropy[0] = 3 + i as u8;
            let mut c = Ssl::new(SslConfig::client(vec![ca.root_key()]), entropy);
            c.do_handshake().unwrap();
            (sid, c)
        })
        .collect();
    Rig { ls, clients }
}

/// One readiness sweep: gather each client's pending wire bytes, pump
/// the whole set in a single batch, feed the produced ciphertext back.
/// Returns the per-session plaintext drained by the pump.
fn sweep(rig: &mut Rig) -> Vec<(u64, Vec<u8>)> {
    let items: Vec<SessionInput> = rig
        .clients
        .iter_mut()
        .map(|(sid, c)| SessionInput {
            sid: *sid,
            input: c.take_output(),
        })
        .collect();
    let outcomes = rig.ls.pump_batch(0, items).unwrap();
    let mut data = Vec::new();
    for o in outcomes {
        assert!(o.error.is_none(), "session {}: {:?}", o.sid, o.error);
        if !o.output.is_empty() {
            let (_, c) = rig
                .clients
                .iter_mut()
                .find(|(sid, _)| *sid == o.sid)
                .unwrap();
            c.provide_input(&o.output);
            let _ = c.do_handshake();
        }
        data.push((o.sid, o.data));
    }
    data
}

fn establish(rig: &mut Rig) {
    for _ in 0..12 {
        sweep(rig);
        if rig.clients.iter().all(|(_, c)| c.is_established()) {
            break;
        }
    }
    assert!(rig.clients.iter().all(|(_, c)| c.is_established()));
    // Flush the clients' final Finished flights into the server.
    sweep(rig);
    for (sid, _) in &rig.clients {
        assert!(
            rig.ls.shadow(*sid).unwrap().established,
            "shadow of {sid} not established"
        );
    }
}

#[test]
fn batched_pump_serves_many_sessions_and_logs_pairs() {
    let mut rig = rig(4, true);
    establish(&mut rig);

    // Every client pushes a distinct update in the same sweep.
    for (i, (_, c)) in rig.clients.iter_mut().enumerate() {
        let req = Request::new(
            "POST",
            "/repo/proj/git-receive-pack",
            format!("0 c{i} refs/heads/b{i}\n").into_bytes(),
        );
        c.ssl_write(&req.to_bytes()).unwrap();
    }
    let drained = sweep(&mut rig);
    // The "service" answers each request through the combined
    // write+take entry and the client decrypts the response.
    for (sid, data) in drained {
        assert!(
            libseal_httpx::http::parse_request(&data).is_ok(),
            "pump did not surface a complete request"
        );
        let rsp = Response::new(200, b"ok\n".to_vec());
        let wire = rig.ls.ssl_write_take(0, sid, &rsp.to_bytes()).unwrap();
        assert!(!wire.is_empty(), "write+take produced no ciphertext");
        let (_, c) = rig.clients.iter_mut().find(|(s, _)| *s == sid).unwrap();
        c.provide_input(&wire);
        let mut seen = Vec::new();
        loop {
            match c.ssl_read().unwrap() {
                ReadOutcome::Data(d) => {
                    seen.extend_from_slice(&d);
                    if let Ok((r, _)) = parse_response(&seen) {
                        assert_eq!(r.status, 200);
                        break;
                    }
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }
    let (entries, _, _) = rig.ls.log_stats(0).unwrap();
    assert_eq!(entries, 4, "one audited pair per session");
    rig.ls.verify_log(0).unwrap();

    // The sweeps were priced as batched transitions: one ecall
    // carrying many sessions, visible in the sgxsim counters.
    let snap = rig.ls.stats();
    assert!(snap.batch_ecalls > 0, "no batched ecalls recorded");
    assert_eq!(
        snap.batch_items,
        snap.by_name["tls_batch"] * 4,
        "each sweep must carry all 4 sessions"
    );
}

#[test]
fn batching_amortises_transitions_across_sessions() {
    // Serving N sessions through sweeps must take far fewer enclave
    // transitions than N per-session call sequences would: the whole
    // point of draining ready sessions through one ecall (§4.3).
    let mut rig = rig(8, false);
    rig.ls.reset_stats();
    establish(&mut rig);
    let batched = rig.ls.stats();
    let sweeps = batched.by_name["tls_batch"];
    assert!(sweeps > 0);
    // Per-call serving of 8 handshakes takes ≥ 3 ecalls per session
    // per round (provide_input + do_handshake + take_output); the
    // batch path must beat one ecall per session per round.
    assert!(
        batched.ecalls < 8 * sweeps,
        "batched path took {} ecalls over {} sweeps for 8 sessions",
        batched.ecalls,
        sweeps
    );
    assert_eq!(batched.batch_items, 8 * sweeps);
}

#[test]
fn per_session_failures_do_not_poison_the_batch() {
    let mut rig = rig(2, false);
    establish(&mut rig);

    // A batch mixing two live sessions and one unknown sid: the bogus
    // entry reports its error, the real ones still progress.
    let mut items: Vec<SessionInput> = rig
        .clients
        .iter_mut()
        .map(|(sid, c)| {
            c.ssl_write(b"ping").unwrap();
            SessionInput {
                sid: *sid,
                input: c.take_output(),
            }
        })
        .collect();
    items.push(SessionInput {
        sid: 9_999,
        input: vec![0xde, 0xad],
    });
    let outcomes = rig.ls.pump_batch(0, items).unwrap();
    assert_eq!(outcomes.len(), 3);
    let bogus = outcomes.iter().find(|o| o.sid == 9_999).unwrap();
    assert!(bogus.error.is_some(), "unknown sid must surface an error");
    for o in outcomes.iter().filter(|o| o.sid != 9_999) {
        assert!(o.error.is_none());
        assert_eq!(o.data, b"ping", "live sessions must still be served");
    }
}

#[test]
fn close_notify_is_reported_and_shadowed() {
    let mut rig = rig(1, false);
    establish(&mut rig);
    let (sid, client) = &mut rig.clients[0];
    let sid = *sid;
    client.send_close();
    let outcomes = rig
        .ls
        .pump_batch(
            0,
            vec![SessionInput {
                sid,
                input: client.take_output(),
            }],
        )
        .unwrap();
    assert!(outcomes[0].closed, "close_notify must be reported");
    assert!(rig.ls.shadow(sid).unwrap().closed, "shadow must record it");
}

/// §6.3: the audit buffer bound covers the complete requests queued
/// for pairing, not only the unparsed tail. The reactor keeps reading a
/// connection whose handler is busy, so without it a client that
/// pipelines requests and never reads its responses grows enclave
/// memory at line rate.
#[test]
fn pipelined_requests_are_bounded_by_the_audit_buffer() {
    const BOUND: usize = 4096;
    let audited = |b: LibSealConfigBuilder| b.ssm(Arc::new(GitModule)).max_message_buffer(BOUND);
    let fetch = |repo: usize| {
        let path = format!("/repo/r{repo}/info/refs?service=git-upload-pack");
        Request::new("GET", &path, Vec::new()).to_bytes()
    };
    let pump = |rig: &mut Rig, plain: &[u8]| {
        let (sid, client) = &mut rig.clients[0];
        client.ssl_write(plain).unwrap();
        let input = client.take_output();
        let item = SessionInput { sid: *sid, input };
        rig.ls.pump_batch(0, vec![item]).unwrap().remove(0)
    };

    // Within the bound, a pipelining session still pairs every response
    // with its request, in order: the repository comes from request i,
    // the branch from response i.
    let mut rig = rig_with(1, audited);
    establish(&mut rig);
    let n = BOUND / fetch(0).len() - 1;
    let burst: Vec<u8> = (0..n).flat_map(fetch).collect();
    let outcome = pump(&mut rig, &burst);
    assert!(outcome.error.is_none(), "{:?}", outcome.error);
    assert_eq!(outcome.data, burst, "the application sees every request");
    for i in 0..n {
        let rsp = Response::new(200, format!("c{i} refs/heads/b{i}\n").into_bytes());
        rig.ls
            .ssl_write_take(0, outcome.sid, &rsp.to_bytes())
            .unwrap();
    }
    let logged = rig
        .ls
        .with_log(0, |log| {
            log.query("SELECT repo, branch FROM advertisements ORDER BY time", &[])
        })
        .unwrap()
        .unwrap();
    let expected: Vec<Vec<Value>> = (0..n)
        .map(|i| {
            let text = |s: String| Value::Text(s);
            vec![text(format!("r{i}")), text(format!("refs/heads/b{i}"))]
        })
        .collect();
    assert_eq!(logged.rows, expected);
    // Every pair written: the queue is empty again, and a second burst
    // of the same size fits.
    assert!(pump(&mut rig, &burst).error.is_none());

    // Past the bound the session fails with the typed error, releases
    // nothing to the application, and the instance keeps serving.
    let mut rig = rig_with(2, audited);
    establish(&mut rig);
    let mut sent = 0;
    let failure = (0..20_000).step_by(10).find_map(|i| {
        let burst: Vec<u8> = (i..i + 10).flat_map(fetch).collect();
        sent += burst.len();
        let outcome = pump(&mut rig, &burst);
        assert!(
            sent <= BOUND || outcome.error.is_some(),
            "{sent} bytes of complete requests queued against a bound of {BOUND}"
        );
        outcome.error.map(|e| (e, outcome.data))
    });
    let (error, released) = failure.expect("pipelining past the bound must fail the session");
    assert!(
        matches!(&error, LibSealError::Log(m) if m == "request stream exceeds the audit buffer limit"),
        "{error:?}"
    );
    assert!(released.is_empty(), "refused bytes reached the application");
    rig.clients.remove(0);
    assert!(
        pump(&mut rig, &fetch(0)).error.is_none(),
        "other sessions serve on"
    );
}

/// `SessionOutcome`'s contract — failures are per-session, never the
/// whole batch — holds across shards too: when one shard's enclave
/// cannot be entered, its sessions fail and the other shards' outcomes
/// (input already consumed, output already taken) still come back.
#[test]
fn a_failing_shard_does_not_poison_the_other_shards_batch() {
    let ca = CertificateAuthority::new("CA", &[1u8; 32]);
    let (key, cert) = ca.issue_identity("svc.test", &[2u8; 32]).unwrap();
    let config = LibSealConfig::builder(cert, key)
        .ssm(Arc::new(GitModule))
        .cost_model(CostModel::free())
        .shards(2)
        .tcs_count(1)
        .epoch_interval(0)
        .build();
    let plane = ShardedPlane::open(config).unwrap();
    // One session per shard, each with a ClientHello to deliver.
    let hello = |shard: u32| {
        let affinity = (0..).find(|&a| route_affinity(a, 2) == shard);
        let sid = plane.open_session(0, affinity.unwrap()).unwrap();
        let mut client = Ssl::new(SslConfig::client(vec![ca.root_key()]), [3u8; 64]);
        client.do_handshake().unwrap();
        SessionInput {
            sid,
            input: client.take_output(),
        }
    };
    let (a, b) = (hello(0), hello(1));
    let (sid_a, sid_b) = (a.sid, b.sid);

    // Shard 1's only TCS is taken: its batch entry fails with OutOfTcs.
    let shard_b = plane.shard(1).unwrap();
    let hold = shard_b.enclave().enter_persistent().unwrap();
    let outcomes = plane
        .pump_batch(0, vec![a, b])
        .expect("one shard's failure is not the batch's");
    drop(hold);

    assert_eq!(outcomes.len(), 2);
    let of = |sid| outcomes.iter().find(|o| o.sid == sid).unwrap();
    assert!(of(sid_a).error.is_none(), "{:?}", of(sid_a).error);
    assert!(
        !of(sid_a).output.is_empty(),
        "shard 0's ServerHello is lost"
    );
    assert!(
        matches!(of(sid_b).error, Some(LibSealError::Log(_))),
        "{:?}",
        of(sid_b).error
    );
}
