//! The stage trace: one thread, no sockets. Generated messages are
//! walked through each layer's public functions in pipeline order with
//! a span around every call; a stage's cost is the median, over ops,
//! of the time its spans took within one op.

use std::collections::BTreeMap;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Instant;

use libseal::log::{AuditLog, CommitMode, LogBacking};
use libseal::{
    AuditPlane, Checker, GitModule, IdentityIssuer, LibSeal, LibSealConfig, ServiceModule,
    SessionInput,
};
use libseal_crypto::aead::ChaCha20Poly1305;
use libseal_crypto::ed25519::SigningKey;
use libseal_crypto::sha2::Sha256;
use libseal_crypto::x25519;
use libseal_httpx::http::{self, Request, Response};
use libseal_httpx::json::Json;
use libseal_lthread::{JobPool, PoolConfig};
use libseal_sealdb::{Database, Value};
use libseal_sgxsim::enclave::EnclaveBuilder;
use libseal_sgxsim::CostModel;
use libseal_tlsx::cert::CertificateAuthority;
use libseal_tlsx::record::{ContentType, RecordKeys};
use libseal_tlsx::ssl::{ReadOutcome, Role, Ssl, SslConfig};

use crate::gen::{Rng, Script};
use crate::out_dir;
use crate::readback::{honest_pairs, log_pairs, open_log, rote_cluster, Audited};
use crate::span::{per_op_ns, Span, Tracer};
use crate::stats::percentile;

/// Ops walked through the cheap stages.
const OPS: u64 = 40;
/// Ops through the log stages; every [`CHECK_EVERY`]-th also checks
/// and trims, as the background verifier does in production.
const LOG_OPS: u64 = 200;
const CHECK_EVERY: u64 = 25;
/// Pairs in the logs the full-scan stages read, and how often.
const KPAIRS: u64 = 1000;
const KPAIR_ROUNDS: u64 = 3;
const RECORD: usize = 16 * 1024;

/// Median cost per stage in microseconds, and the spans behind them.
pub struct StageTrace {
    pub cost_us: BTreeMap<&'static str, f64>,
    /// Journal growth per logged Git pair (append + seal + flush).
    pub journal_bytes_per_op: f64,
    pub spans: Vec<Span>,
}

/// Walks the stages. `script` is the workload's own request stream,
/// which feeds the request-shaped stage.
pub fn run(seed: u64, script: &mut dyn Script) -> StageTrace {
    let mut t = Tracer::new(Instant::now());
    let mut rng = Rng::stream(seed, "stages", 0, 0);

    primitives(&mut t, &mut rng);
    handshakes(&mut t, &mut rng);
    parsing(&mut t, &mut rng, script);
    small_layers(&mut t);
    sessions(&mut t, &mut rng);
    let journal_bytes_per_op = log_writes(&mut t, seed);
    let scale = log_reads(&mut t, seed);

    let spans = t.into_spans();
    let mut names: Vec<&'static str> = spans.iter().map(|s| s.name).collect();
    names.sort_unstable();
    names.dedup();
    let cost_us = names
        .into_iter()
        // Stage spans carry their metric's name; helpers do not.
        .filter(|n| n.contains('.'))
        .map(|name| {
            let mut per_op = per_op_ns(&spans, name);
            per_op.sort_unstable();
            let us = percentile(&per_op, 0.5) as f64 / 1e3;
            (name, us * scale.get(name).copied().unwrap_or(1.0))
        })
        .collect();
    StageTrace {
        cost_us,
        journal_bytes_per_op,
        spans,
    }
}

/// Runs `body` once per op under an `op` root span.
fn for_ops(t: &mut Tracer, first: u64, ops: u64, mut body: impl FnMut(&mut Tracer, u64)) {
    for op in first..first + ops {
        let root = t.enter("op", op);
        body(t, op);
        t.exit(root);
    }
}

fn key32(rng: &mut Rng) -> [u8; 32] {
    rng.bytes(32).try_into().expect("32 bytes")
}

fn entropy(rng: &mut Rng) -> [u8; 64] {
    rng.bytes(64).try_into().expect("64 bytes")
}

/// `crypto`: the primitives the handshake and the record layer use.
fn primitives(t: &mut Tracer, rng: &mut Rng) {
    let record = rng.bytes(RECORD);
    let signer = SigningKey::from_seed(&key32(rng));
    let verifier = signer.verifying_key();
    let aead = ChaCha20Poly1305::new(&key32(rng));
    let peer = x25519::public_key(&key32(rng));
    for_ops(t, 0, OPS, |t, op| {
        let (secret, nonce) = (key32(rng), [op as u8; 12]);
        t.span("crypto.x25519_us", op, || {
            x25519::shared_secret(&secret, &peer)
        });
        let sig = t.span("crypto.ed25519_sign_us", op, || signer.sign(&record[..256]));
        t.span("crypto.ed25519_verify_us", op, || {
            verifier
                .verify(&record[..256], &sig)
                .expect("own signature")
        });
        t.span("crypto.sha256_16k_us", op, || Sha256::digest(&record));
        let sealed = t.span("crypto.aead_seal_16k_us", op, || {
            aead.seal(&nonce, b"", &record)
        });
        t.span("crypto.aead_open_16k_us", op, || {
            aead.open(&nonce, b"", &sealed).expect("own seal")
        });
    });
}

/// Drives an in-memory handshake, timing the client's calls as
/// `client_span` and the server's through `server`.
fn handshake(
    t: &mut Tracer,
    op: u64,
    client: &mut Ssl,
    client_span: &'static str,
    mut server: impl FnMut(&mut Tracer, Vec<u8>) -> (Vec<u8>, bool),
) {
    for _ in 0..12 {
        let to_server = t.span(client_span, op, || {
            let _ = client.do_handshake();
            client.take_output()
        });
        let (to_client, server_done) = server(t, to_server);
        t.span(client_span, op, || {
            client.provide_input(&to_client);
            let _ = client.do_handshake();
        });
        if client.is_established() && server_done && !client.has_output() {
            return;
        }
    }
    panic!("in-memory handshake did not complete");
}

/// `tlsx`: both ends of a handshake, the attested client, and the
/// record layer on full records.
fn handshakes(t: &mut Tracer, rng: &mut Rng) {
    let ca = CertificateAuthority::new("StageCA", &[0x61; 32]);
    let (key, cert) = ca
        .issue_identity("localhost", &[0x62; 32])
        .expect("identity");
    let server_cfg = SslConfig::server(cert, key);
    let client_cfg = SslConfig::client(vec![ca.root_key()]);

    // The attested server is an enclave session: its key never leaves.
    let issuer = Arc::new(IdentityIssuer::from_seeds(
        "StageRA",
        &[0x63; 32],
        &[0x64; 32],
    ));
    let attested = LibSeal::new(LibSealConfig::attested(Arc::clone(&issuer), "localhost").build())
        .expect("attested plane");
    let attested_cfg = Arc::new(SslConfig {
        role: Role::Client,
        cert: None,
        key: None,
        ca_roots: vec![issuer.ca_root()],
        verify_peer: true,
        expected_subject: Some("localhost".to_string()),
        attestation: Some(Arc::new(issuer.policy_for(vec![attested.measurement()]))),
    });
    let attested_handshake = |t: &mut Tracer, op: u64, span: &'static str, rng: &mut Rng| {
        let sid = attested.new_session(0).expect("session");
        let mut client = Ssl::new(Arc::clone(&attested_cfg), entropy(rng));
        handshake(t, op, &mut client, span, |_, input| {
            attested.provide_input(0, sid, &input).expect("input");
            let done = attested.do_handshake(0, sid).expect("server handshake");
            (attested.take_output(0, sid).expect("output"), done)
        });
        attested.close_session(0, sid).expect("close");
    };
    // Warm the quote-verdict memo: the metric is the warm handshake.
    attested_handshake(&mut Tracer::new(Instant::now()), 0, "warm", rng);

    let seal_key = key32(rng);
    let (mut sealer, mut opener) = (
        RecordKeys::new(&seal_key, &[9; 12]),
        RecordKeys::new(&seal_key, &[9; 12]),
    );
    let record = rng.bytes(RECORD);

    for_ops(t, 100, OPS, |t, op| {
        let mut client = Ssl::new(Arc::clone(&client_cfg), entropy(rng));
        let mut server = Ssl::new(Arc::clone(&server_cfg), entropy(rng));
        handshake(
            t,
            op,
            &mut client,
            "tlsx.handshake_client_us",
            |t, input| {
                t.span("tlsx.handshake_server_us", op, || {
                    server.provide_input(&input);
                    let _ = server.do_handshake();
                    (server.take_output(), server.is_established())
                })
            },
        );
        attested_handshake(t, op, "tlsx.handshake_attested_client_us", rng);
        let sealed = t.span("tlsx.record_seal_16k_us", op, || {
            sealer.seal(ContentType::AppData, &record)
        });
        t.span("tlsx.record_open_16k_us", op, || {
            opener
                .open(ContentType::AppData, &sealed)
                .expect("own record")
        });
    });
}

/// `httpx`: the workload's own requests, a 256 KiB upload, and a
/// Dropbox listing.
fn parsing(t: &mut Tracer, rng: &mut Rng, script: &mut dyn Script) {
    let upload = Request::new("POST", "/content/0", rng.bytes(256 * 1024)).to_bytes();
    let listing = honest_pairs(Audited::Dropbox, rng.clone(), 40)
        .into_iter()
        .filter_map(|(_, rsp)| http::parse_response(&rsp).ok())
        .map(|(rsp, _)| rsp.body)
        .max_by_key(Vec::len)
        .expect("a listing");
    for_ops(t, 200, OPS, |t, op| {
        let wire = script.next_request().to_bytes();
        // Keep the script's model in step; the response is not used.
        let _ = script.check(&Response::new(599, Vec::new()));
        t.span("httpx.parse_request_us", op, || {
            http::parse_request(&wire).expect("own request")
        });
        t.span("httpx.parse_request_256k_us", op, || {
            http::parse_request(&upload).expect("own upload")
        });
        t.span("httpx.json_parse_us", op, || {
            Json::parse_bytes(&listing).expect("own listing")
        });
    });
}

/// `sgxsim`, `lthread`, `sealdb`, `rote`: one call each.
fn small_layers(t: &mut Tracer) {
    let enclave = EnclaveBuilder::new(b"libseal-benchmark-stage")
        .declare_interface("noop")
        .cost_model(CostModel::default())
        .build(|_| ());
    let pool = JobPool::new(PoolConfig::default());
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let mut db = Database::new();
    db.execute("CREATE TABLE t(k INTEGER, v TEXT)")
        .expect("table");
    db.execute("CREATE INDEX t_k ON t(k)").expect("index");
    let insert = |db: &mut Database, k: i64| {
        db.execute_with(
            "INSERT INTO t VALUES (?, ?)",
            &[Value::Integer(k), Value::Text(format!("value-{k}"))],
        )
        .expect("insert")
    };
    (0..1000).for_each(|k| {
        insert(&mut db, k);
    });
    let cluster = rote_cluster();
    for_ops(t, 300, OPS, |t, op| {
        t.span("sgxsim.ecall_us", op, || {
            enclave.ecall("noop", |_, _| ()).expect("ecall")
        });
        t.span("lthread.pool_dispatch_us", op, || {
            let tx = done_tx.clone();
            pool.spawn(move || tx.send(()).expect("stage waits"))
                .expect("pool accepts");
            done_rx.recv().expect("job ran")
        });
        t.span("sealdb.insert_us", op, || insert(&mut db, 1000 + op as i64));
        t.span("sealdb.point_query_us", op, || {
            db.query(
                "SELECT v FROM t WHERE k = ?",
                &[Value::Integer(op as i64 * 7)],
            )
            .expect("query")
        });
        t.span("rote.increment_us", op, || {
            cluster.increment().expect("quorum")
        });
    });
    pool.shutdown();
}

/// `core` sessions: a handshake and one request through the audited
/// plane's batched pump against an in-memory client. The request is
/// static content, which the Git module does not log, so this is the
/// session layer without the log.
fn sessions(t: &mut Tracer, rng: &mut Rng) {
    let ca = CertificateAuthority::new("StageCA", &[0x61; 32]);
    let (key, cert) = ca
        .issue_identity("localhost", &[0x62; 32])
        .expect("identity");
    let plane = LibSeal::new(
        LibSealConfig::builder(cert, key)
            .ssm(Arc::new(GitModule))
            .build(),
    )
    .expect("plane");
    let client_cfg = SslConfig::client(vec![ca.root_key()]);
    let request = Request::new("GET", "/content/1024", Vec::new()).to_bytes();
    let response = Response::new(200, vec![b'x'; 1024]).to_bytes();
    let pump = |sid: u64, input: Vec<u8>| {
        let mut out = plane
            .pump_batch(0, vec![SessionInput { sid, input }])
            .expect("pump");
        let outcome = out.pop().expect("one outcome");
        assert!(
            outcome.error.is_none(),
            "session failed: {:?}",
            outcome.error
        );
        outcome
    };
    for_ops(t, 400, OPS, |t, op| {
        let mut client = Ssl::new(Arc::clone(&client_cfg), entropy(rng));
        let sid = t.span("core.session_handshake_us", op, || {
            plane.open_session(0, op).expect("session")
        });
        handshake(t, op, &mut client, "client", |t, input| {
            t.span("core.session_handshake_us", op, || {
                let outcome = pump(sid, input);
                (outcome.output, outcome.established)
            })
        });
        client.ssl_write(&request).expect("client write");
        let wire = client.take_output();
        let reply = t.span("core.session_pump_us", op, || {
            let outcome = pump(sid, wire);
            assert_eq!(outcome.data, request, "pump surfaced the request");
            plane.ssl_write_take(0, sid, &response).expect("write+take")
        });
        client.provide_input(&reply);
        match client.ssl_read().expect("client read") {
            ReadOutcome::Data(data) => assert_eq!(data, response),
            other => panic!("client read {other:?}"),
        }
        plane.close_session(0, sid).expect("close");
    });
}

fn staged_log(service: Audited, backing: LogBacking) -> (AuditLog, Arc<dyn ServiceModule>) {
    let module = service.module();
    let mut log = open_log(backing, module.as_ref(), Some(&rote_cluster())).expect("stage log");
    log.set_commit_mode(CommitMode::Staged);
    Checker::install(module.as_ref(), &mut log).expect("views");
    (log, module)
}

/// `core` log writes: each module's `log_pair`, a staged append, the
/// seal, the flush, and every 25th op the incremental check and trim.
/// Returns the journal growth per Git pair.
fn log_writes(t: &mut Tracer, seed: u64) -> f64 {
    let path = out_dir().join(format!("stage-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let (mut git, git_module) = staged_log(Audited::Git, LogBacking::Disk(path.clone()));
    let (mut oc, oc_module) = staged_log(Audited::OwnCloud, LogBacking::Memory);
    let (mut dbx, dbx_module) = staged_log(Audited::Dropbox, LogBacking::Memory);
    let pairs =
        |service, client| honest_pairs(service, Rng::stream(seed, "stages", 1, client), LOG_OPS);
    let (git_pairs, oc_pairs, dbx_pairs) = (
        pairs(Audited::Git, 0),
        pairs(Audited::OwnCloud, 1),
        pairs(Audited::Dropbox, 2),
    );
    let mut growth = Vec::new();
    for_ops(t, 500, LOG_OPS, |t, op| {
        let i = (op - 500) as usize;
        let before = git.journal_size_bytes();
        t.span("core.ssm_git_log_pair_us", op, || {
            git_module
                .log_pair(&git_pairs[i].0, &git_pairs[i].1, &mut git)
                .expect("git pair")
        });
        t.span("core.log_seal_us", op, || git.seal().expect("seal"));
        t.span("core.log_flush_us", op, || git.flush().expect("flush"));
        growth.push(git.journal_size_bytes() - before);
        t.span("core.log_append_us", op, || {
            let time = git.next_time() as i64;
            let row = [
                Value::Integer(time),
                Value::Text("stage-repo".to_string()),
                Value::Text(format!("refs/heads/s{}", op % 4)),
                Value::Text(format!("{op:040x}")),
                Value::Text("update".to_string()),
            ];
            git.append("updates", &row).expect("append")
        });
        git.seal().expect("seal");
        t.span("core.ssm_owncloud_log_pair_us", op, || {
            oc_module
                .log_pair(&oc_pairs[i].0, &oc_pairs[i].1, &mut oc)
                .expect("owncloud pair")
        });
        oc.seal().expect("seal");
        t.span("core.ssm_dropbox_log_pair_us", op, || {
            dbx_module
                .log_pair(&dbx_pairs[i].0, &dbx_pairs[i].1, &mut dbx)
                .expect("dropbox pair")
        });
        dbx.seal().expect("seal");
        if (op + 1) % CHECK_EVERY == 0 {
            let outcome = t.span("core.check_incremental_us", op, || {
                Checker::run_checks_incremental(git_module.as_ref(), &mut git).expect("check")
            });
            assert_eq!(outcome.total_violations(), 0, "honest stage log");
            t.span("core.trim_us", op, || {
                git.trim(git_module.trim_queries()).expect("trim")
            });
        }
    });
    drop(git);
    let _ = std::fs::remove_file(&path);
    growth.sort_unstable();
    percentile(&growth, 0.5) as f64
}

/// `core` log reads on a [`KPAIRS`]-pair Git log: the full check, the
/// chain verification and the open-and-recover. Returns the factors
/// that scale each to a thousand pairs or entries.
fn log_reads(t: &mut Tracer, seed: u64) -> BTreeMap<&'static str, f64> {
    let path = out_dir().join(format!("stage-read-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let module = GitModule;
    let guard = rote_cluster();
    let pairs = honest_pairs(Audited::Git, Rng::stream(seed, "stages", 2, 0), KPAIRS);
    let mut log =
        open_log(LogBacking::Disk(path.clone()), &module, Some(&guard)).expect("read log");
    log_pairs(&mut log, &module, &pairs);
    log.flush().expect("flush");
    let entries = log.entries() as f64;
    for_ops(t, 800, KPAIR_ROUNDS, |t, op| {
        let outcome = t.span("core.check_full_us_per_kpair", op, || {
            Checker::run_checks(&module, &log).expect("full check")
        });
        assert_eq!(outcome.total_violations(), 0, "honest read log");
        t.span("core.verify_us_per_kentry", op, || {
            log.verify().expect("verify")
        });
    });
    drop(log);
    for_ops(t, 900, KPAIR_ROUNDS, |t, op| {
        t.span("core.open_recover_us_per_kentry", op, || {
            open_log(LogBacking::Disk(path.clone()), &module, Some(&guard)).expect("reopen")
        });
    });
    let _ = std::fs::remove_file(&path);
    BTreeMap::from([
        ("core.check_full_us_per_kpair", 1000.0 / KPAIRS as f64),
        ("core.verify_us_per_kentry", 1000.0 / entries),
        ("core.open_recover_us_per_kentry", 1000.0 / entries),
    ])
}
