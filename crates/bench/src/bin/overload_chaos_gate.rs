//! CI gate: hostile-network hardening must hold under fire.
//!
//!   1. **Chaos** — a deterministic fault matrix (resets, truncation,
//!      short reads, delays at handshake/head/body/response) against
//!      both serving modes: zero panics, the server keeps serving
//!      clean clients, and `verify_log` stays clean afterwards.
//!   2. **Overload** — at 2x the connection cap the excess is shed
//!      fast (refusal latency bounded) while established connections
//!      keep their p99 within budget.
//!   3. **Drain** — a graceful drain under load completes within its
//!      deadline, answers the in-flight request, and the audit chain
//!      verifies afterwards.
//!
//! ```sh
//! cargo run --release -p libseal-bench --bin overload_chaos_gate
//! ```

use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use libseal::{GitModule, LibSeal};
use libseal_bench::*;
use libseal_httpx::http::{parse_response, Request};
use libseal_services::apache::{ApacheConfig, ApacheServer, StaticContentRouter};
use libseal_services::{HttpsClient, LoadGenerator, TlsMode};
use libseal_tlsx::ssl::SslConfig;
use libseal_tlsx::stream::SslStream;
use plat::chaos::{ChaosConfig, ChaosStream};

/// Connection cap for the overload half.
const CAP: usize = 16;
/// Established-connection p99 budget while 2x CAP excess hammers the
/// listener (free cost model, 256 B bodies, loopback).
const P99_BUDGET: Duration = Duration::from_millis(250);
/// An excess connection must be refused within this long.
const SHED_BUDGET: Duration = Duration::from_millis(500);
/// The drain must finish within its deadline plus this slack.
const DRAIN_SLACK: Duration = Duration::from_secs(3);

fn instance(id: &BenchIdentity) -> Arc<LibSeal> {
    LibSeal::new(id.unpriced().ssm(Arc::new(GitModule)).build()).expect("libseal")
}

/// One chaotic client attempt; every outcome except a panic is fine.
fn chaotic_attempt(id: &BenchIdentity, addr: std::net::SocketAddr, cfg: ChaosConfig) {
    let Ok(sock) = TcpStream::connect(addr) else {
        return;
    };
    let _ = sock.set_nodelay(true);
    let _ = sock.set_read_timeout(Some(Duration::from_millis(500)));
    let chaotic = ChaosStream::new(sock, cfg);
    let mut entropy = [0u8; 64];
    plat::entropy::fill(&mut entropy);
    let Ok(mut tls) = SslStream::handshake(SslConfig::client(id.roots()), entropy, chaotic) else {
        return;
    };
    let req = Request::new("GET", "/content/256", Vec::new());
    if tls.write_all(&req.to_bytes()).is_err() {
        return;
    }
    let mut buf = Vec::new();
    for _ in 0..64 {
        match tls.read_some() {
            Ok(d) => buf.extend_from_slice(&d),
            Err(_) => return,
        }
        if parse_response(&buf).is_ok() {
            return;
        }
    }
}

/// Resets and truncations at handshake (early ops), head/body (middle)
/// and response (late), plus probabilistic degradation blends.
fn fault_matrix() -> Vec<ChaosConfig> {
    let mut cases = Vec::new();
    for op in [1, 2, 4, 8, 16, 32, 64] {
        cases.push(ChaosConfig::new(100 + op).reset_at(op));
        cases.push(ChaosConfig::new(200 + op).truncate_at(op));
    }
    cases.push(ChaosConfig::new(301).shorts(400));
    cases.push(
        ChaosConfig::new(302)
            .shorts(250)
            .delays(100, Duration::from_millis(1)),
    );
    cases.push(
        ChaosConfig::new(303)
            .shorts(300)
            .delays(50, Duration::from_millis(2))
            .reset_at(50),
    );
    cases
}

fn chaos_gate(id: &BenchIdentity) -> Result<(), String> {
    for event in [true, false] {
        if event && !plat::reactor::supported() {
            continue;
        }
        let ls = instance(id);
        let server = ApacheServer::start(
            ApacheConfig::new(TlsMode::LibSeal(ls.clone()), Arc::new(StaticContentRouter))
                .workers(2)
                .event_loop(event)
                .handshake_timeout(Duration::from_millis(400))
                .header_timeout(Duration::from_millis(400))
                .body_timeout(Duration::from_millis(600)),
        )
        .map_err(|e| format!("server start (event={event}): {e}"))?;

        let cases = fault_matrix();
        let n = cases.len();
        for cfg in cases {
            chaotic_attempt(id, server.addr(), cfg);
        }

        let client = HttpsClient::new(server.addr(), id.roots(), "localhost");
        for i in 0..5 {
            let rsp = client
                .request(&Request::new("GET", "/content/128", Vec::new()))
                .map_err(|e| format!("clean request #{i} after chaos (event={event}): {e}"))?;
            if rsp.status != 200 {
                return Err(format!(
                    "clean request #{i} after chaos (event={event}): status {}",
                    rsp.status
                ));
            }
        }
        server.stop();
        ls.verify_log(0)
            .map_err(|e| format!("verify_log after chaos (event={event}): {e}"))?;
        println!("chaos: {n} fault cases survived (event={event}), audit chain verified");
    }
    Ok(())
}

fn overload_gate(id: &BenchIdentity) -> Result<(), String> {
    if !plat::reactor::supported() {
        println!("overload: reactor unsupported, skipping");
        return Ok(());
    }
    let ls = instance(id);
    let server = ApacheServer::start(
        ApacheConfig::new(TlsMode::LibSeal(ls.clone()), Arc::new(StaticContentRouter))
            .workers(4)
            .max_connections(CAP),
    )
    .map_err(|e| format!("server start: {e}"))?;
    let client = HttpsClient::new(server.addr(), id.roots(), "localhost");

    // Fill the cap with established connections.
    let mut held = Vec::with_capacity(CAP);
    for i in 0..CAP {
        let mut conn = client
            .connect()
            .map_err(|e| format!("fill connect #{i}: {e}"))?;
        conn.request(&Request::new("GET", "/content/16", Vec::new()))
            .map_err(|e| format!("fill request #{i}: {e}"))?;
        held.push(conn);
    }

    // 2x the cap in excess: every attempt must be refused, fast.
    let mut slowest_shed = Duration::ZERO;
    let mut refused = 0usize;
    for _ in 0..2 * CAP {
        let t0 = Instant::now();
        if client.connect().is_err() {
            refused += 1;
            slowest_shed = slowest_shed.max(t0.elapsed());
        }
    }
    if refused < 2 * CAP {
        return Err(format!(
            "only {refused}/{} excess connections refused at the cap",
            2 * CAP
        ));
    }
    if slowest_shed > SHED_BUDGET {
        return Err(format!(
            "slowest shed took {slowest_shed:?} (budget {SHED_BUDGET:?}) — refusal is not fast"
        ));
    }

    // Established connections keep serving within the latency budget
    // while more excess traffic stampedes with backoff.
    let addr = server.addr();
    let roots = id.roots();
    let stampede = std::thread::spawn(move || {
        let excess = HttpsClient::new(addr, roots, "localhost");
        LoadGenerator {
            clients: CAP,
            duration: Duration::from_secs(2),
            persistent: false,
            shed_backoff: Some(Duration::from_millis(10)),
        }
        .run(&excess, |_, _| {
            Request::new("GET", "/content/16", Vec::new())
        })
    });
    let hist = libseal_telemetry::Histogram::new();
    let t_end = Instant::now() + Duration::from_secs(2);
    while Instant::now() < t_end {
        for (i, conn) in held.iter_mut().enumerate() {
            let t0 = Instant::now();
            let rsp = conn
                .request(&Request::new("GET", "/content/256", Vec::new()))
                .map_err(|e| format!("established conn #{i} died under overload: {e}"))?;
            if rsp.status != 200 {
                return Err(format!("established conn #{i}: status {}", rsp.status));
            }
            hist.record_duration(t0.elapsed());
        }
    }
    let excess_stats = stampede.join().expect("stampede thread");
    let p99 = hist.snapshot().percentile_duration(0.99);
    println!(
        "overload: {refused} excess refused (slowest {slowest_shed:?}), established p99 {p99:?}, \
         stampede sheds {}",
        excess_stats.shed
    );
    if p99 > P99_BUDGET {
        return Err(format!(
            "established p99 {p99:?} above budget {P99_BUDGET:?} under 2x-cap overload"
        ));
    }
    if excess_stats.shed == 0 {
        return Err("the stampede load generator observed no sheds at 2x cap".into());
    }
    for conn in &mut held {
        conn.close();
    }
    server.stop();
    ls.verify_log(0)
        .map_err(|e| format!("verify_log after overload: {e}"))?;
    Ok(())
}

fn drain_gate(id: &BenchIdentity) -> Result<(), String> {
    let ls = instance(id);
    let drain_timeout = Duration::from_secs(5);
    let server = ApacheServer::start(
        ApacheConfig::new(TlsMode::LibSeal(ls.clone()), Arc::new(StaticContentRouter))
            .workers(2)
            .drain_timeout(drain_timeout),
    )
    .map_err(|e| format!("server start: {e}"))?;
    let addr = server.addr();
    let client = HttpsClient::new(addr, id.roots(), "localhost");
    for i in 0..8 {
        client
            .request(&Request::new("GET", "/content/64", Vec::new()))
            .map_err(|e| format!("seed request #{i}: {e}"))?;
    }
    let roots = id.roots();
    let inflight = std::thread::spawn(move || {
        let client = HttpsClient::new(addr, roots, "localhost");
        client.request(&Request::new("GET", "/content/128", Vec::new()))
    });
    std::thread::sleep(Duration::from_millis(30));
    let t0 = Instant::now();
    server.drain();
    let took = t0.elapsed();
    if took > drain_timeout + DRAIN_SLACK {
        return Err(format!(
            "drain took {took:?}, deadline was {drain_timeout:?} (+{DRAIN_SLACK:?} slack)"
        ));
    }
    match inflight.join().expect("inflight thread") {
        Ok(rsp) if rsp.status == 200 => {}
        Ok(rsp) => return Err(format!("in-flight request got status {}", rsp.status)),
        Err(e) => return Err(format!("in-flight request dropped during drain: {e}")),
    }
    ls.verify_log(0)
        .map_err(|e| format!("verify_log after drain: {e}"))?;
    println!("drain: completed in {took:?}, in-flight answered, chain verified");
    Ok(())
}

fn main() {
    let id = BenchIdentity::new();
    let mut failed = false;
    for (name, result) in [
        ("chaos", chaos_gate(&id)),
        ("overload", overload_gate(&id)),
        ("drain", drain_gate(&id)),
    ] {
        if let Err(e) = result {
            eprintln!("FAIL: {name} gate: {e}");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("overload/chaos gate passed");
}
