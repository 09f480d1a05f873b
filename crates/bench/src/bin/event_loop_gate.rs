//! CI gate: the event-driven service core must deliver both halves of
//! its promise.
//!
//!   1. **Capacity** — one reactor thread holds ≥ 5000 concurrent
//!      established-and-idle STLS sessions (the thread-per-connection
//!      model would need 5000 stacks), and the parked sessions stay
//!      serviceable under concurrent active load.
//!      While they are parked and nothing is in flight the whole stack
//!      (reactor, job pool, sealer, verifier, ROTE workers, and the
//!      5000 idle clients in this process) stays under 2 % of a core:
//!      every hand-off sleeps on an event, none polls.
//!   2. **Amortisation** — batched pumps and fused write+take calls
//!      make the event path cross the enclave boundary measurably
//!      less often per request than the threaded baseline, confirmed
//!      by the sgxsim transition counters rather than wall-clock.
//!
//! ```sh
//! cargo run --release -p libseal-bench --bin event_loop_gate
//! ```

use std::sync::Arc;
use std::time::Duration;

use libseal::LibSeal;
use libseal_bench::*;
use libseal_httpx::http::Request;
use libseal_services::apache::{ApacheConfig, ApacheServer, StaticContentRouter};
use libseal_services::{HttpsClient, TlsMode};

/// Concurrent idle sessions one reactor must hold.
const MIN_IDLE_SESSIONS: usize = 5000;
/// CPU the process may use, as a share of one core, while every
/// session is parked and no request is in flight.
const MAX_IDLE_CPU_SHARE: f64 = 0.02;
/// How long the idle CPU share is measured for.
const IDLE_WINDOW: Duration = Duration::from_millis(500);
/// Event-mode transitions per request must be at most this fraction
/// of the threaded baseline ("measurably fewer", not noise).
const MAX_TRANSITION_RATIO: f64 = 0.9;

fn instance(id: &BenchIdentity) -> Arc<LibSeal> {
    // Zero the simulated transition tax: this gate counts boundary
    // crossings, it does not price them.
    LibSeal::new(id.unpriced().build()).expect("libseal")
}

/// Part 1: park `MIN_IDLE_SESSIONS` established sessions on one
/// reactor, run active load over them, prove they all still serve.
fn capacity_gate(id: &BenchIdentity) -> Result<(), String> {
    let ls = instance(id);
    let server = ApacheServer::start(
        ApacheConfig::new(TlsMode::LibSeal(ls), Arc::new(StaticContentRouter)).workers(2),
    )
    .expect("server");
    let client = HttpsClient::new(server.addr(), id.roots(), "localhost");

    let mut parked = Vec::with_capacity(MIN_IDLE_SESSIONS);
    for i in 0..MIN_IDLE_SESSIONS {
        let mut conn = client
            .connect()
            .map_err(|e| format!("connect #{i} failed: {e}"))?;
        let rsp = conn
            .request(&Request::new("GET", "/content/16", Vec::new()))
            .map_err(|e| format!("establish #{i} failed: {e}"))?;
        if rsp.status != 200 {
            return Err(format!("establish #{i}: status {}", rsp.status));
        }
        parked.push(conn);
    }
    let open = libseal_telemetry::gauge("services_event_open_connections").get();
    if open < MIN_IDLE_SESSIONS as i64 {
        return Err(format!(
            "reactor reports {open} open connections, need >= {MIN_IDLE_SESSIONS}"
        ));
    }

    // Active traffic while the crowd is parked.
    let mut active = client.connect().map_err(|e| e.to_string())?;
    for _ in 0..100 {
        let rsp = active
            .request(&Request::new("GET", "/content/512", Vec::new()))
            .map_err(|e| format!("active request failed: {e}"))?;
        if rsp.status != 200 {
            return Err(format!("active request: status {}", rsp.status));
        }
    }
    active.close();

    // Every parked session must still be alive.
    for (i, conn) in parked.iter_mut().enumerate() {
        let rsp = conn
            .request(&Request::new("GET", "/content/16", Vec::new()))
            .map_err(|e| format!("parked session #{i} died: {e}"))?;
        if rsp.status != 200 {
            return Err(format!("parked session #{i}: status {}", rsp.status));
        }
    }

    // Warm, full, and nothing to do: a thread that wakes on a timer to
    // look for work (instead of sleeping until work arrives) shows here.
    let cpu0 = live_threads_cpu_time();
    std::thread::sleep(IDLE_WINDOW);
    let idle_share = (live_threads_cpu_time() - cpu0).as_secs_f64() / IDLE_WINDOW.as_secs_f64();

    for conn in &mut parked {
        conn.close();
    }
    server.stop();
    println!(
        "capacity: {open} concurrent sessions held and re-served on one reactor; \
         idle CPU {:.2} % of a core (need < {:.0} %)",
        idle_share * 100.0,
        MAX_IDLE_CPU_SHARE * 100.0
    );
    if idle_share >= MAX_IDLE_CPU_SHARE {
        return Err(format!(
            "{:.2} % of a core burned with no request in flight — something polls",
            idle_share * 100.0
        ));
    }
    Ok(())
}

/// Part 2: enclave transitions per request, event vs threaded, under
/// 8 persistent clients fetching 256 bytes. Synchronous, asynchronous
/// and batched ecalls each cross the boundary once.
fn transitions_per_request(id: &BenchIdentity, event: bool) -> f64 {
    let p = Scenario {
        event_loop: event,
        workers: 8,
        clients: 8,
        stream: Stream::Get(256),
        ..Scenario::new(App::Static, TlsSide::Audited(instance(id), None))
    }
    .run();
    p.per_request(p.counts.ecalls + p.counts.async_ecalls + p.counts.batch_ecalls)
}

fn main() {
    let id = BenchIdentity::new();

    let capacity = capacity_gate(&id);

    let threaded = transitions_per_request(&id, false);
    let event = transitions_per_request(&id, true);
    let ratio = event / threaded.max(1e-9);
    print_table(
        "event-loop gate: enclave transitions per request (8 persistent clients)",
        &["serving model", "transitions/request"],
        &[
            vec!["threaded".into(), format!("{threaded:.2}")],
            vec!["event".into(), format!("{event:.2}")],
        ],
    );
    println!(
        "event/threaded transition ratio {ratio:.2} (need <= {MAX_TRANSITION_RATIO}); \
         capacity target {MIN_IDLE_SESSIONS} idle sessions"
    );

    let mut failed = false;
    if let Err(e) = capacity {
        eprintln!("FAIL: capacity gate: {e}");
        failed = true;
    }
    if ratio > MAX_TRANSITION_RATIO {
        eprintln!(
            "FAIL: event mode crossed the boundary {event:.2}x per request vs {threaded:.2}x \
             threaded — batching is not amortising transitions"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("event-loop gate passed");
}
