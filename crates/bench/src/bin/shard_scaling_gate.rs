//! CI gate: the sharded audit plane must actually scale the audit
//! pipeline. One audited Git server is driven by a closed loop of
//! persistent HTTPS clients with a deliberately slow ROTE counter
//! round (4 ms) and small commit batches, so the per-shard sealer
//! pipeline — not TLS or the service — is the throughput ceiling.
//! With one shard every append in the process funnels through one
//! sealer; with four shards the fleet runs four independent sealers,
//! so audited throughput must scale.
//!
//! The gate fails unless:
//!
//!   1. 4 shards achieve ≥ 2.8× the 1-shard audited throughput under
//!      identical load, with the whole fleet (epoch-checkpoint chain
//!      included) verifying clean after drain,
//!   2. the 1-shard point — the baseline the speedup is measured
//!      against, a plain `LibSeal` with no checkpoint rows — sealed at
//!      most the batch cap of appends per counter bind, and
//!   3. a 2-shard disk-backed fleet survives a mid-load shard
//!      restart: service continues, the restarted shard recovers its
//!      journal, and the fleet verifies clean after drain.
//!
//! Each point also prints what its sealers did — appends per counter
//! bind, ROTE rounds and their mean length, increments granted without
//! quorum — so a low speedup can be read. The 4-shard figure reads a
//! few hundredths above the cap: epoch-checkpoint rows are appended and
//! sealed outside the ticket queue.
//!
//! ```sh
//! cargo run --release -p libseal-bench --bin shard_scaling_gate
//! ```

use std::sync::Arc;
use std::time::Duration;

use libseal::plane::AuditPlane;
use libseal::{GitModule, GuardConfig, LibSealConfig, LogBacking, ShardedPlane};
use libseal_bench::*;
use libseal_httpx::http::Request;
use libseal_services::apache::{ApacheConfig, ApacheServer};
use libseal_services::git::GitBackend;
use libseal_services::{HttpsClient, LoadGenerator, TlsMode};
use libseal_sgxsim::cost::CostModel;

/// Simulated ROTE counter round per seal: slow enough that the
/// sealer pipeline is unambiguously the bottleneck shards multiply.
const ROTE_LATENCY: Duration = Duration::from_micros(4000);
/// Commit batch cap: keeps the per-shard ceiling near
/// `max_batch / ROTE_LATENCY` appends per second.
const MAX_BATCH: usize = 4;
/// Required speedup of 4 shards over 1.
const MIN_SPEEDUP: f64 = 2.8;
/// Closed-loop clients and server workers.
const CLIENTS: usize = 48;

fn plane_config(id: &BenchIdentity, shards: usize, backing: LogBacking) -> LibSealConfig {
    LibSealConfig::builder(id.cert.clone(), id.key.clone())
        // Isolate the seal pipeline: no simulated transition tax.
        .cost_model(CostModel::free())
        .check_interval(0)
        .guard(GuardConfig::Rote {
            f: 1,
            latency: ROTE_LATENCY,
        })
        .group_commit(MAX_BATCH)
        .tcs_count(64)
        .backing(backing)
        .ssm(Arc::new(GitModule))
        .shards(shards)
        .epoch_interval(256)
        .build()
}

/// Per-client Git push stream: every request is a logged pair.
fn push_request(client: usize, i: u64) -> Request {
    let branch = format!("refs/heads/b{}", i % 4);
    let cid: String = libseal_crypto::sha2::Sha256::digest(format!("{client}:{i}").as_bytes())
        .iter()
        .take(20)
        .map(|b| format!("{b:02x}"))
        .collect();
    Request::new(
        "POST",
        &format!("/repo/repo-{client}/git-receive-pack"),
        format!("old {cid} {branch}\n").into_bytes(),
    )
}

fn start_server(plane: Arc<dyn AuditPlane>) -> ApacheServer {
    ApacheServer::start(
        ApacheConfig::new(
            TlsMode::LibSeal(plane),
            Arc::new(Arc::new(GitBackend::new())),
        )
        .workers(CLIENTS),
    )
    .expect("server")
}

/// What one scaling point measured: audited throughput, and the
/// sealer-pipeline activity behind it.
struct Point {
    throughput: f64,
    appends: u64,
    binds: u64,
    rounds: u64,
    round_ns: u64,
    unbound: u64,
}

impl Point {
    fn row(&self, shards: usize) -> Vec<String> {
        let per = |n: u64, d: u64| n as f64 / (d as f64).max(1.0);
        vec![
            shards.to_string(),
            rate(self.throughput),
            self.appends.to_string(),
            self.binds.to_string(),
            format!("{:.2}", per(self.appends, self.binds)),
            self.rounds.to_string(),
            format!("{:.2}", per(self.round_ns, self.rounds) / 1e6),
            self.unbound.to_string(),
        ]
    }
}

/// One scaling point: serve the closed loop, drain, verify the fleet
/// through the retained plane handle.
fn run_point(id: &BenchIdentity, shards: usize) -> Point {
    let appends = libseal_telemetry::counter("core_appends_total");
    let binds = libseal_telemetry::counter("core_counter_binds_total");
    let rounds = libseal_telemetry::histogram("rote_round_ns");
    let unbound = libseal_telemetry::counter("rote_unbound_appends_total");
    let (a0, b0, r0, u0) = (appends.get(), binds.get(), rounds.snapshot(), unbound.get());

    let plane =
        libseal::plane::build_plane(plane_config(id, shards, LogBacking::Memory)).expect("plane");
    assert_eq!(plane.shards(), shards);
    let server = start_server(plane.clone());
    let client = HttpsClient::new(server.addr(), id.roots(), "localhost");
    let stats = LoadGenerator {
        clients: CLIENTS,
        duration: bench_secs(),
        persistent: true,
        ..LoadGenerator::default()
    }
    .run(&client, push_request);
    server.drain();
    assert!(stats.requests > 0, "load generator completed no requests");
    plane
        .verify_log(0)
        .expect("fleet verification after drain");
    let r1 = rounds.snapshot();
    Point {
        throughput: stats.throughput(),
        appends: appends.get() - a0,
        binds: binds.get() - b0,
        rounds: r1.count() - r0.count(),
        round_ns: r1.sum() - r0.sum(),
        unbound: unbound.get() - u0,
    }
}

/// Mid-load shard restart on a disk-backed 2-shard fleet: the
/// restarted shard must recover its journal, service must continue,
/// and the fleet must verify clean after drain.
fn restart_trial(id: &BenchIdentity) -> Result<(), String> {
    let base = bench_log_path(BenchConfig::Disk);
    let plane = ShardedPlane::open(plane_config(id, 2, LogBacking::Disk(base.clone())))
        .expect("sharded plane");
    let server = start_server(plane.clone());
    let addr = server.addr();
    let roots = id.roots();

    let load = std::thread::spawn(move || {
        let client = HttpsClient::new(addr, roots, "localhost");
        LoadGenerator {
            clients: 8,
            duration: Duration::from_millis(1500),
            persistent: true,
            ..LoadGenerator::default()
        }
        .run(&client, push_request)
    });

    std::thread::sleep(Duration::from_millis(400));
    let served_before = server.requests_served();
    plane
        .restart_shard(1)
        .map_err(|e| format!("shard restart failed: {e}"))?;
    let stats = load.join().expect("load thread");
    let served_after = server.requests_served();
    server.drain();

    // Cleanup the temp journals regardless of verdict.
    let verdict = (|| {
        if stats.requests == 0 {
            return Err("no requests completed during the restart trial".into());
        }
        if served_after <= served_before {
            return Err(format!(
                "service stalled across the restart ({served_before} -> {served_after})"
            ));
        }
        plane
            .verify_fleet(0)
            .map_err(|e| format!("fleet verification after restart: {e}"))
    })();
    for suffix in ["shard0", "shard1", "manifest"] {
        let _ = std::fs::remove_file(format!("{}.{suffix}", base.display()));
    }
    verdict
}

fn main() {
    let id = BenchIdentity::new();
    let p1 = run_point(&id, 1);
    let p4 = run_point(&id, 4);
    let speedup = p4.throughput / p1.throughput.max(1e-9);

    print_table(
        "shard-scaling gate: audited Git push throughput (ROTE round 4 ms, batch cap 4)",
        &[
            "shards",
            "req/s",
            "appends",
            "counter binds",
            "appends/bind",
            "ROTE rounds",
            "mean round ms",
            "unbound",
        ],
        &[p1.row(1), p4.row(4)],
    );
    println!("speedup {speedup:.1}x (need ≥ {MIN_SPEEDUP}x)");

    let mut failed = false;
    if p1.appends > MAX_BATCH as u64 * p1.binds {
        eprintln!(
            "FAIL: the 1-shard point sealed {} appends in {} counter binds, above the batch \
             cap of {MAX_BATCH}",
            p1.appends, p1.binds
        );
        failed = true;
    }
    if speedup < MIN_SPEEDUP {
        eprintln!("FAIL: 4-shard speedup {speedup:.2}x < {MIN_SPEEDUP}x");
        failed = true;
    }
    match restart_trial(&id) {
        Ok(()) => println!("restart trial: shard 1 restarted mid-load, fleet verified clean"),
        Err(e) => {
            eprintln!("FAIL: {e}");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("shard-scaling gate passed");
}
