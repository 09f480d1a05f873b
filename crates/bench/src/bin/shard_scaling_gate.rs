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
//! bind, ROTE rounds and their mean length — so a low speedup can be
//! read. The 4-shard figure reads a
//! few hundredths above the cap: epoch-checkpoint rows are appended and
//! sealed outside the ticket queue.
//!
//! ```sh
//! cargo run --release -p libseal-bench --bin shard_scaling_gate
//! ```

use std::sync::Arc;
use std::time::Duration;

use libseal::{GitModule, GuardConfig, LibSealConfig, LogBacking, ShardedPlane};
use libseal_bench::*;
use libseal_services::apache::{ApacheConfig, ApacheServer};
use libseal_services::git::GitBackend;
use libseal_services::{HttpsClient, LoadGenerator, TlsMode};

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
    // Isolate the seal pipeline: no simulated transition tax.
    id.unpriced()
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

fn row(shards: usize, p: &Point) -> Vec<String> {
    let c = &p.counts;
    vec![
        shards.to_string(),
        rate(p.req_s),
        c.appends.to_string(),
        c.binds.to_string(),
        format!("{:.2}", per(c.appends, c.binds)),
        c.rote_rounds.to_string(),
        format!("{:.2}", per(c.rote_round_ns, c.rote_rounds) / 1e6),
    ]
}

/// One scaling point: serve the closed loop of pushes (every request a
/// logged pair), drain, verify the fleet through the retained plane
/// handle.
fn run_point(id: &BenchIdentity, shards: usize) -> Point {
    let plane =
        libseal::plane::build_plane(plane_config(id, shards, LogBacking::Memory)).expect("plane");
    assert_eq!(plane.shards(), shards);
    let point = Scenario {
        workers: CLIENTS,
        clients: CLIENTS,
        ..Scenario::new(App::GitBare, TlsSide::Audited(plane.clone(), None))
    }
    .run();
    plane.verify_log(0).expect("fleet verification after drain");
    point
}

/// Mid-load shard restart on a disk-backed 2-shard fleet: the
/// restarted shard must recover its journal, service must continue,
/// and the fleet must verify clean after drain.
fn restart_trial(id: &BenchIdentity) -> Result<(), String> {
    let journals = JournalDir::create();
    let plane = ShardedPlane::open(plane_config(id, 2, journals.backing())).expect("sharded plane");
    let server = ApacheServer::start(
        ApacheConfig::new(
            TlsMode::LibSeal(plane.clone()),
            Arc::new(Arc::new(GitBackend::new())),
        )
        .workers(CLIENTS),
    )
    .expect("server");
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
        .run(&client, |c, i| Stream::GitPush.request(c, i))
    });

    std::thread::sleep(Duration::from_millis(400));
    let served_before = server.requests_served();
    plane
        .restart_shard(1)
        .map_err(|e| format!("shard restart failed: {e}"))?;
    let stats = load.join().expect("load thread");
    let served_after = server.requests_served();
    server.drain();

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
}

fn main() {
    let id = BenchIdentity::new();
    let p1 = run_point(&id, 1);
    let p4 = run_point(&id, 4);
    let speedup = p4.req_s / p1.req_s.max(1e-9);

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
        ],
        &[row(1, &p1), row(4, &p4)],
    );
    println!("speedup {speedup:.1}x (need ≥ {MIN_SPEEDUP}x)");

    let mut failed = false;
    if p1.counts.appends > MAX_BATCH as u64 * p1.counts.binds {
        eprintln!(
            "FAIL: the 1-shard point sealed {} appends in {} counter binds, above the batch \
             cap of {MAX_BATCH}",
            p1.counts.appends, p1.counts.binds
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
