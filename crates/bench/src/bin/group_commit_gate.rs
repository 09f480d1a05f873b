//! CI gate: group commit must actually amortise the per-request audit
//! costs. One audited Git server (disk-backed log, ROTE counter with a
//! realistic in-rack round latency, synchronous ecalls) is driven by a
//! closed loop of persistent HTTPS clients. With per-append sealing,
//! audited throughput flat-lines at the counter round + fsync rate no
//! matter how many clients push; with the group-commit pipeline the
//! sealer binds whole batches at once, so throughput must scale.
//!
//! The gate fails unless:
//!
//!   1. 8 concurrent clients achieve ≥ 3× the single-client
//!      throughput, and
//!   2. telemetry confirms the mechanism: under 8 clients the run
//!      performs at least 2 appends per counter bind and per journal
//!      fsync (i.e. batches really formed — the speedup is
//!      amortisation, not noise).
//!
//! ```sh
//! cargo run --release -p libseal-bench --bin group_commit_gate
//! ```

use std::sync::Arc;
use std::time::Duration;

use libseal::{GitModule, GuardConfig, LibSeal};
use libseal_bench::*;

/// Simulated per-node ROTE request latency: the §5.1 in-rack counter
/// round every seal must wait for. This is the cost group commit
/// amortises, so it is charged realistically rather than zeroed.
const ROTE_LATENCY: Duration = Duration::from_micros(2000);
/// Required speedup of 8 clients over 1.
const MIN_SPEEDUP: f64 = 3.0;
/// Required appends per counter bind / per fsync under 8 clients.
const MIN_AMORTISATION: f64 = 2.0;

fn instance(id: &BenchIdentity) -> TlsSide {
    let journal = JournalDir::create();
    // Zero the simulated transition tax: this gate isolates the seal
    // pipeline (counter rounds + fsyncs), not the SGX model.
    let cfg = id
        .unpriced()
        .guard(GuardConfig::Rote {
            f: 1,
            latency: ROTE_LATENCY,
        })
        .backing(journal.backing())
        .ssm(Arc::new(GitModule))
        .build(); // group commit is on by default for audited instances
    TlsSide::Audited(LibSeal::new(cfg).expect("libseal"), Some(journal))
}

/// Every request is a logged pair (the push-only stream); synchronous
/// ecalls, the reactor driver, persistent connections.
fn run_point(id: &BenchIdentity, clients: usize, workers: usize) -> Point {
    Scenario {
        workers,
        clients,
        ..Scenario::new(App::GitBare, instance(id))
    }
    .run()
}

fn row(clients: usize, p: &Point) -> Vec<String> {
    vec![
        clients.to_string(),
        rate(p.req_s),
        p.counts.appends.to_string(),
        p.counts.binds.to_string(),
        p.counts.fsyncs.to_string(),
    ]
}

fn main() {
    let id = BenchIdentity::new();
    // One worker per client in both runs, so admission control never
    // differs between the two points.
    let p1 = run_point(&id, 1, 8);
    let p8 = run_point(&id, 8, 8);

    let speedup = p8.req_s / p1.req_s.max(1e-9);
    let appends_per_bind = per(p8.counts.appends, p8.counts.binds);
    let appends_per_fsync = per(p8.counts.appends, p8.counts.fsyncs);
    print_table(
        "group-commit gate: audited Git push throughput (ROTE round 2 ms, disk log)",
        &["clients", "req/s", "appends", "counter binds", "fsyncs"],
        &[row(1, &p1), row(8, &p8)],
    );
    println!(
        "speedup {speedup:.1}x (need ≥ {MIN_SPEEDUP:.0}x); 8-client appends/bind \
         {appends_per_bind:.1}, appends/fsync {appends_per_fsync:.1} \
         (need ≥ {MIN_AMORTISATION:.0})"
    );

    let mut failed = false;
    if speedup < MIN_SPEEDUP {
        eprintln!("FAIL: 8-client speedup {speedup:.2}x < {MIN_SPEEDUP}x");
        failed = true;
    }
    if appends_per_bind < MIN_AMORTISATION {
        eprintln!("FAIL: {appends_per_bind:.2} appends per counter bind — batches not forming");
        failed = true;
    }
    if appends_per_fsync < MIN_AMORTISATION {
        eprintln!("FAIL: {appends_per_fsync:.2} appends per fsync — batches not forming");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("group-commit gate passed");
}
