//! CI gate: the telemetry subsystem must cost less than 5% throughput
//! on the hottest audited path (enclave call + log append), measured
//! against the same binary with the global registry disabled (every
//! handle inert — the "no-op registry" baseline).
//!
//! ```sh
//! cargo run --release -p libseal-bench --bin telemetry_overhead
//! ```
//!
//! Exits non-zero when the gate fails.

use std::sync::Arc;
use std::time::Instant;

use libseal::{GitModule, LibSeal};
use libseal_bench::{bench_secs, git_update, print_table, rate, BenchIdentity};

/// Allowed throughput regression with telemetry on.
const MAX_OVERHEAD_PCT: f64 = 5.0;
/// Interleaved measurement rounds per mode.
const ROUNDS: usize = 3;

fn audited_appends_for(ls: &Arc<LibSeal>, secs: std::time::Duration) -> f64 {
    let t0 = Instant::now();
    let mut ops = 0u64;
    while t0.elapsed() < secs {
        let cid = format!("c{ops}");
        ls.with_log(0, move |log| {
            git_update(log, "repo", "refs/heads/main", &cid)
        })
        .expect("enclave call")
        .expect("append");
        ops += 1;
    }
    ops as f64 / t0.elapsed().as_secs_f64()
}

fn main() {
    let id = BenchIdentity::new();
    let ls = LibSeal::new(
        id.unpriced()
            .ssm(Arc::new(GitModule))
            // Measure the per-pair sealing path this gate's 5% budget
            // was calibrated for: under group commit, direct appends
            // stage without signing, which shrinks the denominator and
            // would turn the gate into a histogram micro-benchmark.
            .no_group_commit()
            .build(),
    )
    .expect("libseal");

    let registry = libseal_telemetry::global();
    let phase = bench_secs() / 2;

    // Warm up buckets, registry entries and the log before measuring.
    audited_appends_for(&ls, phase / 4);

    // Interleave the two modes so drift hits both equally; keep the
    // best round of each (robust against interference dips).
    let mut best_on: f64 = 0.0;
    let mut best_off: f64 = 0.0;
    for _ in 0..ROUNDS {
        registry.set_enabled(false);
        best_off = best_off.max(audited_appends_for(&ls, phase));
        registry.set_enabled(true);
        best_on = best_on.max(audited_appends_for(&ls, phase));
    }

    let overhead = (best_off - best_on) / best_off * 100.0;
    print_table(
        "telemetry overhead gate (audited appends)",
        &["mode", "ops/s", "overhead"],
        &[
            vec!["telemetry off".into(), rate(best_off), "-".into()],
            vec![
                "telemetry on".into(),
                rate(best_on),
                format!("{overhead:+.1}%"),
            ],
        ],
    );

    let appends = registry.counter("core_appends_total").get();
    assert!(appends > 0, "telemetry-on phase recorded no appends");

    if overhead > MAX_OVERHEAD_PCT {
        eprintln!(
            "FAIL: telemetry costs {overhead:.1}% throughput (budget {MAX_OVERHEAD_PCT:.1}%)"
        );
        std::process::exit(1);
    }
    println!("PASS: telemetry overhead {overhead:.1}% <= {MAX_OVERHEAD_PCT:.1}%");
}
