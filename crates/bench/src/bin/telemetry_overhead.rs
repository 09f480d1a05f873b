//! CI gate: the telemetry subsystem must cost less than 5% throughput
//! on the hottest audited path (enclave call + log append + counter
//! bind + head signature), measured against the same binary with the
//! global registry disabled (every handle inert — the "no-op registry"
//! baseline).
//!
//! ```sh
//! cargo run --release -p libseal-bench --bin telemetry_overhead
//! ```
//!
//! Exits non-zero when the gate fails.

use std::sync::Arc;
use std::time::{Duration, Instant};

use libseal::{GitModule, LibSeal};
use libseal_bench::{bench_secs, git_update, print_table, repeat, BenchIdentity, Repeated};

/// Allowed throughput regression with telemetry on.
const MAX_OVERHEAD_PCT: f64 = 5.0;
/// Fresh logs the comparison is spread over, [`repeat`]ed on each.
const ROUNDS: usize = 25;
/// The two configurations [`repeat`] interleaves.
const OFF: usize = 0;
const ON: usize = 1;

/// Appends to `ls` for `secs`, sealing each; `ops` numbers the commits
/// of one log. The seal is what the gate's 5% budget was calibrated
/// against: a staged append alone binds no counter and signs nothing,
/// which shrinks the denominator and would turn the gate into a
/// histogram micro-benchmark.
fn audited_appends_for(ls: &Arc<LibSeal>, secs: Duration, ops: &mut u64) -> f64 {
    let (t0, first) = (Instant::now(), *ops);
    while t0.elapsed() < secs {
        let cid = format!("c{ops}");
        let appended = ls.with_log(0, move |log| {
            git_update(log, "repo", "refs/heads/main", &cid)?;
            log.seal()
        });
        appended.expect("enclave call").expect("append");
        *ops += 1;
    }
    (*ops - first) as f64 / t0.elapsed().as_secs_f64()
}

fn main() {
    let id = BenchIdentity::new();
    let registry = libseal_telemetry::global();
    // 40 ms at the default: ~400 appends, and 7 s for the whole gate.
    let slice = bench_secs() / 50;

    // On a shared host append throughput swings by tens of percent
    // between one 40 ms slice and the next and drifts 10–20 % over
    // seconds, so two one-second phases compare the host's mood, not the
    // registry (best-of-3 phases read −17 … +13 %). Compare neighbours
    // instead: `repeat` runs off/on slices back to back on one log,
    // order flipped each repetition so the log's growth lands on both,
    // and the verdict is the median of all per-pair ratios. Every
    // round starts a fresh log, so all pairs see a short one.
    let rounds = (0..ROUNDS).flat_map(|_| {
        let ls = LibSeal::new(id.unpriced().ssm(Arc::new(GitModule)).build()).expect("libseal");
        let mut ops = 0;
        // Warm up buckets, registry entries and the log before measuring.
        registry.set_enabled(true);
        audited_appends_for(&ls, slice, &mut ops);
        let pairs = repeat(2, |mode| {
            registry.set_enabled(mode == ON);
            audited_appends_for(&ls, slice, &mut ops)
        });
        pairs.reps
    });
    let reps = rounds.collect();
    let runs = Repeated { reps };
    registry.set_enabled(true);

    let change = runs.vs(ON, OFF, |ops_s| *ops_s);
    let overhead = -change.median;
    let ops_s = |mode| runs.of(mode, |r| *r).cell(0);
    let paired = format!("{}%", change.cell(1));
    print_table(
        "telemetry overhead gate (audited appends, median (min–max) over slice pairs)",
        &["mode", "ops/s", "vs off, paired"],
        &[
            vec!["telemetry off".into(), ops_s(OFF), "-".into()],
            vec!["telemetry on".into(), ops_s(ON), paired],
        ],
    );

    let appends = registry.counter("core_appends_total").get();
    assert!(appends > 0, "telemetry-on slices recorded no appends");

    if overhead > MAX_OVERHEAD_PCT {
        eprintln!(
            "FAIL: telemetry costs {overhead:.1}% throughput (budget {MAX_OVERHEAD_PCT:.1}%)"
        );
        std::process::exit(1);
    }
    println!("PASS: telemetry overhead {overhead:.1}% <= {MAX_OVERHEAD_PCT:.1}%");
}
