//! Ablation: what each layer of the audit-log design costs.
//!
//! DESIGN.md calls out the log's integrity stack — hash chain, head
//! signature, rollback counter, sealed journal, per-pair fsync. This
//! binary measures append cost as the layers accumulate, showing where
//! the paper's "LibSEAL-mem vs LibSEAL-disk" gap comes from.
//!
//! Latencies are reported from telemetry [`Histogram`]s (the same
//! log-linear instrument behind `/metrics`), and the footer
//! cross-checks the per-layer numbers against the counters the
//! instrumented crates themselves recorded.
//!
//! ```sh
//! cargo run --release -p libseal-bench --bin ablation
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use libseal::log::{AuditLog, HwCounterGuard, LogBacking, NoGuard, RollbackGuard, RoteGuard};
use libseal::GitModule;
use libseal_bench::*;
use libseal_sealdb::{Database, Value};
use libseal_telemetry::{Histogram, HistogramSnapshot};

const N: u64 = 300;

/// Runs `f` `n` times, recording each call into a fresh telemetry
/// histogram; quantiles come from its log-linear buckets.
fn measure(n: u64, mut f: impl FnMut(u64)) -> HistogramSnapshot {
    let h = Histogram::new();
    for i in 0..n {
        let t0 = Instant::now();
        f(i);
        h.record_duration(t0.elapsed());
    }
    h.snapshot()
}

fn append(log: &mut AuditLog, i: u64) {
    git_update(log, "repo", "refs/heads/main", &format!("{i:040x}")).expect("append");
}

fn rote() -> Box<dyn RollbackGuard> {
    let cluster = libseal_rote::Cluster::new(1, Duration::ZERO, b"ablate").unwrap();
    Box::new(RoteGuard(Arc::new(cluster)))
}

const LAYERS: [&str; 6] = [
    "bare INSERT (sealdb)",
    "+ hash chain + signed head (mem)",
    "+ ROTE quorum counter",
    "+ sealed journal (buffered)",
    "+ fsync per append",
    "ALT: SGX hardware counter instead of ROTE",
];

/// Append cost with the first `layer + 1` layers of the integrity
/// stack in place (the last row swaps ROTE for the hardware counter).
fn layer(layer: usize) -> HistogramSnapshot {
    let log = |backing, guard| fresh_log(&GitModule, backing, guard);
    match layer {
        // A bare relational insert (no audit machinery).
        0 => {
            let mut db = Database::new();
            db.execute(
                "CREATE TABLE updates(time INTEGER, repo TEXT, branch TEXT, cid TEXT, type TEXT)",
            )
            .unwrap();
            measure(N, |i| {
                db.execute_with(
                    "INSERT INTO updates VALUES (?, 'repo', 'refs/heads/main', ?, 'update')",
                    &[Value::Integer(i as i64), Value::Text(format!("{i:040x}"))],
                )
                .unwrap();
            })
        }
        1 => {
            let mut log = log(LogBacking::Memory, Box::new(NoGuard));
            measure(N, |i| append(&mut log, i))
        }
        // f = 1 quorum, in-process.
        2 => {
            let mut log = log(LogBacking::Memory, rote());
            measure(N, |i| append(&mut log, i))
        }
        // Buffered: no `flush()` call, so no fsync.
        3 => {
            let journal = JournalDir::create();
            let mut log = log(journal.backing(), rote());
            measure(N, |i| append(&mut log, i))
        }
        // The paper's per-pair durability.
        4 => {
            let journal = JournalDir::create();
            let mut log = log(journal.backing(), rote());
            measure(N, |i| {
                append(&mut log, i);
                log.flush().unwrap();
            })
        }
        // The raw SGX hardware counter, to show why the paper rejects
        // it (§5.1); five appends, each waits ~100 ms.
        _ => {
            let counter = libseal_sgxsim::MonotonicCounter::with_properties(
                Duration::from_millis(100),
                1 << 30,
            );
            let mut log = log(LogBacking::Memory, Box::new(HwCounterGuard(counter)));
            measure(5, |i| append(&mut log, i))
        }
    }
}

fn main() {
    let r = repeat(LAYERS.len(), layer);
    let rows: Vec<Vec<String>> = (0..LAYERS.len())
        .map(|i| {
            let us = |f: fn(&HistogramSnapshot) -> u64| r.of(i, |s| f(s) as f64 / 1000.0).cell(1);
            let cells = [
                us(|s| s.mean()),
                us(|s| s.percentile(0.5)),
                us(|s| s.percentile(0.95)),
            ];
            [vec![LAYERS[i].to_string()], cells.to_vec()].concat()
        })
        .collect();
    print_table(
        "Ablation: audit-log append cost by design layer",
        &["configuration", "mean us", "p50 us", "p95 us"],
        &rows,
    );

    // Cross-check against what the instrumented crates recorded into
    // the process-wide registry while the layers ran.
    let reg = libseal_telemetry::global();
    let append_ns = reg.histogram("core_append_ns").snapshot();
    let us = |ns: u64| ns as f64 / 1000.0;
    println!(
        "\ntelemetry cross-check: core_append_ns count={} mean={:.1}us p95={:.1}us, \
         sealdb_journal_fsyncs_total={}, rote_round_ns p50={:.1}us",
        append_ns.count(),
        us(append_ns.mean()),
        us(append_ns.percentile(0.95)),
        reg.counter("sealdb_journal_fsyncs_total").get(),
        us(reg.histogram("rote_round_ns").snapshot().percentile(0.5)),
    );
    println!(
        "\nreading: the chain+signature dominates the in-memory cost; the ROTE \
         quorum is cheap (MACs); durable disk adds the fsync; the SGX hardware \
         counter (~100 ms per increment) is why LibSEAL uses ROTE (§5.1)."
    );
}
