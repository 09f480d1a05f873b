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

use std::time::{Duration, Instant};

use libseal::log::{AuditLog, HwCounterGuard, LogBacking, NoGuard, RollbackGuard, RoteGuard};
use libseal::{GitModule, ServiceModule};
use libseal_bench::*;
use libseal_crypto::ed25519::SigningKey;
use libseal_sealdb::{Database, Value};
use libseal_telemetry::{Histogram, HistogramSnapshot};

const N: u64 = 300;

/// Runs `f` N times, recording each call into a fresh telemetry
/// histogram; quantiles come from its log-linear buckets.
fn measure(mut f: impl FnMut(u64)) -> HistogramSnapshot {
    let h = Histogram::new();
    for i in 0..N {
        let t0 = Instant::now();
        f(i);
        h.record_duration(t0.elapsed());
    }
    h.snapshot()
}

fn us(ns: u64) -> String {
    format!("{:.1}", ns as f64 / 1000.0)
}

fn row(label: &str, s: &HistogramSnapshot) -> Vec<String> {
    vec![
        label.into(),
        us(s.mean()),
        us(s.percentile(0.5)),
        us(s.percentile(0.95)),
    ]
}

fn audit_log(backing: LogBacking, guard: Box<dyn RollbackGuard>) -> AuditLog {
    let ssm = GitModule;
    AuditLog::open(
        backing,
        [0u8; 32],
        SigningKey::from_seed(&[1u8; 32]),
        guard,
        ssm.schema_sql(),
        ssm.tables(),
    )
    .expect("log")
}

fn append(log: &mut AuditLog, i: u64) {
    let t = log.next_time() as i64;
    log.append(
        "updates",
        &[
            Value::Integer(t),
            Value::Text("repo".into()),
            Value::Text("refs/heads/main".into()),
            Value::Text(format!("{i:040x}")),
            Value::Text("update".into()),
        ],
    )
    .expect("append");
}

fn main() {
    let mut rows = Vec::new();

    // Layer 0: a bare relational insert (no audit machinery).
    {
        let mut db = Database::new();
        db.execute(
            "CREATE TABLE updates(time INTEGER, repo TEXT, branch TEXT, cid TEXT, type TEXT)",
        )
        .unwrap();
        let s = measure(|i| {
            db.execute_with(
                "INSERT INTO updates VALUES (?, 'repo', 'refs/heads/main', ?, 'update')",
                &[Value::Integer(i as i64), Value::Text(format!("{i:040x}"))],
            )
            .unwrap();
        });
        rows.push(row("bare INSERT (sealdb)", &s));
    }

    // Layer 1: + hash chain + Ed25519 head signature (in-memory).
    {
        let mut log = audit_log(LogBacking::Memory, Box::new(NoGuard));
        let s = measure(|i| append(&mut log, i));
        rows.push(row("+ hash chain + signed head (mem)", &s));
    }

    // Layer 2: + ROTE rollback counter (f = 1 quorum, in-process).
    {
        let cluster = libseal_rote::Cluster::new(1, Duration::ZERO, b"ablate").unwrap();
        let mut log = audit_log(
            LogBacking::Memory,
            Box::new(RoteGuard(std::sync::Arc::new(cluster))),
        );
        let s = measure(|i| append(&mut log, i));
        rows.push(row("+ ROTE quorum counter", &s));
    }

    // Layer 3: + sealed journal on disk, buffered (no `flush()` call,
    // so no fsync).
    {
        let cluster = libseal_rote::Cluster::new(1, Duration::ZERO, b"ablate").unwrap();
        let path = bench_log_path(BenchConfig::Disk);
        let mut log = audit_log(
            LogBacking::Disk(path.clone()),
            Box::new(RoteGuard(std::sync::Arc::new(cluster))),
        );
        let s = measure(|i| append(&mut log, i));
        rows.push(row("+ sealed journal (buffered)", &s));
        let _ = std::fs::remove_file(&path);
    }

    // Layer 4: + fsync per append (the paper's per-pair durability).
    {
        let cluster = libseal_rote::Cluster::new(1, Duration::ZERO, b"ablate").unwrap();
        let path = bench_log_path(BenchConfig::Disk);
        let mut log = audit_log(
            LogBacking::Disk(path.clone()),
            Box::new(RoteGuard(std::sync::Arc::new(cluster))),
        );
        let s = measure(|i| {
            append(&mut log, i);
            log.flush().unwrap();
        });
        rows.push(row("+ fsync per append", &s));
        let _ = std::fs::remove_file(&path);
    }

    // Alternative rollback guard: the raw SGX hardware counter, to show
    // why the paper rejects it (§5.1).
    {
        let counter =
            libseal_sgxsim::MonotonicCounter::with_properties(Duration::from_millis(100), 1 << 30);
        let mut log = audit_log(LogBacking::Memory, Box::new(HwCounterGuard(counter)));
        let h = Histogram::new();
        for i in 0..5 {
            let t0 = Instant::now();
            append(&mut log, i);
            h.record_duration(t0.elapsed());
        }
        let s = h.snapshot();
        rows.push(vec![
            "ALT: SGX hardware counter instead of ROTE".into(),
            format!("{:.0}", s.mean() as f64 / 1000.0),
            format!("{:.0}", s.percentile(0.5) as f64 / 1000.0),
            format!("{:.0}", s.percentile(0.95) as f64 / 1000.0),
        ]);
    }

    print_table(
        "Ablation: audit-log append cost by design layer",
        &["configuration", "mean us", "p50 us", "p95 us"],
        &rows,
    );

    // Cross-check against what the instrumented crates recorded into
    // the process-wide registry while the layers ran.
    let reg = libseal_telemetry::global();
    let append_ns = reg.histogram("core_append_ns").snapshot();
    println!(
        "\ntelemetry cross-check: core_append_ns count={} mean={}us p95={}us, \
         sealdb_journal_fsyncs_total={}, rote_round_ns p50={}us",
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
    let _ = GitModule.name();
}
