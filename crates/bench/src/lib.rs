//! Shared infrastructure for the benchmark harness binaries.
//!
//! Every table and figure of the LibSEAL paper has a `--bin` target in
//! this crate (see DESIGN.md's experiment index). Run them in release
//! mode:
//!
//! ```sh
//! cargo run --release -p libseal-bench --bin fig5a
//! ```
//!
//! Durations scale with the `LIBSEAL_BENCH_SECS` environment variable
//! (default 2 s per measured point; the paper's runs are longer — use
//! 10+ for smoother numbers).

use std::sync::Arc;
use std::time::Duration;

use libseal::{GuardConfig, LibSeal, LibSealConfig, LogBacking, ServiceModule};
use libseal_crypto::ed25519::{SigningKey, VerifyingKey};
use libseal_lthread::{RuntimeConfig, WaitMode};
use libseal_sgxsim::cost::CostModel;
use libseal_tlsx::cert::{Certificate, CertificateAuthority};

/// A CA plus a server identity for benchmarks.
pub struct BenchIdentity {
    /// The issuing CA.
    pub ca: CertificateAuthority,
    /// Server certificate.
    pub cert: Certificate,
    /// Server private key.
    pub key: SigningKey,
}

impl BenchIdentity {
    /// Deterministic identity for reproducible runs.
    pub fn new() -> Self {
        let ca = CertificateAuthority::new("BenchCA", &[0x42; 32]);
        let (key, cert) = ca.issue_identity("localhost", &[0x43; 32]).unwrap();
        BenchIdentity { ca, cert, key }
    }

    /// Roots clients must trust.
    pub fn roots(&self) -> Vec<VerifyingKey> {
        vec![self.ca.root_key()]
    }
}

impl Default for BenchIdentity {
    fn default() -> Self {
        Self::new()
    }
}

/// The paper's evaluated configurations (§6.4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BenchConfig {
    /// Plain STLS termination, no enclave (the "native"/LibreSSL bar).
    Native,
    /// LibSEAL without auditing: the pure SGX tax ("LibSEAL-process").
    Process,
    /// LibSEAL auditing to an in-memory log ("LibSEAL-mem").
    Mem,
    /// LibSEAL auditing to a sealed, fsynced on-disk log
    /// ("LibSEAL-disk").
    Disk,
}

impl BenchConfig {
    /// Display label matching the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            BenchConfig::Native => "native",
            BenchConfig::Process => "LibSEAL-process",
            BenchConfig::Mem => "LibSEAL-mem",
            BenchConfig::Disk => "LibSEAL-disk",
        }
    }
}

/// Builds a LibSEAL instance for `config` (not used for `Native`).
///
/// Instances run the asynchronous call runtime with the paper's
/// best-performing parameters (3 SGX threads, 48 lthreads, dedicated
/// poller) unless `sync_calls` is set.
pub fn libseal_instance(
    id: &BenchIdentity,
    config: BenchConfig,
    ssm: Option<Arc<dyn ServiceModule>>,
    slots: usize,
    check_interval: usize,
    sync_calls: bool,
) -> Arc<LibSeal> {
    let ssm = match config {
        BenchConfig::Native => unreachable!("native mode has no LibSEAL instance"),
        BenchConfig::Process => None,
        BenchConfig::Mem | BenchConfig::Disk => ssm,
    };
    let mut builder = LibSealConfig::builder(id.cert.clone(), id.key.clone())
        .cost_model(CostModel {
            // Price transitions at the contention level of the paper's
            // deployment: Apache's default pool of 25 server threads
            // sharing the enclave (§6.8 shows per-call cost growing
            // steeply with in-enclave threads). A 1-core host cannot
            // create that contention natively, so it is part of the model
            // (see DESIGN.md, cost model notes).
            assumed_concurrency: assumed_concurrency(slots),
            ..CostModel::default()
        })
        .check_interval(check_interval)
        // In-cluster counter sync: the latency is on the same rack in the
        // paper's deployment; charge only the protocol work.
        .guard(GuardConfig::Rote {
            f: 1,
            latency: Duration::ZERO,
        })
        .backing(match config {
            BenchConfig::Disk => LogBacking::Disk(bench_log_path(config)),
            _ => LogBacking::Memory,
        });
    if let Some(ssm) = ssm {
        builder = builder.ssm(ssm);
    }
    let cfg = builder.build();
    if sync_calls {
        LibSeal::new(cfg).expect("libseal")
    } else {
        LibSeal::with_async(
            cfg,
            RuntimeConfig {
                sgx_threads: 3,
                lthreads_per_thread: 48,
                slots: slots.max(1),
                stack_size: 256 * 1024,
                // The paper found a dedicated poller thread fastest on
                // its 4-core machine; on hosts without spare cores the
                // poller steals the only CPU, so busy-wait (with
                // scheduler yields) wins. Pick automatically.
                wait_mode: default_wait_mode(),
            },
        )
        .expect("libseal async")
    }
}

/// Like [`libseal_instance`] but with an explicit async runtime
/// configuration (used by the Tab. 3/Tab. 4 parameter sweeps).
pub fn libseal_instance_with_rt(
    id: &BenchIdentity,
    ssm: Option<Arc<dyn ServiceModule>>,
    rt: RuntimeConfig,
) -> Arc<LibSeal> {
    let mut builder = LibSealConfig::builder(id.cert.clone(), id.key.clone())
        .cost_model(CostModel {
            assumed_concurrency: assumed_concurrency(rt.slots),
            ..CostModel::default()
        })
        .check_interval(0)
        .guard(GuardConfig::None);
    if let Some(ssm) = ssm {
        builder = builder.ssm(ssm);
    }
    LibSeal::with_async(builder.build(), rt).expect("libseal async")
}

/// Contention level for transition pricing: the larger of the
/// workload's slot count and Apache's default 25-thread pool
/// (overridable via `LIBSEAL_BENCH_THREADS`).
pub fn assumed_concurrency(slots: usize) -> u64 {
    std::env::var("LIBSEAL_BENCH_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| (slots as u64).max(25))
}

/// The wait mode best suited to this host (see the paper's §4.3
/// discussion: poller needs a spare core).
pub fn default_wait_mode() -> WaitMode {
    if std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        >= 4
    {
        WaitMode::Poller
    } else {
        WaitMode::BusyWait
    }
}

/// Process CPU time (user + system) consumed so far.
pub fn process_cpu_time() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields 14 and 15 (1-based) are utime and stime in clock ticks;
    // the command name (field 2) may contain spaces, so skip past ')'.
    let after = stat.rsplit(')').next().unwrap_or("");
    let fields: Vec<&str> = after.split_whitespace().collect();
    let utime: u64 = fields.get(11).and_then(|v| v.parse().ok()).unwrap_or(0);
    let stime: u64 = fields.get(12).and_then(|v| v.parse().ok()).unwrap_or(0);
    let hz = 100.0; // USER_HZ on Linux
    Duration::from_secs_f64((utime + stime) as f64 / hz)
}

/// CPU time of the threads alive right now, at scheduler (nanosecond)
/// resolution: the sum of the on-CPU field of every
/// `/proc/self/task/*/schedstat`. [`process_cpu_time`] counts 10 ms
/// ticks, too coarse to tell 0.2 % of a core from 2 % over half a
/// second; this is for short windows during which no thread exits.
pub fn live_threads_cpu_time() -> Duration {
    let tasks = std::fs::read_dir("/proc/self/task").expect("/proc/self/task");
    let ns: u64 = tasks
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum();
    Duration::from_nanos(ns)
}

/// Runs `f`, returning its result plus the mean CPU utilisation in
/// percent (100% = one core busy).
pub fn with_cpu_percent<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let cpu0 = process_cpu_time();
    let t0 = std::time::Instant::now();
    let r = f();
    let wall = t0.elapsed().as_secs_f64().max(1e-9);
    let cpu = (process_cpu_time() - cpu0).as_secs_f64();
    (r, cpu / wall * 100.0)
}

/// A unique temp path for a disk-backed bench log.
pub fn bench_log_path(config: BenchConfig) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let p = std::env::temp_dir().join(format!(
        "libseal-bench-{}-{:?}-{n}.log",
        std::process::id(),
        config
    ));
    let _ = std::fs::remove_file(&p);
    p
}

/// Per-point measurement duration.
pub fn bench_secs() -> Duration {
    let secs: f64 = std::env::var("LIBSEAL_BENCH_SECS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2.0);
    Duration::from_secs_f64(secs.clamp(0.2, 120.0))
}

/// Whether to run the full (slow) parameter sweeps.
pub fn full_sweep() -> bool {
    std::env::var("LIBSEAL_BENCH_FULL").is_ok_and(|v| v != "0")
}

/// Prints a fixed-width table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line: Vec<String> = headers
        .iter()
        .zip(&widths)
        .map(|(h, w)| format!("{h:<w$}"))
        .collect();
    println!("{}", line.join("  "));
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect();
        println!("{}", line.join("  "));
    }
}

/// Formats a duration in ms with 1 decimal.
pub fn ms(d: Duration) -> String {
    format!("{:.1}", d.as_secs_f64() * 1000.0)
}

/// Formats a rate.
pub fn rate(r: f64) -> String {
    format!("{r:.0}")
}

/// Percentage overhead of `b` relative to baseline `a` (throughputs).
pub fn overhead_pct(baseline: f64, measured: f64) -> String {
    if baseline <= 0.0 {
        return "n/a".to_string();
    }
    format!("{:+.1}%", (measured - baseline) / baseline * 100.0)
}
