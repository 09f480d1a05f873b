//! The one scenario layer under every harness binary.
//!
//! The paper's whole evaluation (§6.4–§6.8) is "the same service,
//! native vs. LibSEAL-process/-mem/-disk, under one load generator".
//! That shape is written once here: a [`Scenario`] says what is served,
//! behind which topology, through which TLS side, by which driver and
//! under which load; [`Scenario::run`] builds the fleet, drives it and
//! returns a [`Point`]; [`repeat`] runs the configurations being
//! compared [`REPS`] times, interleaved, and summarises each metric as
//! a median with its min–max, every "vs native" figure as the median of
//! per-repetition *paired* ratios. The `src/bin/*` targets (one per
//! table and figure, see DESIGN.md's experiment index) state only what
//! varies and print. Run them in release mode, or all of them with
//! `scripts/experiments.sh`:
//!
//! ```sh
//! cargo run --release -p libseal-bench --bin fig5a
//! ```
//!
//! `LIBSEAL_BENCH_SECS` sets the seconds per measured point (default
//! 2), `LIBSEAL_BENCH_FULL=1` enables the full parameter sweeps.

use std::sync::Arc;
use std::time::Duration;

use libseal::{
    AuditPlane, DropboxModule, GitModule, GuardConfig, LibSeal, LibSealConfig,
    LibSealConfigBuilder, LogBacking, OwnCloudModule, ServiceModule,
};
use libseal_crypto::ed25519::{SigningKey, VerifyingKey};
use libseal_lthread::RuntimeConfig;
use libseal_services::apache::{ApacheConfig, ApacheServer, DelayRouter};
use libseal_services::dropbox::DropboxServer;
use libseal_services::git::GitBackend;
use libseal_services::owncloud::OwnCloudServer;
use libseal_services::squid::{SquidConfig, SquidProxy};
use libseal_services::{HttpsClient, LoadGenerator, Router, StaticContentRouter, TlsMode};
use libseal_sgxsim::cost::CostModel;
use libseal_tlsx::cert::{Certificate, CertificateAuthority};
use plat::tmp::TempPath;

pub mod honest;

pub use honest::{
    fresh_log, git_advert, git_update, DropboxPairs, GitPairs, OwnCloudPairs, Pairs, Stream,
};

/// Repetitions behind every published cell: enough for a median and a
/// min–max, few enough that all printers finish in about 12 minutes.
pub const REPS: usize = 3;

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
    /// Deterministic identity for reproducible runs: every call yields
    /// the same CA and certificate, so a plane built by a caller and
    /// the client [`Scenario::run`] builds agree.
    pub fn new() -> Self {
        let ca = CertificateAuthority::new("BenchCA", &[0x42; 32]);
        let (key, cert) = ca.issue_identity("localhost", &[0x43; 32]).unwrap();
        BenchIdentity { ca, cert, key }
    }

    /// A LibSEAL configuration under this identity with the simulated
    /// transition tax zeroed and interval checks off: where a gate that
    /// counts, orders or breaks things, and prices nothing, starts from.
    pub fn unpriced(&self) -> LibSealConfigBuilder {
        LibSealConfig::builder(self.cert.clone(), self.key.clone())
            .cost_model(CostModel::free())
            .check_interval(0)
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

/// What the server serves, with the application-side work the paper's
/// deployment had (§6.4), so that relative overheads mean something.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum App {
    /// `GET /content/<n>`: the TLS micro-benchmarks (Fig. 7, Tab. 2–4).
    Static,
    /// The Git backend behind 4 ms of CPU per request, like the real
    /// git-http-backend: the paper's native peak of 491 req/s on 4
    /// cores implies ~8 ms of CPU per request.
    Git,
    /// The Git backend alone, for the gates whose throughput ceiling
    /// must be the seal pipeline and not the application.
    GitBare,
    /// ownCloud behind the ~8 ms PHP engine that bottlenecks it (§6.4).
    OwnCloud,
    /// The Dropbox origin behind the measured 76 ms WAN latency (§6.4).
    Dropbox,
}

impl App {
    fn router(self) -> Arc<dyn Router> {
        match self {
            App::Static => Arc::new(StaticContentRouter),
            App::GitBare => Arc::new(Arc::new(GitBackend::new())),
            App::Git => Arc::new(DelayRouter {
                delay: Duration::from_millis(4),
                busy: true,
                inner: App::GitBare.router(),
            }),
            App::OwnCloud => Arc::new(Arc::new(OwnCloudServer::with_php_delay(
                Duration::from_millis(8),
            ))),
            App::Dropbox => Arc::new(Arc::new(DropboxServer::with_wan_latency(
                Duration::from_millis(76),
            ))),
        }
    }

    /// The module auditing this application, with its check/trim
    /// interval: this implementation's optimum for Git (our Fig. 6),
    /// the §6.5 optima for ownCloud and Dropbox.
    pub fn ssm(self) -> Option<(Arc<dyn ServiceModule>, usize)> {
        match self {
            App::Static => None,
            App::Git | App::GitBare => Some((Arc::new(GitModule), 10)),
            App::OwnCloud => Some((Arc::new(OwnCloudModule), 75)),
            App::Dropbox => Some((Arc::new(DropboxModule), 100)),
        }
    }

    fn stream(self) -> Stream {
        match self {
            App::Static => Stream::Get(1024),
            App::Git => Stream::GitPushFetch,
            App::GitBare => Stream::GitPush,
            App::OwnCloud => Stream::OwnCloudEdit,
            App::Dropbox => Stream::DropboxCommit,
        }
    }
}

/// Where the TLS side under test sits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Topology {
    /// It terminates TLS for the application itself.
    Apache,
    /// It terminates TLS for a Squid proxy; the application is the
    /// origin behind it, on "another machine": native TLS, two workers.
    Squid,
}

/// A temp directory holding the sealed journals of one disk-backed
/// plane (shard journals, manifest and compaction temporaries
/// included), removed when dropped.
pub struct JournalDir(TempPath);

impl JournalDir {
    /// Creates the directory.
    pub fn create() -> JournalDir {
        let dir = TempPath::new("libseal-bench", "d");
        std::fs::create_dir_all(&dir).expect("journal dir");
        JournalDir(dir)
    }

    /// The backing to configure the plane with.
    pub fn backing(&self) -> LogBacking {
        LogBacking::Disk(self.0.join("journal"))
    }
}

/// How the server under test terminates TLS.
pub enum TlsSide {
    /// Plain STLS, no enclave (the "native"/LibreSSL bar).
    Native,
    /// Through an audit plane the caller built, with the directory its
    /// journals live in if it is disk-backed: the scenario owns both,
    /// so the journals go when the plane does.
    Audited(Arc<dyn AuditPlane>, Option<JournalDir>),
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

    /// The TLS side of this configuration in front of `app`, for a
    /// server of `workers` threads. `runtime` is the asynchronous call
    /// runtime; `None` makes every enclave call a synchronous
    /// transition.
    pub fn tls(self, app: App, workers: usize, runtime: Option<RuntimeConfig>) -> TlsSide {
        if self == BenchConfig::Native {
            return TlsSide::Native;
        }
        let id = BenchIdentity::new();
        let journal = (self == BenchConfig::Disk).then(JournalDir::create);
        let backing = journal
            .as_ref()
            .map_or(LogBacking::Memory, JournalDir::backing);
        let mut builder = LibSealConfig::builder(id.cert, id.key)
            .cost_model(CostModel {
                // Price transitions at the contention level of the paper's
                // deployment: Apache's default pool of 25 server threads
                // sharing the enclave (§6.8 shows per-call cost growing
                // steeply with in-enclave threads). A 2-core host cannot
                // create that contention natively, so it is part of the
                // model (see DESIGN.md, cost model notes).
                assumed_concurrency: (workers as u64).max(25),
                ..CostModel::default()
            })
            // In-cluster counter sync: the latency is on the same rack in the
            // paper's deployment; charge only the protocol work.
            .guard(GuardConfig::Rote {
                f: 1,
                latency: Duration::ZERO,
            })
            .backing(backing);
        if let (Some((ssm, interval)), BenchConfig::Mem | BenchConfig::Disk) = (app.ssm(), self) {
            builder = builder.ssm(ssm).check_interval(interval);
        }
        let plane = match runtime {
            None => LibSeal::new(builder.build()),
            Some(rt) => LibSeal::with_async(builder.build(), rt),
        };
        TlsSide::Audited(plane.expect("libseal"), journal)
    }
}

/// The asynchronous call runtime with the paper's best-performing
/// parameters (§6.7: 3 SGX threads, 48 lthread tasks each), one slot
/// per server worker.
pub fn paper_runtime(workers: usize) -> RuntimeConfig {
    RuntimeConfig {
        sgx_threads: 3,
        lthreads_per_thread: 48,
        slots: workers.max(1),
        stack_size: 256 * 1024,
    }
}

/// One fleet under one load, declaratively.
pub struct Scenario {
    /// What is served.
    pub app: App,
    /// Where the TLS side under test sits.
    pub topology: Topology,
    /// The TLS side under test.
    pub tls: TlsSide,
    /// The reactor driver (the service default) or, with `false`, the
    /// paper's thread-per-connection one.
    pub event_loop: bool,
    /// Server worker threads.
    pub workers: usize,
    /// Closed-loop client threads.
    pub clients: usize,
    /// Reuse connections, or reconnect (and re-handshake) per request.
    pub persistent: bool,
    /// What each client sends.
    pub stream: Stream,
    /// Measured seconds.
    pub secs: Duration,
}

impl Scenario {
    /// `app` behind `tls` with the service's defaults (Apache, the
    /// reactor driver, four workers) under the lightest load: one
    /// client replaying the application's honest stream over one
    /// connection for [`bench_secs`].
    pub fn new(app: App, tls: TlsSide) -> Scenario {
        Scenario {
            app,
            topology: Topology::Apache,
            tls,
            event_loop: true,
            workers: 4,
            clients: 1,
            persistent: true,
            stream: app.stream(),
            secs: bench_secs(),
        }
    }

    /// `app` as the paper deployed it: one of the §6.4 configurations
    /// with the paper's asynchronous runtime, served by the
    /// thread-per-connection model its figures were measured on, one
    /// persistent client per worker so the load generator is never
    /// admission-limited.
    pub fn paper(app: App, config: BenchConfig, workers: usize) -> Scenario {
        Scenario::paper_calls(app, config, workers, Some(paper_runtime(workers)))
    }

    /// [`Scenario::paper`] with an explicit call runtime (`None`:
    /// synchronous enclave calls).
    pub fn paper_calls(
        app: App,
        config: BenchConfig,
        workers: usize,
        runtime: Option<RuntimeConfig>,
    ) -> Scenario {
        Scenario {
            event_loop: false,
            workers,
            clients: workers,
            ..Scenario::new(app, config.tls(app, workers, runtime))
        }
    }

    /// The §6.6 maximum-throughput load: `size` bytes of static content
    /// over a new TLS connection per request (the worst case), two
    /// clients per worker so the server never idles.
    pub fn new_connections(self, size: usize) -> Scenario {
        Scenario {
            clients: self.workers * 2,
            persistent: false,
            stream: Stream::Get(size),
            ..self
        }
    }

    /// Builds the fleet, drives it for `secs`, drains it and returns
    /// what the load generator and the process-wide telemetry saw. The
    /// plane and its journals are dropped before this returns.
    pub fn run(self) -> Point {
        let id = BenchIdentity::new();
        let native = || TlsMode::Native {
            cert: id.cert.clone(),
            key: id.key.clone(),
        };
        let (tls, _journal) = match self.tls {
            TlsSide::Native => (native(), None),
            TlsSide::Audited(plane, journal) => (TlsMode::LibSeal(plane), journal),
        };
        let (apache_tls, apache_workers, proxy_tls) = match self.topology {
            Topology::Apache => (tls, self.workers, None),
            Topology::Squid => (native(), 2, Some(tls)),
        };
        let before = Counts::now();
        let apache = ApacheServer::start(
            ApacheConfig::new(apache_tls, self.app.router())
                .workers(apache_workers)
                .event_loop(self.event_loop),
        )
        .expect("server");
        let proxy = proxy_tls.map(|tls| {
            SquidProxy::start(
                SquidConfig::new(tls, apache.addr(), id.roots(), "localhost")
                    .workers(self.workers)
                    .event_loop(self.event_loop),
            )
            .expect("proxy")
        });
        let addr = proxy.as_ref().map_or(apache.addr(), |p| p.addr());
        let client = HttpsClient::new(addr, id.roots(), "localhost");
        let (cpu0, t0) = (process_cpu_time(), std::time::Instant::now());
        let stats = LoadGenerator {
            clients: self.clients,
            duration: self.secs,
            persistent: self.persistent,
            ..LoadGenerator::default()
        }
        .run(&client, |c, i| self.stream.request(c, i));
        let cpu = (process_cpu_time() - cpu0).as_secs_f64() / t0.elapsed().as_secs_f64();
        // Drained, not stopped: whatever is still staged is sealed and
        // flushed, so the counters below cover every request counted.
        if let Some(proxy) = proxy {
            proxy.drain();
        }
        apache.drain();
        assert!(stats.requests > 0, "load generator completed no requests");
        Point {
            requests: stats.requests,
            errors: stats.errors,
            req_s: stats.throughput(),
            mean_ms: stats.mean_latency.as_secs_f64() * 1e3,
            p50_ms: stats.p50_latency.as_secs_f64() * 1e3,
            p99_ms: stats.p99_latency.as_secs_f64() * 1e3,
            cpu_pct: cpu * 100.0,
            counts: Counts::since(&before),
        }
    }
}

/// Declares [`Counts`] from one table of (field, telemetry counter).
macro_rules! counts {
    ($($(#[$doc:meta])* $field:ident => $metric:literal,)*) => {
        /// What the process-wide telemetry counted during one run.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct Counts {
            $($(#[$doc])* pub $field: u64,)*
            /// ROTE counter rounds.
            pub rote_rounds: u64,
            /// Their summed duration, in nanoseconds.
            pub rote_round_ns: u64,
        }

        impl Counts {
            fn now() -> Counts {
                let rounds = libseal_telemetry::histogram("rote_round_ns").snapshot();
                Counts {
                    $($field: libseal_telemetry::counter($metric).get(),)*
                    rote_rounds: rounds.count(),
                    rote_round_ns: rounds.sum(),
                }
            }

            fn since(t0: &Counts) -> Counts {
                let now = Counts::now();
                Counts {
                    $($field: now.$field - t0.$field,)*
                    rote_rounds: now.rote_rounds - t0.rote_rounds,
                    rote_round_ns: now.rote_round_ns - t0.rote_round_ns,
                }
            }
        }
    };
}

counts! {
    /// Synchronous ecalls, batched ones included.
    ecalls => "sgxsim_ecalls_total",
    /// Asynchronous ecall hand-offs.
    async_ecalls => "sgxsim_async_ecalls_total",
    /// Batched ecalls (each also one of `ecalls`).
    batch_ecalls => "sgxsim_batch_ecalls_total",
    /// Synchronous ocalls.
    ocalls => "sgxsim_ocalls_total",
    /// Audit-log appends.
    appends => "core_appends_total",
    /// Rollback-counter binds (one per sealed batch).
    binds => "core_counter_binds_total",
    /// Journal fsyncs.
    fsyncs => "sealdb_journal_fsyncs_total",
}

/// What one run of a [`Scenario`] measured.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Point {
    /// Requests completed.
    pub requests: u64,
    /// Requests failed (refusals by an overloaded server not counted).
    pub errors: u64,
    /// Requests per second.
    pub req_s: f64,
    /// Mean latency, exact.
    pub mean_ms: f64,
    /// Median latency: an upper bound within 1/16 (histogram buckets).
    pub p50_ms: f64,
    /// 99th-percentile latency, quantised likewise.
    pub p99_ms: f64,
    /// Mean CPU utilisation of the whole process, clients included
    /// (100 = one core busy).
    pub cpu_pct: f64,
    /// Telemetry deltas over the run; divide with [`Point::per_request`].
    pub counts: Counts,
}

impl Point {
    /// `count` per completed request.
    pub fn per_request(&self, count: u64) -> f64 {
        per(count, self.requests)
    }
}

/// `n` per `d`, with nothing counted reading as "per one".
pub fn per(n: u64, d: u64) -> f64 {
    n as f64 / (d as f64).max(1.0)
}

/// Throughput, for [`Repeated::of`] and [`Repeated::vs`].
pub fn req_s(p: &Point) -> f64 {
    p.req_s
}

/// Mean latency in ms, for [`Repeated::of`] and [`Repeated::vs`].
pub fn mean_ms(p: &Point) -> f64 {
    p.mean_ms
}

/// What [`repeat`] collected: `reps[r][i]` is configuration `i` in
/// repetition `r`.
pub struct Repeated<T> {
    /// One row per repetition, one entry per configuration.
    pub reps: Vec<Vec<T>>,
}

/// Runs `n` configurations [`REPS`] times: `run(i)` measures
/// configuration `i`. The configurations of one repetition run back to
/// back and the order flips every repetition, so host drift (10–20 %
/// over minutes, PR 11's noise study) hits every configuration alike
/// and a per-repetition ratio compares neighbours in time.
pub fn repeat<T>(n: usize, mut run: impl FnMut(usize) -> T) -> Repeated<T> {
    let reps = (0..REPS)
        .map(|r| {
            let flipped = r % 2 == 1;
            let order = (0..n).map(|k| if flipped { n - 1 - k } else { k });
            let mut rep: Vec<T> = order.map(&mut run).collect();
            if flipped {
                rep.reverse();
            }
            rep
        })
        .collect();
    Repeated { reps }
}

impl<T> Repeated<T> {
    /// The spread over repetitions of any figure computed from one
    /// repetition's records.
    pub fn spread(&self, f: impl Fn(&[T]) -> f64) -> Spread {
        Spread::of(self.reps.iter().map(|rep| f(rep)).collect())
    }

    /// The spread of `metric` for configuration `i`.
    pub fn of(&self, i: usize, metric: impl Fn(&T) -> f64) -> Spread {
        self.spread(|rep| metric(&rep[i]))
    }

    /// Configuration `i` against configuration `base`, in percent: the
    /// spread of the per-repetition *paired* ratios. Two medians taken
    /// apart can show a difference (even a sign) no single repetition
    /// had; the median of paired ratios cannot.
    pub fn vs(&self, i: usize, base: usize, metric: impl Fn(&T) -> f64) -> Spread {
        self.spread(|rep| (metric(&rep[i]) / metric(&rep[base]) - 1.0) * 100.0)
    }
}

/// Median and range of one figure over the repetitions.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spread {
    /// Median (mean of the middle two for an even count).
    pub median: f64,
    /// Smallest value seen.
    pub min: f64,
    /// Largest value seen.
    pub max: f64,
}

impl Spread {
    fn of(mut v: Vec<f64>) -> Spread {
        v.sort_by(f64::total_cmp);
        let mid = v.len() / 2;
        Spread {
            median: (v[mid] + v[v.len() - 1 - mid]) / 2.0,
            min: v[0],
            max: v[v.len() - 1],
        }
    }

    /// `median (min–max)` with `decimals` decimals.
    pub fn cell(&self, decimals: usize) -> String {
        let Spread { median, min, max } = self;
        format!("{median:.decimals$} ({min:.decimals$}–{max:.decimals$})")
    }

    /// A signed percentage, `median% (min to max)`, marked when the
    /// range straddles zero: such a figure has no resolved sign.
    pub fn pct_cell(&self) -> String {
        let Spread { median, min, max } = self;
        let unresolved = if *min < 0.0 && *max > 0.0 {
            ", sign unresolved"
        } else {
            ""
        };
        format!("{median:+.1}% ({min:+.1} to {max:+.1}{unresolved})")
    }
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

/// Prints a table as GitHub markdown (padded, so it also reads in a
/// terminal): the output pastes into EXPERIMENTS.md as is.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n### {title}\n");
    let header: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    let width = |i: usize| {
        let column = std::iter::once(&header)
            .chain(rows)
            .filter_map(|r| r.get(i));
        column.map(|c| c.chars().count()).max().unwrap_or(0).max(3)
    };
    let widths: Vec<usize> = (0..header.len()).map(width).collect();
    let line = |cells: &[String]| {
        let padded = cells.iter().zip(&widths).map(|(c, w)| format!("{c:<w$}"));
        println!("| {} |", padded.collect::<Vec<_>>().join(" | "));
    };
    line(&header);
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    rows.iter().for_each(|row| line(row));
}

/// Prints a latency-vs-throughput sweep and its summary. `r` holds, for
/// each client count in turn, one point per label (so the
/// configurations of one client count ran back to back). The summary
/// compares peaks the way the paper does, but per repetition: each
/// repetition's peak against the same repetition's peak of the first
/// label.
pub fn print_load_curve(title: &str, labels: &[&str], clients: &[usize], r: &Repeated<Point>) {
    let n = labels.len();
    let mut rows = Vec::new();
    for (c, label) in labels.iter().enumerate() {
        for (k, count) in clients.iter().enumerate() {
            let i = k * n + c;
            let cells = [r.of(i, req_s).cell(0), r.of(i, mean_ms).cell(1)];
            rows.push([vec![label.to_string(), count.to_string()], cells.to_vec()].concat());
        }
    }
    let headers = [
        "config",
        "clients",
        "throughput (req/s)",
        "mean latency (ms)",
    ];
    print_table(title, &headers, &rows);
    let peak = |rep: &[Point], c: usize| {
        let points = (0..clients.len()).map(|k| rep[k * n + c].req_s);
        points.fold(0.0, f64::max)
    };
    let summary: Vec<Vec<String>> = (0..n)
        .map(|c| {
            let vs = r.spread(|rep| (peak(rep, c) / peak(rep, 0) - 1.0) * 100.0);
            let vs = if c == 0 { "-".into() } else { vs.pct_cell() };
            vec![
                labels[c].to_string(),
                r.spread(|rep| peak(rep, c)).cell(0),
                vs,
            ]
        })
        .collect();
    let headers = [
        "config",
        "peak req/s",
        &format!("vs {} (paired)", labels[0]),
    ];
    print_table(&format!("{title}: peak throughput"), &headers, &summary);
}

/// Runs and prints a sweep of one parameter of the asynchronous call
/// runtime (Tab. 3, Tab. 4) under the §6.6 load at 1 KB on four
/// workers: `vary(base, v)` is the runtime at value `v`, where `base`
/// is [`paper_runtime`].
pub fn print_runtime_sweep(
    title: &str,
    parameter: &str,
    values: &[usize],
    vary: impl Fn(RuntimeConfig, usize) -> RuntimeConfig,
) {
    let workers = 4;
    let base = paper_runtime(workers);
    let r = repeat(values.len(), |i| {
        let runtime = Some(vary(base.clone(), values[i]));
        Scenario::paper_calls(App::Static, BenchConfig::Process, workers, runtime)
            .new_connections(1024)
            .run()
    });
    let rows: Vec<Vec<String>> = (0..values.len())
        .map(|i| {
            vec![
                values[i].to_string(),
                r.of(i, req_s).cell(0),
                r.of(i, mean_ms).cell(1),
                r.of(i, |p| p.cpu_pct).cell(0),
            ]
        })
        .collect();
    let headers = [parameter, "throughput (req/s)", "latency (ms)", "%CPU"];
    print_table(title, &headers, &rows);
}

/// `n` bytes as the paper's axis labels them.
pub fn human_size(n: usize) -> String {
    if n >= 1 << 20 {
        format!("{} MB", n >> 20)
    } else if n >= 1 << 10 {
        format!("{} KB", n >> 10)
    } else {
        format!("{n} B")
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
