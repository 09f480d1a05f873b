//! The four serving workloads: one audited plane at the deployment
//! default behind a real server on loopback, driven by the in-process
//! load generator.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use libseal::{
    DropboxModule, GitModule, GuardConfig, LibSeal, LibSealConfig, LogBacking, ServiceModule,
};
use libseal_services::apache::{ApacheConfig, ApacheServer, StaticContentRouter};
use libseal_services::dropbox::DropboxServer;
use libseal_services::git::GitBackend;
use libseal_services::squid::{SquidConfig, SquidProxy};
use libseal_services::{HttpsClient, TlsMode};
use libseal_tlsx::cert::CertificateAuthority;

use crate::counters::Counters;
use crate::gen::{BulkUpDown, DropboxClient, GitClient, Rng, Script, StaticGet};
use crate::load::{pace, saturate, Client, Leg};
use crate::readback::{self, Audited};
use crate::span::{Span, Tracer};
use crate::{host, out_dir};

/// What the serving workloads differ in.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Service {
    /// Apache, `GET /content/1024`.
    StaticSmall,
    /// Apache over the Git backend.
    Git,
    /// Apache, 256 KiB down then 256 KiB up.
    Bulk,
    /// Squid in front of a native Apache origin serving Dropbox.
    SquidDropbox,
}

pub struct Serving {
    pub name: &'static str,
    pub service: Service,
    pub keepalive: bool,
    /// Saturation throughput the legs were sized for, measured on the
    /// 2-core reference host at the commit that added the benchmark.
    pub sized_for_ops_per_s: f64,
    /// Open-loop rate of the paced leg: a bit over a third of the
    /// above, so the service is loaded but never backlogged.
    pub paced_rate: f64,
    /// Telemetry the workload must move; a zero delta fails the run.
    pub must_move: &'static [&'static str],
}

const BULK_BYTES: usize = 256 * 1024;

/// Counters every audited serving workload moves.
const SERVING_MOVES: [&str; 7] = [
    "sgxsim_ecalls_total",
    "sgxsim_cycles_charged_total",
    "sgxsim_batch_ecalls_total",
    "sgxsim_batch_items_total",
    "tlsx_records_sealed_total",
    "tlsx_records_opened_total",
    "lthread_pool_jobs_total",
];

/// Counters only a workload that logs pairs moves.
const LOGGING_MOVES: [&str; 15] = [
    "sgxsim_ecalls_total",
    "sgxsim_ocalls_total",
    "sgxsim_cycles_charged_total",
    "sgxsim_batch_ecalls_total",
    "sgxsim_batch_items_total",
    "tlsx_records_sealed_total",
    "tlsx_records_opened_total",
    "core_appends_total",
    "core_head_signs_total",
    "core_counter_binds_total",
    "sealdb_journal_fsyncs_total",
    "sealdb_statements_total",
    "lthread_pool_jobs_total",
    "core_commit_wait_ns",
    "rote_round_ns",
];

pub const WORKLOADS: [Serving; 4] = [
    Serving {
        name: "apache_newconn_1k",
        service: Service::StaticSmall,
        keepalive: false,
        sized_for_ops_per_s: 850.0,
        paced_rate: 300.0,
        must_move: &SERVING_MOVES,
    },
    Serving {
        name: "git_keepalive",
        service: Service::Git,
        keepalive: true,
        sized_for_ops_per_s: 700.0,
        paced_rate: 250.0,
        must_move: &LOGGING_MOVES,
    },
    Serving {
        name: "bulk_updown_256k",
        service: Service::Bulk,
        keepalive: true,
        sized_for_ops_per_s: 410.0,
        paced_rate: 170.0,
        must_move: &SERVING_MOVES,
    },
    Serving {
        name: "squid_dropbox_keepalive",
        service: Service::SquidDropbox,
        keepalive: true,
        sized_for_ops_per_s: 480.0,
        paced_rate: 170.0,
        must_move: &LOGGING_MOVES,
    },
];

impl Serving {
    fn ssm(&self) -> Arc<dyn ServiceModule> {
        match self.service {
            // Apache serves Git in the paper's deployment; static
            // content parses as HTTP but matches no Git route, so the
            // module logs nothing for it.
            Service::StaticSmall | Service::Bulk | Service::Git => Arc::new(GitModule),
            Service::SquidDropbox => Arc::new(DropboxModule),
        }
    }

    /// Where the plane keeps its journal: on disk when the workload
    /// logs pairs, in memory when it logs nothing. A journal that only
    /// ever holds the schema costs the workload nothing but the
    /// verifier's compaction fsyncs every 25 responses, and on the
    /// reference sandbox those, under `apache_newconn_1k`, left the
    /// guest kernel's I/O-completion worker unscheduled for 7 to 230 s
    /// in one run of eight (README.md, "Journals").
    fn backing(&self, journal: &Path) -> LogBacking {
        match self.log_pair_stage() {
            Some(_) => LogBacking::Disk(journal.to_path_buf()),
            None => LogBacking::Memory,
        }
    }

    /// The stage that prices this workload's `log_pair`, if it logs.
    pub fn log_pair_stage(&self) -> Option<&'static str> {
        match self.service {
            Service::Git => Some("core.ssm_git_log_pair_us"),
            Service::SquidDropbox => Some("core.ssm_dropbox_log_pair_us"),
            Service::StaticSmall | Service::Bulk => None,
        }
    }

    /// Nominal plaintext bytes per op through the record layer,
    /// requests and responses of every TLS leg together.
    pub fn record_bytes_per_op(&self) -> f64 {
        match self.service {
            Service::StaticSmall => 1200.0,
            Service::Git => 400.0,
            Service::Bulk => BULK_BYTES as f64,
            // Two TLS legs: client to proxy, proxy to origin.
            Service::SquidDropbox => 2.0 * 1000.0,
        }
    }

    pub fn script(&self, rng: Rng) -> Box<dyn Script> {
        match self.service {
            Service::StaticSmall => Box::new(StaticGet::new(rng, 1024)),
            Service::Git => Box::new(GitClient::new(rng)),
            Service::Bulk => Box::new(BulkUpDown::new(rng, BULK_BYTES)),
            Service::SquidDropbox => Box::new(DropboxClient::new(rng)),
        }
    }
}

/// Op counts of one repetition. They follow from `--seconds` alone,
/// never from the clock, so two runs of one command do the same work.
#[derive(Clone, Copy)]
pub struct Sizes {
    pub warmup: u64,
    pub sat: u64,
    pub paced: u64,
}

/// Timed repetitions whose median is reported.
pub const REPS: u64 = 6;

impl Sizes {
    /// Each of the [`REPS`] repetitions gets an equal share of
    /// `seconds`, half for the saturation leg and half for the paced
    /// leg, at the rates the workload was sized for.
    pub fn for_seconds(w: &Serving, seconds: f64) -> Sizes {
        let leg_s = seconds / (2 * REPS) as f64;
        let ops = |rate: f64| ((rate * leg_s).round() as u64).max(threads() as u64);
        let sat = ops(w.sized_for_ops_per_s);
        Sizes {
            warmup: sat.min(200),
            sat,
            paced: ops(w.paced_rate),
        }
    }
}

/// Generator threads, one connection each.
pub fn threads() -> usize {
    host::nproc().min(2)
}

/// The running servers of one repetition: the TLS-terminating front
/// the clients talk to and, behind a proxy, its origin.
struct Stack {
    front: Front,
    origin: Option<ApacheServer>,
}

enum Front {
    Apache(ApacheServer),
    Squid(SquidProxy),
}

impl Stack {
    fn start(service: Service, ca: &CertificateAuthority, tls: TlsMode) -> Stack {
        let apache = |tls, router| {
            ApacheServer::start(ApacheConfig::new(tls, router)).expect("apache starts")
        };
        let front = |router| Stack {
            front: Front::Apache(apache(tls.clone(), router)),
            origin: None,
        };
        match service {
            Service::StaticSmall | Service::Bulk => front(Arc::new(StaticContentRouter)),
            Service::Git => front(Arc::new(Arc::new(GitBackend::new()))),
            Service::SquidDropbox => {
                let (key, cert) = ca
                    .issue_identity("dropbox-origin", &[0x33; 32])
                    .expect("origin identity");
                let origin = apache(
                    TlsMode::Native { cert, key },
                    Arc::new(Arc::new(DropboxServer::new())),
                );
                let config =
                    SquidConfig::new(tls, origin.addr(), vec![ca.root_key()], "dropbox-origin");
                Stack {
                    front: Front::Squid(SquidProxy::start(config).expect("squid starts")),
                    origin: Some(origin),
                }
            }
        }
    }

    fn addr(&self) -> std::net::SocketAddr {
        match &self.front {
            Front::Apache(server) => server.addr(),
            Front::Squid(proxy) => proxy.addr(),
        }
    }

    fn drain(self) {
        match self.front {
            Front::Apache(server) => server.drain(),
            Front::Squid(proxy) => proxy.drain(),
        }
        if let Some(origin) = self.origin {
            origin.drain();
        }
    }
}

/// Whether a repetition runs the audited plane or the native baseline.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Termination {
    Audited,
    Native,
}

pub struct RepOptions {
    pub termination: Termination,
    pub traced: bool,
    pub paced_leg: bool,
}

/// What one repetition measured.
pub struct Rep {
    pub setup_s: f64,
    pub sat: Leg,
    pub paced: Leg,
    /// Telemetry moved by the timed legs (warm-up excluded).
    pub moved: Counters,
    /// Ops the timed legs attempted.
    pub timed_ops: u64,
    /// Post-run checks that failed (verify_log, check_now, ...).
    pub verdict_failures: Vec<String>,
    /// CPU seconds per second of the idle, warmed-up stack (traced
    /// repetitions only).
    pub idle_cpu_share: f64,
    pub warmup_failed: u64,
    pub warmup_attempted: u64,
    /// What went wrong with the first few failed ops of each client.
    pub op_failures: Vec<String>,
    pub client_spans: Vec<Vec<Span>>,
}

fn journal_path(w: &Serving, rep: u64) -> PathBuf {
    let path = out_dir().join(format!(
        "journal-{}-{}-{rep}.log",
        w.name,
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

/// Primes the host before the first repetition, untimed: flushes
/// whatever the filesystem still owes the disk, then opens, fills,
/// trims (compacts) and drops one disk-backed log. On the reference
/// sandbox the first journal compactions of a process occasionally sat
/// in disk wait for seconds - up to the clients' 30 s read timeout,
/// which then fails two ops - and only ever in the first repetition's
/// warm-up. Here nothing is in flight that could time out.
pub fn prime_host(seed: u64) {
    let _ = std::process::Command::new("sync").status();
    let path = out_dir().join(format!("prime-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let module = GitModule;
    let mut log =
        readback::open_log(LogBacking::Disk(path.clone()), &module, None).expect("priming log");
    let pairs = readback::honest_pairs(Audited::Git, Rng::stream(seed, "prime", 0, 0), 30);
    for chunk in pairs.chunks(10) {
        readback::log_pairs(&mut log, &module, chunk);
        log.flush().expect("flush");
        log.trim(module.trim_queries()).expect("trim");
    }
    drop(log);
    let _ = std::fs::remove_file(&path);
}

/// One repetition: fresh identity, plane, servers and clients; warm
/// up; the timed legs; then the untimed drain and log verdicts.
pub fn run_rep(w: &Serving, seed: u64, rep: u64, sizes: Sizes, opt: &RepOptions) -> Rep {
    let t_setup = Instant::now();
    let ca = CertificateAuthority::new("BenchmarkCA", &[0x42; 32]);
    let (key, cert) = ca
        .issue_identity("localhost", &[0x43; 32])
        .expect("server identity");
    let journal = journal_path(w, rep);
    let plane = (opt.termination == Termination::Audited).then(|| {
        let config = LibSealConfig::builder(cert.clone(), key.clone())
            .ssm(w.ssm())
            .backing(w.backing(&journal))
            .guard(GuardConfig::Rote {
                f: 1,
                latency: Duration::ZERO,
            })
            .check_interval(25)
            .build();
        LibSeal::new(config).expect("audited plane")
    });
    let tls = match &plane {
        Some(plane) => TlsMode::LibSeal(plane.clone()),
        None => TlsMode::Native { cert, key },
    };
    let stack = Stack::start(w.service, &ca, tls);
    let https = HttpsClient::new(stack.addr(), vec![ca.root_key()], "localhost");
    let epoch = Instant::now();
    let mut clients: Vec<Client> = (0..threads())
        .map(|c| {
            let script = w.script(Rng::stream(seed, w.name, rep, c as u64));
            let mut client = Client::new(https.clone(), w.keepalive, script);
            client.tracer = opt.traced.then(|| Tracer::new(epoch));
            client
        })
        .collect();
    let warmup = saturate(&mut clients, 0, sizes.warmup);
    let setup_s = t_setup.elapsed().as_secs_f64();

    // Traced repetitions first watch the warmed-up stack do nothing:
    // what it burns while idle (polling carriers, quorum nodes) is CPU
    // no stage accounts for.
    let idle_cpu_share = if opt.traced {
        let (user0, sys0) = host::cpu_user_sys();
        let idle = Instant::now();
        std::thread::sleep(Duration::from_millis(300));
        let (user, sys) = host::cpu_user_sys();
        (user + sys - user0 - sys0) / idle.elapsed().as_secs_f64()
    } else {
        0.0
    };

    let before = Counters::read();
    let sat = saturate(&mut clients, sizes.warmup, sizes.sat);
    let paced = if opt.paced_leg {
        pace(
            &mut clients,
            sizes.warmup + sizes.sat,
            sizes.paced,
            w.paced_rate,
        )
    } else {
        Leg::default()
    };
    let moved = Counters::read().since(&before);

    clients.iter_mut().for_each(Client::close);
    stack.drain();
    let mut verdict_failures = Vec::new();
    if let Some(plane) = &plane {
        verdict_failures = verdicts(w, plane);
    }
    drop(plane);
    let _ = std::fs::remove_file(&journal);
    Rep {
        setup_s,
        timed_ops: sat.attempted + paced.attempted,
        sat,
        paced,
        moved,
        verdict_failures,
        idle_cpu_share,
        warmup_failed: warmup.failed,
        warmup_attempted: warmup.attempted,
        op_failures: clients
            .iter_mut()
            .flat_map(|c| std::mem::take(&mut c.failures))
            .map(|f| format!("repetition {rep} {f}"))
            .collect(),
        // Warm-up ops are not part of the trace.
        client_spans: clients
            .iter_mut()
            .filter_map(|c| c.tracer.take())
            .map(|t| {
                let timed = t.into_spans().into_iter().filter(|s| s.op >= sizes.warmup);
                timed.collect()
            })
            .collect(),
    }
}

/// The audit verdicts every repetition must end with: the log drains
/// and verifies, a full check finds no violation, and a workload that
/// logs pairs has a log to show for it.
fn verdicts(w: &Serving, plane: &LibSeal) -> Vec<String> {
    let mut failures = Vec::new();
    if let Err(e) = plane.drain(0) {
        failures.push(format!("drain: {e}"));
    }
    if let Err(e) = plane.verify_log(0) {
        failures.push(format!("verify_log: {e}"));
    }
    match plane.check_now(0) {
        Ok(outcome) if outcome.total_violations() == 0 => {}
        Ok(outcome) => failures.push(format!(
            "check_now: {} violations",
            outcome.total_violations()
        )),
        Err(e) => failures.push(format!("check_now: {e}")),
    }
    match plane.log_stats(0) {
        Ok((entries, _, _)) if entries == 0 && w.log_pair_stage().is_some() => {
            failures.push("log_stats: no entries although pairs were logged".to_string());
        }
        Ok(_) => {}
        Err(e) => failures.push(format!("log_stats: {e}")),
    }
    failures
}
