//! `audit_readback`: the read side of the log. What an auditor or a
//! restarting shard does with a sealed journal: open it (unseal,
//! replay, recover), verify the chain and the signed head, and run
//! every invariant with a full scan.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use libseal::log::{AuditLog, CommitMode, LogBacking, NoGuard, RollbackGuard, RoteGuard};
use libseal::{Checker, DropboxModule, GitModule, LibSealError, OwnCloudModule, ServiceModule};
use libseal_crypto::ed25519::SigningKey;
use libseal_httpx::http::Request;
use libseal_rote::Cluster;
use libseal_services::apache::Router;
use libseal_services::dropbox::DropboxServer;
use libseal_services::git::{GitAttack, GitBackend};
use libseal_services::owncloud::OwnCloudServer;

use crate::gen::{DropboxClient, GitClient, OwnCloudSession, Rng, Script};
use crate::load::Sample;
use crate::out_dir;
use crate::span::{maybe_span, Tracer};

pub const NAME: &str = "audit_readback";

/// Journals per repetition: eight per service module.
pub const JOURNALS: usize = 24;
/// Request/response pairs per journal, cycled over the journals. The
/// full check is quadratic in them today, so larger logs would leave
/// room for a handful of audits per run and nothing else.
pub const PAIR_COUNTS: [u64; 4] = [16, 32, 64, 128];

/// The services whose logs are read back.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Audited {
    Git,
    OwnCloud,
    Dropbox,
}

impl Audited {
    pub fn module(self) -> Arc<dyn ServiceModule> {
        match self {
            Audited::Git => Arc::new(GitModule),
            Audited::OwnCloud => Arc::new(OwnCloudModule),
            Audited::Dropbox => Arc::new(DropboxModule),
        }
    }

    fn backend(self) -> Box<dyn Router> {
        match self {
            Audited::Git => Box::new(Arc::new(GitBackend::new())),
            Audited::OwnCloud => Box::new(Arc::new(OwnCloudServer::new())),
            Audited::Dropbox => Box::new(Arc::new(DropboxServer::new())),
        }
    }

    pub fn script(self, rng: Rng) -> Box<dyn Script> {
        match self {
            Audited::Git => Box::new(GitClient::new(rng)),
            Audited::OwnCloud => Box::new(OwnCloudSession::new(rng)),
            Audited::Dropbox => Box::new(DropboxClient::new(rng)),
        }
    }
}

/// `pairs` exchanges in wire format: the script's requests answered
/// by `backend`, each answer checked by the script.
fn exchanges(script: &mut dyn Script, backend: &dyn Router, pairs: u64) -> Vec<(Vec<u8>, Vec<u8>)> {
    (0..pairs)
        .map(|_| {
            let req = script.next_request();
            let rsp = backend.handle(&req);
            assert!(
                script.check(&rsp),
                "the backend answered its own script wrongly"
            );
            (req.to_bytes(), rsp.to_bytes())
        })
        .collect()
}

/// `pairs` honest request/response pairs: the service's script
/// answered by the service's own backend.
pub fn honest_pairs(service: Audited, rng: Rng, pairs: u64) -> Vec<(Vec<u8>, Vec<u8>)> {
    exchanges(
        service.script(rng).as_mut(),
        service.backend().as_ref(),
        pairs,
    )
}

const SEAL_KEY: [u8; 32] = [0x5e; 32];
const SIGNER_SEED: [u8; 32] = [0x51; 32];

/// Opens the audit log at `backing` the way an enclave does: sealing
/// codec and log signer, with a ROTE quorum as the rollback guard
/// when one is given.
pub fn open_log(
    backing: LogBacking,
    module: &dyn ServiceModule,
    guard: Option<&Arc<Cluster>>,
) -> Result<AuditLog, LibSealError> {
    let guard: Box<dyn RollbackGuard> = match guard {
        Some(cluster) => Box::new(RoteGuard(Arc::clone(cluster))),
        None => Box::new(NoGuard),
    };
    AuditLog::open(
        backing,
        SEAL_KEY,
        SigningKey::from_seed(&SIGNER_SEED),
        guard,
        module.schema_sql(),
        module.tables(),
    )
}

pub fn rote_cluster() -> Arc<Cluster> {
    Arc::new(Cluster::new(1, Duration::ZERO, b"libseal-benchmark").expect("rote cluster"))
}

/// Logs `pairs` the way the serving path does: staged appends, then
/// one seal (counter bind + head signature) per pair.
pub fn log_pairs(log: &mut AuditLog, module: &dyn ServiceModule, pairs: &[(Vec<u8>, Vec<u8>)]) {
    log.set_commit_mode(CommitMode::Staged);
    for (req, rsp) in pairs {
        module.log_pair(req, rsp, log).expect("log_pair");
        log.seal().expect("seal");
    }
}

/// A sealed journal on disk, kept as bytes so every audit starts from
/// the same file. The journals carry no rollback guard: an auditor
/// reads them away from the shard's counter quorum, and the simulated
/// quorum's polling node threads (four per log) would otherwise sit
/// beside every timed audit.
pub struct Journal {
    module: Arc<dyn ServiceModule>,
    path: PathBuf,
    sealed: Vec<u8>,
    pub pairs: u64,
    pub entries: u64,
}

impl Journal {
    fn build(service: Audited, tag: &str, pairs: &[(Vec<u8>, Vec<u8>)]) -> Journal {
        let path = out_dir().join(format!("readback-{}-{tag}.log", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let module = service.module();
        let mut log =
            open_log(LogBacking::Disk(path.clone()), module.as_ref(), None).expect("new journal");
        log_pairs(&mut log, module.as_ref(), pairs);
        log.flush().expect("flush");
        let entries = log.entries();
        drop(log);
        let sealed = std::fs::read(&path).expect("journal bytes");
        Journal {
            module,
            path,
            sealed,
            pairs: pairs.len() as u64,
            entries,
        }
    }

    /// Puts the journal file back to its sealed state (untimed): an
    /// audit appends a restart-epoch record, and every audit must read
    /// the same bytes.
    fn restore(&self) {
        use std::io::Write as _;
        let mut file = std::fs::File::create(&self.path).expect("restore journal");
        file.write_all(&self.sealed).expect("restore journal");
        // Synced here, untimed: otherwise the audit's own fsync would
        // pay for writing the whole restored file back.
        file.sync_all().expect("restore journal");
    }

    /// One audit. `Ok(violations)` when the log opened and verified.
    fn audit(&self, op: u64, tracer: &mut Option<Tracer>) -> Result<usize, LibSealError> {
        let module = self.module.as_ref();
        let log = maybe_span(tracer, "core.open_recover", op, || {
            // Opening appends a restart-epoch record and fsyncs it,
            // which is why the file is restored before every audit.
            open_log(LogBacking::Disk(self.path.clone()), module, None)
        })?;
        maybe_span(tracer, "core.verify", op, || log.verify())?;
        if log.entries() != self.entries {
            return Err(LibSealError::Tampered(format!(
                "journal holds {} entries, {} were sealed",
                log.entries(),
                self.entries
            )));
        }
        let outcome = maybe_span(tracer, "core.check_full", op, || {
            Checker::run_checks(module, &log)
        })?;
        Ok(outcome.total_violations())
    }
}

impl Drop for Journal {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// The journals of one repetition, built from `seed`.
pub fn build_journals(seed: u64, rep: u64) -> Vec<Journal> {
    (0..JOURNALS)
        .map(|j| {
            let service = [Audited::Git, Audited::OwnCloud, Audited::Dropbox][j % 3];
            let pairs = PAIR_COUNTS[(j / 3) % PAIR_COUNTS.len()];
            let rng = Rng::stream(seed, NAME, rep, j as u64);
            Journal::build(
                service,
                &format!("{rep}-{j}"),
                &honest_pairs(service, rng, pairs),
            )
        })
        .collect()
}

/// What the timed audits of one repetition measured.
#[derive(Default)]
pub struct Audits {
    /// One per clean audit; `at_ns` is the audit time spent so far.
    pub samples: Vec<Sample>,
    pub attempted: u64,
    pub failed: u64,
    pub cpu_s: f64,
    /// The kernel's part of `cpu_s`.
    pub sys_s: f64,
    pub pairs: u64,
    pub entries: u64,
}

/// Audits every journal `passes` times, on this one thread.
pub fn run_passes(journals: &[Journal], passes: u64, tracer: &mut Option<Tracer>) -> Audits {
    let mut out = Audits::default();
    let mut timed = Duration::ZERO;
    for pass in 0..passes {
        let (user0, sys0) = crate::host::cpu_user_sys();
        for (j, journal) in journals.iter().enumerate() {
            journal.restore();
            let op = pass * journals.len() as u64 + j as u64;
            let t0 = Instant::now();
            let verdict = journal.audit(op, tracer);
            let took = t0.elapsed();
            timed += took;
            out.attempted += 1;
            out.pairs += journal.pairs;
            out.entries += journal.entries;
            match verdict {
                Ok(0) => out.samples.push(Sample {
                    at_ns: timed.as_nanos() as u64,
                    lat_ns: took.as_nanos() as u64,
                }),
                _ => out.failed += 1,
            }
        }
        // Restoring the files is not part of an audit: samples are
        // placed on the audits' own clock. CPU time cannot be split
        // that way, so the (small) restore cost stays in it.
        let (user, sys) = crate::host::cpu_user_sys();
        out.cpu_s += user + sys - user0 - sys0;
        out.sys_s += sys - sys0;
    }
    out
}

/// The untimed negative controls: an audit that reports nothing for
/// either of these has been optimised into a no-op. Returns the
/// controls that were *missed*.
pub fn negative_controls(seed: u64) -> Vec<String> {
    let mut missed = Vec::new();

    // A sealed journal with one flipped byte must not audit clean.
    let pairs = honest_pairs(Audited::Git, Rng::stream(seed, NAME, 99, 0), 64);
    let mut journal = Journal::build(Audited::Git, "flipped", &pairs);
    let at = journal.sealed.len() / 2;
    journal.sealed[at] ^= 0x01;
    journal.restore();
    if let Ok(violations) = journal.audit(0, &mut None) {
        missed.push(format!(
            "a journal with byte {at} flipped audited clean ({violations} violations)"
        ));
    }

    // A log of a rollback attack must fail the full check.
    let backend = Arc::new(GitBackend::new());
    let mut script = GitClient::new(Rng::stream(seed, NAME, 99, 1));
    let mut wire = exchanges(&mut script, &backend, 30);
    let branch = "refs/heads/b0".to_string();
    let history = backend.branch_history(script.repo(), &branch);
    assert!(
        history.len() >= 2,
        "thirty ops push every branch more than once"
    );
    backend.set_attack(GitAttack::Rollback {
        repo: script.repo().to_string(),
        old_cid: history[0].clone(),
        branch,
    });
    let fetch = Request::new(
        "GET",
        &format!("/repo/{}/info/refs?service=git-upload-pack", script.repo()),
        Vec::new(),
    );
    wire.push((fetch.to_bytes(), backend.handle(&fetch).to_bytes()));
    let journal = Journal::build(Audited::Git, "rollback", &wire);
    journal.restore();
    match journal.audit(0, &mut None) {
        Ok(0) => missed.push("a rolled-back ref advertisement passed the full check".to_string()),
        Ok(_) => {}
        Err(e) => missed.push(format!("the rollback log did not open and verify: {e}")),
    }
    missed
}
