//! The non-repudiable audit log (§5.1).
//!
//! Tuples extracted by a service-specific module land in relational
//! tables inside the enclave's embedded database. Integrity comes from
//! three mechanisms, mirroring the paper:
//!
//! 1. **Hash chain**: every appended tuple extends a SHA-256 chain
//!    (like PeerReview). The chain rows live in a side table
//!    `_libseal_chain(seq, payload, hash)` so that trimming can
//!    recompute hashes without touching every data row (§5.1, "Log
//!    trimming"). An entry names its data row by content: the payload
//!    is the table name and the row's values, rendered injectively.
//! 2. **Signature**: the chain head, entry count and rollback-counter
//!    value are Ed25519-signed by the enclave; only LibSEAL can
//!    produce valid heads.
//! 3. **Rollback protection**: each append advances a monotonic
//!    counter — either the slow SGX hardware counter or a ROTE quorum
//!    ([`RollbackGuard`]).
//!
//! Persistence uses the database journal with a sealing codec
//! ([`SealingCodec`]) so records on the untrusted disk are encrypted
//! and authenticated under a key of the log's own, derived from the
//! enclave's seal key ([`journal_key`]).
//!
//! Every change is **staged, then committed**. An append stages a data
//! row and a chain row; a trim stages the SSM's deletions. Neither binds,
//! signs or syncs. One commit — [`AuditLog::commit`] under the audit
//! lock, or [`seal_staged`] with the counter round and the fdatasync
//! taken outside it — then binds the rollback counter, signs the head
//! over everything staged and writes and fsyncs the journal at once: an
//! append's rows are already framed there, while a trim's were never
//! journaled and land as one snapshot frame of the post-trim log behind
//! them. A commit writes whatever its seal framed even when the seal
//! fails, so the head it signed is on disk before the counter can move
//! again. A seal that fails leaves the log dirty and the durable journal
//! a legal earlier state; the next commit from anywhere covers the same
//! changes. The one thing given up rather than retried is a trim whose
//! seal failed after the counter bind: the counter step signs the log as
//! it was, and the next due trim starts over.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering::SeqCst};
use std::sync::Arc;

use libseal_crypto::ed25519::{SigningKey, VerifyingKey};
use libseal_crypto::gcm::Aes256Gcm;
use libseal_crypto::hkdf;
use libseal_crypto::sha2::Sha256;
use libseal_sealdb::db::Prepared;
use libseal_sealdb::journal::JournalCodec;
use libseal_sealdb::value::GroupClass;
use libseal_sealdb::{quote_ident, Database, MatViewSpec, Value};

use crate::{LibSealError, Result};

/// Process-wide audit-log metrics: per-operation latency histograms
/// plus recovery/rollback-alarm event counters.
struct LogMetrics {
    append_ns: libseal_telemetry::Histogram,
    flush_ns: libseal_telemetry::Histogram,
    /// The phases of [`seal_staged`] before its fdatasync (which is
    /// `flush_ns`): the counter round, the bind and head signature (a
    /// staged trim's chain rebuild and snapshot frame included), and the
    /// journal write.
    seal_counter_ns: libseal_telemetry::Histogram,
    seal_sign_ns: libseal_telemetry::Histogram,
    seal_write_ns: libseal_telemetry::Histogram,
    trim_ns: libseal_telemetry::Histogram,
    verify_ns: libseal_telemetry::Histogram,
    appends: libseal_telemetry::Counter,
    counter_binds: libseal_telemetry::Counter,
    head_signs: libseal_telemetry::Counter,
    epoch_rotations: libseal_telemetry::Counter,
    recoveries: libseal_telemetry::Counter,
    rollback_alarms: libseal_telemetry::Counter,
    salvaged_bytes: libseal_telemetry::Counter,
}

fn log_metrics() -> &'static LogMetrics {
    static M: std::sync::OnceLock<LogMetrics> = std::sync::OnceLock::new();
    M.get_or_init(|| LogMetrics {
        append_ns: libseal_telemetry::histogram("core_append_ns"),
        flush_ns: libseal_telemetry::histogram("core_flush_ns"),
        seal_counter_ns: libseal_telemetry::histogram("core_seal_counter_ns"),
        seal_sign_ns: libseal_telemetry::histogram("core_seal_sign_ns"),
        seal_write_ns: libseal_telemetry::histogram("core_seal_write_ns"),
        trim_ns: libseal_telemetry::histogram("core_trim_ns"),
        verify_ns: libseal_telemetry::histogram("core_verify_ns"),
        appends: libseal_telemetry::counter("core_appends_total"),
        counter_binds: libseal_telemetry::counter("core_counter_binds_total"),
        head_signs: libseal_telemetry::counter("core_head_signs_total"),
        epoch_rotations: libseal_telemetry::counter("core_epoch_rotations_total"),
        recoveries: libseal_telemetry::counter("core_recoveries_total"),
        rollback_alarms: libseal_telemetry::counter("core_rollback_alarms_total"),
        salvaged_bytes: libseal_telemetry::counter("core_salvaged_bytes_total"),
    })
}

/// Where the audit log lives.
#[derive(Clone)]
pub enum LogBacking {
    /// In-memory only (the paper's `LibSEAL-mem` configuration).
    Memory,
    /// Persisted to a sealed journal at the given path, fsynced by
    /// every commit — once per group-commit batch, which
    /// `group_commit(1)` makes one request/response pair
    /// (`LibSEAL-disk`, §5.1).
    Disk(std::path::PathBuf),
}

/// Source of rollback-protecting monotonic counter values.
pub trait RollbackGuard: Send + Sync {
    /// Advances the counter, returning its new value.
    ///
    /// # Errors
    ///
    /// Implementations fail when the counter is unavailable (quorum
    /// loss, worn-out hardware counter).
    fn increment(&self) -> Result<u64>;
    /// The highest value the guard can currently attest to.
    ///
    /// # Errors
    ///
    /// As [`RollbackGuard::increment`].
    fn attested(&self) -> Result<u64>;
}

/// No rollback protection (baseline configurations).
pub struct NoGuard;

impl RollbackGuard for NoGuard {
    fn increment(&self) -> Result<u64> {
        Ok(0)
    }
    fn attested(&self) -> Result<u64> {
        Ok(0)
    }
}

/// ROTE-cluster-backed guard. Holds the cluster behind an [`Arc`] so
/// callers can keep a handle on it (failure injection, the counter
/// outliving a simulated enclave crash) while the log owns the guard.
pub struct RoteGuard(pub Arc<libseal_rote::Cluster>);

impl RollbackGuard for RoteGuard {
    fn increment(&self) -> Result<u64> {
        let (v, _acks) = self
            .0
            .increment()
            .map_err(|e| LibSealError::Log(format!("rote: {e}")))?;
        Ok(v)
    }
    fn attested(&self) -> Result<u64> {
        self.0
            .recover()
            .map_err(|e| LibSealError::Log(format!("rote: {e}")))
    }
}

/// SGX hardware-counter-backed guard: the alternative §5.1 rejects as
/// too slow. No [`crate::GuardConfig`] selects it; the `ablation`
/// bench builds it directly to measure that row.
pub struct HwCounterGuard(pub libseal_sgxsim::MonotonicCounter);

impl RollbackGuard for HwCounterGuard {
    fn increment(&self) -> Result<u64> {
        self.0
            .increment()
            .map_err(|e| LibSealError::Log(format!("sgx counter: {e}")))
    }
    fn attested(&self) -> Result<u64> {
        Ok(self.0.read())
    }
}

/// The key a log's journal is sealed under: the enclave's seal key
/// expanded (HKDF) with the log's signing identity. The shards of a
/// plane, each signing with its own key, therefore never share a
/// journal key, and the nonces of one key come from one log.
pub fn journal_key(seal_key: &[u8; 32], signer: &VerifyingKey) -> [u8; 32] {
    let mut key = [0u8; 32];
    let prk = hkdf::extract(b"libseal journal", seal_key);
    hkdf::expand(&prk, signer.as_bytes(), &mut key);
    key
}

/// Journal codec sealing every record with AES-256-GCM.
///
/// Nonce layout (12 bytes): `epoch u32le | counter-low u32le | 4 random
/// bytes`. The **epoch** is a sealed generation number persisted in
/// `_libseal_meta` and bumped on every open, so nonce uniqueness across
/// restarts rests on the monotone epoch rather than on 4 random bytes
/// not colliding; the random tail only covers the window before the
/// fresh epoch's meta row is durable, and two codecs over one key (two
/// logs given the same [`journal_key`]). Each codec draws one tail at
/// construction and puts it in every nonce, so sealing a record makes
/// no system call (an ocall in a real enclave), and two codecs sharing
/// a key and an epoch reuse a nonce only if their tails collide (2⁻³²
/// however many records they seal).
pub struct SealingCodec {
    aead: Aes256Gcm,
    /// Nonce counter; unique per record within one codec lifetime.
    counter: AtomicU64,
    /// Restart epoch mixed into every nonce.
    epoch: AtomicU32,
    /// This codec's nonce tail, drawn once from OS entropy.
    tail: [u8; 4],
}

impl SealingCodec {
    /// Creates a codec from a (sealing) key.
    ///
    /// # Panics
    ///
    /// On a CPU without AES-NI and PCLMULQDQ, which `LibSeal::new`
    /// refuses with an error first.
    pub fn new(key: [u8; 32]) -> Self {
        let mut tail = [0u8; 4];
        plat::entropy::fill(&mut tail);
        SealingCodec {
            aead: Aes256Gcm::new(&key),
            counter: AtomicU64::new(0),
            epoch: AtomicU32::new(0),
            tail,
        }
    }

    /// Rotate this many nonces before the 32-bit per-epoch space runs
    /// out, so `encode` never has to fail in practice.
    const ROTATE_AT: u64 = (u32::MAX as u64) - 1024;

    /// Sets the restart epoch (done once per open, after recovering the
    /// stored epoch from `_libseal_meta`).
    pub fn set_epoch(&self, epoch: u32) {
        self.epoch.store(epoch, SeqCst);
    }

    /// The current restart epoch.
    pub fn epoch(&self) -> u32 {
        self.epoch.load(SeqCst)
    }

    /// Whether the per-epoch nonce space is close enough to exhaustion
    /// that the owner should rotate to a fresh epoch now.
    pub fn needs_rotation(&self) -> bool {
        self.counter.load(SeqCst) >= Self::ROTATE_AT
    }

    /// Advances to a fresh epoch and resets the nonce counter,
    /// returning the new epoch. The owner persists the new epoch to
    /// `_libseal_meta` right away; journal append order then guarantees
    /// that any durable record sealed under the new epoch implies the
    /// epoch row itself is durable, exactly the invariant the open-time
    /// bump relies on.
    pub fn rotate_epoch(&self) -> u32 {
        let e = self.epoch.load(SeqCst).wrapping_add(1);
        self.epoch.store(e, SeqCst);
        self.counter.store(0, SeqCst);
        e
    }
}

impl JournalCodec for SealingCodec {
    fn encode(&self, plain: &[u8]) -> libseal_sealdb::Result<Vec<u8>> {
        let n = self.counter.fetch_add(1, SeqCst);
        // Reached only if the owner failed to rotate in time: surface a
        // typed error the caller can handle instead of aborting the
        // enclave mid-request.
        if n >= u64::from(u32::MAX) {
            return Err(libseal_sealdb::DbError::Exec(
                "sealing nonce space exhausted; epoch rotation required".into(),
            ));
        }
        let e = self.epoch.load(SeqCst);
        let mut nonce = [0u8; 12];
        nonce[..4].copy_from_slice(&e.to_le_bytes());
        nonce[4..8].copy_from_slice(&(n as u32).to_le_bytes());
        // Random tail: covers nonce reuse in the crash window before
        // this epoch's meta row reaches the disk.
        nonce[8..].copy_from_slice(&self.tail);
        let mut out = nonce.to_vec();
        out.extend_from_slice(&self.aead.seal(&nonce, b"libseal-journal", plain));
        Ok(out)
    }

    fn decode(&self, stored: &[u8]) -> libseal_sealdb::Result<Vec<u8>> {
        if stored.len() < 12 + 16 {
            return Err(libseal_sealdb::DbError::Exec(
                "sealed journal record too short".into(),
            ));
        }
        let mut nonce = [0u8; 12];
        nonce.copy_from_slice(&stored[..12]);
        self.aead
            .open(&nonce, b"libseal-journal", &stored[12..])
            .map_err(|_| {
                libseal_sealdb::DbError::Exec("sealed journal record failed to open".into())
            })
    }
}

/// A shared handle to a [`SealingCodec`]: the journal owns one clone
/// while the [`AuditLog`] keeps another to manage the restart epoch.
struct SharedCodec(Arc<SealingCodec>);

impl JournalCodec for SharedCodec {
    fn encode(&self, plain: &[u8]) -> libseal_sealdb::Result<Vec<u8>> {
        self.0.encode(plain)
    }
    fn decode(&self, stored: &[u8]) -> libseal_sealdb::Result<Vec<u8>> {
        self.0.decode(stored)
    }
}

/// Schema of one audited table: its name and the column(s) forming its
/// key, which [`AuditLog::open`] indexes for the invariant queries.
#[derive(Clone, Debug)]
pub struct TableSpec {
    /// Table name.
    pub name: &'static str,
    /// Primary-key columns (usually `time` plus discriminators).
    pub key_cols: &'static [&'static str],
}

/// What [`AuditLog::open`] recovery found and did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Bytes of torn journal tail dropped by salvage (crash
    /// mid-append), 0 on a clean open.
    pub salvaged_bytes: u64,
    /// Chain entries past the last signed head that were re-signed
    /// (rolled forward): they are authentic — they came out of the
    /// sealed journal — their head signature just never hit the disk.
    pub rolled_forward: u64,
    /// Counter value the durable log accounts for.
    pub durable_counter: u64,
    /// Counter value the rollback guard attests to.
    pub attested_counter: u64,
    /// Whether the guard was ahead of the durable log by exactly one —
    /// the legal crash window (increment acknowledged, flush lost).
    pub crash_window: bool,
}

/// How appends reach a signed, counter-bound head. There is one way:
/// they stage, and a commit seals the whole batch under a single counter
/// step and head signature. Kept, with [`AuditLog::set_commit_mode`],
/// only as a pinned entry point of the benchmark crate.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CommitMode {
    /// Appends and trims only stage; a commit makes them durable.
    #[default]
    Staged,
}

/// The statements every append and seal runs, parsed once at
/// [`AuditLog::open`].
struct Stmts {
    /// Per audited table (in `tables` order): its row `INSERT` and its
    /// column count.
    rows: Vec<(Prepared, usize)>,
    chain_insert: Prepared,
    meta_insert: Prepared,
    meta_update: Prepared,
}

impl Stmts {
    fn prepare(db: &Database, tables: &[TableSpec]) -> Result<Stmts> {
        let prepare = |sql: &str| Database::prepare(sql).map_err(LibSealError::Db);
        let mut rows = Vec::with_capacity(tables.len());
        for spec in tables {
            let t = (db.catalog().table(spec.name))
                .ok_or_else(|| LibSealError::Log(format!("no such table: {}", spec.name)))?;
            let marks = vec!["?"; t.columns.len()].join(", ");
            let insert = format!("INSERT INTO {} VALUES ({marks})", quote_ident(spec.name));
            rows.push((prepare(&insert)?, t.columns.len()));
        }
        Ok(Stmts {
            rows,
            chain_insert: prepare("INSERT INTO _libseal_chain VALUES (?, ?, ?)")?,
            meta_insert: prepare("INSERT INTO _libseal_meta VALUES (?, ?)")?,
            meta_update: prepare("UPDATE _libseal_meta SET v = ? WHERE k = ?")?,
        })
    }
}

/// Parsed, signature-verified contents of the `head` meta row.
struct SignedHead {
    head: [u8; 32],
    seq: u64,
    counter: u64,
    clock: u64,
}

/// The enclave-resident audit log.
pub struct AuditLog {
    db: Database,
    stmts: Stmts,
    signer: SigningKey,
    guard: Arc<dyn RollbackGuard>,
    tables: Vec<TableSpec>,
    head: [u8; 32],
    seq: u64,
    /// Logical timestamp handed to SSMs (§5.1: "time being a logical
    /// timestamp maintained in the enclave").
    clock: u64,
    /// Rollback-counter value bound into the last signed head.
    counter: u64,
    disk_backed: bool,
    recovery: RecoveryReport,
    /// Shared handle to the journal's sealing codec, kept to manage
    /// proactive nonce-epoch rotation.
    codec: Arc<SealingCodec>,
    /// Changes staged since the last seal: the log is ahead of its
    /// signed head until [`AuditLog::seal`] catches it up. A staged
    /// trim is additionally [`Database::snapshot_pending`].
    dirty: bool,
    /// The bind gate: held from a counter bind until the head carrying
    /// the value is on disk, so at most one bound value is ever ahead of
    /// the journal (recovery's legal window). [`seal_staged`] holds it
    /// across its counter round; [`with_bind_gate`] for a caller that
    /// commits under the audit lock.
    binds: Arc<std::sync::Mutex<()>>,
    /// Whether the caller holds `binds` ([`with_bind_gate`]).
    holds_gate: bool,
    /// The last write or fsync of the journal failed, so a head signed
    /// with the last bound value may not be on disk: no value is bound
    /// until a flush succeeds, however often commits fail.
    unflushed: bool,
}

const CHAIN_SCHEMA: &str =
    "CREATE TABLE IF NOT EXISTS _libseal_chain(seq INTEGER, payload TEXT, hash BLOB)";
/// The tag in a log journal's header: the shape of [`CHAIN_SCHEMA`]'s
/// entries and the cipher [`SealingCodec`] seals them with. A journal
/// with another tag (or none: a log an earlier build wrote, such as one
/// sealed with ChaCha20-Poly1305) fails to open with a
/// `DbError::Format`, not as tampering.
pub const JOURNAL_TAG: &str = "libseal chain (seq, payload, hash) aes-256-gcm";
const META_SCHEMA: &str = "CREATE TABLE IF NOT EXISTS _libseal_meta(k TEXT, v TEXT)";

impl AuditLog {
    /// Opens (or creates) an audit log.
    ///
    /// `journal_key` seals the journal (the enclave passes
    /// [`journal_key`] of its seal key and `signer`); `schema_sql`
    /// contains the SSM's CREATE statements; `tables` names the audited
    /// tables and their keys; `signer` is the enclave's log-signing
    /// identity.
    ///
    /// # Errors
    ///
    /// Database and I/O failures; a failed integrity check on reopen.
    pub fn open(
        backing: LogBacking,
        journal_key: [u8; 32],
        signer: SigningKey,
        guard: Box<dyn RollbackGuard>,
        schema_sql: &str,
        tables: Vec<TableSpec>,
    ) -> Result<AuditLog> {
        let codec = Arc::new(SealingCodec::new(journal_key));
        let (mut db, disk_backed) = match backing {
            LogBacking::Memory => (Database::new(), false),
            LogBacking::Disk(path) => (
                Database::open_tagged(
                    &path,
                    Box::new(SharedCodec(Arc::clone(&codec))),
                    JOURNAL_TAG,
                )
                .map_err(LibSealError::Db)?,
                true,
            ),
        };
        // Bump the sealed restart epoch before this process seals
        // anything: every nonce of this run is distinct from every
        // nonce of every previous run.
        let stored_epoch = meta(&db, "epoch").and_then(|t| t.parse::<u32>().ok());
        codec.set_epoch(stored_epoch.unwrap_or(0) + 1);
        db.execute(CHAIN_SCHEMA).map_err(LibSealError::Db)?;
        db.execute(META_SCHEMA).map_err(LibSealError::Db)?;
        for stmt in split_statements(schema_sql) {
            match db.execute(&stmt) {
                Ok(_) => {}
                // A replayed journal already re-created the schema.
                Err(libseal_sealdb::DbError::Schema(m)) if m.contains("already exists") => {}
                Err(e) => return Err(LibSealError::Db(e)),
            }
        }
        // Index every audited table on its key columns: invariant
        // queries correlate on them (`u.repo = a.repo`, `s.doc =
        // d.doc`, ...), so these indexes are what keeps per-pair
        // checking near-linear in the log size.
        for spec in &tables {
            for col in spec.key_cols {
                db.execute(&format!(
                    "CREATE INDEX IF NOT EXISTS libseal_idx_{}_{col} ON {}({col})",
                    spec.name, spec.name
                ))
                .map_err(LibSealError::Db)?;
            }
        }
        let stmts = Stmts::prepare(&db, &tables)?;
        let mut log = AuditLog {
            db,
            stmts,
            signer,
            guard: Arc::from(guard),
            tables,
            head: [0u8; 32],
            seq: 0,
            clock: 0,
            counter: 0,
            disk_backed,
            recovery: RecoveryReport::default(),
            codec,
            dirty: false,
            binds: Arc::default(),
            holds_gate: false,
            unflushed: false,
        };
        if log.disk_backed {
            // Persist the bumped epoch before anything else this run
            // seals (one atomic statement; the row is never deleted):
            // the journal is append-ordered, so the epoch row is
            // durable before any record relying on it.
            let epoch = log.codec.epoch();
            log.put_meta("epoch", epoch.to_string())?;
        }
        log.recover_state()?;
        if log.disk_backed {
            log.flush()?;
        }
        Ok(log)
    }

    /// Writes a `_libseal_meta` row with a single journaled statement
    /// (UPDATE when present, INSERT when absent), so a crash can never
    /// leave the key deleted-but-not-rewritten.
    fn put_meta(&mut self, k: &str, v: String) -> Result<()> {
        let (key, v) = (Value::Text(k.into()), Value::Text(v));
        let r = match meta(&self.db, k) {
            None => (self.db).execute_prepared(&self.stmts.meta_insert, &[key, v]),
            Some(_) => (self.db).execute_prepared(&self.stmts.meta_update, &[v, key]),
        };
        r.map(drop).map_err(LibSealError::Db)
    }

    fn recover_state(&mut self) -> Result<()> {
        log_metrics().recoveries.inc();
        // Rebuild head/seq/clock from the chain table (after journal
        // replay, which may have salvaged a torn tail).
        if let Some(s) = self.db.salvage_report() {
            self.recovery.salvaged_bytes = s.lost_bytes;
            log_metrics().salvaged_bytes.add(s.lost_bytes);
        }
        let r = self
            .db
            .query("SELECT MAX(seq), COUNT(*) FROM _libseal_chain", &[])
            .map_err(LibSealError::Db)?;
        let max_seq = match r.rows.first().and_then(|row| row.first()) {
            Some(Value::Integer(i)) => *i as u64,
            _ => 0,
        };
        self.seq = max_seq;
        // The signed head row: "head_hex:seq:counter:clock:sig_hex".
        let head_meta = self.signed_head_row()?;
        // Restore the logical clock from the signed head metadata: after
        // trimming the chain is renumbered, so seq alone would make the
        // clock regress below surviving rows' timestamps.
        let stored_clock = head_meta.as_ref().map(|m| m.clock).unwrap_or(0);
        self.clock = stored_clock.max(max_seq);
        if max_seq > 0 {
            // Walk the chain: hashes must link and data rows must match.
            let (head, _) = self.verify_chain_rows()?;
            self.head = head;
        }
        // Reconcile the chain against the signed head. The sealed
        // journal authenticates every chain row, so rows past the
        // signed head are a legal crash artefact (the appends landed,
        // the re-signed head did not): roll them FORWARD by re-signing.
        // A signed head claiming *more* than the chain holds is the
        // opposite — durable, signed history has vanished — and that is
        // a rollback.
        let (meta_seq, meta_counter) = match &head_meta {
            Some(m) => {
                if m.seq > max_seq {
                    log_metrics().rollback_alarms.inc();
                    return Err(LibSealError::Tampered(format!(
                        "rollback detected: signed head covers {} entries, log has {max_seq}",
                        m.seq
                    )));
                }
                (m.seq, m.counter)
            }
            // No signed head. Legal only as the crash window of the
            // very first appends (chain rows durable, first head-sign
            // statement torn off the tail); the sealed journal still
            // vouches for the rows.
            None => (0, 0),
        };
        // The durable log accounts for exactly the counter value bound
        // into its last signed head: one seal covers every entry staged
        // since the previous one (a whole group-commit batch shares a
        // single counter step), so rows past the signed head carry at
        // most the one in-flight increment a crash between
        // counter-advance and head-flush legally loses.
        let durable_counter = meta_counter;
        let rolled_forward = max_seq - meta_seq;
        // Rollback check: the guard must not attest past the durable
        // state by more than that single lost batch increment.
        let attested = self.guard.attested()?;
        if attested > durable_counter + 1 {
            log_metrics().rollback_alarms.inc();
            return Err(LibSealError::Tampered(format!(
                "rollback detected: counter attests {attested}, durable log accounts for \
                 {durable_counter}"
            )));
        }
        self.recovery.durable_counter = durable_counter;
        self.recovery.attested_counter = attested;
        self.recovery.crash_window = attested == durable_counter + 1;
        self.recovery.rolled_forward = rolled_forward;
        self.counter = durable_counter.max(attested);
        if max_seq > 0 && (rolled_forward > 0 || self.recovery.crash_window) {
            // Re-sign the authentic recovered head (and absorb the
            // crash-window increment, if any, so counter and log agree
            // again going forward).
            self.sign_head(self.counter)?;
            if self.disk_backed {
                self.flush()?;
            }
        }
        Ok(())
    }

    /// Parses the signed-head meta row, verifying its signature.
    ///
    /// Returns `Ok(None)` for an empty (never-signed) log.
    fn signed_head_row(&self) -> Result<Option<SignedHead>> {
        let Some(m) = meta(&self.db, "head") else {
            return Ok(None);
        };
        let parts: Vec<&str> = m.split(':').collect();
        if parts.len() != 5 {
            return Err(LibSealError::Tampered("bad head metadata".into()));
        }
        let head_bytes =
            unhex(parts[0]).ok_or_else(|| LibSealError::Tampered("bad head hex".into()))?;
        let head: [u8; 32] = head_bytes
            .try_into()
            .map_err(|_| LibSealError::Tampered("bad head length".into()))?;
        let seq: u64 = parts[1]
            .parse()
            .map_err(|_| LibSealError::Tampered("bad head seq".into()))?;
        let counter: u64 = parts[2]
            .parse()
            .map_err(|_| LibSealError::Tampered("bad head counter".into()))?;
        let clock: u64 = parts[3]
            .parse()
            .map_err(|_| LibSealError::Tampered("bad head clock".into()))?;
        let sig_bytes =
            unhex(parts[4]).ok_or_else(|| LibSealError::Tampered("bad signature hex".into()))?;
        let sig: [u8; 64] = sig_bytes
            .try_into()
            .map_err(|_| LibSealError::Tampered("bad signature length".into()))?;
        self.signer
            .verifying_key()
            .verify(&head_payload(&head, seq, counter, clock), &sig)
            .map_err(|_| LibSealError::Tampered("head signature invalid".into()))?;
        Ok(Some(SignedHead {
            head,
            seq,
            counter,
            clock,
        }))
    }

    /// What recovery found on the last [`AuditLog::open`].
    pub fn recovery_report(&self) -> RecoveryReport {
        self.recovery
    }

    /// The rollback-counter value bound into the current signed head.
    pub fn counter(&self) -> u64 {
        self.counter
    }

    /// The next logical timestamp (monotone per log).
    pub fn next_time(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Current logical time.
    pub fn now(&self) -> u64 {
        self.clock
    }

    /// Appends one tuple to `table`, extending the hash chain. The entry
    /// stays staged until a commit seals it with the rest of its batch.
    ///
    /// # Errors
    ///
    /// Unknown table or database failures.
    pub fn append(&mut self, table: &str, values: &[Value]) -> Result<()> {
        let started = std::time::Instant::now();
        if self.disk_backed && self.codec.needs_rotation() {
            self.rotate_epoch()?;
        }
        let spec = (self.tables.iter())
            .position(|t| t.name.eq_ignore_ascii_case(table))
            .ok_or_else(|| LibSealError::Log(format!("not an audited table: {table}")))?;
        let (insert, columns) = &self.stmts.rows[spec];
        if values.len() != *columns {
            return Err(LibSealError::Log(format!(
                "{} values for the {columns} columns of {table}",
                values.len()
            )));
        }

        plat::failpoint::check("core::log::append")
            .map_err(|e| LibSealError::Log(e.to_string()))?;
        (self.db.execute_prepared(insert, values)).map_err(LibSealError::Db)?;

        let payload = render_payload(table, values);
        let mut h = Sha256::new();
        h.update(&self.head);
        h.update(payload.as_bytes());
        let new_hash = h.finalize();
        plat::failpoint::check("core::log::append::chain")
            .map_err(|e| LibSealError::Log(e.to_string()))?;
        self.seq += 1;
        let row = [
            Value::Integer(self.seq as i64),
            Value::Text(payload),
            Value::Blob(new_hash.to_vec()),
        ];
        (self.db.execute_prepared(&self.stmts.chain_insert, &row)).map_err(LibSealError::Db)?;
        self.head = new_hash;
        self.dirty = true;
        log_metrics().append_ns.record_duration(started.elapsed());
        log_metrics().appends.inc();
        Ok(())
    }

    /// Binds the rollback counter, then seals everything staged since
    /// the last seal (`seal_bound`), leaving the signed head framed for
    /// the journal; [`AuditLog::commit`] is the seal with its write. One
    /// call covers a whole batch — this is the group-commit
    /// amortisation point. No-op when nothing is staged, and when
    /// another binder holds the bind gate (a [`seal_staged`] in its
    /// counter round, on a log the caller did not enter through
    /// [`with_bind_gate`]): that seal covers what is staged here, and
    /// binding a second value beside it could leave two ahead of the
    /// journal.
    ///
    /// # Errors
    ///
    /// Counter or database failures; the log stays dirty so the seal
    /// can be retried. A staged trim's failed snapshot is reported once
    /// the log is sealed without the trim.
    pub fn seal(&mut self) -> Result<()> {
        if !self.dirty {
            return Ok(());
        }
        let gate = Arc::clone(&self.binds);
        let _bind = match self.holds_gate {
            true => None,
            false => match gate.try_lock() {
                Ok(held) => Some(held),
                Err(std::sync::TryLockError::Poisoned(e)) => Some(e.into_inner()),
                Err(std::sync::TryLockError::WouldBlock) => return Ok(()),
            },
        };
        if self.unflushed {
            self.flush()?;
        }
        plat::failpoint::check("core::log::append::counter")
            .map_err(|e| LibSealError::Log(e.to_string()))?;
        let counter = self.guard.increment()?;
        self.seal_bound(counter)
    }

    /// The one commit step, given an already-bound counter value: signs
    /// the current head over everything staged. With a trim staged, the
    /// chain is first rebuilt over the rows that survived it, and the
    /// signed result is framed as one snapshot behind what the journal
    /// holds ([`Database::write_snapshot`]): it is written and fsynced
    /// with the batch by the commit ([`AuditLog::commit`] or
    /// [`seal_staged`]), and until it is on disk the journal replays to
    /// the log before the trim, with every append staged since. A trim
    /// whose half of the step fails — the rebuild, the signature or the
    /// frame — is given up ([`AuditLog::abandon_trim`]) and the same
    /// counter value signs the log as it was, which the commit writes
    /// before it returns the error, so the durable head keeps up with
    /// the counter however often that happens. [`seal_staged`] obtains
    /// `counter` while NOT holding the audit lock, so whatever was staged
    /// during the counter round is covered too. No-op when clean —
    /// another seal got there first, and recovery's legal "+1 counter
    /// step" window absorbs the spare increment.
    fn seal_bound(&mut self, counter: u64) -> Result<()> {
        log_metrics().counter_binds.inc();
        if !self.dirty {
            return Ok(());
        }
        // A seal interleaved with the counter round may have bound a
        // later value already; the signed head's counter must never
        // step backwards.
        let counter = counter.max(self.counter);
        let mut given_up = Ok(());
        loop {
            // A staged trim's half of the step — the chain rebuilt over
            // the surviving rows and the head signed — is journaled only
            // as the snapshot frame that ends it.
            let trim = self.db.snapshot_pending();
            if trim {
                self.db.defer_to_snapshot();
            }
            let rebuilt = if trim { self.rebuild_chain() } else { Ok(()) };
            let signed = rebuilt.and_then(|()| self.sign_head(counter));
            self.db.resume_journal();
            if !trim {
                signed?;
                break;
            }
            match signed.and_then(|()| self.db.write_snapshot().map_err(LibSealError::Db)) {
                Ok(()) => break,
                Err(e) => {
                    self.abandon_trim()?;
                    given_up = Err(e);
                }
            }
        }
        self.dirty = false;
        given_up
    }

    /// Gives up a staged trim: the tables go back to what the journal
    /// replays to — the log as it was, with every append staged before
    /// and behind the trim, all of them journaled — and journaling
    /// resumes. The next due trim tries again.
    fn abandon_trim(&mut self) -> Result<()> {
        self.db.reload().map_err(LibSealError::Db)?;
        (self.head, self.seq) = self.verify_chain_rows()?;
        Ok(())
    }

    /// Does nothing: every log stages, and only a commit makes changes
    /// durable (see [`CommitMode`]).
    pub fn set_commit_mode(&mut self, _mode: CommitMode) {}

    /// The under-lock commit: [`AuditLog::seal`], then
    /// [`AuditLog::flush`] of whatever was framed — also when the seal
    /// failed, for a seal that gave a trim up has bound a counter value
    /// and signed the log as it was with it, and that head must be on
    /// disk before the next bind. Returns the flush's error, else the
    /// seal's result.
    ///
    /// # Errors
    ///
    /// As [`AuditLog::seal`] and [`AuditLog::flush`].
    pub fn commit(&mut self) -> Result<()> {
        let sealed = self.seal();
        self.flush()?;
        sealed
    }

    /// Whether changes are staged past the last signed head.
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Rotates the sealing codec to a fresh nonce epoch and persists it
    /// before anything else is sealed under the new epoch.
    fn rotate_epoch(&mut self) -> Result<()> {
        let e = self.codec.rotate_epoch();
        self.put_meta("epoch", e.to_string())?;
        log_metrics().epoch_rotations.inc();
        Ok(())
    }

    fn sign_head(&mut self, counter: u64) -> Result<()> {
        plat::failpoint::check("core::log::append::sign")
            .map_err(|e| LibSealError::Log(e.to_string()))?;
        let sig = self
            .signer
            .sign(&head_payload(&self.head, self.seq, counter, self.clock));
        // Head, metadata and signature travel in ONE row written by one
        // journaled statement: there is no crash point at which the
        // head exists unsigned or the signature refers to a stale head.
        let (head, seq, clock) = (hex(&self.head), self.seq, self.clock);
        let row = format!("{head}:{seq}:{counter}:{clock}:{}", hex(&sig));
        self.put_meta("head", row)?;
        self.counter = counter;
        log_metrics().head_signs.inc();
        Ok(())
    }

    /// Writes what the journal has framed and forces it to stable
    /// storage, in one `write(2)` and one fsync: the second half of
    /// [`AuditLog::commit`], once per group-commit batch (§5.1). Then, if
    /// the journal's dead bytes before its last snapshot frame have
    /// passed their bound, reclaims them.
    ///
    /// # Errors
    ///
    /// I/O failures; what was framed stays framed for the next flush.
    pub fn flush(&mut self) -> Result<()> {
        let started = std::time::Instant::now();
        let synced = (self.write_journal())
            .and_then(|sync| sync.map_or(Ok(()), |s| s.sync().map_err(LibSealError::Db)));
        self.unflushed = synced.is_err();
        synced?;
        log_metrics().flush_ns.record_duration(started.elapsed());
        self.reclaim_if_due();
        Ok(())
    }

    /// The first half of a flush: writes what the journal has framed and
    /// returns the fsync that makes it durable (`None` in memory).
    fn write_journal(&mut self) -> Result<Option<libseal_sealdb::journal::JournalSync>> {
        plat::failpoint::check("core::log::flush").map_err(|e| LibSealError::Log(e.to_string()))?;
        self.db.write_journal().map_err(LibSealError::Db)
    }

    /// Reclaims the journal's dead bytes once they pass their bound. A
    /// flush has made the batch durable already: a reclamation that
    /// fails leaves a journal that replays to the same state, and the
    /// next flush tries again.
    fn reclaim_if_due(&mut self) {
        if self.db.reclaim_due() {
            let _ = self.db.reclaim();
        }
    }

    /// Runs a read-only query against the log (invariant checking).
    ///
    /// # Errors
    ///
    /// Database failures.
    pub fn query(&self, sql: &str, params: &[Value]) -> Result<libseal_sealdb::QueryResult> {
        self.db.query(sql, params).map_err(LibSealError::Db)
    }

    /// Verifies the hash chain, the head signature, and that chain rows
    /// and data rows agree.
    ///
    /// # Errors
    ///
    /// [`LibSealError::Tampered`] describing the first inconsistency.
    pub fn verify(&self) -> Result<()> {
        let started = std::time::Instant::now();
        let (head, last_seq) = self.verify_chain_rows()?;
        // Verify the signed head against the recomputed chain head.
        match self.signed_head_row()? {
            Some(signed) => {
                if signed.head != head {
                    return Err(LibSealError::Tampered(
                        "chain head does not match signed head".into(),
                    ));
                }
                if signed.seq != last_seq {
                    return Err(LibSealError::Tampered("head seq mismatch".into()));
                }
            }
            None if last_seq == 0 => {} // Empty log: nothing signed yet.
            None => return Err(LibSealError::Tampered("head metadata missing".into())),
        }
        log_metrics().verify_ns.record_duration(started.elapsed());
        Ok(())
    }

    /// Walks the whole chain: hashes must link, sequence numbers must
    /// increase, and every chain row's data row must still exist and
    /// match. Returns the recomputed head and final sequence number.
    fn verify_chain_rows(&self) -> Result<([u8; 32], u64)> {
        let data = DataRows::new(&self.tables, self.db.catalog());
        let mut head = [0u8; 32];
        let mut last_seq = 0i64;
        for row in self.chain_rows()? {
            let [Value::Integer(seq), Value::Text(payload), Value::Blob(hash)] = row else {
                return Err(LibSealError::Tampered("chain row malformed".into()));
            };
            if *seq <= last_seq {
                return Err(LibSealError::Tampered(
                    "chain sequence not increasing".into(),
                ));
            }
            last_seq = *seq;
            let mut h = Sha256::new();
            h.update(&head);
            h.update(payload.as_bytes());
            let expect = h.finalize();
            if expect.as_slice() != hash.as_slice() {
                return Err(LibSealError::Tampered(format!(
                    "hash mismatch at seq {seq}"
                )));
            }
            head.copy_from_slice(&expect);
            if !data.contains(payload) {
                return Err(LibSealError::Tampered(format!(
                    "data row missing or modified at seq {seq}"
                )));
            }
        }
        Ok((head, last_seq as u64))
    }

    /// The rows of `_libseal_chain` (seq, payload, hash), in
    /// `seq` order, borrowed.
    fn chain_rows(&self) -> Result<Vec<&[Value]>> {
        let chain = (self.db.catalog().table("_libseal_chain"))
            .ok_or_else(|| LibSealError::Tampered("chain table missing".into()))?;
        let mut rows: Vec<&[Value]> = chain.rows.iter().map(Vec::as_slice).collect();
        rows.sort_by(|a, b| a[0].total_cmp(&b[0]));
        Ok(rows)
    }

    /// Stages the SSM's trimming queries (§5.1, "Log trimming") and
    /// returns how many chain entries survive them. The deletions are
    /// applied but not journaled; the next seal rebuilds the chain over
    /// the survivors and makes the result durable as one snapshot frame
    /// ([`AuditLog::seal_bound`]). Appends meanwhile are journaled as
    /// usual. Binds, signs and syncs nothing.
    ///
    /// # Errors
    ///
    /// Database failures. What was deleted stays staged until a seal
    /// finishes or gives up the trim.
    pub fn trim(&mut self, trim_queries: &[&str]) -> Result<u64> {
        let started = std::time::Instant::now();
        self.db.defer_to_snapshot();
        self.dirty = true;
        let deleted = trim_queries.iter().try_for_each(|q| {
            plat::failpoint::check("core::log::trim::queries")
                .map_err(|e| LibSealError::Log(e.to_string()))?;
            self.db.execute(q).map(drop).map_err(LibSealError::Db)
        });
        self.db.resume_journal();
        deleted?;
        let kept = self.surviving_entries()?.len() as u64;
        log_metrics().trim_ns.record_duration(started.elapsed());
        Ok(kept)
    }

    /// The payloads, in `seq` order, of the chain entries whose data
    /// row still exists.
    fn surviving_entries(&self) -> Result<Vec<&str>> {
        let data = DataRows::new(&self.tables, self.db.catalog());
        let survivors = self
            .chain_rows()?
            .into_iter()
            .filter_map(|row| match &row[1] {
                Value::Text(payload) if data.contains(payload) => Some(payload.as_str()),
                _ => None,
            });
        Ok(survivors.collect())
    }

    /// Rebuilds `_libseal_chain`, with fresh sequence numbers and
    /// hashes, over the entries whose data row still exists.
    fn rebuild_chain(&mut self) -> Result<()> {
        plat::failpoint::check("core::log::trim::rebuild")
            .map_err(|e| LibSealError::Log(e.to_string()))?;
        let survivors: Vec<String> = (self.surviving_entries()?.into_iter())
            .map(String::from)
            .collect();
        self.db
            .execute("DELETE FROM _libseal_chain")
            .map_err(LibSealError::Db)?;
        self.head = [0u8; 32];
        self.seq = 0;
        for payload in survivors {
            let mut h = Sha256::new();
            h.update(&self.head);
            h.update(payload.as_bytes());
            let new_hash = h.finalize();
            self.seq += 1;
            let row = [
                Value::Integer(self.seq as i64),
                Value::Text(payload),
                Value::Blob(new_hash.to_vec()),
            ];
            (self.db.execute_prepared(&self.stmts.chain_insert, &row)).map_err(LibSealError::Db)?;
            self.head = new_hash;
        }
        Ok(())
    }

    /// Approximate log size in bytes (data + chain).
    pub fn size_bytes(&self) -> usize {
        self.db.size_bytes()
    }

    /// On-disk journal size in bytes.
    pub fn journal_size_bytes(&self) -> u64 {
        self.db.journal_size_bytes()
    }

    /// Number of chain entries.
    pub fn entries(&self) -> u64 {
        self.seq
    }

    /// Current chain tip as `(seq, clock, head)`. The logical clock is
    /// the stable coordinate across trims (trimming renumbers `seq`
    /// but never rewinds `clock`), so fleet-level epoch checkpoints
    /// key their monotonicity argument on it.
    pub fn chain_tip(&self) -> (u64, u64, [u8; 32]) {
        (self.seq, self.clock, self.head)
    }

    /// Registers a delta-maintained view of the log's tables
    /// ([`Database::register_matview`]).
    ///
    /// # Errors
    ///
    /// The view's SQL, source columns or output width do not fit.
    pub fn register_matview(&mut self, spec: MatViewSpec) -> Result<()> {
        self.db.register_matview(spec).map_err(LibSealError::Db)
    }

    /// Brings every registered view up to date
    /// ([`Database::refresh_matviews`]).
    ///
    /// # Errors
    ///
    /// Query failures; a view's dirty state stays until it succeeds.
    pub fn refresh_matviews(&mut self) -> Result<usize> {
        self.db.refresh_matviews().map_err(LibSealError::Db)
    }

    /// The rows of the registered view `name` as of its last refresh,
    /// or `None` if no view of that name is registered.
    pub fn matview_rows(&self, name: &str) -> Option<&[Vec<Value>]> {
        self.db.matview_rows(name)
    }

    /// Direct database access for tests and tamper-injection.
    pub fn db_mut(&mut self) -> &mut Database {
        &mut self.db
    }
}

/// [`AuditLog::commit`] for a log behind `lock` (`log_of` projects the
/// lock's payload to it), in the same order: one counter bind, one head
/// signature, then one `write(2)` and one fdatasync of whatever the seal
/// framed — also when it gave a trim up — make everything staged
/// durable. The counter round (a quorum network round trip) and the
/// fdatasync are the slow parts and run WITHOUT the lock, so writers
/// stage the next batch meanwhile; the write runs under it, so the
/// journal file holds frames in the order the lock staged them. The
/// bind gate is held throughout: no other commit binds or writes before
/// this one is durable. Returns `false` when nothing was staged.
///
/// # Errors
///
/// Counter, database or I/O failures, the write's first; the log stays
/// dirty so the next commit covers the same changes.
pub fn seal_staged<T>(
    lock: &plat::sync::Mutex<T>,
    log_of: impl Fn(&mut T) -> &mut AuditLog,
) -> Result<bool> {
    let gate = Arc::clone(&log_of(&mut lock.lock()).binds);
    let _bind = gate
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let guard = {
        let mut held = lock.lock();
        let log = log_of(&mut held);
        if !log.dirty {
            return Ok(false);
        }
        if log.unflushed {
            log.flush()?;
        }
        Arc::clone(&log.guard)
    };
    plat::failpoint::check("core::log::append::counter")
        .map_err(|e| LibSealError::Log(e.to_string()))?;
    let m = log_metrics();
    let started = std::time::Instant::now();
    let counter = guard.increment();
    m.seal_counter_ns.record_duration(started.elapsed());
    let counter = counter?;
    let (sealed, sync, reclaim) = {
        let mut held = lock.lock();
        let log = log_of(&mut held);
        let started = std::time::Instant::now();
        let sealed = log.seal_bound(counter);
        m.seal_sign_ns.record_duration(started.elapsed());
        // A batch that does not reach the disk stays dirty: the next
        // seal signs it again and writes what is still framed.
        let started = std::time::Instant::now();
        let written = log.write_journal();
        m.seal_write_ns.record_duration(started.elapsed());
        log.dirty |= written.is_err();
        log.unflushed = written.is_err();
        (sealed, written?, log.db.reclaim_due())
    };
    let started = std::time::Instant::now();
    if let Some(Err(e)) = sync.map(|s| s.sync()) {
        let mut held = lock.lock();
        let log = log_of(&mut held);
        (log.dirty, log.unflushed) = (true, true);
        return Err(LibSealError::Db(e));
    }
    m.flush_ns.record_duration(started.elapsed());
    if reclaim {
        log_of(&mut lock.lock()).reclaim_if_due();
    }
    sealed.map(|()| true)
}

/// Runs `f` on the payload of `lock` (whose log `log_of` projects)
/// holding the log's bind gate, taken before the lock: the way for a
/// caller to commit under the audit lock without yielding to a
/// [`seal_staged`] in flight — `trim_now`, the catch-up commit before a
/// verification, a drain, `with_log` tooling. A seal in `f` waits for
/// that commit instead. The gate is released when `f` returns, so `f`
/// commits ([`AuditLog::commit`]) rather than seals.
pub fn with_bind_gate<T, R>(
    lock: &plat::sync::Mutex<T>,
    log_of: impl Fn(&mut T) -> &mut AuditLog,
    f: impl FnOnce(&mut T) -> R,
) -> R {
    let gate = Arc::clone(&log_of(&mut lock.lock()).binds);
    let _bind = gate
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut held = lock.lock();
    log_of(&mut held).holds_gate = true;
    let r = f(&mut held);
    log_of(&mut held).holds_gate = false;
    r
}

fn head_payload(head: &[u8; 32], seq: u64, counter: u64, clock: u64) -> Vec<u8> {
    let mut p = b"libseal-head:".to_vec();
    p.extend_from_slice(head);
    p.extend_from_slice(&seq.to_le_bytes());
    p.extend_from_slice(&counter.to_le_bytes());
    p.extend_from_slice(&clock.to_le_bytes());
    p
}

fn render_payload(table: &str, values: &[Value]) -> String {
    let mut out = String::with_capacity(32);
    out.push_str(table);
    render_values(&mut out, values);
    out
}

/// A payload past its table name: each value's group key after a unit
/// separator, a text's with its length in bytes (`t3:abc`), for a text
/// is the one group key that can hold a separator. Two rows render
/// alike only if every value groups alike, so the payload alone names
/// a row.
fn render_values(out: &mut String, values: &[Value]) {
    use std::fmt::Write as _;
    for v in values {
        out.push('\u{1f}');
        match v.group_class() {
            GroupClass::Text(t) => _ = write!(out, "t{}:{t}", t.len()),
            _ => v.write_group_key(out),
        }
    }
}

/// The audited tables' rows, found by a chain entry's payload. One pass
/// over each table hashes every row's rendered payload; an entry is then
/// one lookup in its table.
struct DataRows<'a> {
    specs: &'a [TableSpec],
    /// (hash of spec index and payload, spec index, row), by hash.
    rows: Vec<(u64, usize, &'a [Value])>,
    /// A row's payload, rendered to compare with an entry's.
    scratch: std::cell::RefCell<String>,
}

impl<'a> DataRows<'a> {
    fn new(specs: &'a [TableSpec], catalog: &'a libseal_sealdb::catalog::Catalog) -> Self {
        let mut rows = Vec::new();
        let mut payload = String::new();
        for (si, spec) in specs.iter().enumerate() {
            for row in catalog.table(spec.name).iter().flat_map(|t| &t.rows) {
                payload.clear();
                render_values(&mut payload, row);
                rows.push((payload_hash(si, &payload), si, row.as_slice()));
            }
        }
        rows.sort_unstable_by_key(|r| r.0);
        DataRows {
            specs,
            rows,
            scratch: Default::default(),
        }
    }

    /// Whether the data row a chain entry's `payload` names exists in the
    /// table the payload starts with.
    fn contains(&self, payload: &str) -> bool {
        let (tbl, rest) = payload.split_at(payload.find('\u{1f}').unwrap_or(payload.len()));
        let Some(si) = (self.specs.iter()).position(|t| t.name.eq_ignore_ascii_case(tbl)) else {
            return false;
        };
        let h = payload_hash(si, rest);
        let from = self.rows.partition_point(|r| r.0 < h);
        let rendered = &mut *self.scratch.borrow_mut();
        let mut candidates = self.rows[from..].iter().take_while(|r| r.0 == h);
        candidates.any(|&(_, rsi, row)| {
            rendered.clear();
            render_values(rendered, row);
            rsi == si && rendered == rest
        })
    }
}

fn payload_hash(spec: usize, payload: &str) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    (spec, payload).hash(&mut h);
    h.finish()
}

/// The value of the `_libseal_meta` row `k`, read from the table.
fn meta<'a>(db: &'a Database, k: &str) -> Option<&'a str> {
    let rows = &db.catalog().table("_libseal_meta")?.rows;
    let row = rows
        .iter()
        .find(|r| matches!(&r[0], Value::Text(x) if x == k))?;
    match &row[1] {
        Value::Text(v) => Some(v),
        _ => None,
    }
}

fn split_statements(sql: &str) -> Vec<String> {
    // Views may contain semicolons only as statement separators in our
    // dialect, so a simple split is safe here.
    sql.split(';')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect()
}

pub(crate) fn hex(b: &[u8]) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(2 * b.len());
    for x in b {
        let _ = write!(out, "{x:02x}");
    }
    out
}

pub(crate) fn unhex(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).ok())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nonce_exhaustion_is_a_typed_error_and_rotation_recovers() {
        let codec = SealingCodec::new([9u8; 32]);
        codec.set_epoch(3);
        codec.counter.store(u64::from(u32::MAX), SeqCst);
        assert!(codec.needs_rotation());
        let err = JournalCodec::encode(&codec, b"payload").unwrap_err();
        assert!(err.to_string().contains("epoch rotation"), "{err}");

        assert_eq!(codec.rotate_epoch(), 4);
        assert!(!codec.needs_rotation());
        let sealed = JournalCodec::encode(&codec, b"payload").unwrap();
        assert_eq!(JournalCodec::decode(&codec, &sealed).unwrap(), b"payload");
    }

    #[test]
    fn rotation_threshold_leaves_headroom_before_the_hard_limit() {
        let codec = SealingCodec::new([9u8; 32]);
        codec.counter.store(SealingCodec::ROTATE_AT, SeqCst);
        // Rotation is due, but encode still succeeds inside the headroom
        // window so in-flight appends can finish before the owner rotates.
        assert!(codec.needs_rotation());
        assert!(JournalCodec::encode(&codec, b"x").is_ok());
    }
}
