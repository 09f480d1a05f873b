//! The service-facing audit plane: one trait, two shapes.
//!
//! [`AuditPlane`] abstracts "the thing that terminates TLS and keeps
//! the audit log" so services never learn how many enclaves stand
//! behind it. [`crate::LibSeal`] implements it directly (the paper's
//! single-enclave model); [`ShardedPlane`] implements it with a fleet
//! of N enclaves — each with its own journal, sealing codec, group
//! commit pipeline, verifier pool and ROTE guard — multiplying the
//! single Sealer thread and single ROTE counter stream that otherwise
//! cap audited throughput.
//!
//! The fleet stays auditable as one logical log:
//!
//! - sessions are routed to shards by consistent hashing on a
//!   caller-supplied affinity (connection id), and stay pinned to
//!   their shard for life so every per-shard chain remains strictly
//!   append-only;
//! - every `epoch_interval` audited responses the plane snapshots all
//!   shard chain tips and appends one signed *epoch checkpoint* row
//!   per shard into shard 0's own hash chain (table
//!   `_libseal_epochs`), cross-linking the fleet;
//! - [`ShardedPlane::verify_fleet`] verifies every shard's chain,
//!   then replays the checkpoint history: epochs must be contiguous,
//!   a shard once covered must stay covered, per-shard clocks must be
//!   monotone across epochs, and every live chain must have advanced
//!   past its last checkpointed clock. A dropped shard, a rolled-back
//!   shard, or a truncated checkpoint history each produce a distinct
//!   [`FleetVerifyError`].
//!
//! Shard membership changes rebalance only *new* sessions: a retired
//! shard leaves the hash ring but keeps serving its pinned sessions
//! and keeps being checkpointed. A crashed shard is rebuilt through
//! the existing per-log recovery ([`ShardedPlane::restart_shard`]);
//! the fleet manifest file records membership so a plane restart
//! reprovisions every journal.
//!
//! This is a deliberate divergence from the paper, which pins one
//! audit log to one enclave; ReplicaTEE's fleet-provisioning shape
//! applied to horizontal scale-out of the audit plane.

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use libseal_crypto::ed25519::{SigningKey, VerifyingKey};
use libseal_crypto::sha2::Sha256;
use libseal_sealdb::Value;
use libseal_sgxsim::enclave::EnclaveBuilder;
use libseal_sgxsim::seal::SealingPolicy;
use libseal_tlsx::ssl::ReadOutcome;
use plat::sync::{Mutex, RwLock};

use crate::log::{LogBacking, TableSpec};
use crate::ssm::{Invariant, ServiceModule};
use crate::termination::{LibSeal, LibSealConfig, SessionInput, SessionOutcome};
use crate::{AuditLog, LibSealError, Result};

/// Bits of a plane session id carrying the shard id.
const SHARD_BITS: u32 = 10;
/// Bits carrying the shard's restart generation (stale sids from
/// before a restart must not alias fresh sessions). Generations are
/// persisted in the fleet manifest and never wrap: a shard that has
/// exhausted them refuses further restarts.
const GEN_BITS: u32 = 14;
/// Maximum shard id (exclusive).
const MAX_SHARDS: u32 = 1 << SHARD_BITS;
/// Virtual nodes per shard on the hash ring; enough that four shards
/// split sequential connection ids within the ≤2 max/min ratio the
/// routing tests assert.
const VNODES_PER_SHARD: usize = 128;

/// The epoch-checkpoint table sealed into shard 0's chain.
const EPOCH_TABLE: &str = "_libseal_epochs";
const EPOCH_SCHEMA: &str = "CREATE TABLE IF NOT EXISTS _libseal_epochs(
    epoch INTEGER, shard INTEGER, seq INTEGER, clock INTEGER, head TEXT, sig TEXT)";

/// What services program against: session lifecycle, the audited
/// read/write paths, backpressure, drain and fleet verification.
///
/// Implemented by [`LibSeal`] (one enclave) and [`ShardedPlane`]
/// (N enclaves); `LibSealConfig::builder().shards(n).build_plane()`
/// picks the implementation.
pub trait AuditPlane: Send + Sync {
    /// Opens a session. `affinity` is a stable caller-chosen
    /// connection id; sharded planes consistent-hash it to pick the
    /// session's shard (a single enclave ignores it).
    ///
    /// # Errors
    ///
    /// Enclave or TLS-state allocation failures.
    fn open_session(&self, slot: usize, affinity: u64) -> Result<u64>;

    /// Closes a session (queues close_notify).
    ///
    /// # Errors
    ///
    /// Unknown session.
    fn close_session(&self, slot: usize, sid: u64) -> Result<()>;

    /// Drains the close_notify bytes of a closing session.
    ///
    /// # Errors
    ///
    /// Unknown session.
    fn take_close_output(&self, slot: usize, sid: u64) -> Result<Vec<u8>>;

    /// Feeds ciphertext from the socket.
    ///
    /// # Errors
    ///
    /// Unknown session.
    fn provide_input(&self, slot: usize, sid: u64, data: &[u8]) -> Result<()>;

    /// Drains ciphertext destined for the socket.
    ///
    /// # Errors
    ///
    /// Unknown session.
    fn take_output(&self, slot: usize, sid: u64) -> Result<Vec<u8>>;

    /// Advances the handshake; true when established.
    ///
    /// # Errors
    ///
    /// Unknown session or TLS failure.
    fn do_handshake(&self, slot: usize, sid: u64) -> Result<bool>;

    /// Reads decrypted request plaintext.
    ///
    /// # Errors
    ///
    /// Unknown session or TLS failure.
    fn ssl_read(&self, slot: usize, sid: u64) -> Result<ReadOutcome>;

    /// Writes (and audits) response plaintext.
    ///
    /// # Errors
    ///
    /// Unknown session, TLS failure, or audit-append failure.
    fn ssl_write(&self, slot: usize, sid: u64, data: &[u8]) -> Result<()>;

    /// Fused write + output take (one enclave crossing).
    ///
    /// # Errors
    ///
    /// As [`AuditPlane::ssl_write`].
    fn ssl_write_take(&self, slot: usize, sid: u64, data: &[u8]) -> Result<Vec<u8>>;

    /// Pumps a batch of sessions in one enclave crossing per shard.
    ///
    /// # Errors
    ///
    /// Enclave entry failure; per-session failures come back inside
    /// the outcomes.
    fn pump_batch(&self, slot: usize, items: Vec<SessionInput>) -> Result<Vec<SessionOutcome>>;

    /// Outstanding audited work (commit-queue depth plus verifier
    /// lag, summed across shards); the event listener pauses accepts
    /// above a threshold.
    fn audit_backlog(&self) -> u64;

    /// Whether auditing is configured.
    fn is_audited(&self) -> bool;

    /// Async-ecall slot count, when the async runtime is on.
    fn async_slots(&self) -> Option<usize>;

    /// Number of shards behind this plane.
    fn shards(&self) -> usize {
        1
    }

    /// Quiesces all audited state: seals, flushes and (for sharded
    /// planes) cuts a final epoch checkpoint.
    ///
    /// # Errors
    ///
    /// Seal or flush failures.
    fn drain(&self, slot: usize) -> Result<()>;

    /// Verifies the full audit state: every shard's hash chain,
    /// signatures and counter binding, plus (for sharded planes)
    /// epoch-checkpoint continuity across the fleet.
    ///
    /// # Errors
    ///
    /// [`LibSealError::Tampered`] on any integrity violation.
    fn verify_log(&self, slot: usize) -> Result<()>;

    /// The TLS certificates this plane's enclaves present, one per
    /// shard. With an attested identity configured, each carries that
    /// shard's quote as a certificate extension (RA-TLS).
    fn certificates(&self) -> Vec<libseal_tlsx::cert::Certificate>;

    /// The distinct enclave measurements behind this plane — what a
    /// client pins in its `AttestationPolicy`. All shards run the same
    /// code, so a sharded plane normally reports a single entry.
    fn measurements(&self) -> Vec<[u8; 32]>;

    /// The telemetry registry this plane reports into.
    fn telemetry(&self) -> &'static libseal_telemetry::Registry;
}

impl AuditPlane for LibSeal {
    fn open_session(&self, slot: usize, _affinity: u64) -> Result<u64> {
        self.new_session(slot)
    }

    fn close_session(&self, slot: usize, sid: u64) -> Result<()> {
        LibSeal::close_session(self, slot, sid)
    }

    fn take_close_output(&self, slot: usize, sid: u64) -> Result<Vec<u8>> {
        LibSeal::take_close_output(self, slot, sid)
    }

    fn provide_input(&self, slot: usize, sid: u64, data: &[u8]) -> Result<()> {
        LibSeal::provide_input(self, slot, sid, data)
    }

    fn take_output(&self, slot: usize, sid: u64) -> Result<Vec<u8>> {
        LibSeal::take_output(self, slot, sid)
    }

    fn do_handshake(&self, slot: usize, sid: u64) -> Result<bool> {
        LibSeal::do_handshake(self, slot, sid)
    }

    fn ssl_read(&self, slot: usize, sid: u64) -> Result<ReadOutcome> {
        LibSeal::ssl_read(self, slot, sid)
    }

    fn ssl_write(&self, slot: usize, sid: u64, data: &[u8]) -> Result<()> {
        LibSeal::ssl_write(self, slot, sid, data)
    }

    fn ssl_write_take(&self, slot: usize, sid: u64, data: &[u8]) -> Result<Vec<u8>> {
        LibSeal::ssl_write_take(self, slot, sid, data)
    }

    fn pump_batch(&self, slot: usize, items: Vec<SessionInput>) -> Result<Vec<SessionOutcome>> {
        LibSeal::pump_batch(self, slot, items)
    }

    fn audit_backlog(&self) -> u64 {
        LibSeal::audit_backlog(self)
    }

    fn is_audited(&self) -> bool {
        LibSeal::is_audited(self)
    }

    fn certificates(&self) -> Vec<libseal_tlsx::cert::Certificate> {
        vec![self.certificate().clone()]
    }

    fn measurements(&self) -> Vec<[u8; 32]> {
        vec![self.measurement()]
    }

    fn async_slots(&self) -> Option<usize> {
        LibSeal::async_slots(self)
    }

    fn drain(&self, slot: usize) -> Result<()> {
        LibSeal::drain(self, slot)
    }

    fn verify_log(&self, slot: usize) -> Result<()> {
        LibSeal::verify_log(self, slot)
    }

    fn telemetry(&self) -> &'static libseal_telemetry::Registry {
        LibSeal::telemetry(self)
    }
}

/// Provisions the audit plane `config` describes: one [`LibSeal`]
/// for `shards(1)`, a [`ShardedPlane`] otherwise.
///
/// # Errors
///
/// [`LibSealError::Config`] on contradictory knobs, or any enclave
/// provisioning failure.
pub fn build_plane(config: LibSealConfig) -> Result<Arc<dyn AuditPlane>> {
    if config.shards > 1 {
        if config.group_commit.is_none() {
            return Err(LibSealError::Config(
                "shards(n > 1) with no_group_commit: a sharded plane exists to multiply \
                 sealer pipelines; per-pair sealing would serialise every shard anyway"
                    .into(),
            ));
        }
        if config.ssm.is_none() {
            return Err(LibSealError::Config(
                "shards(n > 1) without an SSM: sharding partitions the audit log, \
                 which auditing-disabled configurations do not have"
                    .into(),
            ));
        }
        Ok(ShardedPlane::open(config)?)
    } else {
        Ok(LibSeal::new(config)?)
    }
}

// ---------------------------------------------------------------
// Consistent-hash routing
// ---------------------------------------------------------------

/// splitmix64: cheap, well-mixed; sequential connection ids land
/// uniformly on the ring.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A consistent-hash ring of virtual nodes, sorted by position.
struct ShardRing {
    points: Vec<(u64, u32)>,
}

impl ShardRing {
    fn new(shards: &[u32]) -> ShardRing {
        let mut points = Vec::with_capacity(shards.len() * VNODES_PER_SHARD);
        for &s in shards {
            for v in 0..VNODES_PER_SHARD {
                points.push((mix64(((s as u64) << 32) | 0x5EA1 | ((v as u64) << 16)), s));
            }
        }
        points.sort_unstable();
        ShardRing { points }
    }

    fn route(&self, affinity: u64) -> Option<u32> {
        if self.points.is_empty() {
            return None;
        }
        let h = mix64(affinity);
        let i = self.points.partition_point(|&(p, _)| p < h);
        Some(self.points[i % self.points.len()].1)
    }
}

/// Pure routing function: the shard a given affinity maps to among
/// `shards`. Exposed so distribution tests can assert the spread
/// deterministically, without provisioning enclaves.
pub fn route_affinity(affinity: u64, shards: &[u32]) -> Option<u32> {
    ShardRing::new(shards).route(affinity)
}

// ---------------------------------------------------------------
// Epoch checkpoints
// ---------------------------------------------------------------

/// Wraps shard 0's SSM, adding the `_libseal_epochs` checkpoint table
/// to the audited schema so checkpoint rows ride the ordinary hash
/// chain, sealing and rollback protection.
struct EpochSsm {
    inner: Arc<dyn ServiceModule>,
    schema: &'static str,
}

impl EpochSsm {
    fn new(inner: Arc<dyn ServiceModule>) -> EpochSsm {
        let schema = format!("{}\n{EPOCH_SCHEMA};", inner.schema_sql());
        EpochSsm {
            inner,
            // Leaked once per plane provisioning; the trait wants
            // 'static and planes live for the process in practice.
            schema: Box::leak(schema.into_boxed_str()),
        }
    }
}

impl ServiceModule for EpochSsm {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn schema_sql(&self) -> &'static str {
        self.schema
    }

    fn tables(&self) -> Vec<TableSpec> {
        let mut t = self.inner.tables();
        t.push(TableSpec {
            name: EPOCH_TABLE,
            key_cols: &["epoch", "shard"],
        });
        t
    }

    fn invariants(&self) -> &'static [Invariant] {
        self.inner.invariants()
    }

    fn trim_queries(&self) -> &'static [&'static str] {
        self.inner.trim_queries()
    }

    fn log_pair(&self, req: &[u8], rsp: &[u8], log: &mut AuditLog) -> Result<usize> {
        self.inner.log_pair(req, rsp, log)
    }
}

/// One decoded epoch-checkpoint row: shard `shard`'s chain tip as
/// witnessed at checkpoint `epoch`, signed by the plane key.
#[derive(Clone, Debug)]
pub struct CheckpointRow {
    /// Checkpoint number (1-based, contiguous).
    pub epoch: u64,
    /// The shard whose tip this row witnesses.
    pub shard: u32,
    /// The shard's chain length at the checkpoint.
    pub seq: u64,
    /// The shard's logical clock at the checkpoint (stable across
    /// trims, which renumber `seq`).
    pub clock: u64,
    /// The shard's chain head hash.
    pub head: [u8; 32],
    /// Plane signature over [`checkpoint_payload`].
    pub sig: [u8; 64],
}

/// Canonical signing payload of one checkpoint row.
pub fn checkpoint_payload(epoch: u64, shard: u32, seq: u64, clock: u64, head: &[u8; 32]) -> Vec<u8> {
    let mut p = Vec::with_capacity(14 + 8 + 4 + 8 + 8 + 32);
    p.extend_from_slice(b"libseal-epoch:");
    p.extend_from_slice(&epoch.to_le_bytes());
    p.extend_from_slice(&shard.to_le_bytes());
    p.extend_from_slice(&seq.to_le_bytes());
    p.extend_from_slice(&clock.to_le_bytes());
    p.extend_from_slice(head);
    p
}

/// How fleet verification failed. Every variant names the shard or
/// epoch so an auditor can point at the violation.
#[derive(Debug)]
pub enum FleetVerifyError {
    /// One shard's own chain failed verification.
    Shard {
        /// The failing shard.
        shard: u32,
        /// Its verification error.
        source: LibSealError,
    },
    /// Checkpoint epochs are not contiguous — part of the checkpoint
    /// history was dropped.
    CheckpointGap {
        /// The epoch expected next.
        expected: u64,
        /// The epoch found instead.
        found: u64,
    },
    /// A shard covered by an earlier checkpoint vanished from a later
    /// one (or from the live fleet) — a dropped shard.
    MissingShard {
        /// The epoch missing the shard.
        epoch: u64,
        /// The missing shard.
        shard: u32,
    },
    /// A checkpoint row's plane signature does not verify.
    BadSignature {
        /// The offending epoch.
        epoch: u64,
        /// The offending shard.
        shard: u32,
    },
    /// A shard's checkpointed clock went backwards between epochs.
    NonMonotone {
        /// The shard whose clock regressed.
        shard: u32,
        /// The epoch at which it regressed.
        epoch: u64,
    },
    /// A live shard's chain is behind its last checkpointed clock —
    /// the shard was rolled back.
    ShardRolledBack {
        /// The rolled-back shard.
        shard: u32,
        /// Clock the last checkpoint witnessed.
        checkpointed: u64,
        /// Clock the live chain shows.
        current: u64,
    },
    /// Plane-level failure reading or decoding the checkpoint table.
    Plane(LibSealError),
}

impl std::fmt::Display for FleetVerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetVerifyError::Shard { shard, source } => {
                write!(f, "shard {shard} failed verification: {source}")
            }
            FleetVerifyError::CheckpointGap { expected, found } => {
                write!(f, "checkpoint gap: expected epoch {expected}, found {found}")
            }
            FleetVerifyError::MissingShard { epoch, shard } => {
                write!(f, "epoch {epoch} does not cover shard {shard}")
            }
            FleetVerifyError::BadSignature { epoch, shard } => {
                write!(f, "bad checkpoint signature at epoch {epoch}, shard {shard}")
            }
            FleetVerifyError::NonMonotone { shard, epoch } => {
                write!(f, "shard {shard} clock regressed at epoch {epoch}")
            }
            FleetVerifyError::ShardRolledBack {
                shard,
                checkpointed,
                current,
            } => write!(
                f,
                "shard {shard} rolled back: checkpointed clock {checkpointed}, current {current}"
            ),
            FleetVerifyError::Plane(e) => write!(f, "fleet verification failed: {e}"),
        }
    }
}

impl std::error::Error for FleetVerifyError {}

/// Verifies a checkpoint history against the live fleet: `rows` in
/// any order, `tips` mapping each live shard to its current logical
/// clock, `key` the plane's checkpoint-signing key.
///
/// Accepts iff epochs are contiguous, shard coverage never shrinks,
/// every signature verifies, per-shard clocks are monotone across
/// epochs, and every checkpointed shard is live with a clock at or
/// past its last checkpoint.
///
/// # Errors
///
/// The first [`FleetVerifyError`] encountered, scanning epochs in
/// order.
pub fn verify_checkpoints(
    rows: &[CheckpointRow],
    tips: &HashMap<u32, u64>,
    key: &VerifyingKey,
) -> std::result::Result<(), FleetVerifyError> {
    // Group rows by epoch, sorted.
    let mut epochs: BTreeMap<u64, BTreeMap<u32, &CheckpointRow>> = BTreeMap::new();
    for r in rows {
        epochs.entry(r.epoch).or_default().insert(r.shard, r);
    }
    let mut prev_epoch: Option<u64> = None;
    let mut covered: BTreeMap<u32, u64> = BTreeMap::new(); // shard -> last clock
    for (&epoch, shards) in &epochs {
        if let Some(p) = prev_epoch {
            if epoch != p + 1 {
                return Err(FleetVerifyError::CheckpointGap {
                    expected: p + 1,
                    found: epoch,
                });
            }
        }
        prev_epoch = Some(epoch);
        // Coverage may only grow: a shard checkpointed once must
        // appear in every later epoch (retired shards are still
        // checkpointed; only a dropped shard vanishes).
        for &shard in covered.keys() {
            if !shards.contains_key(&shard) {
                return Err(FleetVerifyError::MissingShard { epoch, shard });
            }
        }
        for (&shard, row) in shards {
            let payload = checkpoint_payload(epoch, shard, row.seq, row.clock, &row.head);
            if key.verify(&payload, &row.sig).is_err() {
                return Err(FleetVerifyError::BadSignature { epoch, shard });
            }
            if let Some(&prev_clock) = covered.get(&shard) {
                if row.clock < prev_clock {
                    return Err(FleetVerifyError::NonMonotone { shard, epoch });
                }
            }
            covered.insert(shard, row.clock);
        }
    }
    // Every checkpointed shard must still be live, at or past its
    // last checkpointed clock.
    let last_epoch = prev_epoch.unwrap_or(0);
    for (&shard, &clock) in &covered {
        match tips.get(&shard) {
            None => {
                return Err(FleetVerifyError::MissingShard {
                    epoch: last_epoch,
                    shard,
                })
            }
            Some(&current) if current < clock => {
                return Err(FleetVerifyError::ShardRolledBack {
                    shard,
                    checkpointed: clock,
                    current,
                });
            }
            Some(_) => {}
        }
    }
    Ok(())
}

// ---------------------------------------------------------------
// The sharded plane
// ---------------------------------------------------------------

/// One provisioned shard.
struct Shard {
    seal: Arc<LibSeal>,
    /// Whether new sessions may route here (retired shards keep
    /// serving pinned sessions but leave the ring).
    routable: bool,
    /// Restart generation, encoded into session ids so sids from
    /// before a restart cannot alias fresh sessions.
    gen: u64,
    /// Sessions opened on this shard (routing-distribution tests).
    opened: AtomicU64,
}

/// A fleet of audit enclaves behind one [`AuditPlane`].
///
/// See the [module docs](self) for the architecture; construct via
/// `LibSealConfig::builder().shards(n).build_plane()` or
/// [`ShardedPlane::open`].
pub struct ShardedPlane {
    template: LibSealConfig,
    plane_seed: [u8; 32],
    shards: RwLock<BTreeMap<u32, Shard>>,
    ring: RwLock<ShardRing>,
    signer: SigningKey,
    epoch_interval: u64,
    /// Audited responses written since provisioning (checkpoint pacing).
    responses: AtomicU64,
    /// Single-flight latch for interval-triggered checkpoints.
    checkpointing: AtomicBool,
    /// Next epoch number; the lock also serialises checkpoint cuts.
    next_epoch: Mutex<u64>,
    manifest: Option<PathBuf>,
}

impl ShardedPlane {
    /// Provisions a fleet from `config` (shard count, epoch interval
    /// and per-enclave knobs all come from the builder). With a disk
    /// backing, an existing fleet manifest at `<path>.manifest`
    /// overrides the configured shard count and every shard recovers
    /// its journal through the ordinary per-log recovery.
    ///
    /// # Errors
    ///
    /// [`LibSealError::Config`] on contradictory knobs, manifest
    /// corruption, or any enclave provisioning failure.
    pub fn open(config: LibSealConfig) -> Result<Arc<ShardedPlane>> {
        if config.shards > 1 && config.group_commit.is_none() {
            return Err(LibSealError::Config(
                "shards(n > 1) with no_group_commit".into(),
            ));
        }
        if config.ssm.is_none() {
            return Err(LibSealError::Config(
                "a sharded plane requires an SSM: there is no audit log to shard otherwise".into(),
            ));
        }
        // Deterministic plane identity: a secret derived in-enclave
        // from the MRSIGNER seal key — the same secret LibSeal's own
        // log signer falls back to. Never public material (e.g. the
        // certificate): anyone holding it could recompute the
        // checkpoint and shard signing keys and forge the whole fleet
        // record.
        let base = plane_seal_secret();
        let mut seed_input = Vec::with_capacity(14 + 32);
        seed_input.extend_from_slice(b"libseal-plane:");
        seed_input.extend_from_slice(&base);
        let plane_seed = Sha256::digest(&seed_input);
        let signer = SigningKey::from_seed(&plane_seed);

        let manifest = match &config.backing {
            LogBacking::Memory => None,
            LogBacking::Disk(p) | LogBacking::DiskNoSync(p) => {
                Some(PathBuf::from(format!("{}.manifest", p.display())))
            }
        };
        let members = match manifest.as_deref().filter(|p| p.exists()) {
            Some(path) => parse_manifest(path)?,
            None => (0..config.shards.max(1) as u32)
                .map(|i| (i, true, 0))
                .collect(),
        };

        let mut shards = BTreeMap::new();
        for &(id, routable, gen) in &members {
            let seal = build_shard(&config, &plane_seed, id)?;
            shards.insert(
                id,
                Shard {
                    seal,
                    routable,
                    gen,
                    opened: AtomicU64::new(0),
                },
            );
        }
        let routable: Vec<u32> = shards
            .iter()
            .filter(|(_, s)| s.routable)
            .map(|(&id, _)| id)
            .collect();

        let plane = Arc::new(ShardedPlane {
            epoch_interval: config.epoch_interval,
            template: config,
            plane_seed,
            shards: RwLock::new(shards),
            ring: RwLock::new(ShardRing::new(&routable)),
            signer,
            responses: AtomicU64::new(0),
            checkpointing: AtomicBool::new(false),
            next_epoch: Mutex::new(1),
            manifest,
        });
        // A recovered fleet resumes its epoch numbering after the
        // last durable checkpoint.
        let resumed = plane.last_durable_epoch(0)?;
        *plane.next_epoch.lock() = resumed + 1;
        plane.write_manifest()?;
        Ok(plane)
    }

    /// Shard ids currently provisioned (routable or retired).
    pub fn shard_ids(&self) -> Vec<u32> {
        self.shards.read().keys().copied().collect()
    }

    /// Sessions opened per shard since provisioning.
    pub fn session_counts(&self) -> Vec<(u32, u64)> {
        self.shards
            .read()
            .iter()
            .map(|(&id, s)| (id, s.opened.load(Ordering::Relaxed)))
            .collect()
    }

    /// Direct handle to one shard's enclave (tests and tooling).
    pub fn shard(&self, id: u32) -> Option<Arc<LibSeal>> {
        self.shards.read().get(&id).map(|s| Arc::clone(&s.seal))
    }

    /// Provisions one more shard and adds it to the hash ring.
    /// Existing sessions are untouched; only new sessions route to
    /// it.
    ///
    /// # Errors
    ///
    /// Shard-id exhaustion or enclave provisioning failure.
    pub fn add_shard(&self) -> Result<u32> {
        let id = {
            let shards = self.shards.read();
            // Ids are never reused: a retired id's chain history
            // stays attributed to it in the checkpoint record.
            shards.keys().max().map_or(0, |m| m + 1)
        };
        if id >= MAX_SHARDS {
            return Err(LibSealError::Config(format!(
                "shard ids exhausted (max {MAX_SHARDS})"
            )));
        }
        let seal = build_shard(&self.template, &self.plane_seed, id)?;
        self.shards.write().insert(
            id,
            Shard {
                seal,
                routable: true,
                gen: 0,
                opened: AtomicU64::new(0),
            },
        );
        self.rebuild_ring();
        self.write_manifest()?;
        Ok(id)
    }

    /// Takes a shard out of the hash ring. Its pinned sessions keep
    /// running, its chain keeps being checkpointed — only new
    /// sessions stop routing to it (chains stay append-only).
    ///
    /// # Errors
    ///
    /// Unknown shard, or retiring the last routable shard.
    pub fn retire_shard(&self, id: u32) -> Result<()> {
        {
            let mut shards = self.shards.write();
            let routable_others = shards
                .iter()
                .any(|(&sid, s)| sid != id && s.routable);
            let shard = shards
                .get_mut(&id)
                .ok_or_else(|| LibSealError::Config(format!("no such shard: {id}")))?;
            if !routable_others {
                return Err(LibSealError::Config(
                    "cannot retire the last routable shard".into(),
                ));
            }
            shard.routable = false;
        }
        self.rebuild_ring();
        self.write_manifest()
    }

    /// Tears one shard's enclave down and reprovisions it from its
    /// journal through the ordinary per-log recovery (fresh enclave,
    /// same sealed log, ROTE counter reconciled). Sessions pinned to
    /// the shard die with [`LibSealError::NoSuchSession`]; clients
    /// reconnect and route normally.
    ///
    /// # Errors
    ///
    /// Unknown shard, teardown timeout, or reprovisioning failure.
    pub fn restart_shard(&self, id: u32) -> Result<()> {
        // Hold the epoch lock for the whole restart: an interval
        // checkpoint racing this window would otherwise cut an epoch
        // without the shard (it is out of the map while its enclave
        // drains), shrinking coverage and turning every later
        // verification into a false MissingShard verdict.
        let _epoch = self.next_epoch.lock();
        {
            let shards = self.shards.read();
            let shard = shards
                .get(&id)
                .ok_or_else(|| LibSealError::Config(format!("no such shard: {id}")))?;
            // Generations are encoded in session ids and persisted in
            // the manifest; wrapping one would let a stale sid alias a
            // fresh session, so refuse instead.
            if shard.gen + 1 >= (1 << GEN_BITS) {
                return Err(LibSealError::Config(format!(
                    "shard {id} restart generations exhausted"
                )));
            }
        }
        let old = self
            .shards
            .write()
            .remove(&id)
            .ok_or_else(|| LibSealError::Config(format!("no such shard: {id}")))?;
        let Shard {
            seal,
            routable,
            gen,
            ..
        } = old;
        // In-flight calls hold transient clones of the Arc; wait for
        // them to drain so Drop seals and releases the journal before
        // the fresh enclave reopens it.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while Arc::strong_count(&seal) > 1 {
            if std::time::Instant::now() > deadline {
                // Put it back rather than risk two writers on one
                // journal.
                self.shards.write().insert(
                    id,
                    Shard {
                        seal,
                        routable,
                        gen,
                        opened: AtomicU64::new(0),
                    },
                );
                return Err(LibSealError::Log(format!(
                    "shard {id} busy: in-flight calls did not drain"
                )));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(seal);
        let fresh = build_shard(&self.template, &self.plane_seed, id)?;
        self.shards.write().insert(
            id,
            Shard {
                seal: fresh,
                routable,
                gen: gen + 1,
                opened: AtomicU64::new(0),
            },
        );
        // Persist the bumped generation: a plane reopen must not
        // reset it, or sids minted before the restart would pass the
        // generation check again.
        self.write_manifest()
    }

    /// Cuts an epoch checkpoint now: snapshots every shard's chain
    /// tip, appends one plane-signed row per shard into shard 0's
    /// chain, and seals + flushes shard 0 so the checkpoint is
    /// durable. Returns the epoch number.
    ///
    /// # Errors
    ///
    /// Chain-tip reads or the checkpoint append/seal failing.
    pub fn checkpoint_now(&self, slot: usize) -> Result<u64> {
        let mut next = self.next_epoch.lock();
        let epoch = *next;
        let (tips, shard0) = {
            let shards = self.shards.read();
            let mut tips = Vec::with_capacity(shards.len());
            for (&id, s) in shards.iter() {
                let tip = s.seal.with_log(slot, |log| log.chain_tip())?;
                tips.push((id, tip));
            }
            let shard0 = shards
                .get(&0)
                .map(|s| Arc::clone(&s.seal))
                .ok_or_else(|| LibSealError::Log("shard 0 missing".into()))?;
            (tips, shard0)
        };
        let signer = self.signer.clone();
        shard0.with_log(slot, move |log| -> Result<()> {
            for (id, (seq, clock, head)) in tips {
                let sig = signer.sign(&checkpoint_payload(epoch, id, seq, clock, &head));
                log.append(
                    EPOCH_TABLE,
                    &[
                        Value::Integer(epoch as i64),
                        Value::Integer(id as i64),
                        Value::Integer(seq as i64),
                        Value::Integer(clock as i64),
                        Value::Text(hex(&head)),
                        Value::Text(hex(&sig)),
                    ],
                )?;
            }
            log.seal()?;
            log.flush()
        })??;
        *next = epoch + 1;
        Ok(epoch)
    }

    /// The plane's checkpoint-verifying key.
    pub fn verifying_key(&self) -> VerifyingKey {
        self.signer.verifying_key()
    }

    /// Verifies the whole fleet with typed failures: every shard's
    /// own chain, then checkpoint continuity (see
    /// [`verify_checkpoints`]).
    ///
    /// # Errors
    ///
    /// The first [`FleetVerifyError`] found.
    pub fn verify_fleet(&self, slot: usize) -> std::result::Result<(), FleetVerifyError> {
        let seals: Vec<(u32, Arc<LibSeal>)> = {
            let shards = self.shards.read();
            shards
                .iter()
                .map(|(&id, s)| (id, Arc::clone(&s.seal)))
                .collect()
        };
        let mut tips = HashMap::new();
        for (id, seal) in &seals {
            seal.verify_log(slot)
                .map_err(|source| FleetVerifyError::Shard { shard: *id, source })?;
            let (_seq, clock, _head) = seal
                .with_log(slot, |log| log.chain_tip())
                .map_err(FleetVerifyError::Plane)?;
            tips.insert(*id, clock);
        }
        let rows = self.checkpoint_rows(slot).map_err(FleetVerifyError::Plane)?;
        verify_checkpoints(&rows, &tips, &self.signer.verifying_key())
    }

    /// Reads and decodes the durable checkpoint history from shard 0.
    ///
    /// # Errors
    ///
    /// Query or decode failures.
    pub fn checkpoint_rows(&self, slot: usize) -> Result<Vec<CheckpointRow>> {
        let shard0 = self
            .shard(0)
            .ok_or_else(|| LibSealError::Log("shard 0 missing".into()))?;
        let result = shard0.with_log(slot, |log| {
            log.query(
                "SELECT epoch, shard, seq, clock, head, sig FROM _libseal_epochs",
                &[],
            )
        })??;
        let mut rows = Vec::with_capacity(result.rows.len());
        for r in &result.rows {
            rows.push(decode_row(r)?);
        }
        rows.sort_by_key(|r| (r.epoch, r.shard));
        Ok(rows)
    }

    /// Highest epoch in shard 0's durable checkpoint table (0 when
    /// none).
    fn last_durable_epoch(&self, slot: usize) -> Result<u64> {
        Ok(self
            .checkpoint_rows(slot)?
            .last()
            .map_or(0, |r| r.epoch))
    }

    fn rebuild_ring(&self) {
        let routable: Vec<u32> = self
            .shards
            .read()
            .iter()
            .filter(|(_, s)| s.routable)
            .map(|(&id, _)| id)
            .collect();
        *self.ring.write() = ShardRing::new(&routable);
    }

    /// Persists fleet membership next to the journals (atomic
    /// temp-file + rename), so a plane restart reprovisions every
    /// shard. Memory-backed planes have nothing to persist.
    fn write_manifest(&self) -> Result<()> {
        let Some(path) = &self.manifest else {
            return Ok(());
        };
        let mut body = String::from("libseal-fleet-v1\n");
        for (&id, s) in self.shards.read().iter() {
            body.push_str(&format!(
                "shard {id} {} {}\n",
                if s.routable { 1 } else { 0 },
                s.gen,
            ));
        }
        let tmp = path.with_extension("manifest.tmp");
        std::fs::write(&tmp, body.as_bytes())
            .and_then(|()| std::fs::rename(&tmp, path))
            .map_err(|e| LibSealError::Log(format!("fleet manifest: {e}")))
    }

    /// Counts audited responses and cuts an interval checkpoint when
    /// due. Single-flight: concurrent crossers skip instead of
    /// queueing behind the epoch lock.
    fn note_responses(&self, slot: usize, n: u64) {
        if n == 0 || self.epoch_interval == 0 {
            return;
        }
        let prev = self.responses.fetch_add(n, Ordering::Relaxed);
        if prev / self.epoch_interval == (prev + n) / self.epoch_interval {
            return;
        }
        if self
            .checkpointing
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            if self.checkpoint_now(slot).is_err() {
                // A persistently failing checkpoint append would
                // silently freeze coverage; count it so operators see
                // the stall before drain does.
                libseal_telemetry::counter("core_plane_checkpoint_failures_total").inc();
            }
            self.checkpointing.store(false, Ordering::Release);
        }
    }

    /// Resolves a plane session id to its shard, rejecting stale
    /// generations (sessions from before a shard restart).
    fn resolve(&self, sid: u64) -> Result<(Arc<LibSeal>, u64)> {
        let shard_id = (sid & (MAX_SHARDS as u64 - 1)) as u32;
        let gen = (sid >> SHARD_BITS) & ((1 << GEN_BITS) - 1);
        let local = sid >> (SHARD_BITS + GEN_BITS);
        let shards = self.shards.read();
        match shards.get(&shard_id) {
            Some(s) if s.gen == gen => Ok((Arc::clone(&s.seal), local)),
            _ => Err(LibSealError::NoSuchSession(sid)),
        }
    }

    fn encode_sid(local: u64, gen: u64, shard: u32) -> u64 {
        (local << (SHARD_BITS + GEN_BITS)) | (gen << SHARD_BITS) | shard as u64
    }
}

impl AuditPlane for ShardedPlane {
    fn open_session(&self, slot: usize, affinity: u64) -> Result<u64> {
        let shard_id = self
            .ring
            .read()
            .route(affinity)
            .ok_or_else(|| LibSealError::Log("no routable shards".into()))?;
        let (seal, gen) = {
            let shards = self.shards.read();
            let s = shards
                .get(&shard_id)
                .ok_or_else(|| LibSealError::Log(format!("shard {shard_id} missing")))?;
            s.opened.fetch_add(1, Ordering::Relaxed);
            (Arc::clone(&s.seal), s.gen)
        };
        let local = seal.new_session(slot)?;
        Ok(Self::encode_sid(local, gen, shard_id))
    }

    fn close_session(&self, slot: usize, sid: u64) -> Result<()> {
        let (seal, local) = self.resolve(sid)?;
        seal.close_session(slot, local)
    }

    fn take_close_output(&self, slot: usize, sid: u64) -> Result<Vec<u8>> {
        let (seal, local) = self.resolve(sid)?;
        seal.take_close_output(slot, local)
    }

    fn provide_input(&self, slot: usize, sid: u64, data: &[u8]) -> Result<()> {
        let (seal, local) = self.resolve(sid)?;
        seal.provide_input(slot, local, data)
    }

    fn take_output(&self, slot: usize, sid: u64) -> Result<Vec<u8>> {
        let (seal, local) = self.resolve(sid)?;
        seal.take_output(slot, local)
    }

    fn do_handshake(&self, slot: usize, sid: u64) -> Result<bool> {
        let (seal, local) = self.resolve(sid)?;
        seal.do_handshake(slot, local)
    }

    fn ssl_read(&self, slot: usize, sid: u64) -> Result<ReadOutcome> {
        let (seal, local) = self.resolve(sid)?;
        seal.ssl_read(slot, local)
    }

    fn ssl_write(&self, slot: usize, sid: u64, data: &[u8]) -> Result<()> {
        let (seal, local) = self.resolve(sid)?;
        seal.ssl_write(slot, local, data)?;
        // Release the shard handle before pacing: note_responses may
        // block on the epoch lock, which a concurrent restart holds
        // while waiting for exactly these handles to drain.
        drop(seal);
        self.note_responses(slot, 1);
        Ok(())
    }

    fn ssl_write_take(&self, slot: usize, sid: u64, data: &[u8]) -> Result<Vec<u8>> {
        let (seal, local) = self.resolve(sid)?;
        let out = seal.ssl_write_take(slot, local, data)?;
        drop(seal);
        self.note_responses(slot, 1);
        Ok(out)
    }

    fn pump_batch(&self, slot: usize, items: Vec<SessionInput>) -> Result<Vec<SessionOutcome>> {
        // Partition the batch per shard: one enclave crossing per
        // shard touched, outcomes reassembled under plane sids.
        let mut per_shard = BTreeMap::new();
        let mut outcomes = Vec::with_capacity(items.len());
        for item in items {
            match self.resolve(item.sid) {
                Ok((seal, local)) => {
                    let shard_gen = item.sid & ((1 << (SHARD_BITS + GEN_BITS)) - 1);
                    let entry = per_shard
                        .entry(shard_gen)
                        .or_insert_with(|| (seal, Vec::new(), Vec::new()));
                    entry.2.push(item.sid);
                    entry.1.push(SessionInput {
                        sid: local,
                        input: item.input,
                    });
                }
                Err(e) => outcomes.push(SessionOutcome {
                    sid: item.sid,
                    established: false,
                    data: Vec::new(),
                    output: Vec::new(),
                    closed: true,
                    error: Some(e),
                }),
            }
        }
        for (shard_gen, (seal, batch, plane_sids)) in per_shard {
            let local_to_plane: HashMap<u64, u64> = batch
                .iter()
                .map(|i| i.sid)
                .zip(plane_sids)
                .collect();
            for mut o in seal.pump_batch(slot, batch)? {
                o.sid = local_to_plane
                    .get(&o.sid)
                    .copied()
                    .unwrap_or((o.sid << (SHARD_BITS + GEN_BITS)) | shard_gen);
                outcomes.push(o);
            }
        }
        // No epoch pacing here: pumps only advance handshakes and
        // reads. Audited responses are counted where they are
        // written — ssl_write / ssl_write_take.
        Ok(outcomes)
    }

    fn audit_backlog(&self) -> u64 {
        self.shards
            .read()
            .values()
            .map(|s| s.seal.audit_backlog())
            .sum()
    }

    fn is_audited(&self) -> bool {
        true
    }

    fn certificates(&self) -> Vec<libseal_tlsx::cert::Certificate> {
        self.shards
            .read()
            .values()
            .map(|s| s.seal.certificate().clone())
            .collect()
    }

    fn measurements(&self) -> Vec<[u8; 32]> {
        // Every shard runs the same code; dedup so clients pin one
        // measurement, but report stragglers if a mixed fleet appears.
        let mut ms: Vec<[u8; 32]> = self
            .shards
            .read()
            .values()
            .map(|s| s.seal.measurement())
            .collect();
        ms.sort_unstable();
        ms.dedup();
        ms
    }

    fn async_slots(&self) -> Option<usize> {
        None
    }

    fn shards(&self) -> usize {
        self.shards.read().len()
    }

    fn drain(&self, slot: usize) -> Result<()> {
        // Final checkpoint first: the drained fleet's tips are all
        // witnessed in shard 0's chain.
        self.checkpoint_now(slot)?;
        let seals: Vec<Arc<LibSeal>> = self
            .shards
            .read()
            .values()
            .map(|s| Arc::clone(&s.seal))
            .collect();
        for seal in seals {
            seal.drain(slot)?;
        }
        Ok(())
    }

    fn verify_log(&self, slot: usize) -> Result<()> {
        self.verify_fleet(slot).map_err(|e| match e {
            FleetVerifyError::Shard { source, .. } => source,
            other => LibSealError::Tampered(other.to_string()),
        })
    }

    fn telemetry(&self) -> &'static libseal_telemetry::Registry {
        libseal_telemetry::global()
    }
}

/// The plane's secret seed base: the MRSIGNER seal key, read inside a
/// freshly measured enclave exactly as `LibSeal` derives its own
/// log-signer fallback. Bound to the platform secret, so nothing
/// derivable from public material (certificate, measurements) reveals
/// the checkpoint or per-shard signing keys.
fn plane_seal_secret() -> [u8; 32] {
    let mut secret = [0u8; 32];
    EnclaveBuilder::new(b"libseal-plane-v1").build(|sv| {
        secret = sv.seal_key(SealingPolicy::MrSigner);
    });
    secret
}

/// Provisions one shard's enclave from the plane template: suffixed
/// journal path, domain-separated log-signing seed, and (shard 0
/// only) the checkpoint table spliced into the audited schema.
fn build_shard(template: &LibSealConfig, plane_seed: &[u8; 32], id: u32) -> Result<Arc<LibSeal>> {
    let mut config = template.clone();
    config.backing = match &template.backing {
        LogBacking::Memory => LogBacking::Memory,
        LogBacking::Disk(p) => LogBacking::Disk(shard_path(p, id)),
        LogBacking::DiskNoSync(p) => LogBacking::DiskNoSync(shard_path(p, id)),
    };
    let mut seed_input = Vec::with_capacity(32 + 6 + 4);
    seed_input.extend_from_slice(plane_seed);
    seed_input.extend_from_slice(b"shard:");
    seed_input.extend_from_slice(&id.to_le_bytes());
    config.log_signer_seed = Some(Sha256::digest(&seed_input));
    if let (0, Some(ssm)) = (id, &template.ssm) {
        config.ssm = Some(Arc::new(EpochSsm::new(Arc::clone(ssm))));
    }
    LibSeal::new(config)
}

fn shard_path(base: &std::path::Path, id: u32) -> PathBuf {
    PathBuf::from(format!("{}.shard{id}", base.display()))
}

/// Parses the fleet manifest: `shard <id> <routable> [gen]` lines
/// under a `libseal-fleet-v1` header (the generation column was
/// added later; absent means 0).
fn parse_manifest(path: &std::path::Path) -> Result<Vec<(u32, bool, u64)>> {
    let body = std::fs::read_to_string(path)
        .map_err(|e| LibSealError::Log(format!("fleet manifest: {e}")))?;
    let mut lines = body.lines();
    if lines.next() != Some("libseal-fleet-v1") {
        return Err(LibSealError::Config(format!(
            "unrecognised fleet manifest at {}",
            path.display()
        )));
    }
    let mut members = Vec::new();
    for line in lines {
        let mut parts = line.split_whitespace();
        if parts.next() != Some("shard") {
            continue;
        }
        let (Some(id), Some(routable)) = (parts.next(), parts.next()) else {
            continue;
        };
        let id: u32 = id
            .parse()
            .map_err(|_| LibSealError::Config(format!("bad manifest shard id: {id}")))?;
        let gen: u64 = match parts.next() {
            None => 0,
            Some(g) => g.parse().map_err(|_| {
                LibSealError::Config(format!("bad manifest shard generation: {g}"))
            })?,
        };
        if gen >= (1 << GEN_BITS) {
            return Err(LibSealError::Config(format!(
                "manifest shard {id} generation {gen} out of range"
            )));
        }
        members.push((id, routable == "1", gen));
    }
    if members.is_empty() {
        return Err(LibSealError::Config("empty fleet manifest".into()));
    }
    Ok(members)
}

fn decode_row(row: &[Value]) -> Result<CheckpointRow> {
    let int = |v: &Value| -> Result<u64> {
        match v {
            Value::Integer(i) => Ok(*i as u64),
            _ => Err(LibSealError::Log("non-integer checkpoint column".into())),
        }
    };
    let text = |v: &Value| -> Result<Vec<u8>> {
        match v {
            Value::Text(t) => unhex(t),
            _ => Err(LibSealError::Log("non-text checkpoint column".into())),
        }
    };
    if row.len() != 6 {
        return Err(LibSealError::Log("short checkpoint row".into()));
    }
    let head_bytes = text(&row[4])?;
    let sig_bytes = text(&row[5])?;
    let head: [u8; 32] = head_bytes
        .try_into()
        .map_err(|_| LibSealError::Log("bad checkpoint head length".into()))?;
    let sig: [u8; 64] = sig_bytes
        .try_into()
        .map_err(|_| LibSealError::Log("bad checkpoint signature length".into()))?;
    Ok(CheckpointRow {
        epoch: int(&row[0])?,
        shard: int(&row[1])? as u32,
        seq: int(&row[2])?,
        clock: int(&row[3])?,
        head,
        sig,
    })
}

fn hex(b: &[u8]) -> String {
    b.iter().map(|x| format!("{x:02x}")).collect()
}

fn unhex(s: &str) -> Result<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return Err(LibSealError::Log("odd-length hex".into()));
    }
    (0..s.len())
        .step_by(2)
        .map(|i| {
            u8::from_str_radix(&s[i..i + 2], 16)
                .map_err(|_| LibSealError::Log("bad hex digit".into()))
        })
        .collect()
}
