//! The sharded audit plane: a fleet of enclaves behind one
//! [`AuditPlane`].
//!
//! [`ShardedPlane`] implements the trait with N enclaves — each a full
//! [`LibSeal`] with its own journal, sealing codec, group-commit
//! pipeline, verifier and ROTE guard — multiplying the single sealer
//! thread and single ROTE counter stream that otherwise cap audited
//! throughput.
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
//!   then replays the checkpoint history
//!   ([`crate::checkpoint::verify_checkpoints`]): epochs must be
//!   contiguous, a shard once covered must stay covered, per-shard
//!   clocks must be monotone across epochs, and every live chain must
//!   have advanced past its last checkpointed clock. A dropped shard,
//!   a rolled-back shard, or a truncated checkpoint history each
//!   produce a distinct [`FleetVerifyError`].
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

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use libseal_crypto::ed25519::{SigningKey, VerifyingKey};
use libseal_crypto::sha2::Sha256;
use libseal_sgxsim::enclave::EnclaveBuilder;
use libseal_sgxsim::seal::SealingPolicy;
use libseal_tlsx::ssl::ReadOutcome;
use plat::sync::{Mutex, RwLock};

use crate::checkpoint::{
    self, checkpoint_payload, verify_checkpoints, CheckpointRow, EpochSsm, FleetVerifyError,
};
use crate::config::LibSealConfig;
use crate::enclave::{SessionInput, SessionOutcome};
use crate::log::LogBacking;
use crate::plane::AuditPlane;
use crate::session::LibSeal;
use crate::{LibSealError, Result};

/// Bits of a plane session id carrying the shard id.
const SHARD_BITS: u32 = 10;
/// Bits carrying the shard's restart generation (stale sids from
/// before a restart must not alias fresh sessions). Generations are
/// persisted in the fleet manifest and never wrap: a shard that has
/// exhausted them refuses further restarts.
const GEN_BITS: u32 = 14;
/// Maximum shard id (exclusive).
const MAX_SHARDS: u32 = 1 << SHARD_BITS;
/// Maximum restart generation (exclusive).
const MAX_GENS: u64 = 1 << GEN_BITS;
/// Virtual nodes per shard on the hash ring; enough that four shards
/// split sequential connection ids within the ≤2 max/min ratio the
/// routing tests assert.
const VNODES_PER_SHARD: usize = 128;

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

    /// The ring of the shards in `shards` new sessions may route to.
    fn of(shards: &BTreeMap<u32, Shard>) -> ShardRing {
        let routable: Vec<u32> = shards
            .iter()
            .filter(|(_, s)| s.routable)
            .map(|(&id, _)| id)
            .collect();
        ShardRing::new(&routable)
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

impl Shard {
    fn new(seal: Arc<LibSeal>, routable: bool, gen: u64) -> Shard {
        Shard {
            seal,
            routable,
            gen,
            opened: AtomicU64::new(0),
        }
    }
}

fn no_such_shard(id: u32) -> LibSealError {
    LibSealError::Config(format!("no such shard: {id}"))
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
    /// [`LibSealError::Config`] without an SSM or on manifest
    /// corruption, or any enclave provisioning failure.
    pub fn open(config: LibSealConfig) -> Result<Arc<ShardedPlane>> {
        if config.ssm.is_none() {
            return Err(LibSealError::Config(
                "a sharded plane requires an SSM: sharding partitions the audit log, \
                 which auditing-disabled configurations do not have"
                    .into(),
            ));
        }
        // Deterministic plane identity: a secret derived in-enclave
        // from the MRSIGNER seal key — the same secret LibSeal's own
        // log signer falls back to. Never public material (e.g. the
        // certificate): anyone holding it could recompute the
        // checkpoint and shard signing keys and forge the whole fleet
        // record.
        let base = plane_seal_secret();
        let plane_seed = Sha256::digest(&[b"libseal-plane:".as_slice(), &base].concat());
        let signer = SigningKey::from_seed(&plane_seed);

        let manifest = match &config.backing {
            LogBacking::Memory => None,
            LogBacking::Disk(p) => Some(PathBuf::from(format!("{}.manifest", p.display()))),
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
            shards.insert(id, Shard::new(seal, routable, gen));
        }
        let plane = Arc::new(ShardedPlane {
            epoch_interval: config.epoch_interval,
            template: config,
            plane_seed,
            ring: RwLock::new(ShardRing::of(&shards)),
            shards: RwLock::new(shards),
            signer,
            responses: AtomicU64::new(0),
            checkpointing: AtomicBool::new(false),
            next_epoch: Mutex::new(1),
            manifest,
        });
        // A recovered fleet resumes its epoch numbering after the
        // last durable checkpoint.
        let resumed = plane.checkpoint_rows(0)?.last().map_or(0, |r| r.epoch);
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

    /// A snapshot of every shard's handle, in id order, so fleet-wide
    /// operations enter the enclaves without holding the membership
    /// lock.
    fn seals(&self) -> Vec<(u32, Arc<LibSeal>)> {
        self.shards
            .read()
            .iter()
            .map(|(&id, s)| (id, Arc::clone(&s.seal)))
            .collect()
    }

    fn shard0(&self) -> Result<Arc<LibSeal>> {
        self.shard(0)
            .ok_or_else(|| LibSealError::Log("shard 0 missing".into()))
    }

    /// Provisions one more shard and adds it to the hash ring.
    /// Existing sessions are untouched; only new sessions route to
    /// it.
    ///
    /// # Errors
    ///
    /// Shard-id exhaustion or enclave provisioning failure.
    pub fn add_shard(&self) -> Result<u32> {
        // Ids are never reused: a retired id's chain history
        // stays attributed to it in the checkpoint record.
        let id = self.shards.read().keys().max().map_or(0, |m| m + 1);
        if id >= MAX_SHARDS {
            return Err(LibSealError::Config(format!(
                "shard ids exhausted (max {MAX_SHARDS})"
            )));
        }
        let seal = build_shard(&self.template, &self.plane_seed, id)?;
        {
            let mut shards = self.shards.write();
            shards.insert(id, Shard::new(seal, true, 0));
            *self.ring.write() = ShardRing::of(&shards);
        }
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
            let routable_others = shards.iter().any(|(&sid, s)| sid != id && s.routable);
            let shard = shards.get_mut(&id).ok_or_else(|| no_such_shard(id))?;
            if !routable_others {
                return Err(LibSealError::Config(
                    "cannot retire the last routable shard".into(),
                ));
            }
            shard.routable = false;
            *self.ring.write() = ShardRing::of(&shards);
        }
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
        let old = match self.shards.write().entry(id) {
            Entry::Vacant(_) => return Err(no_such_shard(id)),
            // Generations are encoded in session ids and persisted in
            // the manifest; wrapping one would let a stale sid alias a
            // fresh session, so refuse instead.
            Entry::Occupied(e) if e.get().gen + 1 >= MAX_GENS => {
                return Err(LibSealError::Config(format!(
                    "shard {id} restart generations exhausted"
                )));
            }
            Entry::Occupied(e) => e.remove(),
        };
        // In-flight calls hold transient clones of the Arc; wait for
        // them to drain so Drop seals and releases the journal before
        // the fresh enclave reopens it.
        let deadline = Instant::now() + Duration::from_secs(10);
        while Arc::strong_count(&old.seal) > 1 {
            if Instant::now() > deadline {
                // Put it back rather than risk two writers on one
                // journal.
                self.shards.write().insert(id, old);
                return Err(LibSealError::Log(format!(
                    "shard {id} busy: in-flight calls did not drain"
                )));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let (routable, gen) = (old.routable, old.gen);
        drop(old);
        let fresh = build_shard(&self.template, &self.plane_seed, id)?;
        let fresh = Shard::new(fresh, routable, gen + 1);
        self.shards.write().insert(id, fresh);
        // Persist the bumped generation: a plane reopen must not
        // reset it, or sids minted before the restart would pass the
        // generation check again.
        self.write_manifest()
    }

    /// Cuts an epoch checkpoint now: snapshots every shard's chain
    /// tip, appends one plane-signed row per shard into shard 0's
    /// chain, and commits shard 0 so the checkpoint is durable under a
    /// signed head when this returns. Returns the epoch number.
    ///
    /// # Errors
    ///
    /// Chain-tip reads or the checkpoint append/seal failing.
    pub fn checkpoint_now(&self, slot: usize) -> Result<u64> {
        let mut next = self.next_epoch.lock();
        let epoch = *next;
        let mut rows = Vec::new();
        for (shard, seal) in self.seals() {
            let (seq, clock, head) = seal.with_log(slot, |log| log.chain_tip())?;
            let sig = self
                .signer
                .sign(&checkpoint_payload(epoch, shard, seq, clock, &head));
            rows.push(CheckpointRow {
                epoch,
                shard,
                seq,
                clock,
                head,
                sig,
            });
        }
        self.shard0()?.with_log(slot, move |log| -> Result<()> {
            for row in rows {
                log.append(checkpoint::EPOCH_TABLE, &row.to_values())?;
            }
            log.commit()
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
        let mut tips = HashMap::new();
        for (shard, seal) in self.seals() {
            seal.verify_log(slot)
                .map_err(|source| FleetVerifyError::Shard { shard, source })?;
            let (_seq, clock, _head) = seal
                .with_log(slot, |log| log.chain_tip())
                .map_err(FleetVerifyError::Plane)?;
            tips.insert(shard, clock);
        }
        let rows = self.checkpoint_rows(slot);
        let rows = rows.map_err(FleetVerifyError::Plane)?;
        verify_checkpoints(&rows, &tips, &self.signer.verifying_key())
    }

    /// Reads and decodes the durable checkpoint history from shard 0.
    ///
    /// # Errors
    ///
    /// Query or decode failures.
    pub fn checkpoint_rows(&self, slot: usize) -> Result<Vec<CheckpointRow>> {
        self.shard0()?.with_log(slot, checkpoint::read_rows)?
    }

    /// Persists fleet membership next to the journals so a plane
    /// restart reprovisions every shard and keeps pre-restart sids
    /// dead: written to a temp file, fsynced, renamed over the
    /// manifest, and the directory fsynced — a crash leaves the old
    /// manifest or the new one, never a torn or unlinked one.
    /// Memory-backed planes have nothing to persist.
    fn write_manifest(&self) -> Result<()> {
        let Some(path) = &self.manifest else {
            return Ok(());
        };
        let mut body = String::from("libseal-fleet-v1\n");
        for (&id, s) in self.shards.read().iter() {
            body.push_str(&format!("shard {id} {} {}\n", u8::from(s.routable), s.gen));
        }
        let tmp = path.with_extension("manifest.tmp");
        let write = || -> std::io::Result<()> {
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(body.as_bytes())?;
            file.sync_all()?;
            std::fs::rename(&tmp, path)?;
            libseal_sealdb::journal::sync_parent_dir(path)
        };
        write().map_err(|e| LibSealError::Log(format!("fleet manifest: {e}")))
    }

    /// Counts one audited response and cuts an interval checkpoint
    /// when due. Single-flight: concurrent crossers skip instead of
    /// queueing behind the epoch lock.
    fn note_response(&self, slot: usize) {
        if self.epoch_interval == 0 {
            return;
        }
        let prev = self.responses.fetch_add(1, Ordering::Relaxed);
        if prev / self.epoch_interval == (prev + 1) / self.epoch_interval {
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

    /// Resolves a plane session id to its shard and the shard's own
    /// id for the session, rejecting stale generations (sessions from
    /// before a shard restart). The only reader of the sid layout
    /// [`ShardedPlane::encode_sid`] writes.
    fn resolve(&self, sid: u64) -> Result<(Arc<LibSeal>, u64)> {
        let shard_id = (sid & (MAX_SHARDS as u64 - 1)) as u32;
        let gen = (sid >> SHARD_BITS) & (MAX_GENS - 1);
        let local = sid >> (SHARD_BITS + GEN_BITS);
        match self.shards.read().get(&shard_id) {
            Some(s) if s.gen == gen => Ok((Arc::clone(&s.seal), local)),
            _ => Err(LibSealError::NoSuchSession(sid)),
        }
    }

    fn encode_sid(local: u64, gen: u64, shard: u32) -> u64 {
        (local << (SHARD_BITS + GEN_BITS)) | (gen << SHARD_BITS) | shard as u64
    }

    /// Every per-session operation: resolve the plane sid, run `op` on
    /// its shard under the shard's own sid. The shard handle is
    /// released before this returns, so a caller may pace epochs
    /// afterwards: note_response may block on the epoch lock, which a
    /// concurrent restart holds while waiting for exactly these
    /// handles to drain.
    fn on_shard<R>(&self, sid: u64, op: impl FnOnce(&LibSeal, u64) -> Result<R>) -> Result<R> {
        let (seal, local) = self.resolve(sid)?;
        op(&seal, local)
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
        self.on_shard(sid, |seal, local| seal.close_session(slot, local))
    }

    fn provide_input(&self, slot: usize, sid: u64, data: &[u8]) -> Result<()> {
        self.on_shard(sid, |seal, local| seal.provide_input(slot, local, data))
    }

    fn take_output(&self, slot: usize, sid: u64) -> Result<Vec<u8>> {
        self.on_shard(sid, |seal, local| seal.take_output(slot, local))
    }

    fn do_handshake(&self, slot: usize, sid: u64) -> Result<bool> {
        self.on_shard(sid, |seal, local| seal.do_handshake(slot, local))
    }

    fn ssl_read(&self, slot: usize, sid: u64) -> Result<ReadOutcome> {
        self.on_shard(sid, |seal, local| seal.ssl_read(slot, local))
    }

    fn ssl_write(&self, slot: usize, sid: u64, data: &[u8]) -> Result<()> {
        self.on_shard(sid, |seal, local| seal.ssl_write(slot, local, data))?;
        self.note_response(slot);
        Ok(())
    }

    fn ssl_write_take(&self, slot: usize, sid: u64, data: &[u8]) -> Result<Vec<u8>> {
        let out = self.on_shard(sid, |seal, local| seal.ssl_write_take(slot, local, data))?;
        self.note_response(slot);
        Ok(out)
    }

    fn pump_batch(&self, slot: usize, items: Vec<SessionInput>) -> Result<Vec<SessionOutcome>> {
        // Partition the batch per shard (and generation: a restart may
        // land between two resolves): one enclave crossing per shard
        // touched, outcomes reassembled under plane sids.
        let mut per_shard = BTreeMap::new();
        let mut outcomes = Vec::with_capacity(items.len());
        for item in items {
            match self.resolve(item.sid) {
                Ok((seal, local)) => {
                    let shard_gen = item.sid & ((1 << (SHARD_BITS + GEN_BITS)) - 1);
                    let (_, sids, batch) = per_shard
                        .entry(shard_gen)
                        .or_insert_with(|| (seal, Vec::new(), Vec::new()));
                    sids.push(item.sid);
                    batch.push(SessionInput {
                        sid: local,
                        input: item.input,
                    });
                }
                Err(e) => outcomes.push(SessionOutcome::failed(item.sid, e)),
            }
        }
        for (seal, sids, batch) in per_shard.into_values() {
            match seal.pump_batch(slot, batch) {
                // A shard answers item for item, in order.
                Ok(pumped) => outcomes.extend(pumped.into_iter().zip(sids).map(|(mut o, sid)| {
                    o.sid = sid;
                    o
                })),
                // One shard's enclave could not be entered: its
                // sessions fail, the other shards' outcomes — input
                // consumed, output already taken — still reach the
                // caller.
                Err(e) => outcomes.extend(sids.into_iter().map(|sid| {
                    let why = LibSealError::Log(format!("shard unavailable: {e}"));
                    SessionOutcome::failed(sid, why)
                })),
            }
        }
        // No epoch pacing here: pumps only advance handshakes and
        // reads. Audited responses are counted where they are
        // written — ssl_write / ssl_write_take.
        Ok(outcomes)
    }

    fn audit_backlog(&self) -> u64 {
        // On the listener's accept path: summed under the membership
        // lock, no handle snapshot.
        let shards = self.shards.read();
        shards.values().map(|s| s.seal.audit_backlog()).sum()
    }

    fn certificates(&self) -> Vec<libseal_tlsx::cert::Certificate> {
        self.seals()
            .iter()
            .map(|(_, s)| s.certificate().clone())
            .collect()
    }

    fn measurements(&self) -> Vec<[u8; 32]> {
        // Every shard runs the same code; dedup so clients pin one
        // measurement, but report stragglers if a mixed fleet appears.
        let mut ms: Vec<[u8; 32]> = self.seals().iter().map(|(_, s)| s.measurement()).collect();
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
        for (_, seal) in self.seals() {
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
    if let LogBacking::Disk(base) = &template.backing {
        config.backing = LogBacking::Disk(PathBuf::from(format!("{}.shard{id}", base.display())));
    }
    let seed_input = [plane_seed.as_slice(), b"shard:", &id.to_le_bytes()].concat();
    config.log_signer_seed = Some(Sha256::digest(&seed_input));
    if let (0, Some(ssm)) = (id, &template.ssm) {
        config.ssm = Some(Arc::new(EpochSsm::new(Arc::clone(ssm))));
    }
    LibSeal::new(config)
}

/// Parses the fleet manifest: `shard <id> <routable> [gen]` lines
/// under a `libseal-fleet-v1` header (the generation column was
/// added later; absent means 0). The file sits on the untrusted disk,
/// so every field is range-checked and a `shard` line that does not
/// parse is an error, never skipped: an id past [`MAX_SHARDS`] would
/// spill into the generation bits of every sid the shard mints, a
/// repeated id would provision two enclaves over one journal, and a
/// dropped line would silently shrink the fleet. Shard 0 holds the
/// checkpoint history, so a manifest without it names no fleet.
fn parse_manifest(path: &Path) -> Result<Vec<(u32, bool, u64)>> {
    let body = std::fs::read_to_string(path)
        .map_err(|e| LibSealError::Log(format!("fleet manifest: {e}")))?;
    let bad = |what: String| LibSealError::Config(format!("fleet manifest: {what}"));
    let mut lines = body.lines();
    if lines.next() != Some("libseal-fleet-v1") {
        return Err(bad("unrecognised header".into()));
    }
    let mut members = Vec::new();
    let mut seen = HashSet::new();
    for line in lines {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let (id, routable, gen) = match fields[..] {
            ["shard", id, routable] => (id, routable, "0"),
            ["shard", id, routable, gen] => (id, routable, gen),
            ["shard", ..] => return Err(bad(format!("malformed line {line:?}"))),
            _ => continue,
        };
        let id = match id.parse::<u32>() {
            Ok(id) if id < MAX_SHARDS => id,
            _ => return Err(bad(format!("shard id {id} out of range"))),
        };
        if !seen.insert(id) {
            return Err(bad(format!("shard {id} listed twice")));
        }
        let routable = match routable {
            "0" => false,
            "1" => true,
            _ => return Err(bad(format!("shard {id}: routable flag {routable:?}"))),
        };
        let gen = match gen.parse::<u64>() {
            Ok(gen) if gen < MAX_GENS => gen,
            _ => return Err(bad(format!("shard {id} generation out of range"))),
        };
        members.push((id, routable, gen));
    }
    if !seen.contains(&0) {
        return Err(bad("names no shard 0".into()));
    }
    Ok(members)
}
