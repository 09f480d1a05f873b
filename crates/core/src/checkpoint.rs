//! Epoch checkpoints: the pure half of fleet verification.
//!
//! A sharded plane ([`crate::fleet::ShardedPlane`]) cross-links its
//! per-shard hash chains by appending, every epoch, one plane-signed
//! row per shard — that shard's chain tip — into shard 0's chain
//! (table `_libseal_epochs`). This module is everything about those
//! rows that needs no enclave: the table and its splice into shard
//! 0's schema (`EpochSsm`), the row type and its column encoding
//! ([`CheckpointRow`]), the signing payload ([`checkpoint_payload`]),
//! and the verifier over a checkpoint history ([`verify_checkpoints`],
//! [`FleetVerifyError`]) — the part an offline verifier reading the
//! journals from disk has to reproduce.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use libseal_crypto::ed25519::VerifyingKey;
use libseal_sealdb::Value;

use crate::log::{hex, unhex, TableSpec};
use crate::ssm::{Invariant, ServiceModule};
use crate::{AuditLog, LibSealError, Result};

/// The epoch-checkpoint table sealed into shard 0's chain.
pub(crate) const EPOCH_TABLE: &str = "_libseal_epochs";
const EPOCH_SCHEMA: &str = "CREATE TABLE IF NOT EXISTS _libseal_epochs(
    epoch INTEGER, shard INTEGER, seq INTEGER, clock INTEGER, head TEXT, sig TEXT)";

/// Wraps shard 0's SSM, adding the `_libseal_epochs` checkpoint table
/// to the audited schema so checkpoint rows ride the ordinary hash
/// chain, sealing and rollback protection.
pub(crate) struct EpochSsm {
    inner: Arc<dyn ServiceModule>,
    schema: &'static str,
}

impl EpochSsm {
    pub(crate) fn new(inner: Arc<dyn ServiceModule>) -> EpochSsm {
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
pub fn checkpoint_payload(
    epoch: u64,
    shard: u32,
    seq: u64,
    clock: u64,
    head: &[u8; 32],
) -> Vec<u8> {
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
                write!(
                    f,
                    "checkpoint gap: expected epoch {expected}, found {found}"
                )
            }
            FleetVerifyError::MissingShard { epoch, shard } => {
                write!(f, "epoch {epoch} does not cover shard {shard}")
            }
            FleetVerifyError::BadSignature { epoch, shard } => {
                write!(
                    f,
                    "bad checkpoint signature at epoch {epoch}, shard {shard}"
                )
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
        // appear in every later epoch (every shard of the fixed fleet
        // is checkpointed each epoch; only a dropped shard vanishes).
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

impl CheckpointRow {
    /// The row as the `_libseal_epochs` columns, in schema order.
    pub(crate) fn to_values(&self) -> [Value; 6] {
        [
            Value::Integer(self.epoch as i64),
            Value::Integer(self.shard as i64),
            Value::Integer(self.seq as i64),
            Value::Integer(self.clock as i64),
            Value::Text(hex(&self.head)),
            Value::Text(hex(&self.sig)),
        ]
    }

    /// Decodes one `_libseal_epochs` row.
    pub(crate) fn from_values(row: &[Value]) -> Result<CheckpointRow> {
        let bad = |what: &str| LibSealError::Log(format!("bad checkpoint {what}"));
        use Value::{Integer, Text};
        let [Integer(epoch), Integer(shard), Integer(seq), Integer(clock), Text(head), Text(sig)] =
            row
        else {
            return Err(bad("row: column count or types"));
        };
        let head = unhex(head).and_then(|b| b.try_into().ok());
        let sig = unhex(sig).and_then(|b| b.try_into().ok());
        Ok(CheckpointRow {
            epoch: *epoch as u64,
            shard: *shard as u32,
            seq: *seq as u64,
            clock: *clock as u64,
            head: head.ok_or_else(|| bad("head"))?,
            sig: sig.ok_or_else(|| bad("signature"))?,
        })
    }
}

/// Reads and decodes the checkpoint history in `log` (shard 0's),
/// sorted by epoch, then shard.
///
/// # Errors
///
/// Query or decode failures.
pub(crate) fn read_rows(log: &mut AuditLog) -> Result<Vec<CheckpointRow>> {
    let result = log.query(
        "SELECT epoch, shard, seq, clock, head, sig FROM _libseal_epochs",
        &[],
    )?;
    let mut rows = result
        .rows
        .iter()
        .map(|r| CheckpointRow::from_values(r))
        .collect::<Result<Vec<_>>>()?;
    rows.sort_by_key(|r| (r.epoch, r.shard));
    Ok(rows)
}
