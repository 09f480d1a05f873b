//! The service-facing audit plane: one trait, two shapes.
//!
//! [`AuditPlane`] is the session surface: "the thing that terminates
//! TLS and keeps the audit log", abstracted so services never learn
//! how many enclaves stand behind it. [`LibSeal`] implements it below
//! (the paper's single-enclave model); [`ShardedPlane`] implements it
//! with a fleet of N enclaves ([`crate::fleet`]); [`build_plane`]
//! picks between them from the configured shard count. The services
//! crate adds a third, `tlsadapter::NativeTls`: the plain TLS library
//! with no enclave behind the same surface — LibSEAL is a drop-in
//! replacement for it (§4.1), so a server is written against this
//! trait and cannot tell which one it was given.
//!
//! Each session operation is declared once per layer: here in the
//! trait, once for the single enclave, once for the fleet. Where the
//! benchmark pins a `LibSeal` entry point by name the single-enclave
//! implementation forwards to that inherent method; every other
//! operation has its body in the implementation below and no inherent
//! twin.

use std::sync::Arc;

use libseal_tlsx::ssl::ReadOutcome;

use crate::config::LibSealConfig;
use crate::enclave::{self, Ecall, SessionInput, SessionOutcome};
use crate::fleet::ShardedPlane;
use crate::session::LibSeal;
use crate::Result;

/// What services program against: session lifecycle, the audited
/// read/write paths, backpressure, drain and fleet verification.
///
/// Implemented by [`LibSeal`] (one enclave) and [`ShardedPlane`]
/// (N enclaves); `LibSealConfig::builder().shards(n).build_plane()`
/// picks the implementation.
pub trait AuditPlane: Send + Sync {
    /// Opens a session. `affinity` is a stable caller-chosen
    /// connection id; sharded planes route it to shard
    /// `mix64(affinity) % n` (a single enclave ignores it).
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

    /// Reads decrypted request plaintext. Complete requests are also
    /// queued for audit pairing.
    ///
    /// # Errors
    ///
    /// Unknown session or TLS failure.
    fn ssl_read(&self, slot: usize, sid: u64) -> Result<ReadOutcome>;

    /// Writes response plaintext, given as a chain of slices (a
    /// message's head and its body) that is written as their
    /// concatenation would be: the staged copy an enclave takes in
    /// gathers them, and a plane without one seals them where they lie.
    /// With auditing enabled the response is buffered until complete,
    /// logged against its request, and the `Libseal-Check-Result`
    /// header is injected when requested.
    ///
    /// # Errors
    ///
    /// Unknown session, TLS failure, or audit-append failure.
    fn ssl_write(&self, slot: usize, sid: u64, parts: &[&[u8]]) -> Result<()>;

    /// Fused write + output take (one enclave crossing).
    ///
    /// # Errors
    ///
    /// As [`AuditPlane::ssl_write`].
    fn ssl_write_take(&self, slot: usize, sid: u64, parts: &[&[u8]]) -> Result<Vec<u8>>;

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

    /// Number of asynchronous call slots, or `None` when calls are
    /// dispatched synchronously (no runtime configured). Concurrent
    /// callers must hold distinct slots.
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
    /// [`crate::LibSealError::Tampered`] on any integrity violation.
    fn verify_log(&self, slot: usize) -> Result<()>;

    /// The TLS certificates this plane's enclaves present, one per
    /// shard. With an attested identity configured, each carries that
    /// shard's quote as a certificate extension (RA-TLS).
    fn certificates(&self) -> Vec<libseal_tlsx::cert::Certificate>;

    /// The distinct enclave measurements behind this plane — what a
    /// client pins in its `AttestationPolicy`. All shards run the same
    /// code, so a sharded plane normally reports a single entry.
    fn measurements(&self) -> Vec<[u8; 32]>;
}

impl AuditPlane for LibSeal {
    fn open_session(&self, slot: usize, _affinity: u64) -> Result<u64> {
        self.new_session(slot)
    }

    fn close_session(&self, slot: usize, sid: u64) -> Result<()> {
        LibSeal::close_session(self, slot, sid)
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
        let out = self.call(slot, Ecall::SslRead, move |t, ctx| {
            enclave::read_session(t, ctx, sid)
        })??;
        if matches!(out, ReadOutcome::Closed) {
            self.note_progress([(sid, false, true)]);
        }
        Ok(out)
    }

    fn ssl_write(&self, slot: usize, sid: u64, parts: &[&[u8]]) -> Result<()> {
        let data = parts.concat();
        self.call(slot, Ecall::SslWrite, move |t, ctx| {
            enclave::write_session(t, ctx, sid, &data)
        })?
    }

    fn ssl_write_take(&self, slot: usize, sid: u64, parts: &[&[u8]]) -> Result<Vec<u8>> {
        self.write_take_staged(slot, sid, parts.concat())
    }

    fn pump_batch(&self, slot: usize, items: Vec<SessionInput>) -> Result<Vec<SessionOutcome>> {
        LibSeal::pump_batch(self, slot, items)
    }

    fn audit_backlog(&self) -> u64 {
        let commit = self.audit.as_ref().map_or(0, |a| a.sealer.queue().depth());
        commit + self.verifier_lag()
    }

    fn async_slots(&self) -> Option<usize> {
        self.runtime.as_ref().map(|rt| rt.slot_count())
    }

    fn drain(&self, slot: usize) -> Result<()> {
        LibSeal::drain(self, slot)
    }

    fn verify_log(&self, slot: usize) -> Result<()> {
        LibSeal::verify_log(self, slot)
    }

    fn certificates(&self) -> Vec<libseal_tlsx::cert::Certificate> {
        vec![self.certificate().clone()]
    }

    fn measurements(&self) -> Vec<[u8; 32]> {
        vec![self.measurement()]
    }
}

/// Provisions the audit plane `config` describes: one [`LibSeal`]
/// for `shards(1)`, a [`ShardedPlane`] otherwise.
///
/// # Errors
///
/// As [`ShardedPlane::open`] and [`LibSeal::new`].
pub fn build_plane(config: LibSealConfig) -> Result<Arc<dyn AuditPlane>> {
    if config.shards > 1 {
        Ok(ShardedPlane::open(config)?)
    } else {
        Ok(LibSeal::new(config)?)
    }
}
