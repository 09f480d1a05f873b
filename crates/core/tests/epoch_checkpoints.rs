//! Epoch-checkpoint verification: property tests over synthetic
//! checkpoint histories (the verifier accepts iff epochs are
//! contiguous, coverage never shrinks, signatures verify and shard
//! clocks are monotone), plus end-to-end trials on a provisioned
//! [`ShardedPlane`] — tamper with one shard's rows, roll one shard
//! back, recover one shard from its journal — each asserting the
//! typed [`FleetVerifyError`] it must produce.

use std::collections::HashMap;
use std::sync::Arc;

use libseal::checkpoint::{checkpoint_payload, verify_checkpoints, CheckpointRow};
use libseal::ssm::Invariant;
use libseal::{
    AuditLog, AuditPlane, FleetVerifyError, LibSealConfig, LibSealError, LogBacking, ServiceModule,
    SessionInput, ShardedPlane, TableSpec,
};
use libseal_crypto::ed25519::SigningKey;
use libseal_sealdb::Value;
use libseal_sgxsim::cost::CostModel;
use libseal_tlsx::cert::CertificateAuthority;
use plat::tmp::TempPath;

// ---------------------------------------------------------------
// Synthetic-history property tests
// ---------------------------------------------------------------

/// Deterministic PRNG (splitmix64) so every scenario is reproducible.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn signed_row(signer: &SigningKey, epoch: u64, shard: u32, seq: u64, clock: u64) -> CheckpointRow {
    let head = libseal_crypto::sha2::Sha256::digest(&[epoch as u8, shard as u8, clock as u8]);
    let sig = signer.sign(&checkpoint_payload(epoch, shard, seq, clock, &head));
    CheckpointRow {
        epoch,
        shard,
        seq,
        clock,
        head,
        sig,
    }
}

/// One random but well-formed history: `shards` shards over `epochs`
/// contiguous epochs with monotone clocks, and live tips at or past
/// the final checkpoint.
fn scenario(rng: &mut Rng) -> (Vec<CheckpointRow>, HashMap<u32, u64>, SigningKey) {
    let signer = SigningKey::from_seed(&[rng.next() as u8; 32]);
    let shards = 1 + rng.below(5) as u32;
    let epochs = 1 + rng.below(6);
    let mut clocks: Vec<u64> = (0..shards).map(|_| rng.below(4)).collect();
    let mut rows = Vec::new();
    for epoch in 1..=epochs {
        for shard in 0..shards {
            clocks[shard as usize] += rng.below(5);
            let clock = clocks[shard as usize];
            rows.push(signed_row(&signer, epoch, shard, clock, clock));
        }
    }
    let tips = (0..shards)
        .map(|s| (s, clocks[s as usize] + rng.below(3)))
        .collect();
    (rows, tips, signer)
}

#[test]
fn well_formed_histories_verify() {
    let mut rng = Rng(0xC0FFEE);
    for _ in 0..40 {
        let (rows, tips, signer) = scenario(&mut rng);
        verify_checkpoints(&rows, &tips, &signer.verifying_key())
            .expect("well-formed history must verify");
    }
}

#[test]
fn mutated_shard_head_is_a_bad_signature() {
    let mut rng = Rng(0xBEEF);
    for _ in 0..20 {
        let (mut rows, tips, signer) = scenario(&mut rng);
        let victim = rng.below(rows.len() as u64) as usize;
        rows[victim].head[0] ^= 0x80;
        let (epoch, shard) = (rows[victim].epoch, rows[victim].shard);
        match verify_checkpoints(&rows, &tips, &signer.verifying_key()) {
            Err(FleetVerifyError::BadSignature { epoch: e, shard: s }) => {
                assert_eq!(e, epoch);
                assert_eq!(s, shard);
            }
            other => panic!("expected BadSignature, got {other:?}"),
        }
    }
}

#[test]
fn dropped_checkpoint_is_a_gap() {
    let mut rng = Rng(0xD00D);
    let mut tried = 0;
    while tried < 20 {
        let (rows, tips, signer) = scenario(&mut rng);
        let last = rows.last().expect("non-empty").epoch;
        if last < 3 {
            continue;
        }
        tried += 1;
        // Drop a middle epoch entirely (never the first or the last,
        // which contiguity alone cannot see).
        let victim = 2 + rng.below(last - 2);
        let rows: Vec<CheckpointRow> = rows.into_iter().filter(|r| r.epoch != victim).collect();
        match verify_checkpoints(&rows, &tips, &signer.verifying_key()) {
            Err(FleetVerifyError::CheckpointGap { expected, found }) => {
                assert_eq!(expected, victim);
                assert_eq!(found, victim + 1);
            }
            other => panic!("expected CheckpointGap, got {other:?}"),
        }
    }
}

#[test]
fn rolled_back_shard_is_detected() {
    let mut rng = Rng(0xFADE);
    let mut tried = 0;
    while tried < 20 {
        let (rows, mut tips, signer) = scenario(&mut rng);
        let last = rows.last().expect("non-empty").epoch;
        let victim = rng.below(tips.len() as u64) as u32;
        let checkpointed = rows
            .iter()
            .filter(|r| r.epoch == last && r.shard == victim)
            .map(|r| r.clock)
            .next()
            .expect("victim covered");
        if checkpointed == 0 {
            continue;
        }
        tried += 1;
        tips.insert(victim, checkpointed - 1);
        match verify_checkpoints(&rows, &tips, &signer.verifying_key()) {
            Err(FleetVerifyError::ShardRolledBack { shard, current, .. }) => {
                assert_eq!(shard, victim);
                assert_eq!(current, checkpointed - 1);
            }
            other => panic!("expected ShardRolledBack, got {other:?}"),
        }
    }
}

#[test]
fn shrinking_coverage_is_a_missing_shard() {
    let mut rng = Rng(0x5EED);
    let mut tried = 0;
    while tried < 20 {
        let (rows, tips, signer) = scenario(&mut rng);
        let last = rows.last().expect("non-empty").epoch;
        // A single-shard history would lose its whole last epoch with
        // the victim row, which reads as a (legal) shorter history.
        if last < 2 || tips.len() < 2 {
            continue;
        }
        tried += 1;
        let victim = rng.below(tips.len() as u64) as u32;
        // The shard is covered by earlier epochs but vanishes from the
        // final one — a dropped shard.
        let rows: Vec<CheckpointRow> = rows
            .into_iter()
            .filter(|r| !(r.epoch == last && r.shard == victim))
            .collect();
        match verify_checkpoints(&rows, &tips, &signer.verifying_key()) {
            Err(FleetVerifyError::MissingShard { epoch, shard }) => {
                assert_eq!(epoch, last);
                assert_eq!(shard, victim);
            }
            other => panic!("expected MissingShard, got {other:?}"),
        }
    }
}

#[test]
fn vanished_live_shard_is_a_missing_shard() {
    let mut rng = Rng(0xACE);
    for _ in 0..10 {
        let (rows, mut tips, signer) = scenario(&mut rng);
        let victim = rng.below(tips.len() as u64) as u32;
        tips.remove(&victim);
        match verify_checkpoints(&rows, &tips, &signer.verifying_key()) {
            Err(FleetVerifyError::MissingShard { shard, .. }) => assert_eq!(shard, victim),
            other => panic!("expected MissingShard, got {other:?}"),
        }
    }
}

#[test]
fn regressing_clock_is_non_monotone() {
    let mut rng = Rng(0xF00D);
    let mut tried = 0;
    while tried < 20 {
        let (mut rows, tips, signer) = scenario(&mut rng);
        let last = rows.last().expect("non-empty").epoch;
        if last < 2 {
            continue;
        }
        let victim_shard = rng.below(tips.len() as u64) as u32;
        let prev_clock = rows
            .iter()
            .filter(|r| r.epoch == last - 1 && r.shard == victim_shard)
            .map(|r| r.clock)
            .next()
            .expect("covered");
        if prev_clock == 0 {
            continue;
        }
        tried += 1;
        // Re-sign the final row with a regressed clock: the signature
        // verifies, so only the monotonicity check can object.
        for r in &mut rows {
            if r.epoch == last && r.shard == victim_shard {
                *r = signed_row(&signer, last, victim_shard, r.seq, prev_clock - 1);
            }
        }
        match verify_checkpoints(&rows, &tips, &signer.verifying_key()) {
            Err(FleetVerifyError::NonMonotone { shard, epoch }) => {
                assert_eq!(shard, victim_shard);
                assert_eq!(epoch, last);
            }
            // The regressed clock may also trip the live-tip check
            // first when the mutated row is the shard's last word.
            Err(FleetVerifyError::ShardRolledBack { .. }) => {
                panic!("monotonicity must be checked during the epoch scan")
            }
            other => panic!("expected NonMonotone, got {other:?}"),
        }
    }
}

// ---------------------------------------------------------------
// End-to-end fleet trials
// ---------------------------------------------------------------

/// A minimal SSM: one audited table, no invariants; tests append
/// through `with_log` directly rather than speaking a protocol.
struct EventsSsm;

const EVENTS_SCHEMA: &str = "CREATE TABLE IF NOT EXISTS events(time INTEGER, v TEXT);";

impl ServiceModule for EventsSsm {
    fn name(&self) -> &'static str {
        "events"
    }

    fn schema_sql(&self) -> &'static str {
        EVENTS_SCHEMA
    }

    fn tables(&self) -> Vec<TableSpec> {
        vec![TableSpec {
            name: "events",
            key_cols: &["time"],
        }]
    }

    fn invariants(&self) -> &'static [Invariant] {
        &[]
    }

    fn trim_queries(&self) -> &'static [&'static str] {
        &[]
    }

    fn log_pair(&self, _req: &[u8], _rsp: &[u8], _log: &mut AuditLog) -> libseal::Result<usize> {
        Ok(0)
    }
}

fn fleet_config(backing: LogBacking, shards: usize) -> LibSealConfig {
    let ca = CertificateAuthority::new("CA", &[1u8; 32]);
    let (key, cert) = ca.issue_identity("svc.test", &[2u8; 32]).unwrap();
    LibSealConfig::builder(cert, key)
        .ssm(Arc::new(EventsSsm))
        .backing(backing)
        .check_interval(0)
        .cost_model(CostModel::free())
        .shards(shards)
        .epoch_interval(0)
        .build()
}

fn append_events(plane: &ShardedPlane, shard: u32, n: usize) {
    let seal = plane.shard(shard).expect("shard exists");
    for i in 0..n {
        seal.with_log(0, move |log| {
            let t = log.next_time();
            log.append(
                "events",
                &[Value::Integer(t as i64), Value::Text(format!("v{i}"))],
            )
        })
        .expect("enclave entry")
        .expect("append");
    }
}

/// Best-effort removal of the per-shard journals and manifest derived
/// from a base path.
fn cleanup_fleet(base: &std::path::Path) {
    for suffix in ["shard0", "shard1", "shard2", "manifest"] {
        let _ = std::fs::remove_file(format!("{}.{suffix}", base.display()));
    }
}

#[test]
fn healthy_fleet_verifies_end_to_end() {
    let plane = ShardedPlane::open(fleet_config(LogBacking::Memory, 3)).expect("provision");
    for shard in 0..3 {
        append_events(&plane, shard, 4);
    }
    assert_eq!(plane.checkpoint_now(0).expect("checkpoint"), 1);
    append_events(&plane, 1, 3);
    assert_eq!(plane.checkpoint_now(0).expect("checkpoint"), 2);
    plane.verify_fleet(0).expect("healthy fleet verifies");
    let rows = plane.checkpoint_rows(0).expect("rows");
    // Two epochs, three shards each.
    assert_eq!(rows.len(), 6);
}

#[test]
fn tampered_shard_rows_fail_shard_verification() {
    let plane = ShardedPlane::open(fleet_config(LogBacking::Memory, 2)).expect("provision");
    append_events(&plane, 0, 3);
    append_events(&plane, 1, 3);
    plane.checkpoint_now(0).expect("checkpoint");
    plane.verify_fleet(0).expect("clean before tampering");
    let seal = plane.shard(1).expect("shard 1");
    seal.with_log(0, |log| {
        log.db_mut()
            .execute("UPDATE events SET v = 'forged'")
            .expect("tamper")
    })
    .expect("enclave entry");
    match plane.verify_fleet(0) {
        Err(FleetVerifyError::Shard { shard, source }) => {
            assert_eq!(shard, 1);
            assert!(matches!(source, LibSealError::Tampered(_)));
        }
        other => panic!("expected Shard failure, got {other:?}"),
    }
}

#[test]
fn memory_shard_restart_is_a_rollback() {
    let plane = ShardedPlane::open(fleet_config(LogBacking::Memory, 2)).expect("provision");
    append_events(&plane, 0, 2);
    append_events(&plane, 1, 5);
    plane.checkpoint_now(0).expect("checkpoint");
    // A memory-backed shard restart loses its journal: the rebuilt
    // chain starts from clock 0, behind its checkpointed clock — the
    // fleet must read that as a rollback.
    plane.restart_shard(1).expect("restart");
    match plane.verify_fleet(0) {
        Err(FleetVerifyError::ShardRolledBack { shard, current, .. }) => {
            assert_eq!(shard, 1);
            assert_eq!(current, 0);
        }
        other => panic!("expected ShardRolledBack, got {other:?}"),
    }
}

#[test]
fn disk_shard_restart_recovers_and_verifies() {
    let base = TempPath::new("libseal-fleet-restart", "log");
    let plane = ShardedPlane::open(fleet_config(LogBacking::Disk(base.to_path_buf()), 2))
        .expect("provision");
    append_events(&plane, 0, 3);
    append_events(&plane, 1, 4);
    plane.checkpoint_now(0).expect("checkpoint");
    // Disk-backed restart: the fresh enclave recovers the sealed
    // journal, so the chain resumes at its checkpointed clock and the
    // fleet stays verifiable.
    plane.restart_shard(1).expect("restart");
    plane.verify_fleet(0).expect("recovered fleet verifies");
    append_events(&plane, 1, 2);
    plane.checkpoint_now(0).expect("checkpoint after recovery");
    plane.verify_fleet(0).expect("still verifies");
    drop(plane);
    cleanup_fleet(&base);
}

#[test]
fn plane_restart_resumes_from_the_manifest() {
    let base = TempPath::new("libseal-fleet-reopen", "log");
    let cfg = || fleet_config(LogBacking::Disk(base.to_path_buf()), 2);
    let first_epoch = {
        let plane = ShardedPlane::open(cfg()).expect("provision");
        append_events(&plane, 0, 2);
        append_events(&plane, 1, 2);
        let e = plane.checkpoint_now(0).expect("checkpoint");
        plane.drain(0).expect("drain");
        e
    };
    // Reopen: the manifest reprovisions both shards from their
    // journals and epoch numbering resumes after the durable history.
    let plane = ShardedPlane::open(cfg()).expect("reopen");
    assert_eq!(plane.shard_ids(), vec![0, 1]);
    plane.verify_fleet(0).expect("recovered fleet verifies");
    let next = plane.checkpoint_now(0).expect("checkpoint");
    // Draining cut one more checkpoint after `first_epoch`.
    assert_eq!(next, first_epoch + 2);
    plane.verify_fleet(0).expect("verifies after resume");
    drop(plane);
    cleanup_fleet(&base);
}

#[test]
fn plane_keys_are_not_derivable_from_the_certificate() {
    // The plane seed must come from secret material. Re-run the
    // (removed) public derivation — Sha256(cert.pubkey) under the
    // plane's domain separation — and assert it does NOT yield the
    // checkpoint-verifying key, i.e. holding the service certificate
    // is not enough to forge epoch checkpoints.
    let ca = CertificateAuthority::new("CA", &[1u8; 32]);
    let (key, cert) = ca.issue_identity("svc.test", &[2u8; 32]).unwrap();
    let pubkey = cert.pubkey;
    let plane = ShardedPlane::open(
        LibSealConfig::builder(cert, key)
            .ssm(Arc::new(EventsSsm))
            .check_interval(0)
            .cost_model(CostModel::free())
            .shards(2)
            .epoch_interval(0)
            .build(),
    )
    .expect("provision");
    let mut forged_input = Vec::new();
    forged_input.extend_from_slice(b"libseal-plane:");
    forged_input.extend_from_slice(&libseal_crypto::sha2::Sha256::digest(&pubkey));
    let forged_seed = libseal_crypto::sha2::Sha256::digest(&forged_input);
    let forged = SigningKey::from_seed(&forged_seed).verifying_key();
    assert_ne!(
        forged.as_bytes(),
        plane.verifying_key().as_bytes(),
        "plane checkpoint key must not be derivable from the public certificate"
    );
}

/// Opens sessions until one lands on `shard`, returning its plane
/// sid.
fn open_session_on(plane: &ShardedPlane, shard: u32) -> u64 {
    let count_on = |p: &ShardedPlane| {
        p.session_counts()
            .iter()
            .find(|&&(id, _)| id == shard)
            .map_or(0, |&(_, n)| n)
    };
    for affinity in 0..10_000u64 {
        let before = count_on(plane);
        let sid = plane.open_session(0, affinity).expect("open session");
        if count_on(plane) > before {
            return sid;
        }
        plane.close_session(0, sid).expect("close session");
    }
    panic!("no affinity routed to shard {shard}");
}

/// A sid from before its shard's restart must be dead on every
/// per-session entry of the trait — they all resolve sids through one
/// wrapper — and come back from a batch as that item's error.
fn assert_stale(plane: &ShardedPlane, sid: u64, when: &str) {
    let refused: [(&str, libseal::Result<()>); 7] = [
        ("provide_input", plane.provide_input(0, sid, b"x")),
        ("take_output", plane.take_output(0, sid).map(drop)),
        ("do_handshake", plane.do_handshake(0, sid).map(drop)),
        ("ssl_read", plane.ssl_read(0, sid).map(drop)),
        ("ssl_write", plane.ssl_write(0, sid, &[b"x"])),
        (
            "ssl_write_take",
            plane.ssl_write_take(0, sid, &[b"x"]).map(drop),
        ),
        ("close_session", plane.close_session(0, sid)),
    ];
    for (entry, result) in refused {
        assert!(
            matches!(result, Err(LibSealError::NoSuchSession(s)) if s == sid),
            "{entry} {when}: {result:?}"
        );
    }
    let item = SessionInput {
        sid,
        input: b"x".to_vec(),
    };
    let outcomes = plane.pump_batch(0, vec![item]).expect("batch entry");
    assert_eq!(outcomes.len(), 1);
    assert!(
        matches!(outcomes[0].error, Some(LibSealError::NoSuchSession(s)) if s == sid),
        "pump_batch {when}: {:?}",
        outcomes[0].error
    );
}

/// The manifest is bytes on the untrusted disk: what it cannot mean
/// must be a typed configuration error, not a panic, a fleet whose
/// sids collide, or a silently empty fleet.
#[test]
fn hostile_manifests_are_refused() {
    let hostile = [
        (
            "a shard id past the sid layout",
            "libseal-fleet-v2\nshard 0 0\nshard 1024 0\n",
        ),
        (
            "a shard listed twice",
            "libseal-fleet-v2\nshard 0 0\nshard 1 0\nshard 1 3\n",
        ),
        ("a zero-length file", ""),
        (
            "a truncated shard line",
            "libseal-fleet-v2\nshard 0 0\nshard 1\n",
        ),
        ("a fleet without shard 0", "libseal-fleet-v2\nshard 1 0\n"),
        (
            "a v1 manifest, with its routability column",
            "libseal-fleet-v1\nshard 0 1 0\nshard 1 1 0\n",
        ),
        (
            "a gap in the shard ids",
            "libseal-fleet-v2\nshard 0 0\nshard 2 0\n",
        ),
        (
            "a v1 line under the v2 header",
            "libseal-fleet-v2\nshard 0 1 0\n",
        ),
    ];
    for (what, body) in hostile {
        let base = TempPath::new("libseal-fleet-hostile", "log");
        std::fs::write(format!("{}.manifest", base.display()), body).unwrap();
        let opened = ShardedPlane::open(fleet_config(LogBacking::Disk(base.to_path_buf()), 2));
        assert!(
            matches!(opened.as_ref().err(), Some(LibSealError::Config(_))),
            "{what}: {:?}",
            opened.err()
        );
        drop(opened);
        cleanup_fleet(&base);
    }
}

#[test]
fn stale_generations_stay_dead_across_plane_reopen() {
    let base = TempPath::new("libseal-fleet-gen", "log");
    let cfg = || fleet_config(LogBacking::Disk(base.to_path_buf()), 2);
    let stale_sid = {
        let plane = ShardedPlane::open(cfg()).expect("provision");
        append_events(&plane, 1, 2);
        plane.checkpoint_now(0).expect("checkpoint");
        let sid = open_session_on(&plane, 1);
        // Restart bumps the generation: the pinned session dies.
        plane.restart_shard(1).expect("restart");
        assert_stale(&plane, sid, "after the restart");
        plane.drain(0).expect("drain");
        sid
    };
    // Reopen from the manifest: the bumped generation must have been
    // persisted, so the pre-restart sid still cannot alias a fresh
    // session on the reprovisioned shard.
    let plane = ShardedPlane::open(cfg()).expect("reopen");
    assert_stale(&plane, stale_sid, "after the plane reopened");
    // Fresh sessions on the restarted shard route and resolve.
    let fresh = open_session_on(&plane, 1);
    plane
        .close_session(0, fresh)
        .expect("fresh session resolves");
    drop(plane);
    cleanup_fleet(&base);
}

#[test]
fn checkpoints_racing_a_restart_never_shrink_coverage() {
    // A checkpoint cut while a shard is mid-restart must not drop the
    // shard from coverage (which would be a permanent false
    // MissingShard verdict). Hammer checkpoint_now from another
    // thread across several restarts and require a clean fleet.
    let base = TempPath::new("libseal-fleet-race", "log");
    let plane = ShardedPlane::open(fleet_config(LogBacking::Disk(base.to_path_buf()), 2))
        .expect("provision");
    append_events(&plane, 0, 2);
    append_events(&plane, 1, 2);
    plane.checkpoint_now(0).expect("checkpoint");
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let checkpointer = {
        let plane = Arc::clone(&plane);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                plane.checkpoint_now(0).expect("racing checkpoint");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        })
    };
    for _ in 0..5 {
        plane
            .restart_shard(1)
            .expect("restart under checkpoint load");
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    checkpointer.join().expect("checkpointer");
    plane
        .verify_fleet(0)
        .expect("coverage must survive restarts racing checkpoints");
    drop(plane);
    cleanup_fleet(&base);
}
