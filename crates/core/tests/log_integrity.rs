//! Direct tests of the audit log's integrity machinery: hash chain,
//! signatures, rollback counters, sealed persistence.

use libseal::log::{AuditLog, LogBacking, NoGuard, RollbackGuard};
use libseal::{GitModule, LibSealError, ServiceModule};
use libseal_crypto::ed25519::SigningKey;
use libseal_sealdb::Value;

fn open_log(backing: LogBacking, guard: Box<dyn RollbackGuard>) -> libseal::Result<AuditLog> {
    let ssm = GitModule;
    AuditLog::open(
        backing,
        [7u8; 32],
        SigningKey::from_seed(&[1u8; 32]),
        guard,
        ssm.schema_sql(),
        ssm.tables(),
    )
}

/// Appends `n` updates, sealing each: one counter step per entry.
fn append_n(log: &mut AuditLog, n: u64) {
    for i in 0..n {
        let t = log.next_time() as i64;
        log.append(
            "updates",
            &[
                Value::Integer(t),
                Value::Text("r".into()),
                Value::Text("main".into()),
                Value::Text(format!("{i:040x}")),
                Value::Text("update".into()),
            ],
        )
        .unwrap();
        log.seal().unwrap();
    }
}

/// A guard standing in for an external (persistent) counter service
/// that remembers more increments than the log being presented — the
/// §5.1 rollback scenario.
struct ExternalCounter {
    value: std::sync::atomic::AtomicU64,
}

impl RollbackGuard for ExternalCounter {
    fn increment(&self) -> libseal::Result<u64> {
        Ok(self.value.fetch_add(1, std::sync::atomic::Ordering::SeqCst) + 1)
    }
    fn attested(&self) -> libseal::Result<u64> {
        Ok(self.value.load(std::sync::atomic::Ordering::SeqCst))
    }
}

#[test]
fn rollback_across_restart_detected() {
    let path = plat::tmp::TempPath::new("libseal-rb", "log");

    // Epoch 1: write 3 entries; snapshot the journal (the attacker's
    // stale copy).
    {
        let guard = Box::new(ExternalCounter {
            value: std::sync::atomic::AtomicU64::new(0),
        });
        let mut log = open_log(LogBacking::Disk(path.to_path_buf()), guard).unwrap();
        append_n(&mut log, 3);
        log.flush().unwrap();
    }
    let stale_copy = std::fs::read(&path).unwrap();

    // Epoch 2: two more entries land (counter now attests 5).
    {
        let guard = Box::new(ExternalCounter {
            value: std::sync::atomic::AtomicU64::new(3),
        });
        let mut log = open_log(LogBacking::Disk(path.to_path_buf()), guard).unwrap();
        append_n(&mut log, 2);
        log.flush().unwrap();
    }

    // The provider restores the stale journal and restarts: the
    // external counter attests 5 > the 3 entries presented.
    std::fs::write(&path, &stale_copy).unwrap();
    let guard = Box::new(ExternalCounter {
        value: std::sync::atomic::AtomicU64::new(5),
    });
    match open_log(LogBacking::Disk(path.to_path_buf()), guard) {
        Err(LibSealError::Log(m)) | Err(LibSealError::Tampered(m)) => {
            assert!(m.contains("rollback"), "{m}");
        }
        other => panic!("rollback not detected: {:?}", other.map(|_| ())),
    }
}

#[test]
fn verify_detects_reordered_chain() {
    let mut log = open_log(LogBacking::Memory, Box::new(NoGuard)).unwrap();
    append_n(&mut log, 3);
    log.verify().unwrap();
    // Swap two chain sequence numbers (a provider editing history).
    log.db_mut()
        .execute("UPDATE _libseal_chain SET seq = 99 WHERE seq = 1")
        .unwrap();
    assert!(log.verify().is_err());
}

#[test]
fn verify_detects_payload_edit() {
    let mut log = open_log(LogBacking::Memory, Box::new(NoGuard)).unwrap();
    append_n(&mut log, 2);
    log.db_mut()
        .execute("UPDATE _libseal_chain SET payload = 'forged' WHERE seq = 2")
        .unwrap();
    assert!(log.verify().is_err());
}

#[test]
fn verify_detects_meta_tampering() {
    let mut log = open_log(LogBacking::Memory, Box::new(NoGuard)).unwrap();
    append_n(&mut log, 2);
    log.db_mut()
        .execute("UPDATE _libseal_meta SET v = '00:2:2' WHERE k = 'head'")
        .unwrap();
    assert!(log.verify().is_err());
}

#[test]
fn empty_log_verifies() {
    let log = open_log(LogBacking::Memory, Box::new(NoGuard)).unwrap();
    log.verify().unwrap();
}

#[test]
fn logical_clock_is_monotonic_across_restart() {
    let path = plat::tmp::TempPath::new("libseal-clock", "log");
    let t1;
    {
        let mut log = open_log(LogBacking::Disk(path.to_path_buf()), Box::new(NoGuard)).unwrap();
        append_n(&mut log, 4);
        t1 = log.now();
    }
    {
        let mut log = open_log(LogBacking::Disk(path.to_path_buf()), Box::new(NoGuard)).unwrap();
        let t2 = log.next_time();
        assert!(t2 > t1, "clock went backwards: {t2} <= {t1}");
    }
}

#[test]
fn clock_survives_trim_and_restart() {
    // Regression test: after trimming renumbers the chain, a restart
    // must not reset the logical clock below surviving rows' times.
    let ssm = GitModule;
    let path = plat::tmp::TempPath::new("libseal-trimclk", "log");
    let mut max_time_before;
    {
        let mut log = open_log(LogBacking::Disk(path.to_path_buf()), Box::new(NoGuard)).unwrap();
        append_n(&mut log, 50);
        log.trim(ssm.trim_queries()).unwrap();
        log.commit().unwrap(); // chain renumbered to 1 entry
        max_time_before = 0i64;
        let r = log.query("SELECT MAX(time) FROM updates", &[]).unwrap();
        if let Some(Value::Integer(t)) = r.scalar() {
            max_time_before = *t;
        }
        assert!(max_time_before >= 50);
        log.flush().unwrap();
    }
    {
        let mut log = open_log(LogBacking::Disk(path.to_path_buf()), Box::new(NoGuard)).unwrap();
        let next = log.next_time() as i64;
        assert!(
            next > max_time_before,
            "clock regressed: next {next} <= surviving max {max_time_before}"
        );
        log.verify().unwrap();
    }
}

#[test]
fn indexes_stay_consistent_across_append_trim_and_replay() {
    // The key-column hash indexes created by `AuditLog::open` must
    // track every mutation path the log performs: appends, the
    // DELETE-based trim, the full rebuild after trim, and journal
    // replay on reopen — and the invariant queries they accelerate
    // must keep returning the same answers.
    use libseal::ssm::git::GIT_SOUNDNESS;
    let ssm = GitModule;
    let path = plat::tmp::TempPath::new("libseal-trimix", "log");
    let consistent = |log: &mut AuditLog| {
        for t in log.db_mut().catalog().tables_sorted() {
            assert!(t.indexes_consistent(), "indexes on {} inconsistent", t.name);
            // Internal bookkeeping tables (`_libseal_*`) carry no
            // key-column indexes; every service table must.
            if !t.name.starts_with('_') {
                assert!(
                    !t.index_names().is_empty(),
                    "key-column index missing on {}",
                    t.name
                );
            }
        }
    };
    {
        let mut log = open_log(LogBacking::Disk(path.to_path_buf()), Box::new(NoGuard)).unwrap();
        append_n(&mut log, 40);
        consistent(&mut log);
        assert!(log.query(GIT_SOUNDNESS, &[]).unwrap().is_empty());
        log.trim(ssm.trim_queries()).unwrap();
        log.commit().unwrap();
        consistent(&mut log);
        assert!(log.query(GIT_SOUNDNESS, &[]).unwrap().is_empty());
        log.flush().unwrap();
    }
    let mut log = open_log(LogBacking::Disk(path.to_path_buf()), Box::new(NoGuard)).unwrap();
    consistent(&mut log);
    assert!(log.query(GIT_SOUNDNESS, &[]).unwrap().is_empty());
    log.verify().unwrap();
}

// The chain check against a reference: the per-entry SQL probe the log
// ran before it hashed its data rows in one pass, kept here on nothing
// but `AuditLog::query` (plus the catalog's column affinities).

use libseal::log::TableSpec;
use libseal::{DropboxModule, OwnCloudModule};
use libseal_crypto::sha2::Sha256;
use libseal_sealdb::value::Affinity;

/// A chain entry as stored: (seq, table, key, payload, hash).
type ChainRow = (i64, String, String, String, Vec<u8>);

fn chain(log: &AuditLog) -> Vec<ChainRow> {
    let sql = "SELECT seq, tbl, pk, payload, hash FROM _libseal_chain ORDER BY seq";
    let rows = log.query(sql, &[]).unwrap().rows;
    rows.into_iter()
        .map(|row| match &row[..] {
            [Value::Integer(seq), Value::Text(tbl), Value::Text(key), Value::Text(payload), Value::Blob(hash)] => {
                (*seq, tbl.clone(), key.clone(), payload.clone(), hash.clone())
            }
            other => panic!("chain row {other:?}"),
        })
        .collect()
}

fn render_payload(table: &str, values: &[Value]) -> String {
    let mut out = table.to_string();
    for v in values {
        out.push('\u{1f}');
        out.push_str(&v.group_key());
    }
    out
}

/// Whether the data row a chain entry names exists and matches, by one
/// SQL probe: typed equality on the key columns (the key text coerced
/// by the column's affinity), then the payload compared row by row.
fn probe_finds_row(
    log: &mut AuditLog,
    specs: &[TableSpec],
    tbl: &str,
    key: &str,
    payload: &str,
) -> bool {
    let Some(spec) = specs.iter().find(|t| t.name.eq_ignore_ascii_case(tbl)) else {
        return false;
    };
    let raw: Vec<&str> = key.split('\u{1f}').collect();
    if raw.len() != spec.key_cols.len() {
        return false;
    }
    let Some(t) = log.db_mut().catalog().table(tbl) else {
        return false;
    };
    let affinities: Vec<Affinity> = (spec.key_cols.iter())
        .map(|c| t.columns[t.column_index(c).unwrap()].affinity)
        .collect();
    let mut preds = Vec::new();
    let mut params = Vec::new();
    for ((c, raw), affinity) in spec.key_cols.iter().zip(&raw).zip(affinities) {
        assert_ne!(affinity, Affinity::Blob, "no audited key column is untyped");
        preds.push(format!("{c} = ?"));
        params.push(affinity.apply(Value::Text(raw.to_string())));
    }
    let sql = format!("SELECT * FROM {tbl} WHERE {}", preds.join(" AND "));
    let rows = log.query(&sql, &params).unwrap().rows;
    rows.iter().any(|row| render_payload(tbl, row) == payload)
}

/// `verify()` by the reference: sequence numbers increase, hashes link,
/// every entry's data row is found by its probe, and the signed head
/// names the recomputed head and last sequence number (its signature is
/// not checked: no case here touches it).
fn reference_verify(log: &mut AuditLog, specs: &[TableSpec]) -> bool {
    let mut head = [0u8; 32];
    let mut last = 0;
    for (seq, tbl, key, payload, hash) in chain(log) {
        let mut h = Sha256::new();
        h.update(&head);
        h.update(payload.as_bytes());
        head = h.finalize();
        if seq <= last || hash != head || !probe_finds_row(log, specs, &tbl, &key, &payload) {
            return false;
        }
        last = seq;
    }
    let meta = log
        .query("SELECT v FROM _libseal_meta WHERE k = 'head'", &[])
        .unwrap();
    match meta.scalar() {
        Some(Value::Text(m)) => {
            let hex: String = head.iter().map(|b| format!("{b:02x}")).collect();
            let mut parts = m.split(':');
            parts.next() == Some(hex.as_str()) && parts.next() == Some(last.to_string().as_str())
        }
        _ => last == 0,
    }
}

/// A small deterministic generator.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }
}

fn text(s: impl Into<String>) -> Value {
    Value::Text(s.into())
}

/// A log of `ssm` with 40 seeded appends.
fn seeded_log(ssm: &dyn ServiceModule, seed: u64) -> AuditLog {
    let mut log = AuditLog::open(
        LogBacking::Memory,
        [7u8; 32],
        SigningKey::from_seed(&[1u8; 32]),
        Box::new(NoGuard),
        ssm.schema_sql(),
        ssm.tables(),
    )
    .unwrap();
    let mut g = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    for _ in 0..40 {
        let t = Value::Integer(log.next_time() as i64);
        let (table, row) = match ssm.name() {
            "git" => {
                let (repo, branch) = (format!("r{}", g.below(2)), format!("b{}", g.below(3)));
                let cid = format!("{:040x}", g.below(5));
                match g.below(2) {
                    0 => (
                        "updates",
                        vec![t, text(repo), text(branch), text(cid), text("update")],
                    ),
                    _ => (
                        "advertisements",
                        vec![t, text(repo), text(branch), text(cid)],
                    ),
                }
            }
            "owncloud" => {
                let kind = [
                    "snapshot_save",
                    "snapshot_sent",
                    "sent_update",
                    "recv_update",
                ];
                let row = vec![
                    t,
                    text(format!("d{}", g.below(2))),
                    text(format!("c{}", g.below(2))),
                    text(kind[g.below(4) as usize]),
                    Value::Integer(g.below(3) as i64),
                    text(format!("v{}", g.below(3))),
                ];
                ("docupdates", row)
            }
            _ => {
                let row = vec![
                    t,
                    text(format!("f{}", g.below(3))),
                    text(format!("k{}", g.below(4))),
                    text(format!("a{}", g.below(2))),
                    text("h"),
                    Value::Integer(g.below(100) as i64),
                ];
                (["commit_batch", "list"][g.below(2) as usize], row)
            }
        };
        log.append(table, &row).unwrap();
    }
    log.commit().unwrap();
    log
}

/// The tampers, each applied to the chain entry `seq`.
const TAMPERS: [&str; 7] = [
    "honest",
    "data value changed",
    "data row deleted",
    "chain key edited",
    "chain payload edited",
    "entry duplicated",
    "integer key spelled 05",
];

fn tamper(log: &mut AuditLog, which: &str, seq: usize) {
    let rows = chain(log);
    let (_, tbl, key, payload, _) = rows[seq - 1].clone();
    let time = key.split('\u{1f}').next().unwrap().to_string();
    let db = log.db_mut();
    let chain_set = |db: &mut libseal_sealdb::Database, col: &str, v: String| {
        let sql = format!("UPDATE _libseal_chain SET {col} = ? WHERE seq = ?");
        db.execute_with(&sql, &[text(v), Value::Integer(seq as i64)])
            .unwrap();
    };
    match which {
        "honest" => {}
        "data value changed" => {
            let col = db.catalog().table(&tbl).unwrap().columns[3].name.clone();
            let sql = format!("UPDATE {tbl} SET {col} = 'tampered' WHERE time = {time}");
            db.execute(&sql).unwrap();
        }
        "data row deleted" => {
            db.execute(&format!("DELETE FROM {tbl} WHERE time = {time}"))
                .unwrap();
        }
        "chain key edited" => chain_set(db, "pk", key.replacen(&time, "999", 1)),
        "chain payload edited" => chain_set(db, "payload", format!("{payload}x")),
        "entry duplicated" => {
            let (last, .., head) = rows.last().unwrap().clone();
            let mut h = Sha256::new();
            h.update(&head);
            h.update(payload.as_bytes());
            let hash = Value::Blob(h.finalize().to_vec());
            let values = [
                Value::Integer(last + 1),
                text(tbl),
                text(key),
                text(payload),
                hash,
            ];
            db.execute_with("INSERT INTO _libseal_chain VALUES (?, ?, ?, ?, ?)", &values)
                .unwrap();
        }
        "integer key spelled 05" => chain_set(db, "pk", format!("0{key}")),
        other => unreachable!("{other}"),
    }
}

#[test]
fn chain_checks_agree_with_the_per_entry_sql_probe() {
    let modules: [&dyn ServiceModule; 3] = [&GitModule, &OwnCloudModule, &DropboxModule];
    for ssm in modules {
        let specs = ssm.tables();
        for seed in 1..=4u64 {
            for (k, which) in TAMPERS.iter().enumerate() {
                let case = format!("{} seed {seed}, {which}", ssm.name());
                let seq = 1 + (seed as usize * 7 + k * 5) % 40;
                // Twins: one trims through the log, the other runs the
                // trim's deletions only, for the reference to judge.
                let mut log = seeded_log(ssm, seed);
                let mut twin = seeded_log(ssm, seed);
                tamper(&mut log, which, seq);
                tamper(&mut twin, which, seq);

                let verdict = log.verify();
                assert_eq!(
                    verdict.is_ok(),
                    reference_verify(&mut log, &specs),
                    "{case}: verify() says {verdict:?}"
                );
                assert_eq!(
                    verdict.is_ok(),
                    *which == "honest" || which.ends_with("05"),
                    "{case}"
                );

                log.trim(ssm.trim_queries()).unwrap();
                log.commit().unwrap();
                for q in ssm.trim_queries() {
                    twin.db_mut().execute(q).unwrap();
                }
                let expected: Vec<(String, String, String)> = (chain(&twin).into_iter())
                    .filter(|(_, tbl, key, payload, _)| {
                        probe_finds_row(&mut twin, &specs, tbl, key, payload)
                    })
                    .map(|(_, tbl, key, payload, _)| (tbl, key, payload))
                    .collect();
                let survivors: Vec<(String, String, String)> = (chain(&log).into_iter())
                    .map(|(_, tbl, key, payload, _)| (tbl, key, payload))
                    .collect();
                assert_eq!(survivors, expected, "{case}: trim survivors");
                log.verify().unwrap();
            }
        }
    }
}
