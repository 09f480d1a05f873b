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

// The chain check against a reference: each entry's data row found by
// scanning its table through nothing but `AuditLog::query` and comparing
// rows rendered here, sharing no code with the log's own lookup.

use libseal::{DropboxModule, OwnCloudModule};
use libseal_crypto::sha2::Sha256;

/// A chain entry as stored: (seq, payload, hash).
type ChainRow = (i64, String, Vec<u8>);

fn chain(log: &AuditLog) -> Vec<ChainRow> {
    let sql = "SELECT seq, payload, hash FROM _libseal_chain ORDER BY seq";
    let rows = log.query(sql, &[]).unwrap().rows;
    rows.into_iter()
        .map(|row| match &row[..] {
            [Value::Integer(seq), Value::Text(payload), Value::Blob(hash)] => {
                (*seq, payload.clone(), hash.clone())
            }
            other => panic!("chain row {other:?}"),
        })
        .collect()
}

/// A row as a chain payload: the table, then each value's group key
/// after a unit separator, a text's as `t<byte length>:<text>`.
fn render_payload(table: &str, values: &[Value]) -> String {
    let mut out = table.to_string();
    for v in values {
        out.push('\u{1f}');
        match v {
            Value::Text(t) => out.push_str(&format!("t{}:{t}", t.len())),
            v => out.push_str(&v.group_key()),
        }
    }
    out
}

/// Whether the data row a chain entry names exists and matches: the
/// table the payload starts with, scanned whole, holds a row that
/// renders to the payload.
fn probe_finds_row(log: &AuditLog, ssm: &dyn ServiceModule, payload: &str) -> bool {
    let tbl = payload.split('\u{1f}').next().unwrap_or_default();
    if !ssm
        .tables()
        .iter()
        .any(|t| t.name.eq_ignore_ascii_case(tbl))
    {
        return false;
    }
    let rows = log
        .query(&format!("SELECT * FROM {tbl}"), &[])
        .unwrap()
        .rows;
    rows.iter().any(|row| render_payload(tbl, row) == payload)
}

/// `verify()` by the reference: sequence numbers increase, hashes link,
/// every entry's data row is found by its probe, and the signed head
/// names the recomputed head and last sequence number (its signature is
/// not checked: no case here touches it).
fn reference_verify(log: &AuditLog, ssm: &dyn ServiceModule) -> bool {
    let mut head = [0u8; 32];
    let mut last = 0;
    for (seq, payload, hash) in chain(log) {
        let mut h = Sha256::new();
        h.update(&head);
        h.update(payload.as_bytes());
        head = h.finalize();
        if seq <= last || hash != head || !probe_finds_row(log, ssm, &payload) {
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

/// A log of `ssm` with 40 seeded appends. Every row has a text column
/// after a text column that holds a unit separator followed by `t`, the
/// shape a rendering without lengths lets a tamper shift, in a Git
/// update and a Dropbox row between two columns that are not key
/// columns.
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
                        vec![t, text(repo), text(branch), text(cid), text("u\u{1f}tv")],
                    ),
                    _ => (
                        "advertisements",
                        vec![t, text(repo), text(branch), text(cid + "\u{1f}t")],
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
                    text(format!("c{}\u{1f}tc", g.below(2))),
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
                    text(format!("a{}\u{1f}ta", g.below(2))),
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
const TAMPERS: [&str; 6] = [
    "honest",
    "data value changed",
    "data row deleted",
    "chain payload edited",
    "entry duplicated",
    "separator shifted between values",
];

fn tamper(log: &mut AuditLog, which: &str, seq: usize) {
    let rows = chain(log);
    let (_, payload, _) = rows[seq - 1].clone();
    let mut fields = payload.split('\u{1f}');
    let tbl = fields.next().unwrap().to_string();
    let time = fields
        .next()
        .unwrap()
        .strip_prefix('i')
        .unwrap()
        .to_string();
    let db = log.db_mut();
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
        "chain payload edited" => {
            let sql = "UPDATE _libseal_chain SET payload = ? WHERE seq = ?";
            db.execute_with(
                sql,
                &[text(format!("{payload}x")), Value::Integer(seq as i64)],
            )
            .unwrap();
        }
        "entry duplicated" => {
            let (last, .., head) = rows.last().unwrap().clone();
            let mut h = Sha256::new();
            h.update(&head);
            h.update(payload.as_bytes());
            let hash = Value::Blob(h.finalize().to_vec());
            let values = [Value::Integer(last + 1), text(payload), hash];
            db.execute_with("INSERT INTO _libseal_chain VALUES (?, ?, ?)", &values)
                .unwrap();
        }
        "separator shifted between values" => {
            // (a, "p\u{1f}tq") becomes ("a\u{1f}tp", "q"): joined by unit
            // separators without lengths, both read "ta\u{1f}tp\u{1f}tq".
            let t = db.catalog().table(&tbl).unwrap();
            let row = (t.rows.iter())
                .find(|r| r[0] == Value::Integer(time.parse().unwrap()))
                .unwrap();
            let i = (1..row.len() - 1)
                .find(|&i| matches!(&row[i + 1], Value::Text(b) if b.contains("\u{1f}t")))
                .unwrap();
            let (Value::Text(a), Value::Text(b)) = (&row[i], &row[i + 1]) else {
                panic!("{tbl} columns {i} and {} are not both text", i + 1);
            };
            let (p, q) = b.split_once("\u{1f}t").unwrap();
            let (shifted, rest) = (format!("{a}\u{1f}t{p}"), q.to_string());
            let (ca, cb) = (t.columns[i].name.clone(), t.columns[i + 1].name.clone());
            let sql = format!("UPDATE {tbl} SET {ca} = ?, {cb} = ? WHERE time = {time}");
            db.execute_with(&sql, &[text(shifted), text(rest)]).unwrap();
        }
        other => unreachable!("{other}"),
    }
}

#[test]
fn chain_checks_agree_with_the_per_entry_sql_probe() {
    let modules: [&dyn ServiceModule; 3] = [&GitModule, &OwnCloudModule, &DropboxModule];
    for ssm in modules {
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
                    reference_verify(&log, ssm),
                    "{case}: verify() says {verdict:?}"
                );
                assert_eq!(verdict.is_ok(), *which == "honest", "{case}");

                log.trim(ssm.trim_queries()).unwrap();
                log.commit().unwrap();
                for q in ssm.trim_queries() {
                    twin.db_mut().execute(q).unwrap();
                }
                let expected: Vec<String> = (chain(&twin).into_iter())
                    .filter(|(_, payload, _)| probe_finds_row(&twin, ssm, payload))
                    .map(|(_, payload, _)| payload)
                    .collect();
                let survivors: Vec<String> = (chain(&log).into_iter())
                    .map(|(_, payload, _)| payload)
                    .collect();
                assert_eq!(survivors, expected, "{case}: trim survivors");
                log.verify().unwrap();
            }
        }
    }
}

// A client's text may hold a unit separator, the character that joins a
// payload's values: an honest entry carrying one must verify, reopen and
// survive a trim that keeps its row.

use libseal_httpx::http::{Request, Response};

/// Logs one pair through `ssm` on a disk log, commits, and checks that
/// the `n` entries it made verify, reopen and survive a trim.
fn separator_is_not_tampering(ssm: &dyn ServiceModule, req: Request, rsp: Response, n: u64) {
    let path = plat::tmp::TempPath::new("libseal-sep", "log");
    let open = || {
        AuditLog::open(
            LogBacking::Disk(path.to_path_buf()),
            [7u8; 32],
            SigningKey::from_seed(&[1u8; 32]),
            Box::new(NoGuard),
            ssm.schema_sql(),
            ssm.tables(),
        )
    };
    let mut log = open().unwrap();
    let logged = ssm.log_pair(&req.to_bytes(), &rsp.to_bytes(), &mut log);
    assert_eq!(logged.unwrap() as u64, n);
    log.commit().unwrap();
    log.verify().unwrap();
    drop(log);
    let mut log = open().unwrap();
    log.verify().unwrap();
    log.trim(ssm.trim_queries()).unwrap();
    log.commit().unwrap();
    assert_eq!(log.entries(), n);
    log.verify().unwrap();
}

#[test]
fn a_pushed_ref_holding_a_unit_separator_is_not_tampering() {
    let push = "aaa bbb refs/heads/a\u{1f}b\n".as_bytes().to_vec();
    let req = Request::new("POST", "/repo/proj/git-receive-pack", push);
    separator_is_not_tampering(&GitModule, req, Response::new(200, b"ok\n".to_vec()), 1);
}

#[test]
fn an_owncloud_doc_holding_a_unit_separator_is_not_tampering() {
    let join = br#"{"doc":"d\u001f1","client":"alice"}"#.to_vec();
    let req = Request::new("POST", "/owncloud/join", join);
    let rsp = Response::new(200, br#"{"snapshot":"Hello","seq":0}"#.to_vec());
    separator_is_not_tampering(&OwnCloudModule, req, rsp, 2);
}

#[test]
fn a_dropbox_file_holding_a_unit_separator_is_not_tampering() {
    let commit = br#"{"account":"acct","host":"h1","commits":[{"file":"a\u001fb","blocks":["k"],"size":1}]}"#;
    let req = Request::new("POST", "/dropbox/commit_batch", commit.to_vec());
    let rsp = Response::new(200, br#"{"ok":true}"#.to_vec());
    separator_is_not_tampering(&DropboxModule, req, rsp, 1);
}
