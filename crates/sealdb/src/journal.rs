//! Durability: a statement-granularity write-ahead journal.
//!
//! LibSEAL "synchronously flushes the log to persistent storage after
//! each request/response pair" (§5.1). The journal appends every
//! mutating statement (with its bound parameters) as a length-prefixed
//! record and fsyncs; recovery replays the records. A codec hook lets
//! the enclave layer seal each record (encrypt + authenticate) before
//! it touches the untrusted disk.
//!
//! Record format (before the codec): `tag u8, sql_len u32le, sql bytes,
//! param_count u32le, params…` with each param as `type u8 + payload`.
//!
//! # Crash consistency
//!
//! Two failure modes are distinguished on recovery:
//!
//! - A **torn tail** — the file ends inside the final frame, as a
//!   crash mid-append leaves it. [`Journal::replay`] salvages: the
//!   torn frame is truncated away and every preceding record is
//!   replayed, provided it decodes (for a sealing codec, provided it
//!   authenticates). The salvage is reported via
//!   [`Journal::last_salvage`] so callers can reconcile the lost tail
//!   against their rollback counter.
//! - **Mid-file corruption or a codec/MAC failure** — evidence of
//!   tampering, fatal as before. (A corrupted length prefix is
//!   indistinguishable from a torn tail by framing alone; the
//!   rollback-counter reconciliation above the journal is what bounds
//!   how much history a forged "torn tail" can make disappear.)
//!
//! Compaction is atomic: [`Journal::rewrite`] writes the snapshot to a
//! generation-numbered temp file, fsyncs it, renames it over the live
//! journal and fsyncs the parent directory, so a crash at any point
//! leaves either the full old journal or the full new snapshot.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

use crate::value::Value;
use crate::{DbError, Result};

/// Counts every fsync the journal issues (appends, salvage,
/// compaction snapshots and directory syncs alike).
fn fsync_counter() -> &'static libseal_telemetry::Counter {
    static C: std::sync::OnceLock<libseal_telemetry::Counter> = std::sync::OnceLock::new();
    C.get_or_init(|| libseal_telemetry::counter("sealdb_journal_fsyncs_total"))
}

/// Transforms journal records on their way to and from disk.
///
/// The default [`PlainCodec`] is the identity; LibSEAL installs a
/// sealing codec so the provider cannot read or forge records.
pub trait JournalCodec: Send {
    /// Encodes a record for storage.
    ///
    /// # Errors
    ///
    /// Implementations fail when they can no longer encode safely
    /// (e.g. a sealing codec whose nonce space for the current epoch
    /// is exhausted); the statement is then rejected instead of being
    /// persisted unsafely.
    fn encode(&self, plain: &[u8]) -> Result<Vec<u8>>;
    /// Decodes a stored record.
    ///
    /// # Errors
    ///
    /// Implementations fail on tampered or undecryptable records.
    fn decode(&self, stored: &[u8]) -> Result<Vec<u8>>;
}

/// Identity codec.
pub struct PlainCodec;

impl JournalCodec for PlainCodec {
    fn encode(&self, plain: &[u8]) -> Result<Vec<u8>> {
        Ok(plain.to_vec())
    }
    fn decode(&self, stored: &[u8]) -> Result<Vec<u8>> {
        Ok(stored.to_vec())
    }
}

/// What [`Journal::replay`] salvaged from a torn tail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SalvageInfo {
    /// File offset the journal was truncated back to.
    pub offset: u64,
    /// Bytes of torn frame dropped.
    pub lost_bytes: u64,
}

/// An append-only statement journal.
pub struct Journal {
    path: PathBuf,
    file: File,
    codec: Box<dyn JournalCodec>,
    /// Compaction generation (names the next rewrite temp file).
    generation: u64,
    /// Torn-tail salvage performed by the last [`Journal::replay`].
    salvage: Option<SalvageInfo>,
}

/// One recovered journal entry.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEntry {
    /// The SQL text.
    pub sql: String,
    /// Bound parameters.
    pub params: Vec<Value>,
}

impl Journal {
    /// Opens (creating if needed) a journal at `path`.
    ///
    /// # Errors
    ///
    /// I/O errors are surfaced as [`DbError::Io`].
    pub fn open(path: impl AsRef<Path>, codec: Box<dyn JournalCodec>) -> Result<Journal> {
        let path = path.as_ref().to_path_buf();
        // A crash mid-compaction can leave a stale snapshot temp file
        // next to the journal; it was never renamed into place, so it
        // is dead weight — remove it.
        remove_stale_rewrite_temps(&path);
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .read(true)
            .open(&path)
            .map_err(DbError::io)?;
        Ok(Journal {
            path,
            file,
            codec,
            generation: 0,
            salvage: None,
        })
    }

    /// Appends one statement record. Nothing is fsynced until
    /// [`Journal::sync_now`] — the paper's configuration: LibSEAL
    /// flushes once per request/response pair (§5.1).
    ///
    /// # Errors
    ///
    /// I/O errors are surfaced as [`DbError::Io`].
    pub fn append(&mut self, sql: &str, params: &[Value]) -> Result<()> {
        let plain = encode_record(sql, params)?;
        let stored = self.codec.encode(&plain)?;
        let mut framed = Vec::with_capacity(4 + stored.len());
        framed.extend_from_slice(&frame_len(stored.len())?.to_le_bytes());
        framed.extend_from_slice(&stored);
        plat::failpoint::write_all("sealdb::journal::append", &mut self.file, &framed)
            .map_err(DbError::io)
    }

    /// Reads every record back (for recovery), salvaging a torn tail.
    ///
    /// A file ending inside its final frame is what a crash mid-append
    /// leaves behind: the torn frame is truncated away (the salvage is
    /// reported by [`Journal::last_salvage`]) and every record before
    /// it is returned — provided each decodes, so under a sealing
    /// codec nothing unauthenticated is ever salvaged. A record that
    /// fails to decode is tampering and stays fatal.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors or codec rejection.
    pub fn replay(&mut self) -> Result<Vec<JournalEntry>> {
        self.salvage = None;
        self.file.seek(SeekFrom::Start(0)).map_err(DbError::io)?;
        let mut buf = Vec::new();
        self.file.read_to_end(&mut buf).map_err(DbError::io)?;
        let mut entries = Vec::new();
        let mut i = 0usize;
        let mut torn: Option<usize> = None;
        while i + 4 <= buf.len() {
            let len = u32::from_le_bytes(buf[i..i + 4].try_into().unwrap()) as usize;
            if i + 4 + len > buf.len() {
                // Frame extends past EOF: torn tail.
                torn = Some(i);
                break;
            }
            let plain = self.codec.decode(&buf[i + 4..i + 4 + len])?;
            entries.push(decode_record(&plain)?);
            i += 4 + len;
        }
        if torn.is_none() && i < buf.len() {
            // Fewer than 4 trailing bytes: a torn length prefix.
            torn = Some(i);
        }
        if let Some(offset) = torn {
            plat::failpoint::check("sealdb::journal::salvage").map_err(DbError::io)?;
            self.file.set_len(offset as u64).map_err(DbError::io)?;
            self.file.sync_all().map_err(DbError::io)?;
            fsync_counter().inc();
            self.salvage = Some(SalvageInfo {
                offset: offset as u64,
                lost_bytes: (buf.len() - offset) as u64,
            });
        }
        self.file.seek(SeekFrom::End(0)).map_err(DbError::io)?;
        Ok(entries)
    }

    /// The torn-tail salvage performed by the last [`Journal::replay`],
    /// if any.
    pub fn last_salvage(&self) -> Option<SalvageInfo> {
        self.salvage
    }

    /// Forces buffered records to stable storage.
    ///
    /// # Errors
    ///
    /// I/O errors are surfaced as [`DbError::Io`].
    pub fn sync_now(&mut self) -> Result<()> {
        plat::failpoint::check("sealdb::journal::sync").map_err(DbError::io)?;
        let r = self.file.sync_data().map_err(DbError::io);
        if r.is_ok() {
            fsync_counter().inc();
        }
        r
    }

    /// Atomically replaces the journal's contents with `records` (the
    /// snapshot produced by compaction).
    ///
    /// Protocol: write every record to a generation-numbered temp file
    /// next to the journal, fsync it, rename it over the live journal,
    /// then fsync the parent directory. A crash before the rename
    /// leaves the old journal fully intact (plus a stale temp file that
    /// [`Journal::open`] removes); a crash after it leaves the complete
    /// new snapshot. There is no window in which the log is lost.
    ///
    /// # Errors
    ///
    /// I/O errors are surfaced as [`DbError::Io`]; on error the live
    /// journal is untouched.
    pub fn rewrite(&mut self, records: &[(String, Vec<Value>)]) -> Result<()> {
        self.generation += 1;
        let tmp_path = rewrite_temp_path(&self.path, self.generation);
        let result = self.rewrite_into(&tmp_path, records);
        if result.is_err() && !plat::failpoint::crash_active() {
            // A real (non-crash) failure: clean up the partial temp
            // file. A simulated crash leaves it, as a real crash
            // would; Journal::open removes it on recovery.
            let _ = std::fs::remove_file(&tmp_path);
        }
        result
    }

    fn rewrite_into(&mut self, tmp_path: &Path, records: &[(String, Vec<Value>)]) -> Result<()> {
        let mut tmp = File::create(tmp_path).map_err(DbError::io)?;
        for (sql, params) in records {
            let plain = encode_record(sql, params)?;
            let stored = self.codec.encode(&plain)?;
            let mut framed = Vec::with_capacity(4 + stored.len());
            framed.extend_from_slice(&frame_len(stored.len())?.to_le_bytes());
            framed.extend_from_slice(&stored);
            plat::failpoint::write_all("sealdb::compact::write", &mut tmp, &framed)
                .map_err(DbError::io)?;
        }
        plat::failpoint::check("sealdb::compact::sync").map_err(DbError::io)?;
        tmp.sync_all().map_err(DbError::io)?;
        fsync_counter().inc();
        drop(tmp);
        plat::failpoint::check("sealdb::compact::rename").map_err(DbError::io)?;
        std::fs::rename(tmp_path, &self.path).map_err(DbError::io)?;
        // Once the rename has happened the old handle points at the
        // unlinked pre-compaction file; the snapshot MUST become the
        // live journal now, even if the directory sync below fails —
        // otherwise later appends land on the orphaned inode and
        // vanish on restart while the rollback counter keeps counting
        // them.
        self.file = OpenOptions::new()
            .append(true)
            .read(true)
            .open(&self.path)
            .map_err(DbError::io)?;
        plat::failpoint::check("sealdb::compact::sync_dir").map_err(DbError::io)?;
        sync_parent_dir(&self.path).map_err(DbError::io)?;
        Ok(())
    }

    /// Current journal size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.file.metadata().map(|m| m.len()).unwrap_or(0)
    }
}

/// The temp-file name for rewrite generation `generation` of `path`.
fn rewrite_temp_path(path: &Path, generation: u64) -> PathBuf {
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "journal".to_string());
    path.with_file_name(format!(
        "{name}.compact-{}-{generation}",
        std::process::id()
    ))
}

/// Removes leftover `*.compact-*` temp files from a crashed rewrite.
fn remove_stale_rewrite_temps(path: &Path) {
    let Some(name) = path.file_name().map(|n| n.to_string_lossy().into_owned()) else {
        return;
    };
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    };
    let prefix = format!("{name}.compact-");
    if let Ok(entries) = std::fs::read_dir(parent) {
        for e in entries.flatten() {
            if e.file_name().to_string_lossy().starts_with(&prefix) {
                let _ = std::fs::remove_file(e.path());
            }
        }
    }
}

/// Fsyncs the directory containing `path`, making a rename in it
/// durable.
///
/// # Errors
///
/// The directory cannot be opened or synced.
pub fn sync_parent_dir(path: &Path) -> std::io::Result<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    };
    File::open(parent)?.sync_all()?;
    fsync_counter().inc();
    Ok(())
}

/// Hard cap on any length field in the journal wire format. Well
/// under the `u32` frame limit so length arithmetic cannot overflow,
/// and far larger than any legitimate audited statement. Oversized
/// payloads are rejected with a typed error instead of silently
/// truncating the length on an `as u32` narrowing.
pub const MAX_RECORD_BYTES: usize = 1 << 28;

/// Checked conversion of a payload length into a wire `u32`.
fn frame_len(n: usize) -> Result<u32> {
    if n > MAX_RECORD_BYTES {
        return Err(DbError::exec(format!(
            "journal record too large: {n} bytes (max {MAX_RECORD_BYTES})"
        )));
    }
    Ok(n as u32)
}

fn encode_value(out: &mut Vec<u8>, v: &Value) -> Result<()> {
    match v {
        Value::Null => out.push(0),
        Value::Integer(i) => {
            out.push(1);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Real(f) => {
            out.push(2);
            out.extend_from_slice(&f.to_le_bytes());
        }
        Value::Text(s) => {
            out.push(3);
            out.extend_from_slice(&frame_len(s.len())?.to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        Value::Blob(b) => {
            out.push(4);
            out.extend_from_slice(&frame_len(b.len())?.to_le_bytes());
            out.extend_from_slice(b);
        }
    }
    Ok(())
}

fn decode_value(buf: &[u8], i: &mut usize) -> Result<Value> {
    let tag = *buf
        .get(*i)
        .ok_or_else(|| DbError::exec("journal value truncated"))?;
    *i += 1;
    let take = |i: &mut usize, n: usize| -> Result<&[u8]> {
        let s = buf
            .get(*i..*i + n)
            .ok_or_else(|| DbError::exec("journal value truncated"))?;
        *i += n;
        Ok(s)
    };
    match tag {
        0 => Ok(Value::Null),
        1 => Ok(Value::Integer(i64::from_le_bytes(
            take(i, 8)?.try_into().unwrap(),
        ))),
        2 => Ok(Value::Real(f64::from_le_bytes(
            take(i, 8)?.try_into().unwrap(),
        ))),
        3 => {
            let len = u32::from_le_bytes(take(i, 4)?.try_into().unwrap()) as usize;
            let bytes = take(i, len)?;
            Ok(Value::Text(
                String::from_utf8(bytes.to_vec())
                    .map_err(|_| DbError::exec("journal text not UTF-8"))?,
            ))
        }
        4 => {
            let len = u32::from_le_bytes(take(i, 4)?.try_into().unwrap()) as usize;
            Ok(Value::Blob(take(i, len)?.to_vec()))
        }
        _ => Err(DbError::exec("unknown journal value tag")),
    }
}

fn encode_record(sql: &str, params: &[Value]) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(16 + sql.len());
    out.push(1u8); // record version tag
    out.extend_from_slice(&frame_len(sql.len())?.to_le_bytes());
    out.extend_from_slice(sql.as_bytes());
    out.extend_from_slice(&frame_len(params.len())?.to_le_bytes());
    for p in params {
        encode_value(&mut out, p)?;
    }
    Ok(out)
}

fn decode_record(buf: &[u8]) -> Result<JournalEntry> {
    let mut i = 0usize;
    if buf.first() != Some(&1u8) {
        return Err(DbError::exec("unknown journal record version"));
    }
    i += 1;
    let sql_len = u32::from_le_bytes(
        buf.get(i..i + 4)
            .ok_or_else(|| DbError::exec("journal record truncated"))?
            .try_into()
            .unwrap(),
    ) as usize;
    i += 4;
    let sql = String::from_utf8(
        buf.get(i..i + sql_len)
            .ok_or_else(|| DbError::exec("journal record truncated"))?
            .to_vec(),
    )
    .map_err(|_| DbError::exec("journal SQL not UTF-8"))?;
    i += sql_len;
    let n = u32::from_le_bytes(
        buf.get(i..i + 4)
            .ok_or_else(|| DbError::exec("journal record truncated"))?
            .try_into()
            .unwrap(),
    ) as usize;
    i += 4;
    let mut params = Vec::with_capacity(n);
    for _ in 0..n {
        params.push(decode_value(buf, &mut i)?);
    }
    Ok(JournalEntry { sql, params })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> plat::tmp::TempPath {
        plat::tmp::TempPath::new(&format!("sealdb-journal-{name}"), "log")
    }

    #[test]
    fn roundtrip() {
        let path = tmp("rt");
        let mut j = Journal::open(&path, Box::new(PlainCodec)).unwrap();
        j.append(
            "INSERT INTO t VALUES (?, ?)",
            &[Value::Integer(1), Value::Text("x".into())],
        )
        .unwrap();
        j.append("DELETE FROM t", &[]).unwrap();
        let entries = j.replay().unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].params[1], Value::Text("x".into()));
        assert_eq!(entries[1].sql, "DELETE FROM t");
    }

    #[test]
    fn oversized_record_is_rejected_not_truncated() {
        // A blob one byte over the cap must fail with a typed Exec
        // error; the journal file must stay untouched so later appends
        // and replays still work.
        let path = tmp("oversize");
        let mut j = Journal::open(&path, Box::new(PlainCodec)).unwrap();
        j.append("A", &[]).unwrap();
        let big = Value::Blob(vec![0u8; MAX_RECORD_BYTES + 1]);
        let err = j.append("INSERT INTO t VALUES (?)", &[big]).unwrap_err();
        assert!(
            matches!(err, DbError::Exec(ref m) if m.contains("too large")),
            "want typed oversize error, got {err:?}"
        );
        j.append("B", &[]).unwrap();
        let entries = j.replay().unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].sql, "A");
        assert_eq!(entries[1].sql, "B");
    }

    #[test]
    fn survives_reopen() {
        let path = tmp("reopen");
        {
            let mut j = Journal::open(&path, Box::new(PlainCodec)).unwrap();
            j.append("CREATE TABLE t(a)", &[]).unwrap();
            j.sync_now().unwrap();
        }
        let mut j = Journal::open(&path, Box::new(PlainCodec)).unwrap();
        let entries = j.replay().unwrap();
        assert_eq!(entries.len(), 1);
    }

    #[test]
    fn all_value_types_roundtrip() {
        let path = tmp("vals");
        let mut j = Journal::open(&path, Box::new(PlainCodec)).unwrap();
        let params = vec![
            Value::Null,
            Value::Integer(-7),
            Value::Real(2.5),
            Value::Text("héllo".into()),
            Value::Blob(vec![0, 255, 3]),
        ];
        j.append("S", &params).unwrap();
        assert_eq!(j.replay().unwrap()[0].params, params);
    }

    #[test]
    fn salvages_torn_tail() {
        let path = tmp("cut");
        let full_len;
        {
            let mut j = Journal::open(&path, Box::new(PlainCodec)).unwrap();
            j.append("INSERT INTO t VALUES (1)", &[]).unwrap();
            j.append("INSERT INTO t VALUES (2)", &[]).unwrap();
            full_len = j.size_bytes();
        }
        // Chop 3 bytes off: the second record becomes a torn tail.
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, &data[..data.len() - 3]).unwrap();
        let mut j = Journal::open(&path, Box::new(PlainCodec)).unwrap();
        let entries = j.replay().unwrap();
        assert_eq!(entries.len(), 1, "intact prefix record survives");
        let info = j.last_salvage().expect("salvage reported");
        assert_eq!(info.offset + info.lost_bytes + 3, full_len);
        // The torn frame was truncated away; appends work again.
        assert_eq!(j.size_bytes(), info.offset);
        j.append("INSERT INTO t VALUES (3)", &[]).unwrap();
        let entries = j.replay().unwrap();
        assert_eq!(entries.len(), 2);
        assert!(j.last_salvage().is_none(), "clean replay clears salvage");
    }

    #[test]
    fn salvages_torn_length_prefix() {
        let path = tmp("cutlen");
        {
            let mut j = Journal::open(&path, Box::new(PlainCodec)).unwrap();
            j.append("A", &[]).unwrap();
        }
        // Leave only 2 bytes of the next frame's length prefix.
        let data = std::fs::read(&path).unwrap();
        let mut cut = data.clone();
        cut.extend_from_slice(&[7, 0]);
        std::fs::write(&path, &cut).unwrap();
        let mut j = Journal::open(&path, Box::new(PlainCodec)).unwrap();
        assert_eq!(j.replay().unwrap().len(), 1);
        assert_eq!(
            j.last_salvage(),
            Some(SalvageInfo {
                offset: data.len() as u64,
                lost_bytes: 2
            })
        );
    }

    /// A codec with a 1-byte checksum: decode rejects corrupt records,
    /// standing in for the sealing codec's MAC.
    struct SumCodec;

    impl JournalCodec for SumCodec {
        fn encode(&self, plain: &[u8]) -> Result<Vec<u8>> {
            let sum = plain.iter().fold(0u8, |a, &b| a.wrapping_add(b));
            let mut out = vec![sum];
            out.extend_from_slice(plain);
            Ok(out)
        }
        fn decode(&self, stored: &[u8]) -> Result<Vec<u8>> {
            let (&sum, body) = stored
                .split_first()
                .ok_or_else(|| DbError::exec("record too short"))?;
            if body.iter().fold(0u8, |a, &b| a.wrapping_add(b)) != sum {
                return Err(DbError::exec("record failed to authenticate"));
            }
            Ok(body.to_vec())
        }
    }

    #[test]
    fn midfile_corruption_stays_fatal() {
        let path = tmp("corrupt");
        {
            let mut j = Journal::open(&path, Box::new(SumCodec)).unwrap();
            j.append("INSERT INTO t VALUES (1)", &[]).unwrap();
            j.append("INSERT INTO t VALUES (2)", &[]).unwrap();
        }
        // Flip a byte inside the first record's payload: tampering,
        // not a torn tail — salvage must NOT kick in.
        let mut data = std::fs::read(&path).unwrap();
        data[8] ^= 0xff;
        std::fs::write(&path, &data).unwrap();
        let mut j = Journal::open(&path, Box::new(SumCodec)).unwrap();
        assert!(j.replay().is_err());
        assert!(j.last_salvage().is_none());
    }

    #[test]
    fn rewrite_replaces_contents_atomically() {
        let path = tmp("rw");
        let mut j = Journal::open(&path, Box::new(PlainCodec)).unwrap();
        for i in 0..5 {
            j.append(&format!("S{i}"), &[]).unwrap();
        }
        j.rewrite(&[
            ("SNAP1".to_string(), vec![]),
            ("SNAP2".to_string(), vec![Value::Integer(9)]),
        ])
        .unwrap();
        let entries = j.replay().unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].sql, "SNAP1");
        assert_eq!(entries[1].params, vec![Value::Integer(9)]);
        // The handle is live after the swap.
        j.append("AFTER", &[]).unwrap();
        assert_eq!(j.replay().unwrap().len(), 3);
    }

    #[test]
    fn open_removes_stale_rewrite_temp() {
        let path = tmp("stale");
        std::fs::write(&path, b"").unwrap();
        let stale = rewrite_temp_path(path.path(), 3);
        std::fs::write(&stale, b"half a snapshot").unwrap();
        let _j = Journal::open(&path, Box::new(PlainCodec)).unwrap();
        assert!(!stale.exists(), "stale compaction temp not cleaned up");
    }
}
