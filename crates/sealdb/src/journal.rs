//! Durability: a statement-granularity write-ahead journal.
//!
//! LibSEAL "synchronously flushes the log to persistent storage after
//! each request/response pair" (§5.1). The journal frames every
//! mutating statement (with its bound parameters) as a checksummed
//! record; recovery replays the records. A codec hook lets the enclave
//! layer seal each record (encrypt + authenticate) before it touches the
//! untrusted disk.
//!
//! Frames are encoded into memory as statements run and reach the file
//! at the next [`Journal::sync_now`]: one positional write and one
//! fdatasync per commit, however many statements it carries.
//!
//! # On-disk shape
//!
//! The file is a header, the frames, then a zero tail:
//!
//! - **Header** ([`HEADER_BYTES`]): `magic "sealdbj\0", version u32le,
//!   tag`, zero-padded. The version is
//!   [`FORMAT_VERSION`]; the tag names what the application keeps in
//!   the records (the audit log names its chain-entry shape). A file
//!   with no header, another version or another tag fails to open with
//!   [`DbError::Format`].
//! - **Frame**: `len u32le, check u32le, stored`, where `stored` is
//!   what the codec made of the record and `check` is the CRC-32C of
//!   `stored`, so a complete frame is told from a torn one whatever the
//!   codec.
//! - **Zero tail**: a commit overwrites space that is already zero, so
//!   its fdatasync carries no change of the file's size. A write that
//!   would pass the zeroed space first extends the file with zeros,
//!   covered by that commit's one fdatasync: by what the write needs or
//!   the file's length, whichever is more, up to [`SEGMENT_BYTES`]. The
//!   tail of a new or reclaimed journal so doubles up to a segment.
//!
//! Record format (before the codec): `tag u8, sql_len u32le, sql bytes,
//! param_count u32le, params…` with each param as `type u8 + payload`.
//! A **snapshot frame** (tag 2: `count u32le`, then `count` records,
//! each `len u32le` + record) holds a whole database: replay starts
//! over at each complete one, so everything before the last snapshot
//! frame is dead weight until reclamation drops it.
//!
//! # Crash consistency
//!
//! Replay reads frames from the header on:
//!
//! - A **zero length ends the frames**, and everything after it must
//!   be zero.
//! - A **torn tail** — exactly one frame whose check fails, followed
//!   only by zeros, or one running past the end of the file, as a crash
//!   mid-write leaves it. [`Journal::replay`] salvages: the torn frame
//!   is zeroed away and every preceding record is replayed, provided it
//!   decodes (for a sealing codec, provided it authenticates). The
//!   salvage is reported via [`Journal::last_salvage`] so callers can
//!   reconcile the lost tail against their rollback counter. A torn
//!   snapshot frame is one such tail: the state before it survives.
//! - **Anything else is mid-file corruption**, fatal: non-zero bytes
//!   after the end, a good frame after a bad one, or a record the codec
//!   rejects. (A forged "torn tail" drops no more than truncating the
//!   file would; the rollback-counter reconciliation above the journal
//!   bounds how much history either can make disappear.)
//!
//! Reclamation is atomic: [`Journal::reclaim`] copies the header and
//! the live suffix (the last snapshot frame and what follows it, byte
//! for byte) to a generation-numbered temp file, fsyncs it, renames it
//! over the live journal and fsyncs the parent directory, so a crash at
//! any point leaves either the old journal or the suffix, which replay
//! to the same state.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::value::Value;
use crate::{DbError, Result};

/// Dead bytes (before the last snapshot frame) a journal may carry
/// before [`Journal::reclaim_due`]: 1 MiB. Replay decodes dead frames
/// too, so this bounds what a reopen reads for nothing (~1 ms of
/// decryption); reclamation costs a copy of the live suffix, two
/// fsyncs and a rename (~0.6–0.8 ms on ext4), so at this bound it runs
/// once per 1 MiB appended and adds under 1 µs per KiB journaled.
pub const RECLAIM_BYTES: u64 = 1 << 20;

/// The frame format a journal's header names: `len, check, stored`
/// behind a header. (Format 1, `len, stored` from the first byte, had
/// no header to say so.)
pub const FORMAT_VERSION: u32 = 2;

/// Bytes of the header in front of the frames.
pub const HEADER_BYTES: u64 = 64;

/// The tag [`crate::Database::open`] writes: records of plain sealdb
/// statements.
pub const DEFAULT_TAG: &str = "sealdb";

/// The most zeros a journal grows by when a write that needs less
/// would pass its zeroed space: once the file is this long, one size
/// change per 256 KiB journaled (~350 Git pairs), not per commit.
pub const SEGMENT_BYTES: u64 = 256 << 10;

const MAGIC: &[u8; 8] = b"sealdbj\0";
/// `len u32le, check u32le` in front of every stored record.
const FRAME_HEAD: usize = 8;
/// Written, a slice at a time, to grow the zero tail.
static ZEROS: [u8; 64 << 10] = [0; 64 << 10];

/// Counts every fsync the journal issues (commits, salvage,
/// reclamation's temp file and directory alike).
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
    /// File offset the frames now end at.
    pub offset: u64,
    /// Bytes of torn frame dropped.
    pub lost_bytes: u64,
}

/// An append-only statement journal.
pub struct Journal {
    path: PathBuf,
    /// Shared with the [`JournalSync`]s handed out, so an fsync can run
    /// without the journal.
    file: Arc<File>,
    codec: Box<dyn JournalCodec>,
    /// The header this journal was opened with, for reclamation's copy.
    header: [u8; HEADER_BYTES as usize],
    /// Reclamation generation (names the next temp file).
    generation: u64,
    /// Torn-tail salvage performed by the last [`Journal::replay`].
    salvage: Option<SalvageInfo>,
    /// Frames encoded since the last write, in order.
    pending: Vec<u8>,
    /// Where in `pending` the last snapshot frame staged there starts.
    pending_snapshot: Option<usize>,
    /// File offset the written frames end at: known at once for a new
    /// journal, else from the first [`Journal::replay`].
    end: Option<u64>,
    /// Bytes the file holds: everything from `end` up to here is zero.
    cap: u64,
    /// File offset of the last snapshot frame: the frames before it are
    /// dead.
    live_from: u64,
}

/// One recovered journal entry.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEntry {
    /// The SQL text.
    pub sql: String,
    /// Bound parameters.
    pub params: Vec<Value>,
}

/// Record tags (the first plaintext byte of a frame).
const RECORD: u8 = 1;
const SNAPSHOT: u8 = 2;

impl Journal {
    /// Opens (creating if needed) a journal at `path` whose header
    /// carries `tag`.
    ///
    /// # Errors
    ///
    /// [`DbError::Format`] when the file holds something other than a
    /// journal of this [`FORMAT_VERSION`] and `tag`; I/O errors are
    /// surfaced as [`DbError::Io`].
    pub fn open(
        path: impl AsRef<Path>,
        codec: Box<dyn JournalCodec>,
        tag: &str,
    ) -> Result<Journal> {
        let path = path.as_ref().to_path_buf();
        let header = header(tag)?;
        // A crash mid-reclamation can leave a stale temp file next to
        // the journal; it was never renamed into place, so it is dead
        // weight — remove it.
        remove_stale_rewrite_temps(&path);
        let file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(&path)
            .map_err(DbError::io)?;
        let cap = file.metadata().map_err(DbError::io)?.len();
        let mut bytes = Vec::new();
        let mut head = (&file).take(HEADER_BYTES);
        head.read_to_end(&mut bytes).map_err(DbError::io)?;
        let end = if bytes == header {
            None
        } else {
            (&file).read_to_end(&mut bytes).map_err(DbError::io)?;
            if !holds_nothing(&bytes, &header) {
                return Err(format_error(&bytes, tag));
            }
            // New, or a crash before its first commit was durable: the
            // header goes down now and that commit's fsync covers it.
            file.write_all_at(&header, 0).map_err(DbError::io)?;
            Some(HEADER_BYTES)
        };
        Ok(Journal {
            path,
            file: Arc::new(file),
            codec,
            header,
            generation: 0,
            salvage: None,
            pending: Vec::new(),
            pending_snapshot: None,
            end,
            cap: cap.max(HEADER_BYTES),
            live_from: HEADER_BYTES,
        })
    }

    /// Frames one statement record. It reaches the file at the next
    /// [`Journal::sync_now`].
    ///
    /// # Errors
    ///
    /// A record over [`MAX_RECORD_BYTES`], or the codec's refusal.
    pub fn append(&mut self, sql: &str, params: &[Value]) -> Result<()> {
        let mut plain = Vec::with_capacity(16 + sql.len());
        encode_record(&mut plain, sql, params)?;
        self.push_frame(&plain)
    }

    /// Frames a snapshot of a whole database — `records` replay to it
    /// from nothing — behind everything framed so far. It reaches the
    /// file with them, at the next [`Journal::sync_now`]; from then on
    /// replay starts over at it.
    ///
    /// # Errors
    ///
    /// As [`Journal::append`]; nothing is framed on error.
    pub fn append_snapshot<'a>(
        &mut self,
        records: impl IntoIterator<Item = (&'a str, &'a [Value])>,
    ) -> Result<()> {
        plat::failpoint::check("sealdb::journal::snapshot").map_err(DbError::io)?;
        let mut plain = vec![SNAPSHOT, 0, 0, 0, 0];
        let mut count = 0u32;
        for (sql, params) in records {
            let at = plain.len();
            plain.extend_from_slice(&[0; 4]);
            encode_record(&mut plain, sql, params)?;
            let n = frame_len(plain.len() - at - 4)?;
            plain[at..at + 4].copy_from_slice(&n.to_le_bytes());
            count += 1;
        }
        plain[1..5].copy_from_slice(&count.to_le_bytes());
        let at = self.pending.len();
        self.push_frame(&plain)?;
        self.pending_snapshot = Some(at);
        Ok(())
    }

    fn push_frame(&mut self, plain: &[u8]) -> Result<()> {
        let stored = self.codec.encode(plain)?;
        let len = frame_len(stored.len())?;
        self.pending.extend_from_slice(&len.to_le_bytes());
        self.pending
            .extend_from_slice(&crc32c(&stored).to_le_bytes());
        self.pending.extend_from_slice(&stored);
        Ok(())
    }

    /// Reads every record back (for recovery), salvaging a torn tail,
    /// then those framed but not yet written.
    ///
    /// A torn final frame is what a crash mid-write leaves behind: it
    /// is zeroed away (the salvage is reported by
    /// [`Journal::last_salvage`]) and every record before it is
    /// returned — provided each decodes, so under a sealing codec
    /// nothing unauthenticated is ever salvaged. A record that fails
    /// to decode, or bytes the rules of the module doc do not allow, is
    /// tampering and stays fatal. Each complete snapshot frame replaces
    /// what came before it.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, corruption or codec rejection.
    pub fn replay(&mut self) -> Result<Vec<JournalEntry>> {
        self.salvage = None;
        let mut file = &*self.file;
        file.seek(SeekFrom::Start(0)).map_err(DbError::io)?;
        let mut buf = Vec::new();
        file.read_to_end(&mut buf).map_err(DbError::io)?;
        let mut entries = Vec::new();
        let (end, snapshot, torn) =
            self.decode_frames(&buf, HEADER_BYTES as usize, &mut entries)?;
        if let Some(torn) = torn {
            // Zeroed and synced before anything is written over it, so
            // a shorter frame there never leaves torn bytes behind it.
            plat::failpoint::check("sealdb::journal::salvage").map_err(DbError::io)?;
            let zeros = vec![0; torn - end];
            (self.file.write_all_at(&zeros, end as u64)).map_err(DbError::io)?;
            self.file.sync_data().map_err(DbError::io)?;
            fsync_counter().inc();
            self.salvage = Some(SalvageInfo {
                offset: end as u64,
                lost_bytes: zeros.len() as u64,
            });
        }
        self.end = Some(end as u64);
        self.cap = buf.len() as u64;
        self.live_from = snapshot.unwrap_or(HEADER_BYTES as usize) as u64;
        let pending = std::mem::take(&mut self.pending);
        let decoded = self.decode_frames(&pending, 0, &mut entries);
        self.pending = pending;
        decoded?;
        Ok(entries)
    }

    /// Decodes the frames of `buf` from `at` into `entries`, by the
    /// rules of the module doc; returns where the good frames end, where
    /// the last snapshot frame starts and where a torn frame ends.
    fn decode_frames(
        &self,
        buf: &[u8],
        mut at: usize,
        entries: &mut Vec<JournalEntry>,
    ) -> Result<(usize, Option<usize>, Option<usize>)> {
        let mut snapshot = None;
        let torn = loop {
            let rest = &buf[at..];
            let Some(&[l0, l1, l2, l3, c0, c1, c2, c3]) = rest.get(..FRAME_HEAD) else {
                // Too short for a frame head: zeros end the frames, a
                // head cut off by the end of the file is torn.
                break (!is_zero(rest)).then_some(buf.len());
            };
            let len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
            let check = u32::from_le_bytes([c0, c1, c2, c3]);
            if len == 0 {
                if !is_zero(rest) {
                    return Err(corrupt(at, "non-zero bytes after the end of the frames"));
                }
                break None;
            }
            let next = at + FRAME_HEAD + len;
            let Some(stored) = buf.get(at + FRAME_HEAD..next) else {
                break Some(buf.len()); // Runs past the end of the file.
            };
            if crc32c(stored) != check {
                if !is_zero(&buf[next..]) {
                    return Err(corrupt(at, "a frame fails its check with data after it"));
                }
                break Some(next);
            }
            let plain = self.codec.decode(stored)?;
            match plain.first() {
                Some(&SNAPSHOT) => {
                    entries.clear();
                    decode_snapshot(&plain, entries)?;
                    snapshot = Some(at);
                }
                _ => entries.push(decode_record(&plain)?),
            }
            at = next;
        };
        Ok((at, snapshot, torn))
    }

    /// The torn-tail salvage performed by the last [`Journal::replay`],
    /// if any.
    pub fn last_salvage(&self) -> Option<SalvageInfo> {
        self.salvage
    }

    /// Writes what is framed and forces it to stable storage
    /// ([`Journal::write`], then [`JournalSync::sync`]).
    ///
    /// # Errors
    ///
    /// I/O errors are surfaced as [`DbError::Io`].
    pub fn sync_now(&mut self) -> Result<()> {
        self.write()?.sync()
    }

    /// Writes what is framed, in one positional write over the zero
    /// tail (first growing the tail if it is too short: by what the
    /// write needs or the file's length, whichever is more, up to
    /// [`SEGMENT_BYTES`]), and returns the fsync that makes it durable, which
    /// needs nothing of the journal: its owner may run it after letting
    /// go of the journal, while more frames are encoded and written. A
    /// write that fails is zeroed back (unless the process is dead) and
    /// its frames stay pending, so the next call writes them again.
    ///
    /// # Errors
    ///
    /// I/O errors are surfaced as [`DbError::Io`]; a journal that holds
    /// frames is not written before its first [`Journal::replay`].
    pub fn write(&mut self) -> Result<JournalSync> {
        if !self.pending.is_empty() {
            self.write_pending()?;
        }
        Ok(JournalSync(Arc::clone(&self.file)))
    }

    fn write_pending(&mut self) -> Result<()> {
        let end = self.end()?;
        let stop = end + self.pending.len() as u64;
        if stop > self.cap {
            // By what the write needs or the file's length, whichever is
            // more, up to a segment: a new or reclaimed journal doubles
            // to a segment instead of zeroing one at its first commit.
            let grown = self.cap + (stop - self.cap).max(self.cap.min(SEGMENT_BYTES));
            write_zeros(&self.file, self.cap, grown).map_err(DbError::io)?;
            self.cap = grown;
        }
        let mut at = WriteAt(&self.file, end);
        let written = plat::failpoint::write_all("sealdb::journal::write", &mut at, &self.pending);
        if let Err(e) = written {
            if !plat::failpoint::crash_active() {
                let _ = self.file.write_all_at(&vec![0; self.pending.len()], end);
            }
            return Err(DbError::io(e));
        }
        if let Some(at) = self.pending_snapshot.take() {
            self.live_from = end + at as u64;
        }
        self.end = Some(stop);
        self.pending.clear();
        Ok(())
    }

    /// Where the written frames end; unknown for a journal that holds
    /// frames until its first [`Journal::replay`].
    fn end(&self) -> Result<u64> {
        (self.end).ok_or_else(|| DbError::exec("journal written before it was replayed"))
    }

    /// Whether the dead bytes before the last snapshot frame have
    /// passed [`RECLAIM_BYTES`].
    pub fn reclaim_due(&self) -> bool {
        self.live_from - HEADER_BYTES > RECLAIM_BYTES
    }

    /// Drops the dead bytes: the pending frames are written, then the
    /// header and the live suffix — the last snapshot frame and
    /// everything after it, as stored — replace the journal
    /// ([`Journal::rewrite`]). Nothing is decoded or re-sealed.
    ///
    /// # Errors
    ///
    /// I/O errors; the live journal is untouched unless the rename
    /// happened.
    pub fn reclaim(&mut self) -> Result<()> {
        self.write()?;
        let end = self.end()?;
        let mut bytes = self.header.to_vec();
        bytes.resize((HEADER_BYTES + end - self.live_from) as usize, 0);
        (self
            .file
            .read_exact_at(&mut bytes[HEADER_BYTES as usize..], self.live_from))
        .map_err(DbError::io)?;
        self.rewrite(&bytes)
    }

    /// Atomically replaces the journal's contents with `bytes`.
    ///
    /// Protocol: write them to a generation-numbered temp file next to
    /// the journal, fsync it, rename it over the live journal, then
    /// fsync the parent directory. A crash before the rename leaves the
    /// old journal fully intact (plus a stale temp file that
    /// [`Journal::open`] removes); a crash after it leaves the new one.
    ///
    /// # Errors
    ///
    /// I/O errors are surfaced as [`DbError::Io`]; on error the live
    /// journal is untouched unless the rename happened.
    fn rewrite(&mut self, bytes: &[u8]) -> Result<()> {
        self.generation += 1;
        let tmp_path = rewrite_temp_path(&self.path, self.generation);
        let result = self.rewrite_into(&tmp_path, bytes);
        if result.is_err() && !plat::failpoint::crash_active() {
            // A real (non-crash) failure: clean up the partial temp
            // file. A simulated crash leaves it, as a real crash
            // would; Journal::open removes it on recovery.
            let _ = std::fs::remove_file(&tmp_path);
        }
        result
    }

    fn rewrite_into(&mut self, tmp_path: &Path, bytes: &[u8]) -> Result<()> {
        let mut tmp = File::create(tmp_path).map_err(DbError::io)?;
        plat::failpoint::write_all("sealdb::reclaim::copy", &mut tmp, bytes)
            .map_err(DbError::io)?;
        plat::failpoint::check("sealdb::reclaim::sync").map_err(DbError::io)?;
        tmp.sync_all().map_err(DbError::io)?;
        fsync_counter().inc();
        drop(tmp);
        plat::failpoint::check("sealdb::reclaim::rename").map_err(DbError::io)?;
        std::fs::rename(tmp_path, &self.path).map_err(DbError::io)?;
        // Once the rename has happened the old handle points at the
        // unlinked old file; the new one MUST become the live journal
        // now, even if the directory sync below fails — otherwise later
        // writes land on the orphaned inode (or past the end of the new
        // one) and vanish on restart while the rollback counter keeps
        // counting them.
        let file = OpenOptions::new().read(true).write(true).open(&self.path);
        self.file = Arc::new(file.map_err(DbError::io)?);
        let len = bytes.len() as u64;
        (self.end, self.cap, self.live_from) = (Some(len), len, HEADER_BYTES);
        plat::failpoint::check("sealdb::reclaim::sync_dir").map_err(DbError::io)?;
        sync_parent_dir(&self.path).map_err(DbError::io)?;
        Ok(())
    }

    /// Where the journal's frames end, written or still pending: its
    /// logical size in bytes, header included and zero tail not.
    pub fn size_bytes(&self) -> u64 {
        self.end.unwrap_or(self.cap) + self.pending.len() as u64
    }
}

impl Drop for Journal {
    /// Frames still pending reach the file (not its disk) when the
    /// journal closes, as they would have with a write per statement.
    /// A simulated crash fails the write, as a dead process would.
    fn drop(&mut self) {
        let _ = self.write();
    }
}

/// The fsync of what a [`Journal::write`] wrote: it covers every byte
/// written to the journal file before it runs.
pub struct JournalSync(Arc<File>);

impl JournalSync {
    /// Forces the journal file's written bytes to stable storage.
    ///
    /// # Errors
    ///
    /// I/O errors are surfaced as [`DbError::Io`].
    pub fn sync(&self) -> Result<()> {
        plat::failpoint::check("sealdb::journal::sync").map_err(DbError::io)?;
        self.0.sync_data().map_err(DbError::io)?;
        fsync_counter().inc();
        Ok(())
    }
}

/// Positional writes through [`std::io::Write`], for a failpoint's
/// write site: each write lands at the offset after the last.
struct WriteAt<'a>(&'a File, u64);

impl Write for WriteAt<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.0.write_at(buf, self.1)?;
        self.1 += n as u64;
        Ok(n)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Grows the zero tail: zeros over `from..to`, a [`ZEROS`] at a time.
fn write_zeros(file: &File, from: u64, to: u64) -> std::io::Result<()> {
    let mut at = WriteAt(file, from);
    while at.1 < to {
        let n = (to - at.1).min(ZEROS.len() as u64) as usize;
        plat::failpoint::write_all("sealdb::journal::extend", &mut at, &ZEROS[..n])?;
    }
    Ok(())
}

fn is_zero(bytes: &[u8]) -> bool {
    bytes.iter().all(|&b| b == 0)
}

/// The header a journal tagged `tag` starts with.
fn header(tag: &str) -> Result<[u8; HEADER_BYTES as usize]> {
    let mut h = [0u8; HEADER_BYTES as usize];
    let Some(room) = h.get_mut(12..12 + tag.len()) else {
        return Err(DbError::Format(format!("journal tag {tag:?} is too long")));
    };
    room.copy_from_slice(tag.as_bytes());
    h[..8].copy_from_slice(MAGIC);
    h[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    Ok(h)
}

/// Whether `bytes` hold no journal: the start of `header`, then zeros
/// — a file created and never committed to.
fn holds_nothing(bytes: &[u8], header: &[u8]) -> bool {
    let same = bytes.iter().zip(header).take_while(|(a, b)| a == b).count();
    same < header.len() && is_zero(&bytes[same..])
}

/// What is wrong with a file that does not start with the header of a
/// journal of this format tagged `tag`.
fn format_error(bytes: &[u8], tag: &str) -> DbError {
    let want = format!("format {FORMAT_VERSION} tagged {tag:?}");
    DbError::Format(match bytes.get(..HEADER_BYTES as usize) {
        Some(h) if h[..8] == MAGIC[..] => {
            let version = u32::from_le_bytes([h[8], h[9], h[10], h[11]]);
            let found = String::from_utf8_lossy(&h[12..]);
            let found = found.trim_end_matches('\0');
            format!("journal of format {version} tagged {found:?}, not {want}")
        }
        _ => format!("no journal header (an earlier format or another file), not {want}"),
    })
}

fn corrupt(at: usize, what: &str) -> DbError {
    DbError::exec(format!("journal corrupt at offset {at}: {what}"))
}

/// CRC-32C (Castagnoli, reflected), a byte at a time from a table
/// built at compile time.
fn crc32c(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 == 1 {
                    (c >> 1) ^ 0x82F6_3B78
                } else {
                    c >> 1
                };
                k += 1;
            }
            table[i] = c;
            i += 1;
        }
        table
    };
    !bytes.iter().fold(!0u32, |c, &b| {
        TABLE[((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8)
    })
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

fn encode_record(out: &mut Vec<u8>, sql: &str, params: &[Value]) -> Result<()> {
    out.push(RECORD);
    out.extend_from_slice(&frame_len(sql.len())?.to_le_bytes());
    out.extend_from_slice(sql.as_bytes());
    out.extend_from_slice(&frame_len(params.len())?.to_le_bytes());
    for p in params {
        encode_value(out, p)?;
    }
    Ok(())
}

/// Appends a snapshot frame's records (after its tag) to `entries`.
fn decode_snapshot(plain: &[u8], entries: &mut Vec<JournalEntry>) -> Result<()> {
    let truncated = || DbError::exec("journal snapshot truncated");
    let word = |i: usize| -> Result<usize> {
        let b = plain.get(i..i + 4).ok_or_else(truncated)?;
        Ok(u32::from_le_bytes(b.try_into().unwrap()) as usize)
    };
    let mut i = 5;
    for _ in 0..word(1)? {
        let len = word(i)?;
        let record = plain.get(i + 4..i + 4 + len).ok_or_else(truncated)?;
        entries.push(decode_record(record)?);
        i += 4 + len;
    }
    if i != plain.len() {
        return Err(DbError::exec("journal snapshot has trailing bytes"));
    }
    Ok(())
}

fn decode_record(buf: &[u8]) -> Result<JournalEntry> {
    let mut i = 0usize;
    if buf.first() != Some(&RECORD) {
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

    fn open(path: &plat::tmp::TempPath) -> Result<Journal> {
        Journal::open(path, Box::new(PlainCodec), DEFAULT_TAG)
    }

    #[test]
    fn crc32c_matches_the_check_value() {
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(b""), 0);
        assert_ne!(crc32c(&[0; 32]), 0, "zeros never pass for a frame");
    }

    #[test]
    fn roundtrip() {
        let path = tmp("rt");
        let mut j = open(&path).unwrap();
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
        let mut j = open(&path).unwrap();
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
            let mut j = open(&path).unwrap();
            j.append("CREATE TABLE t(a)", &[]).unwrap();
            j.sync_now().unwrap();
        }
        let mut j = open(&path).unwrap();
        let entries = j.replay().unwrap();
        assert_eq!(entries.len(), 1);
    }

    #[test]
    fn all_value_types_roundtrip() {
        let path = tmp("vals");
        let mut j = open(&path).unwrap();
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
            let mut j = open(&path).unwrap();
            j.append("INSERT INTO t VALUES (1)", &[]).unwrap();
            j.append("INSERT INTO t VALUES (2)", &[]).unwrap();
            j.sync_now().unwrap();
            full_len = j.size_bytes();
        }
        // Cut the file 3 bytes short of the frames' end: the second
        // record becomes a torn tail.
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, &data[..full_len as usize - 3]).unwrap();
        let mut j = open(&path).unwrap();
        let entries = j.replay().unwrap();
        assert_eq!(entries.len(), 1, "intact prefix record survives");
        let info = j.last_salvage().expect("salvage reported");
        assert_eq!(info.offset + info.lost_bytes + 3, full_len);
        // The torn frame was zeroed away; appends work again.
        assert_eq!(j.size_bytes(), info.offset);
        j.append("INSERT INTO t VALUES (3)", &[]).unwrap();
        let entries = j.replay().unwrap();
        assert_eq!(entries.len(), 2);
        assert!(j.last_salvage().is_none(), "clean replay clears salvage");
    }

    #[test]
    fn salvages_torn_length_prefix() {
        let path = tmp("cutlen");
        let end;
        {
            let mut j = open(&path).unwrap();
            j.append("A", &[]).unwrap();
            j.sync_now().unwrap();
            end = j.size_bytes() as usize;
        }
        // Leave only 2 bytes of the next frame's length prefix, then
        // the end of the file.
        let data = std::fs::read(&path).unwrap();
        let mut cut = data[..end].to_vec();
        cut.extend_from_slice(&[7, 0]);
        std::fs::write(&path, &cut).unwrap();
        let mut j = open(&path).unwrap();
        assert_eq!(j.replay().unwrap().len(), 1);
        assert_eq!(
            j.last_salvage(),
            Some(SalvageInfo {
                offset: end as u64,
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
            let mut j = Journal::open(&path, Box::new(SumCodec), DEFAULT_TAG).unwrap();
            j.append("INSERT INTO t VALUES (1)", &[]).unwrap();
            j.append("INSERT INTO t VALUES (2)", &[]).unwrap();
        }
        // Flip a byte inside the first record's payload and mend its
        // check, as a forger would: tampering, not a torn tail —
        // salvage must NOT kick in, and the codec refuses the record.
        let mut data = std::fs::read(&path).unwrap();
        let at = HEADER_BYTES as usize;
        let len = usize::from(data[at]); // A record under 256 bytes.
        let stored = at + FRAME_HEAD..at + FRAME_HEAD + len;
        data[stored.start + 2] ^= 0xff;
        let check = crc32c(&data[stored]).to_le_bytes();
        data[at + 4..at + 8].copy_from_slice(&check);
        std::fs::write(&path, &data).unwrap();
        let mut j = Journal::open(&path, Box::new(SumCodec), DEFAULT_TAG).unwrap();
        let err = j.replay().unwrap_err();
        assert!(
            matches!(err, DbError::Exec(ref m) if m.contains("authenticate")),
            "{err:?}"
        );
        assert!(j.last_salvage().is_none());
    }

    #[test]
    fn open_removes_stale_rewrite_temp() {
        let path = tmp("stale");
        std::fs::write(&path, b"").unwrap();
        let stale = rewrite_temp_path(path.path(), 3);
        std::fs::write(&stale, b"half a snapshot").unwrap();
        let _j = open(&path).unwrap();
        assert!(!stale.exists(), "stale compaction temp not cleaned up");
    }
}
