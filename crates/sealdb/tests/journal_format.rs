//! The journal's on-disk shape: a header, the frames, a zero tail. A
//! commit writes over zeros; replay ends at a zero length, salvages one
//! torn frame with only zeros behind it, and refuses anything else; a
//! file without this format's header, or with another tag, is a format
//! error.

use libseal_sealdb::journal::{Journal, PlainCodec, DEFAULT_TAG, HEADER_BYTES, SEGMENT_BYTES};
use libseal_sealdb::{DbError, Value};
use plat::tmp::TempPath;

fn tmp(name: &str) -> TempPath {
    TempPath::new(&format!("sealdb-journal-format-{name}"), "log")
}

fn open(path: &TempPath) -> libseal_sealdb::Result<Journal> {
    Journal::open(path, Box::new(PlainCodec), DEFAULT_TAG)
}

fn is_zero(bytes: &[u8]) -> bool {
    bytes.iter().all(|&b| b == 0)
}

/// Two synced frames, and where the second starts and ends.
fn two_frames(path: &TempPath) -> (usize, usize) {
    let mut j = open(path).unwrap();
    j.append("A", &[]).unwrap();
    j.sync_now().unwrap();
    let second = j.size_bytes() as usize;
    j.append("B", &[]).unwrap();
    j.sync_now().unwrap();
    (second, j.size_bytes() as usize)
}

#[test]
fn a_torn_frame_in_the_zero_tail_is_salvaged() {
    let path = tmp("tornzero");
    let (second, end) = two_frames(&path);
    let mut data = std::fs::read(&path).unwrap();
    assert!(data.len() > end && is_zero(&data[end..]), "a zero tail");
    data[second + 10..end].fill(0);
    std::fs::write(&path, &data).unwrap();
    let mut j = open(&path).unwrap();
    assert_eq!(j.replay().unwrap().len(), 1);
    let info = j.last_salvage().expect("salvage reported");
    assert_eq!(
        (info.offset, info.lost_bytes),
        (second as u64, (end - second) as u64)
    );
    assert!(
        is_zero(&std::fs::read(&path).unwrap()[second..]),
        "zeroed away"
    );
}

#[test]
fn a_non_zero_byte_after_the_end_is_fatal() {
    let path = tmp("afterend");
    let (_, end) = two_frames(&path);
    let mut data = std::fs::read(&path).unwrap();
    let last = data.len() - 1;
    data[last] = 1;
    std::fs::write(&path, &data).unwrap();
    let err = open(&path).unwrap().replay().unwrap_err();
    assert!(
        matches!(err, DbError::Exec(ref m) if m.contains("after the end")),
        "{err:?}"
    );
    // Right behind the end marker too.
    data[last] = 0;
    data[end + 5] = 1;
    std::fs::write(&path, &data).unwrap();
    assert!(open(&path).unwrap().replay().is_err());
}

#[test]
fn a_good_frame_after_a_torn_one_is_fatal() {
    let path = tmp("goodafterbad");
    let (second, _) = two_frames(&path);
    let mut data = std::fs::read(&path).unwrap();
    data[HEADER_BYTES as usize + 8] ^= 0xff; // The first frame's record.
    std::fs::write(&path, &data).unwrap();
    let mut j = open(&path).unwrap();
    let err = j.replay().unwrap_err();
    assert!(
        matches!(err, DbError::Exec(ref m) if m.contains("data after it")),
        "{err:?}"
    );
    assert!(j.last_salvage().is_none());
    assert!(second > HEADER_BYTES as usize);
}

#[test]
fn a_reopened_journal_keeps_appending_into_its_zero_tail() {
    let path = tmp("reopentail");
    let (_, end) = two_frames(&path);
    let len = std::fs::metadata(&path).unwrap().len();
    let mut j = open(&path).unwrap();
    assert_eq!(j.replay().unwrap().len(), 2);
    assert_eq!(j.size_bytes(), end as u64);
    j.append("C", &[]).unwrap();
    j.sync_now().unwrap();
    drop(j);
    assert_eq!(std::fs::metadata(&path).unwrap().len(), len, "no growth");
    let mut j = open(&path).unwrap();
    let sqls: Vec<String> = j.replay().unwrap().into_iter().map(|e| e.sql).collect();
    assert_eq!(sqls, ["A", "B", "C"]);
    assert!(j.last_salvage().is_none());
}

/// A commit past the zero tail grows it by what the write needs or the
/// file's length, whichever is more, up to [`SEGMENT_BYTES`]: the tail
/// of a new journal doubles to a segment, then grows by segments.
#[test]
fn a_commit_past_the_zero_tail_grows_it_by_doubling_up_to_a_segment() {
    let path = tmp("segments");
    let len = || std::fs::metadata(&path).unwrap().len();
    let mut j = open(&path).unwrap();
    j.append("A", &[]).unwrap();
    j.sync_now().unwrap();
    assert_eq!(len(), 2 * HEADER_BYTES, "a new journal's first commit");
    let row = Value::Blob(vec![7; 8000]);
    let (mut growths, mut commits) = (Vec::new(), 0);
    while len() < 3 * SEGMENT_BYTES {
        let before = len();
        commits += 1;
        j.append("B", std::slice::from_ref(&row)).unwrap();
        j.sync_now().unwrap();
        if len() > before {
            let need = j.size_bytes() - before;
            assert_eq!(len() - before, need.max(before.min(SEGMENT_BYTES)));
            growths.push(len() - before);
        }
    }
    let segments = growths.iter().filter(|&&g| g == SEGMENT_BYTES).count();
    assert!(segments >= 2, "{growths:?}");
    assert!(growths.len() <= segments + 8, "doubling: {growths:?}");
    // A write that needs more than a segment grows the file by exactly
    // its need (the tail left is under a segment).
    let big = Value::Blob(vec![7; 2 * SEGMENT_BYTES as usize]);
    j.append("C", std::slice::from_ref(&big)).unwrap();
    j.sync_now().unwrap();
    assert_eq!(len(), j.size_bytes());
    drop(j);
    let mut j = open(&path).unwrap();
    let entries = j.replay().unwrap();
    assert_eq!(entries.len(), 2 + commits);
    assert_eq!(entries[1 + commits].params, [big]);
}

#[test]
fn another_tag_version_or_no_header_is_a_format_error() {
    let path = tmp("format");
    two_frames(&path);
    let err = |path: &TempPath, tag| match Journal::open(path, Box::new(PlainCodec), tag) {
        Err(DbError::Format(m)) => m,
        other => panic!("want a format error, got {:?}", other.map(|_| ())),
    };
    assert!(err(&path, "another").contains("tagged \"sealdb\", not"));
    let mut data = std::fs::read(&path).unwrap();
    data[8] = 9;
    std::fs::write(&path, &data).unwrap();
    assert!(err(&path, DEFAULT_TAG).contains("of format 9"));
    // What format 1 wrote: `len, stored` from the first byte.
    let mut old = 5u32.to_le_bytes().to_vec();
    old.extend_from_slice(&[1, 0, 0, 0, 0]);
    std::fs::write(&path, &old).unwrap();
    assert!(err(&path, DEFAULT_TAG).contains("no journal header"));
}

#[test]
fn a_header_cut_short_or_zeroed_holds_nothing() {
    let path = tmp("blank");
    two_frames(&path);
    let header = std::fs::read(&path).unwrap()[..HEADER_BYTES as usize].to_vec();
    for bytes in [&header[..0], &header[..11], &[0; 300][..]] {
        std::fs::write(&path, bytes).unwrap();
        let mut j = open(&path).unwrap();
        assert!(j.replay().unwrap().is_empty());
        j.append("A", &[]).unwrap();
        j.sync_now().unwrap();
        drop(j);
        assert_eq!(open(&path).unwrap().replay().unwrap().len(), 1);
    }
    let mut bytes = header[..11].to_vec();
    bytes.push(1);
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(open(&path), Err(DbError::Format(_))));
}
