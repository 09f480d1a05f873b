//! Probing a growing buffer for a complete chunked message allocates
//! nothing: framing an incomplete chunked body is a scan. A parser that
//! de-chunks into a fresh buffer on every probe re-copies everything
//! received so far, so k reads of an n-byte body cost O(k·n) — for the
//! 1 MiB body of 1 KiB chunks below, about 512 MiB allocated.
//!
//! Alone in its binary: it counts the bytes this thread allocates.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use libseal_httpx::http::parse_request;
use libseal_httpx::ParseError;

struct Counting;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    let _ = ALLOCATED.try_with(|a| a.set(a.get() + bytes));
}

// SAFETY: every call is forwarded unchanged to the system allocator;
// counting touches only a const-initialised thread-local cell.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Bytes this thread allocates while `f` runs.
fn allocated_by<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = ALLOCATED.with(Cell::get);
    let r = f();
    (r, ALLOCATED.with(Cell::get) - before)
}

#[test]
fn probing_an_incomplete_chunked_body_allocates_nothing() {
    const CHUNK: usize = 1024;
    const CHUNKS: usize = 1024;
    let mut wire = b"POST /upload HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec();
    let mut ends = vec![wire.len()];
    for i in 0..CHUNKS {
        wire.extend_from_slice(format!("{CHUNK:x}\r\n").as_bytes());
        wire.extend(std::iter::repeat_n(i as u8, CHUNK));
        wire.extend_from_slice(b"\r\n");
        ends.push(wire.len());
    }
    wire.extend_from_slice(b"0\r\n\r\n");

    // One chunk more per read: every probe but the last finds the
    // message incomplete.
    let mut probes = 0;
    for &end in &ends {
        let (parsed, bytes) = allocated_by(|| parse_request(&wire[..end]).map(drop));
        assert_eq!(parsed, Err(ParseError::Incomplete));
        probes += bytes;
    }
    assert!(
        probes < 64 * 1024,
        "{} incomplete probes allocated {probes} bytes",
        ends.len()
    );

    // The complete message costs its body once, not once per probe.
    let ((req, used), bytes) = allocated_by(|| parse_request(&wire).unwrap());
    assert_eq!(used, wire.len());
    assert_eq!(req.body.len(), CHUNK * CHUNKS);
    assert!(bytes < CHUNK * CHUNKS + 16 * 1024, "{bytes} bytes");
}
