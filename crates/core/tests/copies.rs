//! The audited data path copies a message at most once per hop, held
//! without a clock: a counting allocator measures the bytes one audited
//! Git session allocates per 256 KiB message in steady state.
//!
//! - an upload through `pump_batch`: the enclave's one retained request
//!   copy, ≤ 1 × body — the plaintext handed out is the staged input
//!   itself, its records opened where they arrived;
//! - the empty response that pairs it: the SSM routes on the head, so
//!   the 256 KiB body it does not audit is not copied again;
//! - a download through `ssl_write_take`: the ecall's staged copy and
//!   the sealed records, ≤ 2 × body — the response is framed, logged
//!   and encrypted where it lies.
//!
//! Alone in its binary: it counts the bytes the test thread allocates,
//! and synchronous ecalls run on the calling thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use libseal::{GitModule, LibSeal, LibSealConfig, LogBacking, SessionInput};
use libseal_httpx::http::{parse_response, Request, Response};
use libseal_sgxsim::cost::CostModel;
use libseal_tlsx::cert::CertificateAuthority;
use libseal_tlsx::ssl::{ReadOutcome, Ssl, SslConfig};

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

const BODY: usize = 256 * 1024;
const SLACK: usize = 16 * 1024;

struct Rig {
    ls: Arc<LibSeal>,
    sid: u64,
    client: Ssl,
}

impl Rig {
    fn new() -> Rig {
        let ca = CertificateAuthority::new("CA", &[1u8; 32]);
        let (key, cert) = ca.issue_identity("svc.test", &[2u8; 32]).unwrap();
        let config = LibSealConfig::builder(cert, key)
            .ssm(Arc::new(GitModule))
            .cost_model(CostModel::free())
            .backing(LogBacking::Memory)
            .check_interval(0)
            .build();
        let ls = LibSeal::new(config).unwrap();
        let sid = ls.new_session(0).unwrap();
        let mut client = Ssl::new(SslConfig::client(vec![ca.root_key()]), [3u8; 64]);
        client.do_handshake().unwrap();
        let mut rig = Rig { ls, sid, client };
        while !rig.client.is_established() {
            rig.pump();
        }
        // The client's Finished.
        rig.pump();
        rig
    }

    /// Delivers what the client wrote; returns the plaintext handed out
    /// and the bytes the pump allocated.
    fn pump(&mut self) -> (Vec<u8>, usize) {
        let items = vec![SessionInput {
            sid: self.sid,
            input: self.client.take_output(),
        }];
        let (mut outcomes, bytes) = allocated_by(|| self.ls.pump_batch(0, items).unwrap());
        let outcome = outcomes.remove(0);
        assert!(outcome.error.is_none(), "{:?}", outcome.error);
        self.client.provide_input(&outcome.output);
        let _ = self.client.do_handshake();
        (outcome.data, bytes)
    }

    /// Sends `req`; returns the bytes its pump allocated.
    fn upload(&mut self, req: &Request) -> usize {
        let wire = req.to_bytes();
        self.client.ssl_write(&wire).unwrap();
        let (data, bytes) = self.pump();
        assert_eq!(data, wire, "the application sees the request");
        bytes
    }

    /// Answers with `rsp`; returns the bytes the fused write allocated.
    fn respond(&mut self, rsp: &Response) -> usize {
        let plain = rsp.to_bytes();
        let (wire, bytes) = allocated_by(|| self.ls.ssl_write_take(0, self.sid, &plain).unwrap());
        self.client.provide_input(&wire);
        let mut seen = Vec::new();
        while let Ok(ReadOutcome::Data(d)) = self.client.ssl_read() {
            seen.extend_from_slice(&d);
        }
        assert_eq!(parse_response(&seen).unwrap().0, *rsp);
        bytes
    }

    /// One upload and one download; the bytes each of the three steps
    /// allocated.
    fn round(&mut self) -> [usize; 3] {
        let upload = self.upload(&Request::new("POST", "/content/0", vec![7u8; BODY]));
        let pair = self.respond(&Response::new(200, Vec::new()));
        let get = format!("/content/{BODY}");
        self.upload(&Request::new("GET", &get, Vec::new()));
        let download = self.respond(&Response::new(200, vec![b'x'; BODY]));
        [upload, pair, download]
    }
}

#[test]
fn each_hop_copies_an_audited_message_at_most_once() {
    let mut rig = Rig::new();
    // Warm-up: buffers that are kept across messages reach their size.
    rig.round();
    let [upload, pair, download] = rig.round();
    let ratio = |bytes: usize| bytes as f64 / BODY as f64;
    eprintln!(
        "per 256 KiB: upload {:.2}x, its pairing {pair} B, download {:.2}x",
        ratio(upload),
        ratio(download)
    );
    assert!(upload <= BODY + SLACK, "upload: {:.2}x", ratio(upload));
    assert!(pair <= SLACK, "pairing the upload: {pair} B");
    assert!(
        download <= 2 * BODY + SLACK,
        "download: {:.2}x",
        ratio(download)
    );
    rig.ls.verify_log(0).unwrap();
}
