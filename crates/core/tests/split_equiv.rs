//! Framing messages where they lie is invisible: however the transport
//! cuts the audited streams — mid-head, inside the CRLFCRLF, mid-body,
//! inside a chunk-size line, several messages in one call — the SSM is
//! handed the same (request, response) pairs and the client reads the
//! same plaintext, `Libseal-Check-Result` headers included, as when
//! every message arrives whole in a call of its own.
//!
//! Seeded streams of Git pushes and fetches, `Content-Length` and
//! chunked bodies from 0 B to 300 KiB, `Libseal-Check` requests and a
//! non-HTTP response that passes through, driven through `pump_batch`
//! and `ssl_write_take` on two audited instances: one fed whole
//! messages, one fed the seeded cuts.

use std::sync::{Arc, Mutex};

use libseal::ssm::Invariant;
use libseal::{AuditLog, GitModule, LibSeal, LibSealConfig, LogBacking, SessionInput};
use libseal::{ServiceModule, TableSpec};
use libseal_sgxsim::cost::CostModel;
use libseal_tlsx::cert::CertificateAuthority;
use libseal_tlsx::ssl::{ReadOutcome, Ssl, SslConfig};
use plat::check::Gen;

/// A (request, response) pair as the SSM is handed it.
type Pair = (Vec<u8>, Vec<u8>);

/// `GitModule`, keeping a copy of every pair it is handed.
#[derive(Default)]
struct Recording {
    pairs: Mutex<Vec<Pair>>,
}

impl ServiceModule for Recording {
    fn name(&self) -> &'static str {
        GitModule.name()
    }

    fn schema_sql(&self) -> &'static str {
        GitModule.schema_sql()
    }

    fn tables(&self) -> Vec<TableSpec> {
        GitModule.tables()
    }

    fn invariants(&self) -> &'static [Invariant] {
        GitModule.invariants()
    }

    fn trim_queries(&self) -> &'static [&'static str] {
        GitModule.trim_queries()
    }

    fn log_pair(&self, req: &[u8], rsp: &[u8], log: &mut AuditLog) -> libseal::Result<usize> {
        self.pairs
            .lock()
            .unwrap()
            .push((req.to_vec(), rsp.to_vec()));
        GitModule.log_pair(req, rsp, log)
    }
}

/// One direction of a generated exchange: the bytes, where each
/// message ends, and the offsets worth cutting at.
#[derive(Default)]
struct Stream {
    bytes: Vec<u8>,
    ends: Vec<usize>,
    cuts: Vec<usize>,
}

impl Stream {
    /// Appends a message: `line` and `headers` head it, `body` goes out
    /// with `Content-Length` or in chunks of seeded sizes.
    fn message(&mut self, g: &mut Gen, line: &str, headers: &[&str], body: &[u8], chunked: bool) {
        let at = self.bytes.len();
        let mut head = format!("{line}\r\n");
        for h in headers {
            head.push_str(&format!("{h}\r\n"));
        }
        head.push_str(&match chunked {
            true => "Transfer-Encoding: chunked\r\n\r\n".to_string(),
            false => format!("Content-Length: {}\r\n\r\n", body.len()),
        });
        self.bytes.extend_from_slice(head.as_bytes());
        let head_end = self.bytes.len();
        // Mid-head, and every offset inside the CRLFCRLF.
        self.cuts.push(at + g.usize_in(1..head.len()));
        self.cuts.extend(head_end - 3..head_end);
        if chunked {
            let mut rest = body;
            while !rest.is_empty() {
                let n = g.usize_in(1..rest.len().min(40_000) + 1);
                let size = format!("{n:x}\r\n");
                // Inside the chunk-size line.
                self.cuts.push(self.bytes.len() + g.usize_in(1..size.len()));
                self.bytes.extend_from_slice(size.as_bytes());
                self.bytes.extend_from_slice(&rest[..n]);
                self.bytes.extend_from_slice(b"\r\n");
                rest = &rest[n..];
            }
            self.bytes.extend_from_slice(b"0\r\n\r\n");
        } else {
            self.bytes.extend_from_slice(body);
        }
        if self.bytes.len() > head_end + 1 {
            // Mid-body.
            self.cuts.push(g.usize_in(head_end + 1..self.bytes.len()));
        }
        self.ends.push(self.bytes.len());
    }

    /// The stream in pieces: at a seeded subset of the cut offsets, or
    /// one message per piece when `whole`.
    fn pieces(&self, g: &mut Gen, whole: bool) -> Vec<&[u8]> {
        let mut at: Vec<usize> = if whole {
            self.ends.clone()
        } else {
            // Message boundaries survive only sometimes, so a piece can
            // carry several messages.
            let mut at: Vec<usize> = self.cuts.iter().filter(|_| g.bool()).copied().collect();
            at.extend(self.ends.iter().filter(|_| g.usize_in(0..3) == 0));
            at
        };
        at.retain(|&c| c > 0 && c < self.bytes.len());
        at.push(self.bytes.len());
        at.sort_unstable();
        at.dedup();
        let mut from = 0;
        at.into_iter()
            .map(|to| {
                let piece = &self.bytes[from..to];
                from = to;
                piece
            })
            .collect()
    }
}

/// A body of seeded size: mostly small, now and then up to 300 KiB.
fn body(g: &mut Gen) -> Vec<u8> {
    let len = match g.usize_in(0..10) {
        0..=3 => g.usize_in(0..64),
        4..=6 => g.usize_in(64..4096),
        7 | 8 => g.usize_in(4096..40_000),
        _ => g.usize_in(40_000..300 * 1024 + 1),
    };
    g.bytes(len..len + 1)
}

/// Refs lines of a push (`<old> <new> <ref>`) or an advertisement
/// (`<cid> <ref>`).
fn refs(g: &mut Gen, push: bool) -> Vec<u8> {
    let lines = (0..g.usize_in(0..5)).map(|b| {
        let cid = format!("c{}", g.usize_in(0..4));
        match push {
            true => format!("0 {cid} refs/heads/b{b}\n"),
            false => format!("{cid} refs/heads/b{b}\n"),
        }
    });
    lines.collect::<String>().into_bytes()
}

/// One case's exchange: requests and the responses to them, in order.
fn exchange(g: &mut Gen) -> (Stream, Stream) {
    let (mut reqs, mut rsps) = (Stream::default(), Stream::default());
    let n = g.usize_in(1..5);
    for i in 0..n {
        let repo = format!("/repo/r{}", g.usize_in(0..3));
        let check = ["Host: svc.test", "Libseal-Check: 1"];
        let headers = match g.usize_in(0..5) {
            0 => &check[..],
            _ => &check[..1],
        };
        let status = "HTTP/1.1 200 OK";
        match g.usize_in(0..3) {
            0 => {
                let line = format!("POST {repo}/git-receive-pack HTTP/1.1");
                let push = refs(g, true);
                let chunked = g.bool();
                reqs.message(g, &line, headers, &push, chunked);
                let chunked = g.bool();
                rsps.message(g, status, &[], b"ok\n", chunked);
            }
            1 => {
                let line = format!("GET {repo}/info/refs?service=git-upload-pack HTTP/1.1");
                reqs.message(g, &line, headers, b"", false);
                let advert = refs(g, false);
                let chunked = g.bool();
                rsps.message(g, status, &[], &advert, chunked);
            }
            _ => {
                let (up, down) = (body(g), body(g));
                let chunked = g.bool();
                reqs.message(g, "POST /content/0 HTTP/1.1", headers, &up, chunked);
                let chunked = g.bool();
                rsps.message(g, status, &[], &down, chunked);
            }
        }
        if i + 1 == n && g.usize_in(0..8) == 0 {
            // A service answering with something that is not HTTP: it
            // passes through unaudited. No `H` anywhere, so no piece
            // of it can look like the start of a response.
            reqs.message(g, "GET /weird HTTP/1.1", &[], b"", false);
            let at = rsps.bytes.len();
            rsps.bytes
                .extend_from_slice(b"totally-not-http\r\n\r\nraw payload");
            rsps.cuts.extend([at + 3, at + 17]);
            rsps.ends.push(rsps.bytes.len());
        }
    }
    (reqs, rsps)
}

/// An audited instance whose SSM records what it is handed.
struct Plane {
    ls: Arc<LibSeal>,
    ssm: Arc<Recording>,
    ca: CertificateAuthority,
}

impl Plane {
    fn new() -> Plane {
        let ca = CertificateAuthority::new("CA", &[1u8; 32]);
        let (key, cert) = ca.issue_identity("svc.test", &[2u8; 32]).unwrap();
        let ssm = Arc::new(Recording::default());
        let config = LibSealConfig::builder(cert, key)
            .ssm(ssm.clone())
            .cost_model(CostModel::free())
            .backing(LogBacking::Memory)
            .check_interval(0)
            .build();
        let ls = LibSeal::new(config).unwrap();
        Plane { ls, ssm, ca }
    }

    /// Runs one exchange on a fresh session, requests in `reqs` pieces
    /// then responses in `rsps` pieces; returns what the application
    /// read, what the client read and the pairs the SSM was handed.
    fn run(&self, reqs: &[&[u8]], rsps: &[&[u8]]) -> (Vec<u8>, Vec<u8>, Vec<Pair>) {
        let sid = self.ls.new_session(0).unwrap();
        let mut client = Ssl::new(SslConfig::client(vec![self.ca.root_key()]), [3u8; 64]);
        client.do_handshake().unwrap();
        let pump = |client: &mut Ssl| {
            let input = client.take_output();
            let mut outcomes = self
                .ls
                .pump_batch(0, vec![SessionInput { sid, input }])
                .unwrap();
            let o = outcomes.remove(0);
            assert!(o.error.is_none(), "{:?}", o.error);
            client.provide_input(&o.output);
            let _ = client.do_handshake();
            o.data
        };
        while !client.is_established() {
            pump(&mut client);
        }
        let mut app = pump(&mut client);
        for piece in reqs {
            client.ssl_write(piece).unwrap();
            app.extend(pump(&mut client));
        }
        let mut seen = Vec::new();
        for piece in rsps {
            let wire = self.ls.ssl_write_take(0, sid, piece).unwrap();
            client.provide_input(&wire);
            while let Ok(ReadOutcome::Data(d)) = client.ssl_read() {
                seen.extend_from_slice(&d);
            }
        }
        self.ls.close_session(0, sid).unwrap();
        self.ls.verify_log(0).unwrap();
        let pairs = std::mem::take(&mut *self.ssm.pairs.lock().unwrap());
        (app, seen, pairs)
    }
}

#[test]
fn cut_streams_are_audited_as_whole_ones() {
    let (whole, split) = (Plane::new(), Plane::new());
    plat::check::run_cases("split_equiv", 200, |g| {
        let (reqs, rsps) = exchange(g);
        let reference = whole.run(&reqs.pieces(g, true), &rsps.pieces(g, true));
        let cut = split.run(&reqs.pieces(g, false), &rsps.pieces(g, false));
        assert_eq!(
            reference.0, reqs.bytes,
            "the application reads every request"
        );
        assert!(reference.1 == cut.1, "the client reads other plaintext");
        assert!(reference.2 == cut.2, "the SSM is handed other pairs");
        assert_eq!(cut.0, reqs.bytes);
        let checked = reqs.bytes.windows(13).any(|w| w == b"Libseal-Check");
        if !checked {
            assert!(
                cut.1 == rsps.bytes,
                "an unchecked response is forwarded as written"
            );
        }
    });
}
