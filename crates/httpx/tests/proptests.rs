//! Property-based tests for HTTP and JSON parsing (deterministic
//! `plat::check` harness; same properties and case counts as the
//! original proptest suite).

use std::borrow::Cow;

use libseal_httpx::http::{
    frame_request, parse_request, parse_request_limited, parse_response, parse_response_limited,
    take_request, take_response, Limits, RecvBuf, Request, Response,
};
use libseal_httpx::json::Json;
use libseal_httpx::ParseError;
use plat::check::Gen;

/// An HTTP header token: `[A-Za-z][A-Za-z0-9-]{0,12}`.
fn token(g: &mut Gen) -> String {
    let first: Vec<u8> = (b'A'..=b'Z').chain(b'a'..=b'z').collect();
    let rest: Vec<u8> = (b'A'..=b'Z')
        .chain(b'a'..=b'z')
        .chain(b'0'..=b'9')
        .chain([b'-'])
        .collect();
    let mut s = String::new();
    s.push(*g.pick(&first) as char);
    s.push_str(&g.ascii_string(&rest, 0..13));
    s
}

plat::prop! {
    #![cases(48)]

    fn request_roundtrips(g) {
        let method = g.pick(&["GET", "POST", "PUT", "DELETE"]).to_string();
        let path = {
            let charset: Vec<u8> = (b'a'..=b'z').chain(b'0'..=b'9').chain([b'/']).collect();
            format!("/{}", g.ascii_string(&charset, 0..21))
        };
        let headers: Vec<(String, String)> = (0..g.usize_in(0..6))
            .map(|_| {
                let v = g.printable_ascii_except(b"\r\n", 0..21);
                (token(g), v)
            })
            .collect();
        let body = g.bytes(0..300);
        let mut req = Request::new(&method, &path, body.clone());
        for (n, v) in &headers {
            req.headers.insert(n.clone(), v.trim().to_string());
        }
        let bytes = req.to_bytes();
        let (parsed, used) = parse_request(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(parsed.method, method);
        assert_eq!(parsed.body, body);
        for (n, v) in &headers {
            assert_eq!(parsed.headers.get(n).unwrap(), v.trim());
        }
    }

    fn response_roundtrips(g) {
        let status = g.u16_in(100..600);
        let body = g.bytes(0..300);
        let rsp = Response::new(status, body.clone());
        let bytes = rsp.to_bytes();
        let (parsed, used) = parse_response(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(parsed.status, status);
        assert_eq!(parsed.body, body);
    }

    fn truncation_is_incomplete_never_wrong(g) {
        let body = g.bytes(0..200);
        let cut_ratio = g.f64_in(0.0, 1.0);
        let req = Request::new("POST", "/x", body);
        let bytes = req.to_bytes();
        let cut = ((bytes.len() - 1) as f64 * cut_ratio) as usize;
        match parse_request(&bytes[..cut]) {
            Err(ParseError::Incomplete) => {}
            Ok((parsed, used)) => {
                // A prefix that parses must be a strictly valid message
                // (possible when the body is truncated at its declared
                // length boundary — but then used <= cut).
                assert!(used <= cut);
                assert_eq!(parsed.method, "POST");
            }
            Err(e) => panic!("prefix misparsed: {e}"),
        }
    }

    fn frames_borrow_plain_bodies_and_dechunk_on_demand(g) {
        let body = g.bytes(0..300);
        let plain = Request::new("POST", "/x?k=v", body.clone()).to_bytes();
        let frame = frame_request(&plain, &Limits::default()).unwrap();
        assert_eq!((frame.method(), frame.path(), frame.query_param("k")), ("POST", "/x", Some("v")));
        assert!(matches!(frame.body(), Cow::Borrowed(b) if b == &body[..]));
        // The same body in chunks of random sizes: framed without being
        // decoded, de-chunked when asked, and the owning parser agrees.
        let mut chunked = b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec();
        let mut rest = &body[..];
        while !rest.is_empty() {
            let n = g.usize_in(1..rest.len() + 1);
            chunked.extend_from_slice(format!("{n:x}\r\n").as_bytes());
            chunked.extend_from_slice(&rest[..n]);
            chunked.extend_from_slice(b"\r\n");
            rest = &rest[n..];
        }
        chunked.extend_from_slice(b"0\r\n\r\nNEXT");
        let frame = frame_request(&chunked, &Limits::default()).unwrap();
        assert_eq!(frame.len, chunked.len() - 4);
        assert_eq!(&*frame.body(), &body[..]);
        assert_eq!(parse_request(&chunked).unwrap().0.body, body);
        let cut = g.usize_in(0..frame.len);
        assert_eq!(frame_request(&chunked[..cut], &Limits::default()).unwrap_err(), ParseError::Incomplete);
    }

    fn arbitrary_bytes_never_panic(g) {
        let bytes = g.bytes(0..400);
        let _ = parse_request(&bytes);
        let _ = parse_response(&bytes);
        let _ = Json::parse_bytes(&bytes);
    }

    fn json_roundtrips_nested(g) {
        let pairs: std::collections::BTreeMap<String, Json> = (0..g.usize_in(0..8))
            .map(|_| {
                let key = g.lowercase(1..9);
                let value = match g.usize_in(0..4) {
                    0 => Json::Number(g.u32() as i32 as f64),
                    1 => Json::Bool(g.bool()),
                    2 => Json::String(g.printable_ascii_except(b"\"\\", 0..17)),
                    _ => Json::Null,
                };
                (key, value)
            })
            .collect();
        let obj = Json::Object(pairs.into_iter().collect());
        let text = obj.to_string();
        assert_eq!(Json::parse(&text).unwrap(), obj);
    }

    fn json_strings_with_any_unicode(g) {
        let s = g.unicode_string(0..41);
        let j = Json::String(s.clone());
        let parsed = Json::parse(&j.to_string()).unwrap();
        assert_eq!(parsed.as_str(), Some(s.as_str()));
    }
}

/// `body` sent chunked, in chunks of random sizes.
fn chunked(g: &mut Gen, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut rest = body;
    while !rest.is_empty() {
        let n = g.usize_in(1..rest.len() + 1);
        out.extend_from_slice(format!("{n:x}\r\n").as_bytes());
        out.extend_from_slice(&rest[..n]);
        out.extend_from_slice(b"\r\n");
        rest = &rest[n..];
    }
    out.extend_from_slice(b"0\r\n\r\n");
    out
}

/// A request or response (`Content-Length` or chunked body, of either
/// side of the head's size), then a pipelined tail: nothing, bytes, or
/// the front of another message, so the body is sometimes the larger
/// part of the buffer and sometimes not.
fn message_and_tail(g: &mut Gen, request: bool) -> Vec<u8> {
    let most = *g.pick(&[8, 300, 4000]);
    let body = g.bytes(0..most);
    let head = if request {
        format!("POST /up?n={} HTTP/1.1\r\nHost: h\r\n", body.len())
    } else {
        format!("HTTP/1.1 {} Whatever\r\nX-A: b\r\n", g.u16_in(100..600))
    };
    let mut wire = head.into_bytes();
    if g.bool() {
        wire.extend_from_slice(b"Transfer-Encoding: chunked\r\n\r\n");
        wire.extend_from_slice(&chunked(g, &body));
    } else {
        wire.extend_from_slice(format!("Content-Length: {}\r\n\r\n", body.len()).as_bytes());
        wire.extend_from_slice(&body);
    }
    match g.usize_in(0..3) {
        0 => {}
        1 => wire.extend_from_slice(&g.bytes(0..5000)),
        _ => wire.extend_from_slice(&Request::new("GET", "/next", g.bytes(0..50)).to_bytes()),
    }
    wire
}

plat::prop! {
    #![cases(200)]

    fn take_request_is_parse_request_limited_and_keeps_the_rest(g) {
        let wire = message_and_tail(g, true);
        let limits = Limits::default();
        // Every prefix: the same verdict, and a buffer that is cut
        // exactly where the owning parser says the message ends.
        for cut in [g.usize_in(0..wire.len() + 1), wire.len()] {
            let mut buf = wire[..cut].to_vec();
            match (parse_request_limited(&wire[..cut], &limits), take_request(&mut buf, &limits)) {
                (Ok((parsed, used)), Ok(taken)) => {
                    assert_eq!(taken, parsed);
                    assert_eq!(buf, &wire[used..cut]);
                }
                (Err(a), Err(b)) => {
                    assert_eq!(a, b);
                    assert_eq!(buf, &wire[..cut], "a failed take leaves the buffer");
                }
                (a, b) => panic!("parse {a:?}, take {b:?}"),
            }
        }
    }

    fn take_response_is_parse_response_and_keeps_the_rest(g) {
        let wire = message_and_tail(g, false);
        let limits = Limits::default();
        for cut in [g.usize_in(0..wire.len() + 1), wire.len()] {
            let mut buf = wire[..cut].to_vec();
            match (parse_response_limited(&wire[..cut], &limits), take_response(&mut buf, &limits)) {
                (Ok((parsed, used)), Ok(taken)) => {
                    assert_eq!(taken, parsed);
                    assert_eq!(buf, &wire[used..cut]);
                }
                (Err(a), Err(b)) => {
                    assert_eq!(a, b);
                    assert_eq!(buf, &wire[..cut]);
                }
                (a, b) => panic!("parse {a:?}, take {b:?}"),
            }
        }
        assert_eq!(parse_response(&wire).map(|(r, _)| r), take_response(&mut wire.clone(), &limits));
    }

    fn receiving_in_pieces_holds_the_concatenation(g) {
        let request = g.bool();
        let wire = message_and_tail(g, request);
        let mut buf = RecvBuf::default();
        let (mut at, mut gathers) = (0, 0);
        while at < wire.len() {
            let n = g.usize_in(1..wire.len() - at + 1);
            gathers += usize::from(buf.push(wire[at..at + n].to_vec(), &Limits::default()));
            at += n;
            // All that arrived is held, its front contiguous.
            assert_eq!(buf.len(), at);
            assert!(wire[..at].starts_with(buf.front()));
        }
        // The message at the front is whole, so all of it is contiguous,
        // gathered at most once.
        assert_eq!(buf.front(), &wire[..]);
        assert!(gathers <= 1, "gathered {gathers} times");
        // And it is cut off as the owning parser reads it.
        let limits = Limits::default();
        let used = if request {
            let (parsed, used) = parse_request_limited(&wire, &limits).unwrap();
            assert_eq!(buf.take_request(&limits).unwrap(), parsed);
            used
        } else {
            let (parsed, used) = parse_response_limited(&wire, &limits).unwrap();
            assert_eq!(buf.take_response(&limits).unwrap(), parsed);
            used
        };
        assert_eq!(buf.front(), &wire[used..]);
    }
}
