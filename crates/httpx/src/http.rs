//! HTTP/1.1 request/response parsing and serialization.
//!
//! Supports `Content-Length` and chunked bodies, header iteration with
//! case-insensitive lookup, and incremental parsing from a byte buffer
//! (returning [`ParseError::Incomplete`] until a full message is
//! available) — what a TLS-terminating audit shim needs to cut message
//! boundaries out of a stream.
//!
//! There is one parser: [`frame_request`] / [`frame_response`] frame a
//! message where it lies ([`Frame`]) without allocating, the owning
//! [`parse_request`] / [`parse_response`] copy a frame out, and
//! [`take_request`] / [`take_response`] cut one off a receive buffer
//! ([`RecvBuf`]), moving its body out instead of copying it. A message is written as
//! its head ([`Request::head_bytes`]) followed by its body, never
//! re-serialised into one buffer on the serving path.

use std::borrow::Cow;
use std::fmt::Write;
use std::ops::Range;

use crate::{ParseError, Result};

/// An ordered multimap of HTTP headers with case-insensitive lookup.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HeaderMap {
    entries: Vec<(String, String)>,
}

impl HeaderMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a header.
    pub fn insert(&mut self, name: impl Into<String>, value: impl Into<String>) {
        self.entries.push((name.into(), value.into()));
    }

    /// First value of `name`, case-insensitive.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.entries
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Removes all values of `name`; returns whether any were present.
    pub fn remove(&mut self, name: &str) -> bool {
        let before = self.entries.len();
        self.entries.retain(|(n, _)| !n.eq_ignore_ascii_case(name));
        before != self.entries.len()
    }

    /// Replaces any existing values of `name` with one `value`.
    pub fn set(&mut self, name: &str, value: impl Into<String>) {
        self.remove(name);
        self.insert(name.to_string(), value);
    }

    /// Iterates over `(name, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.entries.iter().map(|(n, v)| (n.as_str(), v.as_str()))
    }

    /// Number of headers.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// An HTTP request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Method (GET, POST, ...).
    pub method: String,
    /// Request target (path + query).
    pub target: String,
    /// Protocol version (e.g. "HTTP/1.1").
    pub version: String,
    /// Headers.
    pub headers: HeaderMap,
    /// Body bytes (already de-chunked).
    pub body: Vec<u8>,
}

impl Request {
    /// Builds a request with a body, setting `Content-Length`.
    pub fn new(method: &str, target: &str, body: Vec<u8>) -> Request {
        let mut headers = HeaderMap::new();
        headers.insert("Content-Length", body.len().to_string());
        Request {
            method: method.to_string(),
            target: target.to_string(),
            version: "HTTP/1.1".to_string(),
            headers,
            body,
        }
    }

    /// Path portion of the target (before `?`).
    pub fn path(&self) -> &str {
        path_of(&self.target)
    }

    /// Value of a query parameter, if present.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        query_param_of(&self.target, key)
    }

    /// The start line and header section, up to and including the blank
    /// line: what goes on the wire ahead of [`Request::body`].
    pub fn head_bytes(&self) -> Vec<u8> {
        let start = [&*self.method, &*self.target, &*self.version];
        head_bytes(start, &self.headers)
    }

    /// Serializes to wire format: the head, then the body.
    pub fn to_bytes(&self) -> Vec<u8> {
        [&self.head_bytes()[..], &self.body].concat()
    }
}

/// An HTTP response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    /// Protocol version.
    pub version: String,
    /// Status code.
    pub status: u16,
    /// Reason phrase.
    pub reason: String,
    /// Headers.
    pub headers: HeaderMap,
    /// Body bytes (already de-chunked).
    pub body: Vec<u8>,
}

impl Response {
    /// Builds a response with a body, setting `Content-Length`.
    pub fn new(status: u16, body: Vec<u8>) -> Response {
        let mut headers = HeaderMap::new();
        headers.insert("Content-Length", body.len().to_string());
        Response {
            version: "HTTP/1.1".to_string(),
            status,
            reason: reason_for(status).to_string(),
            headers,
            body,
        }
    }

    /// The status line and header section, up to and including the
    /// blank line: what goes on the wire ahead of [`Response::body`].
    pub fn head_bytes(&self) -> Vec<u8> {
        let status = self.status.to_string();
        head_bytes([&self.version, &status, &self.reason], &self.headers)
    }

    /// Serializes to wire format: the head, then the body.
    pub fn to_bytes(&self) -> Vec<u8> {
        [&self.head_bytes()[..], &self.body].concat()
    }
}

/// A start line's three fields and the header lines, then the blank
/// line.
fn head_bytes(start: [&str; 3], headers: &HeaderMap) -> Vec<u8> {
    let [a, b, c] = start;
    let mut out = format!("{a} {b} {c}\r\n");
    for (n, v) in headers.iter() {
        let _ = write!(out, "{n}: {v}\r\n");
    }
    out.push_str("\r\n");
    out.into_bytes()
}

fn reason_for(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        204 => "No Content",
        301 => "Moved Permanently",
        302 => "Found",
        304 => "Not Modified",
        400 => "Bad Request",
        401 => "Unauthorized",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Parser limits against hostile peers: bounds on what a single
/// message may make the server buffer before the parser gives a typed
/// rejection ([`ParseError::HeadTooLarge`] / [`TooManyHeaders`] /
/// [`BodyTooLarge`]) instead of [`ParseError::Incomplete`].
///
/// [`TooManyHeaders`]: ParseError::TooManyHeaders
/// [`BodyTooLarge`]: ParseError::BodyTooLarge
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Limits {
    /// Longest header section (start line + headers + CRLFCRLF).
    pub max_head_bytes: usize,
    /// Most header lines in one message.
    pub max_headers: usize,
    /// Largest body, declared (Content-Length) or accumulated
    /// (chunked).
    pub max_body_bytes: usize,
}

impl Default for Limits {
    fn default() -> Limits {
        Limits {
            max_head_bytes: 64 * 1024,
            max_headers: 128,
            max_body_bytes: 64 * 1024 * 1024,
        }
    }
}

impl Limits {
    /// No bounds at all: every limit error becomes `Incomplete`
    /// again. For observers of already-admitted traffic (the audit
    /// pipeline), which must parse whatever the serving edge accepted
    /// and enforce their own memory bound instead.
    pub const fn unlimited() -> Limits {
        Limits {
            max_head_bytes: usize::MAX,
            max_headers: usize::MAX,
            max_body_bytes: usize::MAX,
        }
    }
}

/// Whether `buf` holds a complete header section (the CRLFCRLF
/// delimiter has arrived). Lets servers distinguish a peer still
/// sending headers from one streaming a body, without parsing.
pub fn head_complete(buf: &[u8]) -> bool {
    find_double_crlf(buf).is_some()
}

/// Attempts to parse one request from the front of `buf`; on success
/// returns the request and the number of bytes consumed.
///
/// # Errors
///
/// [`ParseError::Incomplete`] until a full message is buffered;
/// [`ParseError::Malformed`] when the bytes can never become one.
pub fn parse_request(buf: &[u8]) -> Result<(Request, usize)> {
    parse_request_limited(buf, &Limits::default())
}

/// [`parse_request`] with explicit [`Limits`].
///
/// # Errors
///
/// As [`parse_request`], plus the typed limit rejections.
pub fn parse_request_limited(buf: &[u8], limits: &Limits) -> Result<(Request, usize)> {
    let frame = frame_request(buf, limits)?;
    Ok((request_of(&frame, frame.body().into_owned()), frame.len))
}

/// Attempts to parse one response from the front of `buf`.
///
/// # Errors
///
/// As [`parse_request`].
pub fn parse_response(buf: &[u8]) -> Result<(Response, usize)> {
    parse_response_limited(buf, &Limits::default())
}

/// [`parse_response`] with explicit [`Limits`].
///
/// # Errors
///
/// As [`parse_response`], plus the typed limit rejections.
pub fn parse_response_limited(buf: &[u8], limits: &Limits) -> Result<(Response, usize)> {
    let frame = frame_response(buf, limits)?;
    Ok((response_of(&frame, frame.body().into_owned()), frame.len))
}

/// Cuts one request off the front of `buf`, a receive buffer: the head
/// is parsed as by [`parse_request_limited`], a `Content-Length` body is
/// moved out of `buf` (shifted in place, not copied into a new
/// allocation) and a chunked one de-chunked once, and `buf` keeps
/// exactly the bytes after the message.
///
/// # Errors
///
/// As [`parse_request_limited`]; `buf` is left as it was.
pub fn take_request(buf: &mut Vec<u8>, limits: &Limits) -> Result<Request> {
    let frame = frame_request(buf, limits)?;
    let (mut req, body) = (request_of(&frame, Vec::new()), frame.body_at());
    req.body = body.take(buf);
    Ok(req)
}

/// Cuts one response off the front of `buf`, as [`take_request`] cuts a
/// request.
///
/// # Errors
///
/// As [`parse_response_limited`]; `buf` is left as it was.
pub fn take_response(buf: &mut Vec<u8>, limits: &Limits) -> Result<Response> {
    let frame = frame_response(buf, limits)?;
    let (mut rsp, body) = (response_of(&frame, Vec::new()), frame.body_at());
    rsp.body = body.take(buf);
    Ok(rsp)
}

/// The request a frame holds, with `body`.
fn request_of(frame: &Frame<'_>, body: Vec<u8>) -> Request {
    let [method, target, version] = frame.start.map(str::to_string);
    let headers = frame.owned_headers();
    Request {
        method,
        target,
        version,
        headers,
        body,
    }
}

/// The response a frame holds, with `body`.
fn response_of(frame: &Frame<'_>, body: Vec<u8>) -> Response {
    Response {
        version: frame.start[0].to_string(),
        status: frame.status(),
        reason: frame.start[2].to_string(),
        headers: frame.owned_headers(),
        body,
    }
}

/// The length of the message at the front of `buf` as its head declares
/// it: `Some` once a head within `limits` has arrived whose body is
/// framed by a `Content-Length` within them (or has none), `None` before
/// that and for a chunked body, whose length nothing declares.
fn declared_len(buf: &[u8], limits: &Limits) -> Option<usize> {
    let head = scan_head(buf, limits).ok()?;
    if head.chunked() {
        return None;
    }
    let len = head.content_length(limits).ok()?;
    head.body_start.checked_add(len)
}

/// A receive buffer: the bytes of a stream from the message at its
/// front on, never more than have arrived. Once that message's head is
/// in and declares a `Content-Length` the bytes held do not reach yet,
/// the pieces that follow are kept as they came; the piece that
/// completes the message gathers them into one buffer of exactly what is
/// held. A body arriving in pieces is thus copied once, into a buffer
/// sized once, and nothing is reserved ahead of its bytes: a peer that
/// declares a body and sends none makes the buffer hold the head alone.
/// A message that declares no length (chunked) grows the buffer as `Vec`
/// does.
#[derive(Debug, Default)]
pub struct RecvBuf {
    /// The front of what is held, contiguous: all of it, or the head
    /// and the first bytes of a body that is still owed.
    front: Vec<u8>,
    /// The pieces that arrived after `front` while the body was owed.
    owed: Vec<Vec<u8>>,
    /// The bytes in `owed`.
    owed_len: usize,
}

impl RecvBuf {
    /// The bytes held.
    pub fn len(&self) -> usize {
        self.front.len() + self.owed_len
    }

    /// True when nothing is held.
    pub fn is_empty(&self) -> bool {
        self.front.is_empty()
    }

    /// The contiguous front of what is held: all of it, or, while a
    /// declared body is owed, the head and the body's first bytes.
    pub fn front(&self) -> &[u8] {
        &self.front
    }

    /// Appends `data`, which becomes the buffer when nothing is held.
    /// Returns true when this gathered a body that arrived in pieces
    /// into one buffer (the copy this type makes).
    pub fn push(&mut self, data: Vec<u8>, limits: &Limits) -> bool {
        if self.front.is_empty() {
            self.front = data;
            return false;
        }
        let held = self.len() + data.len();
        let owed = declared_len(&self.front, limits).filter(|&n| n > self.front.len());
        match owed {
            Some(n) if held < n => {
                self.owed_len += data.len();
                self.owed.push(data);
                false
            }
            Some(_) => {
                let mut whole = Vec::with_capacity(held);
                whole.extend_from_slice(&self.front);
                for piece in self.owed.drain(..).chain([data]) {
                    whole.extend_from_slice(&piece);
                }
                (self.front, self.owed_len) = (whole, 0);
                true
            }
            None => {
                self.front.extend_from_slice(&data);
                false
            }
        }
    }

    /// Cuts the request at the front off the buffer ([`take_request`]).
    ///
    /// # Errors
    ///
    /// As [`take_request`]; [`ParseError::Incomplete`] while a body is
    /// owed.
    pub fn take_request(&mut self, limits: &Limits) -> Result<Request> {
        take_request(&mut self.front, limits)
    }

    /// Cuts the response at the front off the buffer ([`take_response`]).
    ///
    /// # Errors
    ///
    /// As [`take_response`]; [`ParseError::Incomplete`] while a body is
    /// owed.
    pub fn take_response(&mut self, limits: &Limits) -> Result<Response> {
        take_response(&mut self.front, limits)
    }
}

/// Where a framed message's body is, to be taken out of the buffer once
/// the frame's borrow of it has ended.
enum BodyAt {
    /// A `Content-Length` body where it lies; the message ends with it.
    Wire(Range<usize>),
    /// A chunked body, de-chunked, and the length of the message.
    Decoded(Vec<u8>, usize),
}

impl BodyAt {
    /// Removes the message from the front of `buf`, leaving what follows
    /// it, and returns its body: when the body is the larger part, `buf`
    /// itself, the body shifted to its front in place (one memmove, no
    /// allocation) and what follows copied into a buffer of its own;
    /// copied out when it is not.
    fn take(self, buf: &mut Vec<u8>) -> Vec<u8> {
        let Range { start, end } = match self {
            BodyAt::Wire(range) => range,
            BodyAt::Decoded(body, len) => {
                buf.drain(..len);
                return body;
            }
        };
        if end - start <= buf.len() - end {
            let body = buf[start..end].to_vec();
            buf.drain(..end);
            return body;
        }
        let after = buf[end..].to_vec();
        buf.truncate(end);
        buf.drain(..start);
        std::mem::replace(buf, after)
    }
}

/// One message framed where it lies in a buffer: the head parsed into
/// borrowed fields, the body located but not copied. Framing allocates
/// nothing, so probing a buffer that does not hold a whole message yet
/// costs a scan; a chunked body is de-chunked only when [`Frame::body`]
/// asks for its bytes.
#[derive(Clone, Copy, Debug)]
pub struct Frame<'a> {
    /// The start line's three fields: method, target and version of a
    /// request; version, status code and reason of a response.
    pub start: [&'a str; 3],
    /// The header lines between the start line and the blank line.
    fields: &'a str,
    /// The body as it lies in the buffer, chunk framing included.
    wire_body: &'a [u8],
    /// The decoded size of a chunked body; `None` when `wire_body` is
    /// the body itself.
    chunked: Option<usize>,
    /// Bytes the whole message occupies at the front of the buffer.
    pub len: usize,
}

impl<'a> Frame<'a> {
    /// First value of `name`, case-insensitive.
    pub fn header(&self, name: &str) -> Option<&'a str> {
        header_of(self.fields, name)
    }

    /// The body: borrowed from the buffer, or de-chunked into a buffer
    /// of its own when it was sent chunked.
    pub fn body(&self) -> Cow<'a, [u8]> {
        let Some(size) = self.chunked else {
            return Cow::Borrowed(self.wire_body);
        };
        let mut out = Vec::with_capacity(size);
        // Framing walked these chunks already; the walk cannot fail.
        let _ = walk_chunks(self.wire_body, size, |data| out.extend_from_slice(data));
        Cow::Owned(out)
    }

    /// A request's method.
    pub fn method(&self) -> &'a str {
        self.start[0]
    }

    /// A request's path (the target before `?`).
    pub fn path(&self) -> &'a str {
        path_of(self.start[1])
    }

    /// A request's query parameter `key`, if present.
    pub fn query_param(&self, key: &str) -> Option<&'a str> {
        query_param_of(self.start[1], key)
    }

    /// A response's status code.
    pub fn status(&self) -> u16 {
        // `frame_response` admitted only a start line whose status parses.
        self.start[1].parse().unwrap_or(0)
    }

    fn owned_headers(&self) -> HeaderMap {
        let entries = headers_of(self.fields).map(|(n, v)| (n.to_string(), v.to_string()));
        HeaderMap {
            entries: entries.collect(),
        }
    }

    /// Where the body is in the framed buffer (decoded if chunked).
    fn body_at(&self) -> BodyAt {
        match self.chunked {
            Some(_) => BodyAt::Decoded(self.body().into_owned(), self.len),
            None => BodyAt::Wire(self.len - self.wire_body.len()..self.len),
        }
    }
}

/// Frames one request at the front of `buf` without copying it.
///
/// # Errors
///
/// As [`parse_request_limited`]: [`ParseError::Incomplete`] until the
/// whole message is buffered, the typed limit rejections, and
/// [`ParseError::Malformed`] when the bytes can never become one.
pub fn frame_request<'a>(buf: &'a [u8], limits: &Limits) -> Result<Frame<'a>> {
    frame(buf, limits, |line| {
        let mut parts = line.split_whitespace();
        let mut field = |what| {
            parts
                .next()
                .ok_or_else(|| ParseError::Malformed(format!("missing {what}")))
        };
        let start = [field("method")?, field("target")?, field("version")?];
        if !start[2].starts_with("HTTP/") {
            return Err(ParseError::Malformed(format!("bad version: {}", start[2])));
        }
        Ok(start)
    })
}

/// Frames one response at the front of `buf` without copying it.
///
/// # Errors
///
/// As [`frame_request`].
pub fn frame_response<'a>(buf: &'a [u8], limits: &Limits) -> Result<Frame<'a>> {
    frame(buf, limits, |line| {
        let mut parts = line.splitn(3, ' ');
        let version = parts.next().unwrap_or("");
        let status = parts
            .next()
            .filter(|s| s.parse::<u16>().is_ok())
            .ok_or_else(|| ParseError::Malformed("missing status".into()))?;
        Ok([version, status, parts.next().unwrap_or("")])
    })
}

/// A head checked against the limits, not yet split into its start
/// line's fields.
struct Head<'a> {
    line: &'a str,
    fields: &'a str,
    /// The first `Transfer-Encoding` and `Content-Length` values.
    te: Option<&'a str>,
    cl: Option<&'a str>,
    body_start: usize,
}

impl Head<'_> {
    fn chunked(&self) -> bool {
        let te = self.te.unwrap_or("").as_bytes();
        te.windows(7).any(|w| w.eq_ignore_ascii_case(b"chunked"))
    }

    /// The declared `Content-Length` (0 when absent), rejected past the
    /// body limit before a single body byte is buffered: waiting for
    /// `Incomplete` to resolve would grow the caller's buffer to the
    /// declared size first.
    fn content_length(&self, limits: &Limits) -> Result<usize> {
        let len: usize = match self.cl {
            Some(v) => v
                .parse()
                .map_err(|_| ParseError::Malformed("bad Content-Length".into()))?,
            None => 0,
        };
        if len > limits.max_body_bytes {
            return Err(ParseError::BodyTooLarge {
                limit: limits.max_body_bytes,
            });
        }
        Ok(len)
    }
}

/// Checks the head at the front of `buf` without copying it.
fn scan_head<'a>(buf: &'a [u8], limits: &Limits) -> Result<Head<'a>> {
    let Some(head_end) = find_double_crlf(buf) else {
        if buf.len() > limits.max_head_bytes {
            return Err(ParseError::HeadTooLarge {
                limit: limits.max_head_bytes,
            });
        }
        return Err(ParseError::Incomplete);
    };
    if head_end > limits.max_head_bytes {
        return Err(ParseError::HeadTooLarge {
            limit: limits.max_head_bytes,
        });
    }
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| ParseError::Malformed("head is not UTF-8".into()))?;
    let (line, fields) = head.split_once("\r\n").unwrap_or((head, ""));
    if line.is_empty() {
        return Err(ParseError::Malformed("empty start line".into()));
    }
    let (mut te, mut cl) = (None, None);
    for (n, line) in fields.split("\r\n").filter(|l| !l.is_empty()).enumerate() {
        if n >= limits.max_headers {
            return Err(ParseError::TooManyHeaders {
                limit: limits.max_headers,
            });
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(ParseError::Malformed(format!("bad header line: {line}")));
        };
        let (name, value) = (name.trim(), value.trim());
        if name.eq_ignore_ascii_case("Transfer-Encoding") {
            te.get_or_insert(value);
        } else if name.eq_ignore_ascii_case("Content-Length") {
            cl.get_or_insert(value);
        }
    }
    Ok(Head {
        line,
        fields,
        te,
        cl,
        body_start: head_end + 4,
    })
}

/// Frames the message at the front of `buf` whose start line `fields_of`
/// splits into its fields: checks the head without copying it, then
/// locates the body its header lines declare.
fn frame<'a>(
    buf: &'a [u8],
    limits: &Limits,
    fields_of: impl FnOnce(&'a str) -> Result<[&'a str; 3]>,
) -> Result<Frame<'a>> {
    let head = scan_head(buf, limits)?;
    let start = fields_of(head.line)?;
    let body_start = head.body_start;
    let frame = |wire_body, chunked, len| Frame {
        start,
        fields: head.fields,
        wire_body,
        chunked,
        len,
    };
    if head.chunked() {
        let rest = &buf[body_start..];
        let (size, used) = walk_chunks(rest, limits.max_body_bytes, |_| {})?;
        return Ok(frame(&rest[..used], Some(size), body_start + used));
    }
    let len = head.content_length(limits)?;
    // `body_start + len` wraps for attacker-supplied lengths near
    // usize::MAX, which would turn the bounds check below into a
    // panic on slicing.
    let body_end = body_start
        .checked_add(len)
        .ok_or_else(|| ParseError::Malformed("Content-Length overflows".into()))?;
    if buf.len() < body_end {
        return Err(ParseError::Incomplete);
    }
    Ok(frame(&buf[body_start..body_end], None, body_end))
}

fn find_double_crlf(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// The `(name, value)` pairs of header lines `frame` checked.
fn headers_of(fields: &str) -> impl Iterator<Item = (&str, &str)> {
    let pairs = fields.split("\r\n").filter_map(|l| l.split_once(':'));
    pairs.map(|(n, v)| (n.trim(), v.trim()))
}

fn header_of<'a>(fields: &'a str, name: &str) -> Option<&'a str> {
    let mut named = headers_of(fields).filter(|(n, _)| n.eq_ignore_ascii_case(name));
    named.next().map(|(_, v)| v)
}

fn path_of(target: &str) -> &str {
    target.split('?').next().unwrap_or(target)
}

fn query_param_of<'t>(target: &'t str, key: &str) -> Option<&'t str> {
    let q = target.split_once('?')?.1;
    q.split('&').find_map(|kv| {
        let (k, v) = kv.split_once('=')?;
        (k == key).then_some(v)
    })
}

/// Walks a chunked body at the front of `buf`, handing each chunk's
/// data to `each`, and rejects once the declared sizes pass `max_body`;
/// returns (decoded size, bytes the encoding occupies). Framing walks
/// with an `each` that does nothing, so an incomplete chunked body
/// costs a scan and no copy.
fn walk_chunks(buf: &[u8], max_body: usize, mut each: impl FnMut(&[u8])) -> Result<(usize, usize)> {
    let mut size_total = 0usize;
    let mut i = 0usize;
    loop {
        let line_end = buf[i..]
            .windows(2)
            .position(|w| w == b"\r\n")
            .ok_or(ParseError::Incomplete)?;
        let size_line = std::str::from_utf8(&buf[i..i + line_end])
            .map_err(|_| ParseError::Malformed("chunk size not UTF-8".into()))?;
        let size_str = size_line.split(';').next().unwrap_or("").trim();
        let size = usize::from_str_radix(size_str, 16)
            .map_err(|_| ParseError::Malformed(format!("bad chunk size: {size_str}")))?;
        i += line_end + 2;
        if size == 0 {
            // Trailer section: skip to final CRLF.
            if buf.len() < i + 2 {
                return Err(ParseError::Incomplete);
            }
            // Allow optional trailers ending with CRLF.
            if &buf[i..i + 2] == b"\r\n" {
                return Ok((size_total, i + 2));
            }
            let trailer_end = buf[i..]
                .windows(4)
                .position(|w| w == b"\r\n\r\n")
                .ok_or(ParseError::Incomplete)?;
            return Ok((size_total, i + trailer_end + 4));
        }
        // `i + size + 2` wraps for hex chunk sizes near usize::MAX —
        // a wrapped bound passes the length check and then panics on
        // slicing. Such a chunk can never be satisfied, so it is
        // malformed rather than incomplete.
        let data_end = i
            .checked_add(size)
            .and_then(|e| e.checked_add(2))
            .ok_or_else(|| ParseError::Malformed(format!("chunk size overflows: {size_str}")))?;
        // The declared chunk sizes bound the output even before the
        // data arrives — an endless chunk stream must not keep the
        // caller buffering forever.
        if size_total.saturating_add(size) > max_body {
            return Err(ParseError::BodyTooLarge { limit: max_body });
        }
        if buf.len() < data_end {
            return Err(ParseError::Incomplete);
        }
        if &buf[data_end - 2..data_end] != b"\r\n" {
            return Err(ParseError::Malformed("chunk not CRLF-terminated".into()));
        }
        each(&buf[i..data_end - 2]);
        size_total += size;
        i = data_end;
    }
}

/// Encodes `body` with chunked transfer encoding (single chunk).
pub fn encode_chunked(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + 16);
    out.extend_from_slice(format!("{:x}\r\n", body.len()).as_bytes());
    out.extend_from_slice(body);
    out.extend_from_slice(b"\r\n0\r\n\r\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let mut req = Request::new("POST", "/upload?x=1", b"hello".to_vec());
        req.headers.insert("Host", "example.com");
        let bytes = req.to_bytes();
        let (parsed, used) = parse_request(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(parsed.method, "POST");
        assert_eq!(parsed.path(), "/upload");
        assert_eq!(parsed.query_param("x"), Some("1"));
        assert_eq!(parsed.body, b"hello");
        assert_eq!(parsed.headers.get("host"), Some("example.com"));
    }

    #[test]
    fn response_roundtrip() {
        let mut rsp = Response::new(404, b"gone".to_vec());
        rsp.headers.insert("X-Test", "v");
        let bytes = rsp.to_bytes();
        let (parsed, used) = parse_response(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(parsed.status, 404);
        assert_eq!(parsed.reason, "Not Found");
        assert_eq!(parsed.body, b"gone");
    }

    #[test]
    fn incomplete_returns_incomplete() {
        let req = Request::new("GET", "/", Vec::new()).to_bytes();
        for cut in [1, 5, req.len() - 1] {
            assert_eq!(
                parse_request(&req[..cut]).unwrap_err(),
                ParseError::Incomplete,
                "cut={cut}"
            );
        }
    }

    #[test]
    fn body_split_across_reads() {
        let req = Request::new("POST", "/", vec![7u8; 100]).to_bytes();
        let head_len = req.len() - 50;
        assert_eq!(
            parse_request(&req[..head_len]).unwrap_err(),
            ParseError::Incomplete
        );
        let (parsed, _) = parse_request(&req).unwrap();
        assert_eq!(parsed.body.len(), 100);
    }

    #[test]
    fn pipelined_requests_consume_correctly() {
        let a = Request::new("GET", "/a", Vec::new()).to_bytes();
        let b = Request::new("GET", "/b", Vec::new()).to_bytes();
        let mut buf = a.clone();
        buf.extend_from_slice(&b);
        let (r1, used1) = parse_request(&buf).unwrap();
        assert_eq!(r1.target, "/a");
        let (r2, used2) = parse_request(&buf[used1..]).unwrap();
        assert_eq!(r2.target, "/b");
        assert_eq!(used1 + used2, buf.len());
    }

    #[test]
    fn chunked_body_decodes() {
        let raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n\
4\r\nWiki\r\n5\r\npedia\r\n0\r\n\r\n";
        let (rsp, used) = parse_response(raw).unwrap();
        assert_eq!(rsp.body, b"Wikipedia");
        assert_eq!(used, raw.len());
    }

    #[test]
    fn chunk_size_overflow_is_malformed() {
        // usize::MAX as a hex chunk size: `i + size + 2` would wrap to a
        // small in-bounds offset and mis-frame the stream.
        let raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n\
ffffffffffffffff\r\nxx";
        assert!(matches!(
            parse_response(raw).unwrap_err(),
            ParseError::Malformed(_)
        ));
        // Near-overflow sizes that survive the size parse must also be
        // rejected rather than wrapping at the `+ 2` trailer.
        let raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n\
fffffffffffffffe\r\nxx";
        assert!(matches!(
            parse_response(raw).unwrap_err(),
            ParseError::Malformed(_)
        ));
    }

    #[test]
    fn content_length_overflow_is_malformed() {
        // 2^64 - 1 parses into a usize but `body_start + len` overflows.
        // Under default limits the size cap fires first (BodyTooLarge);
        // with limits off the overflow guard must still hold.
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 18446744073709551615\r\n\r\nx";
        assert!(matches!(
            parse_request(raw).unwrap_err(),
            ParseError::BodyTooLarge { .. }
        ));
        assert!(matches!(
            parse_request_limited(raw, &Limits::unlimited()).unwrap_err(),
            ParseError::Malformed(_)
        ));
        // A huge-but-addable length is not an overflow: without a body
        // cap the buffer is just short, so the caller keeps reading.
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 1073741824\r\n\r\nx";
        assert_eq!(
            parse_request_limited(raw, &Limits::unlimited()).unwrap_err(),
            ParseError::Incomplete
        );
    }

    #[test]
    fn chunked_encode_decode_roundtrip() {
        let body = b"some body content";
        let encoded = encode_chunked(body);
        let mut decoded = Vec::new();
        let walked = walk_chunks(&encoded, usize::MAX, |d| decoded.extend_from_slice(d));
        assert_eq!(walked, Ok((body.len(), encoded.len())));
        assert_eq!(decoded, body);
    }

    #[test]
    fn malformed_rejected() {
        assert!(matches!(
            parse_request(b"NOT VALID\r\n\r\n"),
            Err(ParseError::Malformed(_))
        ));
        let bad_len = b"GET / HTTP/1.1\r\nContent-Length: abc\r\n\r\n";
        assert!(matches!(
            parse_request(bad_len),
            Err(ParseError::Malformed(_))
        ));
    }

    #[test]
    fn huge_headers_rejected() {
        let mut buf = b"GET / HTTP/1.1\r\n".to_vec();
        buf.extend(std::iter::repeat_n(b'a', 70 * 1024));
        let err = parse_request(&buf).unwrap_err();
        assert!(matches!(err, ParseError::HeadTooLarge { .. }));
        assert_eq!(err.close_status(), 431);
    }

    #[test]
    fn complete_but_oversized_head_rejected() {
        // The delimiter is present, but the head itself busts the
        // limit — must still be 431, not a parse.
        let limits = Limits {
            max_head_bytes: 64,
            ..Limits::default()
        };
        let mut buf = b"GET / HTTP/1.1\r\nX-Pad: ".to_vec();
        buf.extend(std::iter::repeat_n(b'a', 128));
        buf.extend_from_slice(b"\r\n\r\n");
        assert!(matches!(
            parse_request_limited(&buf, &limits),
            Err(ParseError::HeadTooLarge { limit: 64 })
        ));
    }

    #[test]
    fn too_many_headers_rejected() {
        let limits = Limits {
            max_headers: 4,
            ..Limits::default()
        };
        let mut buf = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..8 {
            buf.extend_from_slice(format!("X-H{i}: v\r\n").as_bytes());
        }
        buf.extend_from_slice(b"\r\n");
        let err = parse_request_limited(&buf, &limits).unwrap_err();
        assert!(matches!(err, ParseError::TooManyHeaders { limit: 4 }));
        assert_eq!(err.close_status(), 431);
        // Within the limit, the same message parses.
        let ok = Limits::default();
        assert!(parse_request_limited(&buf, &ok).is_ok());
    }

    #[test]
    fn oversized_declared_body_rejected_before_buffering() {
        let limits = Limits {
            max_body_bytes: 1024,
            ..Limits::default()
        };
        // Only the head has arrived; the declaration alone must
        // reject, not Incomplete into an attacker-sized buffer.
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 1048576\r\n\r\n";
        let err = parse_request_limited(raw, &limits).unwrap_err();
        assert!(matches!(err, ParseError::BodyTooLarge { limit: 1024 }));
        assert_eq!(err.close_status(), 413);
    }

    #[test]
    fn oversized_chunked_body_rejected() {
        let limits = Limits {
            max_body_bytes: 8,
            ..Limits::default()
        };
        let raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n\
4\r\nWiki\r\n5\r\npedia\r\n0\r\n\r\n";
        assert!(matches!(
            parse_response_limited(raw, &limits),
            Err(ParseError::BodyTooLarge { limit: 8 })
        ));
    }

    #[test]
    fn head_complete_tracks_delimiter() {
        assert!(!head_complete(b"GET / HTTP/1.1\r\nHost: x\r\n"));
        assert!(head_complete(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n"));
    }

    #[test]
    fn header_set_replaces() {
        let mut h = HeaderMap::new();
        h.insert("A", "1");
        h.insert("a", "2");
        h.set("A", "3");
        assert_eq!(h.get("a"), Some("3"));
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn no_body_without_length() {
        let raw = b"GET / HTTP/1.1\r\nHost: x\r\n\r\nEXTRA";
        let (req, used) = parse_request(raw).unwrap();
        assert!(req.body.is_empty());
        assert_eq!(&raw[used..], b"EXTRA");
    }
}
