//! HTTP/1.1 wire framing and a minimal JSON codec — no dependencies.
//!
//! This is the byte-level half of the HTTP front door
//! ([`crate::http`]): request parsing with **bounded** header/body
//! limits, response serialisation, and the JSON value type the endpoint
//! bodies use. The design constraints mirror the serving worker's no-tokio
//! style, plus one that only matters at a network boundary: **parsing
//! arbitrary bytes can never panic**. Every malformed input is a typed
//! [`WireError`] (the front door maps it to a `400`), every slow or
//! oversized input is a typed [`WireError::TimedOut`] /
//! [`WireError::TooLarge`] (`408` / `413`), and the JSON parser carries
//! an explicit recursion-depth cap so `[[[[…` from a hostile client
//! exhausts a counter, not the stack. `tests/http_chaos.rs` pins the
//! never-panics property with a fuzz-style proptest over random byte
//! streams.
//!
//! Framing is deliberately small: request-line + headers +
//! `Content-Length` bodies (no chunked transfer encoding, no HTTP/2),
//! which is exactly what `curl`, the bench load generator, and the
//! chaos client speak.

use crate::num;
use std::fmt::Write as _;
use std::io::{ErrorKind, IoSlice, Read, Write};
use std::time::Duration;

/// Byte budgets for one parsed request. Exceeding either limit is a
/// typed refusal ([`WireError::TooLarge`] → `413`), never unbounded
/// buffering.
#[derive(Clone, Copy, Debug)]
pub struct WireLimits {
    /// Most bytes the request line + headers may occupy.
    pub max_header_bytes: usize,
    /// Most bytes a declared `Content-Length` body may occupy.
    pub max_body_bytes: usize,
}

impl Default for WireLimits {
    fn default() -> WireLimits {
        WireLimits {
            max_header_bytes: 16 * 1024,
            max_body_bytes: 8 * 1024 * 1024,
        }
    }
}

/// Why a request could not be read off the wire. Every variant maps to
/// one HTTP status (or a silent close) in [`crate::http`] — a byte
/// stream can *never* hang the connection handler or panic it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The bytes are not a well-formed HTTP/1.1 request (bad request
    /// line, bad header syntax, unparseable `Content-Length`,
    /// unsupported framing). Mapped to `400`.
    Malformed(String),
    /// Headers or declared body exceed [`WireLimits`]. Mapped to `413`.
    TooLarge {
        /// What overflowed, for the error body.
        what: &'static str,
        /// The limit that was exceeded, in bytes.
        limit: usize,
    },
    /// The socket's read deadline expired mid-request (slow-loris or an
    /// idle keep-alive connection). Mapped to `408`.
    TimedOut,
    /// The peer closed the connection mid-request — there is nobody
    /// left to answer, the handler just closes.
    ConnectionClosed,
    /// A transport error other than a timeout (reset, broken pipe).
    /// The handler closes without answering.
    Io(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Malformed(why) => write!(f, "malformed request: {why}"),
            WireError::TooLarge { what, limit } => {
                write!(f, "{what} exceeds the {limit}-byte limit")
            }
            WireError::TimedOut => write!(f, "read deadline expired mid-request"),
            WireError::ConnectionClosed => write!(f, "peer closed the connection mid-request"),
            WireError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

/// One parsed HTTP request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Request method, uppercased as received (`GET`, `POST`, …).
    pub method: String,
    /// Request target path (query strings are kept verbatim).
    pub target: String,
    /// Headers in arrival order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The request body (`Content-Length` framing; empty if absent).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a header (name lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        find_header(&self.headers, name)
    }

    /// Whether the client asked to close the connection after this
    /// exchange (`Connection: close`).
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// A buffered request reader over one connection. Keep-alive leftovers
/// (bytes of the next request that arrived with the previous one) stay
/// in the buffer between [`read_request`](Self::read_request) calls.
pub struct RequestReader<R: Read> {
    inner: R,
    /// Bytes read off the stream and not yet consumed.
    buf: Vec<u8>,
}

impl<R: Read> RequestReader<R> {
    /// Wrap a byte stream (a `TcpStream` with its read deadline already
    /// set, or a byte slice in tests).
    pub fn new(inner: R) -> RequestReader<R> {
        RequestReader {
            inner,
            buf: Vec::new(),
        }
    }

    /// Pull more bytes from the stream into the buffer. `Ok(0)` is EOF.
    fn fill(&mut self) -> Result<usize, WireError> {
        let mut chunk = [0u8; 4096];
        loop {
            match self.inner.read(&mut chunk) {
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    return Ok(n);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(read_error(e)),
            }
        }
    }

    /// Read up to the blank line that ends a header block and return the
    /// head. The separator is consumed; bytes after it stay buffered.
    /// `Ok(None)` is EOF before any byte of a head.
    fn read_head(
        &mut self,
        limit: usize,
        what: &'static str,
    ) -> Result<Option<Vec<u8>>, WireError> {
        let too_large = WireError::TooLarge { what, limit };
        let end = loop {
            if let Some(end) = find_head_end(&self.buf) {
                break end;
            }
            if self.buf.len() > limit {
                return Err(too_large);
            }
            if self.fill()? == 0 {
                return if self.buf.is_empty() {
                    Ok(None)
                } else {
                    Err(WireError::ConnectionClosed)
                };
            }
        };
        if end.head_len > limit {
            return Err(too_large);
        }
        let head = self.buf[..end.head_len].to_vec();
        self.buf.drain(..end.head_len + end.sep_len);
        Ok(Some(head))
    }

    /// Read a `len`-byte body: the buffered bytes first, then straight
    /// from the stream into the body. It never reads past the body, so
    /// the next request's bytes stay unread, and the body's memory fills
    /// only as its bytes arrive.
    fn read_body(&mut self, len: usize) -> Result<Vec<u8>, WireError> {
        let buffered = len.min(self.buf.len());
        let mut body = Vec::with_capacity(len);
        body.extend_from_slice(&self.buf[..buffered]);
        self.buf.drain(..buffered);
        (&mut self.inner)
            .take((len - buffered) as u64)
            .read_to_end(&mut body)
            .map_err(read_error)?;
        if body.len() < len {
            return Err(WireError::ConnectionClosed);
        }
        Ok(body)
    }

    /// Read and parse one request. `Ok(None)` is a clean close: the peer
    /// hung up on a request boundary (no bytes of a next request seen).
    /// Everything else — partial request then EOF, limits, timeouts,
    /// garbage — is a typed [`WireError`].
    pub fn read_request(&mut self, limits: &WireLimits) -> Result<Option<Request>, WireError> {
        let Some(head) = self.read_head(limits.max_header_bytes, "request headers")? else {
            return Ok(None);
        };
        let mut request = parse_head(&head)?;
        let body_len = content_length(&request.headers)?;
        if body_len > limits.max_body_bytes {
            return Err(WireError::TooLarge {
                what: "request body",
                limit: limits.max_body_bytes,
            });
        }
        request.body = self.read_body(body_len)?;
        Ok(Some(request))
    }
}

/// A failed read, typed: an expired read deadline, or a transport error.
fn read_error(e: std::io::Error) -> WireError {
    match e.kind() {
        ErrorKind::WouldBlock | ErrorKind::TimedOut => WireError::TimedOut,
        _ => WireError::Io(e.to_string()),
    }
}

/// Where the header block ends: `head_len` bytes of head, then
/// `sep_len` bytes of blank-line separator.
struct HeadEnd {
    head_len: usize,
    sep_len: usize,
}

/// Find the end of the header block — `\r\n\r\n`, or a tolerated bare
/// `\n\n`.
fn find_head_end(bytes: &[u8]) -> Option<HeadEnd> {
    for i in 0..bytes.len() {
        if bytes[i] != b'\n' {
            continue;
        }
        if i + 1 < bytes.len() && bytes[i + 1] == b'\n' {
            return Some(HeadEnd {
                head_len: i + 1,
                sep_len: 1,
            });
        }
        if i + 2 < bytes.len() && bytes[i + 1] == b'\r' && bytes[i + 2] == b'\n' {
            return Some(HeadEnd {
                head_len: i + 1,
                sep_len: 2,
            });
        }
    }
    None
}

/// Parse the request line + headers (everything before the blank line).
fn parse_head(head: &[u8]) -> Result<Request, WireError> {
    let text = std::str::from_utf8(head)
        .map_err(|_| WireError::Malformed("headers are not valid UTF-8".into()))?;
    let mut lines = text.lines();
    let request_line = lines
        .next()
        .ok_or_else(|| WireError::Malformed("empty request".into()))?;
    let mut parts = request_line.split_ascii_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| WireError::Malformed("missing method".into()))?;
    let target = parts
        .next()
        .ok_or_else(|| WireError::Malformed("missing request target".into()))?;
    let version = parts
        .next()
        .ok_or_else(|| WireError::Malformed("missing HTTP version".into()))?;
    if parts.next().is_some() {
        return Err(WireError::Malformed("extra tokens on request line".into()));
    }
    if !version.starts_with("HTTP/1.") {
        return Err(WireError::Malformed(format!(
            "unsupported protocol version {version:?}"
        )));
    }
    if !method.bytes().all(|b| b.is_ascii_uppercase()) || method.is_empty() {
        return Err(WireError::Malformed(format!("bad method {method:?}")));
    }
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| WireError::Malformed(format!("header line without colon: {line:?}")))?;
        if name.is_empty() || name.contains(' ') {
            return Err(WireError::Malformed(format!("bad header name {name:?}")));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }
    Ok(Request {
        method: method.to_string(),
        target: target.to_string(),
        headers,
        body: Vec::new(),
    })
}

/// First value of header `name` (lowercase), if present.
fn find_header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

/// The declared body length of a request or response. Chunked transfer
/// encoding is not supported (typed refusal, not a misframed read).
/// Every `Content-Length` field must be digits only (RFC 9110 §8.6), and
/// all of them must give the same length (RFC 9112 §6.3): a message that
/// disagrees with itself cannot be framed.
fn content_length(headers: &[(String, String)]) -> Result<usize, WireError> {
    if find_header(headers, "transfer-encoding")
        .is_some_and(|v| !v.eq_ignore_ascii_case("identity"))
    {
        return Err(WireError::Malformed(
            "chunked transfer encoding is not supported".into(),
        ));
    }
    let mut declared = None;
    for (_, v) in headers.iter().filter(|(k, _)| k == "content-length") {
        let bad = || WireError::Malformed(format!("bad content-length {v:?}"));
        // `usize::from_str` alone would also take a leading `+`.
        if !v.bytes().all(|b| b.is_ascii_digit()) {
            return Err(bad());
        }
        let len = v.parse::<usize>().map_err(|_| bad())?;
        if declared.is_some_and(|first| first != len) {
            return Err(WireError::Malformed(
                "content-length fields disagree".into(),
            ));
        }
        declared = Some(len);
    }
    Ok(declared.unwrap_or(0))
}

/// Standard reason phrase for the status codes the front door emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        410 => "Gone",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Response",
    }
}

/// Serialise one response. `retry_after` adds a `Retry-After` header
/// (the transient-shed contract `retry::with_backoff` keys on);
/// `close` adds `Connection: close`.
pub fn write_response(
    w: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &[u8],
    retry_after: Option<Duration>,
    close: bool,
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\n",
        reason(status),
        body.len()
    );
    if let Some(after) = retry_after {
        let _ = write!(head, "retry-after: {}\r\n", after.as_secs().max(1));
    }
    if close {
        head.push_str("connection: close\r\n");
    }
    head.push_str("\r\n");
    write_message(w, head.as_bytes(), body)
}

/// Send one HTTP message, `head` then `body`, and flush. The two go out
/// as one vectored write when the writer takes them (one segment on a
/// socket, not two), and the body is never copied.
pub(crate) fn write_message(w: &mut impl Write, head: &[u8], body: &[u8]) -> std::io::Result<()> {
    let mut parts = [IoSlice::new(head), IoSlice::new(body)];
    let mut parts = &mut parts[..];
    // Drop empty parts up front, so an empty message writes nothing.
    IoSlice::advance_slices(&mut parts, 0);
    while !parts.is_empty() {
        match w.write_vectored(parts) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    ErrorKind::WriteZero,
                    "failed to write whole message",
                ))
            }
            Ok(n) => IoSlice::advance_slices(&mut parts, n),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

/// A parsed HTTP response (the client half of the wire — the bench load
/// generator, the chaos harness, and [`crate::http::HttpClient`] read
/// responses through this).
#[derive(Clone, Debug)]
pub struct Response {
    /// The status code from the status line.
    pub status: u16,
    /// Headers in arrival order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The response body.
    pub body: Vec<u8>,
}

impl Response {
    /// First value of a header (name lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        find_header(&self.headers, name)
    }

    /// The `Retry-After` header in whole seconds, if present and numeric.
    pub fn retry_after(&self) -> Option<u64> {
        self.header("retry-after").and_then(|v| v.parse().ok())
    }
}

/// Read one response off a stream (same bounded, typed discipline as
/// the request path).
pub fn read_response(
    reader: &mut RequestReader<impl Read>,
    limits: &WireLimits,
) -> Result<Response, WireError> {
    let head = reader
        .read_head(limits.max_header_bytes, "response headers")?
        .ok_or(WireError::ConnectionClosed)?;
    let text = std::str::from_utf8(&head)
        .map_err(|_| WireError::Malformed("response headers are not valid UTF-8".into()))?;
    let mut lines = text.lines();
    let status_line = lines
        .next()
        .ok_or_else(|| WireError::Malformed("empty response".into()))?;
    let mut parts = status_line.split_ascii_whitespace();
    match parts.next() {
        Some(v) if v.starts_with("HTTP/1.") => {}
        other => return Err(WireError::Malformed(format!("bad status line: {other:?}"))),
    }
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| WireError::Malformed("bad status code".into()))?;
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| WireError::Malformed(format!("header line without colon: {line:?}")))?;
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }
    let body_len = content_length(&headers)?;
    if body_len > limits.max_body_bytes {
        return Err(WireError::TooLarge {
            what: "response body",
            limit: limits.max_body_bytes,
        });
    }
    Ok(Response {
        status,
        headers,
        body: reader.read_body(body_len)?,
    })
}

/// Deepest JSON nesting the parser follows before refusing — bounds the
/// recursion a hostile `[[[[…` body can force.
const MAX_JSON_DEPTH: usize = 64;

/// A JSON value — the endpoint body format of the HTTP front door.
///
/// Same shape as the bench artifact codec, plus a recursion-depth cap on
/// parsing (network bytes are hostile) and one number contract:
///
/// - **Numbers inside an array are `f32`.** Each parses correctly
///   rounded to `f32`, the value `str::parse::<f32>` gives, so no
///   f64 → f32 double rounding happens. An array whose items are all
///   numbers is one [`Json::F32Row`] node, and it renders each item as
///   shortest round-trip `f32` text (`-0.0` as `-0`), byte for byte the
///   text of core's `{}` / `{:e}`. Every finite `f32` therefore
///   crosses the wire with its bits intact, and so do `output` matrices
///   (the chaos harness asserts this end to end). In a mixed array the
///   numbers are [`Json::Num`] items holding those `f32` values.
/// - **Every other number is `f64`** ([`Json::Num`]): object fields such
///   as `d`, `ticket` and `sim_latency_s`, and a bare document.
/// - A number that is not finite at its width is refused: `1e39` inside
///   an array, `1e999` anywhere. So is any text outside RFC 8259's number
///   grammar, such as `+1`, `.5`, `1.` or `01`.
/// - Numbers render as shortest round-trip text at their width, in
///   exponent form (`1e-45`, `3.4028235e38`) outside
///   `1e-5 ≤ |x| < 1e16`, so no number's text runs past 24 bytes.
///
/// [`as_arr`](Self::as_arr) returns `None` on a numeric row; read one
/// with [`as_f32_row`](Self::as_f32_row) or
/// [`to_f32_row`](Self::to_f32_row).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (non-finite values render as `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array that is empty or holds an item that is not a number.
    Arr(Vec<Json>),
    /// A non-empty array of numbers, held as `f32` (non-finite items
    /// render as `null`).
    F32Row(Vec<f32>),
    /// An insertion-ordered object.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for an object literal.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Field lookup on objects; `None` for other variants or missing
    /// keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The items, if this is an [`Arr`](Json::Arr) (`None` on a numeric
    /// row).
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The numbers, if this is a numeric row or `[]`.
    pub fn as_f32_row(&self) -> Option<&[f32]> {
        match self {
            Json::F32Row(row) => Some(row),
            Json::Arr(items) if items.is_empty() => Some(&[]),
            _ => None,
        }
    }

    /// A row of `f32`s as a JSON array: a numeric row, or `[]` when
    /// `row` is empty, which is what parsing its rendering gives back.
    pub fn f32_row(row: &[f32]) -> Json {
        if row.is_empty() {
            Json::Arr(Vec::new())
        } else {
            Json::F32Row(row.to_vec())
        }
    }

    /// The numbers as an owned row (exact inverse of
    /// [`f32_row`](Self::f32_row)).
    pub fn to_f32_row(&self) -> Option<Vec<f32>> {
        self.as_f32_row().map(<[f32]>::to_vec)
    }

    /// Render compactly (single line, no trailing newline) — the wire
    /// format of request and response bodies.
    pub fn render(&self) -> String {
        String::from_utf8(self.render_bytes()).expect("JSON text is UTF-8")
    }

    /// [`render`](Self::render)'s text as bytes, ready for the wire.
    pub(crate) fn render_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.text_len_hint());
        self.write(&mut out);
        out
    }

    /// About the length of this value's text (a row number at its usual
    /// 12 bytes with its comma), so that a body renders into one
    /// allocation instead of a doubling series.
    fn text_len_hint(&self) -> usize {
        match self {
            Json::Null | Json::Bool(_) => 5,
            Json::Num(_) => 24,
            Json::Str(s) => s.len() + 2,
            Json::Arr(items) => {
                items.iter().map(Json::text_len_hint).sum::<usize>() + items.len() + 2
            }
            Json::F32Row(row) => 12 * row.len() + 2,
            Json::Obj(fields) => {
                let text: usize = fields
                    .iter()
                    .map(|(k, v)| k.len() + 4 + v.text_len_hint())
                    .sum();
                text + 2
            }
        }
    }

    fn write(&self, out: &mut Vec<u8>) {
        match self {
            Json::Null => out.extend_from_slice(b"null"),
            Json::Bool(b) => out.extend_from_slice(if *b { b"true" } else { b"false" }),
            Json::Num(x) => {
                if !x.is_finite() {
                    out.extend_from_slice(b"null");
                } else if *x == 0.0 && x.is_sign_negative() {
                    // The integer fast-path below would erase the sign
                    // of -0.0, breaking f32 bit-identity on the wire.
                    out.extend_from_slice(b"-0");
                } else if x.fract() == 0.0 && x.abs() < 1e15 {
                    let _ = write!(out, "{}", *x as i64);
                } else if (1e-5..1e16).contains(&x.abs()) {
                    let _ = write!(out, "{x}");
                } else {
                    // Plain decimal would run long here: `1e300` is 301
                    // digits.
                    let _ = write!(out, "{x:e}");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push(b'[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    item.write(out);
                }
                out.push(b']');
            }
            Json::F32Row(row) => {
                out.push(b'[');
                for (i, &x) in row.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    num::write_f32(out, x);
                }
                out.push(b']');
            }
            Json::Obj(fields) => {
                out.push(b'{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    write_escaped(out, k);
                    out.push(b':');
                    v.write(out);
                }
                out.push(b'}');
            }
        }
    }

    /// Parse a JSON document from raw bytes (must be UTF-8 and consume
    /// the whole input). Never panics: depth, syntax, and encoding
    /// errors are all `Err`.
    pub fn parse(bytes: &[u8]) -> Result<Json, String> {
        let text = std::str::from_utf8(bytes).map_err(|_| "body is not valid UTF-8".to_string())?;
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing content at byte {pos}"));
        }
        Ok(value)
    }
}

fn write_escaped(out: &mut Vec<u8>, s: &str) {
    out.push(b'"');
    // Every byte this escapes is ASCII, and no byte of a multi-byte
    // character is, so the bytes can be copied one by one.
    for &b in s.as_bytes() {
        match b {
            b'"' => out.extend_from_slice(b"\\\""),
            b'\\' => out.extend_from_slice(b"\\\\"),
            b'\n' => out.extend_from_slice(b"\\n"),
            b'\t' => out.extend_from_slice(b"\\t"),
            b'\r' => out.extend_from_slice(b"\\r"),
            b if b < 0x20 => {
                let _ = write!(out, "\\u{b:04x}");
            }
            b => out.push(b),
        }
    }
    out.push(b'"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected `{lit}` at byte {pos}", pos = *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    if depth > MAX_JSON_DEPTH {
        return Err(format!("nesting deeper than {MAX_JSON_DEPTH}"));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => expect(bytes, pos, "null").map(|_| Json::Null),
        Some(b't') => expect(bytes, pos, "true").map(|_| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|_| Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(Vec::new()));
            }
            // Numbers go straight into `row` until the first item that is
            // not a number. That item moves the row into `items`, once,
            // and the array continues as an `Arr`.
            let mut row = Vec::new();
            let mut items: Option<Vec<Json>> = None;
            loop {
                skip_ws(bytes, pos);
                if starts_number(bytes.get(*pos)) {
                    let x = num::scan::<f32>(bytes, pos)?;
                    match &mut items {
                        Some(items) => items.push(Json::Num(f64::from(x))),
                        None => row.push(x),
                    }
                } else {
                    let item = parse_value(bytes, pos, depth + 1)?;
                    items
                        .get_or_insert_with(|| {
                            row.drain(..).map(|x| Json::Num(f64::from(x))).collect()
                        })
                        .push(item);
                }
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(items.map_or(Json::F32Row(row), Json::Arr));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, ":")?;
                let value = parse_value(bytes, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(_) => num::scan::<f64>(bytes, pos).map(Json::Num),
    }
}

/// Whether a value starting at `b` is a number: what [`parse_value`]
/// hands to [`num::scan`].
fn starts_number(b: Option<&u8>) -> bool {
    !matches!(b, None | Some(b'n' | b't' | b'f' | b'"' | b'[' | b'{'))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}", pos = *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'u') => {
                        let mut code = hex4(bytes, *pos + 1)?;
                        *pos += 4;
                        if (0xD800..0xDC00).contains(&code) {
                            // A high surrogate and the escaped low one
                            // after it are one char.
                            let low = match bytes.get(*pos + 1..*pos + 3) {
                                Some(b"\\u") => hex4(bytes, *pos + 3)?,
                                _ => return Err(UNPAIRED.into()),
                            };
                            if !(0xDC00..0xE000).contains(&low) {
                                return Err(UNPAIRED.into());
                            }
                            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                            *pos += 6;
                        }
                        // A lone low surrogate is no char.
                        out.push(char::from_u32(code).ok_or(UNPAIRED)?);
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run up to the next quote or escape in one
                // piece. Both are ASCII, so the run of the validated
                // input ends on a char boundary.
                let start = *pos;
                while !matches!(bytes.get(*pos), None | Some(b'"' | b'\\')) {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?);
            }
        }
    }
}

const UNPAIRED: &str = "unpaired surrogate in \\u escape";

/// The code unit of the four hex digits at `bytes[at..]`, the digits of a
/// `\u` escape.
fn hex4(bytes: &[u8], at: usize) -> Result<u32, String> {
    let hex = bytes.get(at..at + 4).ok_or("truncated \\u escape")?;
    hex.iter().try_fold(0, |code, &b| {
        let digit = char::from(b)
            .to_digit(16)
            .ok_or("\\u escape without four hex digits")?;
        Ok(code << 4 | digit)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_bytes(bytes: &[u8]) -> Result<Option<Request>, WireError> {
        RequestReader::new(bytes).read_request(&WireLimits::default())
    }

    #[test]
    fn parses_a_plain_get() {
        let req = parse_bytes(b"GET /healthz HTTP/1.1\r\nhost: x\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.target, "/healthz");
        assert_eq!(req.header("host"), Some("x"));
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_a_post_with_body_and_keepalive_leftover() {
        let bytes =
            b"POST /v1/prefill HTTP/1.1\r\ncontent-length: 4\r\n\r\nabcdGET /healthz HTTP/1.1\r\n\r\n";
        let mut reader = RequestReader::new(&bytes[..]);
        let limits = WireLimits::default();
        let first = reader.read_request(&limits).unwrap().unwrap();
        assert_eq!(first.body, b"abcd");
        let second = reader.read_request(&limits).unwrap().unwrap();
        assert_eq!(second.target, "/healthz");
        assert!(reader.read_request(&limits).unwrap().is_none());
    }

    /// A stream that hands out at most seven bytes per `read`.
    struct Trickle<'a>(&'a [u8]);

    impl Read for Trickle<'_> {
        fn read(&mut self, dst: &mut [u8]) -> std::io::Result<usize> {
            let n = dst.len().min(self.0.len()).min(7);
            dst[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    #[test]
    fn bodies_are_read_in_place_and_never_past_their_end() {
        let body: Vec<u8> = (0..10_000u32).map(|i| b'a' + (i % 26) as u8).collect();
        let next = b"GET /healthz HTTP/1.1\r\n\r\n";
        let mut stream = b"POST /v1/prefill HTTP/1.1\r\ncontent-length: 10000\r\n\r\n".to_vec();
        stream.extend_from_slice(&body);
        stream.extend_from_slice(next);
        let limits = WireLimits::default();
        // The head's 4 KiB fill reads into the body; the rest of the body
        // is read straight into place, and not one byte past it.
        let mut rest = &stream[..];
        let first = RequestReader::new(&mut rest)
            .read_request(&limits)
            .unwrap()
            .unwrap();
        assert_eq!(first.body, body);
        assert_eq!(rest, next, "the next request's bytes stayed unread");
        // Short reads, split anywhere, frame the same two requests.
        let mut reader = RequestReader::new(Trickle(&stream));
        assert_eq!(reader.read_request(&limits).unwrap().unwrap().body, body);
        assert_eq!(
            reader.read_request(&limits).unwrap().unwrap().target,
            "/healthz"
        );
        assert!(reader.read_request(&limits).unwrap().is_none());
        // A body cut short is a typed close, not a short body.
        let cut = &stream[..stream.len() - next.len() - 1];
        assert_eq!(
            RequestReader::new(Trickle(cut))
                .read_request(&limits)
                .unwrap_err(),
            WireError::ConnectionClosed
        );
    }

    #[test]
    fn tolerates_bare_lf_line_endings() {
        let req = parse_bytes(b"GET / HTTP/1.1\nhost: x\n\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.target, "/");
    }

    #[test]
    fn clean_close_is_none_and_partial_close_is_typed() {
        assert!(parse_bytes(b"").unwrap().is_none());
        assert_eq!(
            parse_bytes(b"GET / HT").unwrap_err(),
            WireError::ConnectionClosed
        );
    }

    #[test]
    fn garbage_is_malformed_not_a_panic() {
        for bad in [
            &b"\x00\xff\xfe garbage\r\n\r\n"[..],
            b"GET\r\n\r\n",
            b"GET / SPDY/9\r\n\r\n",
            b"get / HTTP/1.1\r\n\r\n",
            b"GET / HTTP/1.1\r\nbad header line\r\n\r\n",
            b"POST / HTTP/1.1\r\ncontent-length: banana\r\n\r\n",
            b"POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n",
        ] {
            assert!(
                matches!(parse_bytes(bad), Err(WireError::Malformed(_))),
                "expected Malformed for {bad:?}"
            );
        }
    }

    #[test]
    fn oversized_header_and_body_are_typed() {
        let limits = WireLimits {
            max_header_bytes: 64,
            max_body_bytes: 8,
        };
        let huge = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(200));
        let err = RequestReader::new(huge.as_bytes())
            .read_request(&limits)
            .unwrap_err();
        assert!(matches!(
            err,
            WireError::TooLarge {
                what: "request headers",
                ..
            }
        ));
        let body = b"POST / HTTP/1.1\r\ncontent-length: 99\r\n\r\n";
        let err = RequestReader::new(&body[..])
            .read_request(&limits)
            .unwrap_err();
        assert!(matches!(
            err,
            WireError::TooLarge {
                what: "request body",
                ..
            }
        ));
    }

    #[test]
    fn response_roundtrip() {
        let mut out = Vec::new();
        write_response(
            &mut out,
            503,
            "application/json",
            br#"{"error":"overloaded"}"#,
            Some(Duration::from_secs(1)),
            true,
        )
        .unwrap();
        let mut reader = RequestReader::new(&out[..]);
        let resp = read_response(&mut reader, &WireLimits::default()).unwrap();
        assert_eq!(resp.status, 503);
        assert_eq!(resp.retry_after(), Some(1));
        assert_eq!(resp.header("connection"), Some("close"));
        assert_eq!(resp.body, br#"{"error":"overloaded"}"#);
    }

    /// A writer that takes at most seven bytes per call, across parts,
    /// and is interrupted before every other call.
    #[derive(Default)]
    struct Sip {
        got: Vec<u8>,
        calls: usize,
    }

    impl Write for Sip {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, parts: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.calls += 1;
            if self.calls % 2 == 1 {
                return Err(ErrorKind::Interrupted.into());
            }
            let mut room = 7;
            for part in parts {
                let n = part.len().min(room);
                self.got.extend_from_slice(&part[..n]);
                room -= n;
            }
            Ok(7 - room)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A writer whose every write takes nothing.
    struct Stuck;

    impl Write for Stuck {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Ok(0)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn messages_reach_a_short_writer_whole_and_a_stuck_one_is_an_error() {
        let body = br#"{"error":"overloaded"}"#;
        let mut sent = Vec::new();
        write_response(
            &mut sent,
            503,
            "application/json",
            body,
            Some(Duration::from_secs(1)),
            true,
        )
        .unwrap();
        let mut want = b"HTTP/1.1 503 Service Unavailable\r\ncontent-type: application/json\r\n\
            content-length: 22\r\nretry-after: 1\r\nconnection: close\r\n\r\n"
            .to_vec();
        want.extend_from_slice(body);
        assert_eq!(sent, want);
        let mut sip = Sip::default();
        write_response(
            &mut sip,
            503,
            "application/json",
            body,
            Some(Duration::from_secs(1)),
            true,
        )
        .unwrap();
        assert_eq!(sip.got, want);
        // Head and body of every length up to three short writes each,
        // empty ones included.
        let bytes: Vec<u8> = (0..44u8).collect();
        for head in 0..22 {
            for tail in 0..22 {
                let mut sip = Sip::default();
                write_message(&mut sip, &bytes[..head], &bytes[head..head + tail]).unwrap();
                assert_eq!(sip.got, &bytes[..head + tail]);
            }
        }
        let err = write_response(&mut Stuck, 200, "text/plain", b"x", None, false).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::WriteZero);
        let err = write_message(&mut Stuck, b"", b"x").unwrap_err();
        assert_eq!(err.kind(), ErrorKind::WriteZero);
        write_message(&mut Stuck, b"", b"").unwrap();
    }

    #[test]
    fn content_length_is_digits_only_and_one_value() {
        let limits = WireLimits::default();
        let request =
            |fields: &str| format!("POST / HTTP/1.1\r\n{fields}\r\nhelloGET / HTTP/1.1\r\n\r\n");
        let response = |fields: &str| format!("HTTP/1.1 200 OK\r\n{fields}\r\nhello");
        for bad in [
            "content-length: +5\r\n",
            "content-length: -5\r\n",
            "content-length: 5,5\r\n",
            "content-length: 5 5\r\n",
            "content-length: 0x5\r\n",
            "content-length: 5.0\r\n",
            "content-length:\r\n",
            "content-length: 99999999999999999999999\r\n",
            "content-length: 3\r\ncontent-length: 5\r\n",
            "content-length: 5\r\nhost: x\r\ncontent-length: 3\r\n",
            "content-length: 5\r\ncontent-length: +5\r\n",
        ] {
            assert!(
                matches!(
                    parse_bytes(request(bad).as_bytes()),
                    Err(WireError::Malformed(_))
                ),
                "request framed with {bad:?}"
            );
            let text = response(bad);
            let mut reader = RequestReader::new(text.as_bytes());
            assert!(
                matches!(
                    read_response(&mut reader, &limits),
                    Err(WireError::Malformed(_))
                ),
                "response framed with {bad:?}"
            );
        }
        for good in [
            "content-length: 5\r\n",
            "content-length: 0005\r\n",
            "content-length: 5\r\ncontent-length: 5\r\n",
            "Content-Length: 5\r\ncontent-length: 05\r\n",
        ] {
            let text = request(good);
            let mut reader = RequestReader::new(text.as_bytes());
            assert_eq!(
                reader.read_request(&limits).unwrap().unwrap().body,
                b"hello"
            );
            assert_eq!(reader.read_request(&limits).unwrap().unwrap().target, "/");
            let text = response(good);
            let mut reader = RequestReader::new(text.as_bytes());
            assert_eq!(read_response(&mut reader, &limits).unwrap().body, b"hello");
        }
    }

    fn assert_same_bits(want: &[f32], got: &[f32]) {
        assert_eq!(want.len(), got.len());
        for (a, b) in want.iter().zip(got) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a:e} came back as {b:e}");
        }
    }

    #[test]
    fn json_f32_rows_roundtrip_bit_identically() {
        let row: Vec<f32> = vec![
            0.1,
            -3.25e-8,
            1.0 / 3.0,
            123456.78,
            -0.0,
            0.0,
            f32::from_bits(1),            // smallest subnormal
            -f32::from_bits(0x007f_ffff), // largest subnormal
            f32::MIN_POSITIVE,
            f32::MAX,
            f32::MIN,
        ];
        let text = Json::f32_row(&row).render();
        assert!(text.starts_with("[0.1,"), "shortest f32 text: {text}");
        assert!(text.contains(",-0,0,"), "-0.0 keeps its sign: {text}");
        let back = Json::parse(text.as_bytes()).unwrap();
        assert_eq!(back, Json::f32_row(&row));
        assert_same_bits(&row, &back.to_f32_row().unwrap());
    }

    #[test]
    fn numeric_row_edge_cases_are_typed_or_round_trip_bit_exactly() {
        for bad in [
            "[1,]",
            "[-]",
            "[1e39]",
            "[-1e39]",
            "[1,1e39]",
            "[1e39,\"a\"]",
            "[\"a\",1e39]",
            "[1 2]",
            "[1,,2]",
            "[1",
        ] {
            assert!(Json::parse(bad.as_bytes()).is_err(), "accepted {bad}");
        }
        let mixed = Json::parse(br#"[1,"a"]"#).unwrap();
        assert_eq!(
            mixed,
            Json::Arr(vec![Json::Num(1.0), Json::Str("a".into())])
        );
        let nested = Json::parse(b"[1,[2]]").unwrap();
        assert_eq!(
            nested,
            Json::Arr(vec![Json::Num(1.0), Json::f32_row(&[2.0])])
        );
        // The numbers of a mixed array are f32 values too.
        assert_eq!(
            Json::parse(b"[0.1,null]").unwrap().as_arr().unwrap()[0],
            Json::Num(f64::from(0.1f32))
        );
        let neg_zero = Json::parse(b"[-0]").unwrap();
        assert_same_bits(&[-0.0], neg_zero.as_f32_row().unwrap());
        // `[]` is the empty row and the empty array at once.
        let empty = Json::parse(b"[]").unwrap();
        assert_eq!(empty, Json::f32_row(&[]));
        assert_eq!(empty.as_arr(), Some(&[][..]));
        assert_eq!(empty.to_f32_row(), Some(Vec::new()));
        // A numeric row is not an `Arr`; a ragged matrix parses, as
        // rows of two widths (the front door refuses it).
        assert_eq!(neg_zero.as_arr(), None);
        let ragged = Json::parse(b"[[1,2],[3]]").unwrap();
        let widths: Vec<usize> = ragged
            .as_arr()
            .unwrap()
            .iter()
            .map(|r| r.as_f32_row().unwrap().len())
            .collect();
        assert_eq!(widths, [2, 1]);
        // Scalars stay f64.
        assert_eq!(Json::parse(b"1e39").unwrap(), Json::Num(1e39));
        for doc in [mixed, nested, neg_zero, empty, ragged] {
            let text = doc.render();
            let back = Json::parse(text.as_bytes()).unwrap();
            assert_eq!(back, doc);
            assert_eq!(back.render(), text, "bits changed through {text}");
        }
    }

    /// Finite `f32` bit patterns of one sign per sweep chunk.
    const SWEEP_CHUNK: u32 = 1 << 16;

    /// Stride of the sweeps the debug profile runs in place of the
    /// exhaustive ones (about 10⁶ values each).
    const SWEEP_STRIDE: u32 = 4099;

    /// Every `stride`-th finite `f32` magnitude, with both signs, rendered
    /// a chunk at a time as one array by `render` and parsed back: the
    /// chunks `render` refused and the values whose bits changed.
    fn round_trip_sweep(
        stride: u32,
        render: impl Fn(&[f32]) -> Result<String, String> + Sync,
    ) -> Vec<String> {
        use rayon::prelude::*;
        let count = f32::INFINITY.to_bits().div_ceil(stride);
        let reports: Vec<Option<String>> = (0..count.div_ceil(SWEEP_CHUNK))
            .into_par_iter()
            .map(|c| {
                let first = c * SWEEP_CHUNK;
                let xs: Vec<f32> = (first..count.min(first + SWEEP_CHUNK))
                    .flat_map(|i| [i * stride, (i * stride) | 0x8000_0000])
                    .map(f32::from_bits)
                    .collect();
                let text = match render(&xs) {
                    Ok(text) => text,
                    Err(why) => return Some(why),
                };
                let doc = match Json::parse(text.as_bytes()) {
                    Ok(doc) => doc,
                    Err(why) => return Some(format!("chunk from {:e}: {why}", xs[0])),
                };
                let back = doc.as_f32_row().unwrap_or_default();
                if back.len() != xs.len() {
                    return Some(format!("chunk from {:e} is not a numeric row", xs[0]));
                }
                xs.iter()
                    .zip(back)
                    .find(|(a, b)| a.to_bits() != b.to_bits())
                    .map(|(a, b)| format!("{a:e} came back as {b:e}"))
            })
            .collect();
        reports.into_iter().flatten().collect()
    }

    /// Shortest round-trip `f32` text, as [`Json::f32_row`] renders it,
    /// refused unless it is byte for byte core's `{}` / `{:e}` text.
    fn f32_text(xs: &[f32]) -> Result<String, String> {
        let text = Json::f32_row(xs).render();
        let mut core = String::from("[");
        for (i, x) in xs.iter().enumerate() {
            if i > 0 {
                core.push(',');
            }
            let _ = if (1e-5..1e16).contains(&x.abs()) || *x == 0.0 {
                write!(core, "{x}")
            } else {
                write!(core, "{x:e}")
            };
        }
        core.push(']');
        if text == core {
            return Ok(text);
        }
        let (ours, theirs) = text
            .split(',')
            .zip(core.split(','))
            .find(|(a, b)| a != b)
            .unwrap_or(("the row", "another row"));
        Err(format!("rendered {ours} where core writes {theirs}"))
    }

    /// Shortest round-trip `f64` text of each value, as the wire rendered
    /// `f32`s before numeric rows (and as clients may still send them).
    fn f64_text(xs: &[f32]) -> Result<String, String> {
        Ok(Json::Arr(xs.iter().map(|&x| Json::Num(f64::from(x))).collect()).render())
    }

    /// Each value's text is core's, byte for byte, and reads back as the
    /// same bits.
    #[test]
    #[cfg_attr(debug_assertions, ignore)]
    fn every_finite_f32_round_trips_through_its_shortest_text() {
        let failures = round_trip_sweep(1, f32_text);
        assert!(failures.is_empty(), "{}", failures.join("\n"));
    }

    #[test]
    fn finite_f32s_round_trip_through_their_shortest_text_on_a_strided_sweep() {
        let failures = round_trip_sweep(SWEEP_STRIDE, f32_text);
        assert!(failures.is_empty(), "{}", failures.join("\n"));
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore)]
    fn every_finite_f32_round_trips_through_its_shortest_f64_text() {
        let failures = round_trip_sweep(1, f64_text);
        assert!(failures.is_empty(), "{}", failures.join("\n"));
    }

    #[test]
    fn finite_f32s_round_trip_through_their_shortest_f64_text_on_a_strided_sweep() {
        let failures = round_trip_sweep(SWEEP_STRIDE, f64_text);
        assert!(failures.is_empty(), "{}", failures.join("\n"));
    }

    #[test]
    fn a_4_mib_string_parses_in_linear_time() {
        let run = "aé\\n€".repeat(1 << 19); // 4 MiB of text with escapes
        let doc = format!("{{\"s\":\"{run}\"}}");
        let t0 = std::time::Instant::now();
        let parsed = Json::parse(doc.as_bytes()).unwrap();
        let elapsed = t0.elapsed();
        assert_eq!(
            parsed.get("s").and_then(Json::as_str),
            Some("aé\n€".repeat(1 << 19).as_str())
        );
        assert!(
            elapsed < Duration::from_secs(5),
            "a 4 MiB string took {elapsed:?} to parse"
        );
    }

    #[test]
    fn numbers_follow_the_rfc_8259_grammar() {
        for bad in [
            "[+1]",
            "[.5]",
            "[1.]",
            "[01]",
            "[-.5e-3]",
            "+1",
            "01",
            "-01",
            "00",
            "1e",
            "1e+",
            "[1E]",
            "--1",
            "[-]",
            "1.e5",
            "[0x10]",
            "[1e5.0]",
            "[Infinity]",
            "[NaN]",
            "-",
            ".",
        ] {
            assert!(Json::parse(bad.as_bytes()).is_err(), "accepted {bad}");
        }
        for (good, want) in [
            ("0", 0.0),
            ("-0", -0.0),
            ("10", 10.0),
            ("0.5", 0.5),
            ("-0.5e-3", -0.5e-3),
            ("1E+2", 100.0),
            ("1e5", 1e5),
            ("2.5E-1", 0.25),
        ] {
            let x = Json::parse(good.as_bytes()).unwrap().as_f64().unwrap();
            assert_eq!(x.to_bits(), f64::to_bits(want), "{good}");
            let row = Json::parse(format!("[{good},{good}]").as_bytes()).unwrap();
            assert_same_bits(row.as_f32_row().unwrap(), &[want as f32; 2]);
        }
    }

    #[test]
    fn unicode_escapes_take_four_hex_digits_and_pair_surrogates() {
        for (doc, want) in [
            (r#""\u0041""#, "A"),
            (r#""\u00e9\u20AC""#, "é€"),
            (r#""\ud83d\ude00""#, "😀"),
            (r#""a\uD83D\uDE00b""#, "a😀b"),
        ] {
            let parsed = Json::parse(doc.as_bytes()).unwrap();
            assert_eq!(parsed.as_str(), Some(want), "{doc}");
            assert_eq!(Json::parse(parsed.render().as_bytes()).unwrap(), parsed);
        }
        for bad in [
            r#""\u+041""#,
            r#""\u004""#,
            r#""\u004g""#,
            r#""\u 041""#,
            r#""\u""#,
            r#""\ud83d""#,
            r#""\ud83dx""#,
            r#""\ud83d\u0041""#,
            r#""\ud83d\ud83d""#,
            r#""\ud83d\u12""#,
            r#""\ude00""#,
        ] {
            assert!(Json::parse(bad.as_bytes()).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn number_text_takes_exponent_form_outside_its_plain_range() {
        for (x, want) in [
            (f32::MIN_POSITIVE, "1.1754944e-38"),
            (-f32::MAX, "-3.4028235e38"),
            (f32::from_bits(1), "1e-45"),
            (1e16, "1e16"),
            (9.9e-6, "9.9e-6"),
            // In the range the text is what it was before exponent form.
            (1e-5, "0.00001"),
            (0.1, "0.1"),
            (-2.5, "-2.5"),
            (1e15, "1000000000000000"),
            (0.0, "0"),
            (-0.0, "-0"),
        ] {
            assert_eq!(Json::f32_row(&[x]).render(), format!("[{want}]"), "{x:e}");
        }
        for (x, want) in [
            (1e300, "1e300"),
            (-1e-300, "-1e-300"),
            (f64::MIN_POSITIVE, "2.2250738585072014e-308"),
            (1e16, "1e16"),
            (123456.5, "123456.5"),
            (1e15, "1000000000000000"),
            (0.25, "0.25"),
        ] {
            assert_eq!(Json::Num(x).render(), want, "{x:e}");
        }
        // Bit patterns strided over every sign and exponent: no text runs
        // past 17 bytes for an f32 or 24 for an f64.
        for bits in (0..u32::MAX).step_by(40_009) {
            let x = f32::from_bits(bits);
            let text = Json::f32_row(&[x]).render();
            assert!(text.len() <= 17 + 2, "{x:e} renders as {text}");
        }
        for bits in (0..u64::MAX).step_by(1 << 44) {
            let x = f64::from_bits(bits);
            let text = Json::Num(x).render();
            assert!(text.len() <= 24, "{x:e} renders as {text}");
        }
    }

    #[test]
    fn json_depth_cap_refuses_instead_of_overflowing() {
        let deep = "[".repeat(100_000);
        assert!(Json::parse(deep.as_bytes()).is_err());
        let obj = "{\"a\":".repeat(100_000);
        assert!(Json::parse(obj.as_bytes()).is_err());
    }

    #[test]
    fn json_rejects_garbage_and_non_finite() {
        for bad in [
            &b"{"[..],
            b"[1, ]",
            b"12 34",
            b"nul",
            b"1e999",
            b"\"\\q\"",
            b"[\xff",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }
}
