//! The HTTP/1.1 front door: a hardened network edge over one
//! [`AttentionServer`], bound with [`HttpServer::bind`].
//!
//! Everything PR 7 guaranteed in-process — typed sheds, deadlines,
//! panic isolation, reconciled counters — stops mattering the moment a
//! real client can only reach the server through a socket. This module
//! extends those guarantees to the wire, on `std::net::TcpListener`
//! and plain threads (no tokio, matching the serving worker's no-dependency
//! style):
//!
//! * **Endpoints** — `POST /v1/prefill`, `POST /v1/sessions`,
//!   `POST /v1/sessions/{id}/append`, `POST /v1/sessions/{id}/decode`,
//!   `DELETE /v1/sessions/{id}`, plus `GET /healthz` (liveness),
//!   `GET /readyz` (drain-aware readiness) and `GET /metrics` (every
//!   [`ServeStats`] counter and the per-bucket queue depths).
//! * **Defensive connection layer** — per-connection read/write
//!   deadlines and bounded header/body limits: a slow-loris client gets
//!   a typed `408`, an oversized payload a typed `413`, and neither can
//!   hang the acceptor. A hard connection cap sheds excess connections
//!   with `503 Retry-After`, riding the same transient-error contract as
//!   the server's `Overloaded` ([`crate::retry`]). Malformed bytes can
//!   never panic the parser — every parse error is a typed `400`
//!   (pinned by a fuzz proptest in `tests/http_chaos.rs`).
//! * **Total error mapping** — [`status_for_serve`],
//!   [`status_for_session`] and [`status_for_request`] are single
//!   exhaustive `match`es (no wildcard arm), so adding an error variant
//!   is a compile error here rather than a silent `500` in production.
//! * **Graceful drain** — [`HttpServer::shutdown`] stops accepting,
//!   flips `readyz` to `503` immediately, serves in-flight connections
//!   under [`HttpConfig::drain_deadline`], then force-closes stragglers
//!   (counted in [`ServeStats::drain_force_closed`]) and drains the
//!   serving worker itself — lifetime counters reconcile
//!   (`kv_pages_allocated == kv_pages_freed`) even when clients
//!   abandoned their sessions mid-flight.
//!
//! Connection lifecycle (one thread per accepted connection, bounded by
//! the cap):
//!
//! ```text
//!  accept ──► cap check ──► per-request loop:
//!    │           │ over cap     read_request (deadline, limits)
//!    │           ▼               │       │          │
//!    │      503 + close          ▼       ▼          ▼
//!    │                        route   typed 4xx   silent close
//!    │                          │    (400/408/413) (peer gone)
//!    ▼                          ▼
//!  drain: refuse + stop      write_response ──► keep-alive or close
//! ```
//!
//! The server is `f32`-typed, and so are the numbers inside JSON arrays
//! ([`Json`]): each row parses straight into `f32`s and renders as
//! shortest round-trip `f32` text, so served outputs survive the
//! round-trip bit-identically (asserted end to end by the chaos harness),
//! and a number outside the `f32` range is a typed `400`.

use crate::wire::{self, Json, Request, RequestReader, WireError, WireLimits};
use crate::{
    AttentionServer, DecodeRequest, RequestError, ServeError, ServeStats, SessionError, SessionId,
};
use dfss_tensor::Matrix;
use std::collections::HashMap;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning for the front door's defensive limits. The defaults are
/// deliberately tight enough to test against (sub-second deadlines
/// belong in tests, not defaults — these are serving values).
#[derive(Clone, Copy, Debug)]
pub struct HttpConfig {
    /// Loopback port to bind (`0` picks an ephemeral port).
    pub port: u16,
    /// Hard cap on concurrently served connections; excess connections
    /// are shed with `503 Retry-After` before any bytes are read.
    pub max_connections: usize,
    /// Per-connection read deadline: a request that trickles in slower
    /// than this (slow-loris) gets a typed `408` and the connection
    /// closes.
    pub read_timeout: Duration,
    /// Per-connection write deadline: a client that stops reading its
    /// response cannot pin the handler past this.
    pub write_timeout: Duration,
    /// Bound on waiting for the worker to serve an admitted request
    /// before answering `504` (the handle stays typed either way).
    pub response_timeout: Duration,
    /// Header/body byte budgets ([`WireLimits`]); exceeding them is a
    /// typed `413`.
    pub limits: WireLimits,
    /// How long [`HttpServer::shutdown`] lets in-flight connections
    /// finish before force-closing them.
    pub drain_deadline: Duration,
}

impl Default for HttpConfig {
    fn default() -> HttpConfig {
        HttpConfig {
            port: 0,
            max_connections: 64,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            response_timeout: Duration::from_secs(30),
            limits: WireLimits::default(),
            drain_deadline: Duration::from_secs(5),
        }
    }
}

/// State shared between the acceptor, the connection handlers, and the
/// drain path.
struct Shared {
    att: AttentionServer<f32>,
    config: HttpConfig,
    draining: AtomicBool,
    active: AtomicUsize,
    /// Live connections by id (a `try_clone` of each handler's socket),
    /// so drain can force-close stragglers from outside their threads.
    conns: Mutex<HashMap<u64, TcpStream>>,
    accepted: AtomicU64,
    shed: AtomicU64,
    parse_rejects: AtomicU64,
    force_closed: AtomicU64,
}

impl Shared {
    fn lock_conns(&self) -> std::sync::MutexGuard<'_, HashMap<u64, TcpStream>> {
        match self.conns.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

struct Inner {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: JoinHandle<()>,
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

/// The serving front end: a loopback TCP listener, an acceptor thread,
/// and one bounded handler thread per live connection, all over one
/// [`AttentionServer`].
///
/// ```no_run
/// use dfss_serve::http::{HttpConfig, HttpServer};
/// use dfss_serve::{AttentionServer, BatchPolicy};
/// use dfss_core::full::FullAttention;
/// use std::sync::Arc;
///
/// let att = AttentionServer::<f32>::start(Arc::new(FullAttention), BatchPolicy::default());
/// let server = HttpServer::bind(att, HttpConfig::default()).unwrap();
/// println!("serving on {}", server.url());
/// // ... curl http://127.0.0.1:PORT/healthz ...
/// let stats = server.shutdown();
/// assert_eq!(stats.kv_pages_allocated, stats.kv_pages_freed);
/// ```
pub struct HttpServer {
    inner: Option<Inner>,
}

impl HttpServer {
    /// Bind a loopback listener over one engine and start accepting —
    /// the front door's only constructor. The [`AttentionServer`] may
    /// carry any policy, KV budget, or [`crate::FaultPlan`] — the front
    /// door inherits all of its typed semantics.
    pub fn bind(att: AttentionServer<f32>, config: HttpConfig) -> std::io::Result<HttpServer> {
        let listener = TcpListener::bind(("127.0.0.1", config.port))?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            att,
            config,
            draining: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            conns: Mutex::new(HashMap::new()),
            accepted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            parse_rejects: AtomicU64::new(0),
            force_closed: AtomicU64::new(0),
        });
        let handlers = Arc::new(Mutex::new(Vec::new()));
        let acceptor_shared = Arc::clone(&shared);
        let acceptor_handlers = Arc::clone(&handlers);
        let acceptor = std::thread::Builder::new()
            .name("dfss-http-acceptor".into())
            .spawn(move || accept_loop(listener, acceptor_shared, acceptor_handlers))
            .expect("spawn acceptor thread");
        Ok(HttpServer {
            inner: Some(Inner {
                addr,
                shared,
                acceptor,
                handlers,
            }),
        })
    }

    /// The bound loopback address.
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.as_ref().expect("server is live").addr
    }

    /// The server's base URL (`http://127.0.0.1:PORT`).
    pub fn url(&self) -> String {
        format!("http://{}", self.local_addr())
    }

    /// Graceful drain: stop accepting, flip `readyz` to `503`
    /// immediately, serve in-flight connections until
    /// [`HttpConfig::drain_deadline`], force-close stragglers, then
    /// drain the worker. Returns the reconciled lifetime counters with
    /// the HTTP-layer counters folded in.
    pub fn shutdown(mut self) -> ServeStats {
        let inner = self.inner.take().expect("server is live");
        drain(inner)
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            let _ = drain(inner);
        }
    }
}

/// The drain state machine: `serving → draining → closed`.
fn drain(inner: Inner) -> ServeStats {
    let Inner {
        addr,
        shared,
        acceptor,
        handlers,
    } = inner;
    // 1. `readyz` flips the moment drain begins.
    shared.draining.store(true, Ordering::SeqCst);
    // 2. Wake the blocking accept so the acceptor observes the flag and
    //    exits; late clients get their connections dropped, not served.
    let _ = TcpStream::connect(addr);
    let _ = acceptor.join();
    // 3. Bounded wait for in-flight connections to finish cleanly.
    let deadline = Instant::now() + shared.config.drain_deadline;
    while shared.active.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    // 4. Force-close stragglers: shutting the socket down fails their
    //    blocked reads/writes immediately, so their handlers exit.
    {
        let conns = shared.lock_conns();
        shared
            .force_closed
            .fetch_add(conns.len() as u64, Ordering::SeqCst);
        for stream in conns.values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
    let joinable: Vec<JoinHandle<()>> = match handlers.lock() {
        Ok(mut guard) => guard.drain(..).collect(),
        Err(poisoned) => poisoned.into_inner().drain(..).collect(),
    };
    for h in joinable {
        let _ = h.join();
    }
    let accepted = shared.accepted.load(Ordering::SeqCst);
    let conn_sheds = shared.shed.load(Ordering::SeqCst);
    let parse_rejects = shared.parse_rejects.load(Ordering::SeqCst);
    let force_closed = shared.force_closed.load(Ordering::SeqCst);
    // 5. Every thread holding the state is joined, so this is the last
    //    reference; drain the worker and fold in the wire counters.
    let mut stats = match Arc::try_unwrap(shared) {
        Ok(shared) => shared.att.shutdown(),
        // Unreachable once every thread is joined, but stay typed: the
        // worker still drains on Drop, and the counters still report.
        Err(arc) => arc.att.stats_snapshot(),
    };
    stats.http_connections_accepted = accepted;
    stats.http_connections_shed = conn_sheds;
    stats.http_parse_rejects = parse_rejects;
    stats.drain_force_closed = force_closed;
    stats
}

/// The acceptor: cap enforcement and handler spawning. Never does
/// per-request work, so a slow or hostile connection cannot delay the
/// next accept.
fn accept_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    let mut next_conn: u64 = 0;
    for stream in listener.incoming() {
        if shared.draining.load(Ordering::SeqCst) {
            // The drain wake-up (or a late client): stop accepting.
            break;
        }
        let Ok(stream) = stream else { continue };
        shared.accepted.fetch_add(1, Ordering::SeqCst);
        if shared.active.load(Ordering::SeqCst) >= shared.config.max_connections {
            shared.shed.fetch_add(1, Ordering::SeqCst);
            shed_connection(stream, &shared.config);
            continue;
        }
        // Sweep finished handler threads so the join list stays
        // proportional to live connections, not lifetime accepts.
        if let Ok(mut guard) = handlers.lock() {
            guard.retain(|h| !h.is_finished());
        }
        let id = next_conn;
        next_conn += 1;
        if let Ok(clone) = stream.try_clone() {
            shared.lock_conns().insert(id, clone);
        }
        shared.active.fetch_add(1, Ordering::SeqCst);
        let conn_shared = Arc::clone(&shared);
        let spawned = std::thread::Builder::new()
            .name("dfss-http-conn".into())
            .spawn(move || {
                handle_connection(&conn_shared, stream);
                conn_shared.lock_conns().remove(&id);
                conn_shared.active.fetch_sub(1, Ordering::SeqCst);
            });
        match spawned {
            Ok(handle) => {
                if let Ok(mut guard) = handlers.lock() {
                    guard.push(handle);
                }
            }
            Err(_) => {
                // Spawn failure (fd/thread exhaustion): shed typed
                // rather than dropping the connection silently.
                shared.lock_conns().remove(&id);
                shared.active.fetch_sub(1, Ordering::SeqCst);
                shared.shed.fetch_add(1, Ordering::SeqCst);
            }
        }
    }
}

/// Refuse one over-cap connection with `503 Retry-After` and close.
fn shed_connection(mut stream: TcpStream, config: &HttpConfig) {
    let _ = stream.set_write_timeout(Some(config.write_timeout));
    let body = Json::obj(vec![
        ("error", Json::Str("connection cap reached".into())),
        ("kind", Json::Str("Overloaded".into())),
    ])
    .render_bytes();
    let _ = wire::write_response(
        &mut stream,
        503,
        "application/json",
        &body,
        Some(Duration::from_secs(1)),
        true,
    );
}

/// One connection's request loop: bounded reads, typed failures,
/// keep-alive until the client closes, an error ends the exchange, or
/// drain begins.
fn handle_connection(shared: &Shared, stream: TcpStream) {
    let config = &shared.config;
    let _ = stream.set_read_timeout(Some(config.read_timeout));
    let _ = stream.set_write_timeout(Some(config.write_timeout));
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = RequestReader::new(read_half);
    let mut writer = stream;
    loop {
        match reader.read_request(&config.limits) {
            Ok(None) => break, // clean close on a request boundary
            Ok(Some(req)) => {
                let close = req.wants_close() || shared.draining.load(Ordering::SeqCst);
                // A routing panic must stay inside this connection:
                // answer a typed 500 and keep the acceptor serving.
                let reply = catch_unwind(AssertUnwindSafe(|| route(shared, &req)))
                    .unwrap_or_else(|_| Reply::error(500, "HandlerPanicked", "handler panicked"));
                if write_reply(&mut writer, &reply, close).is_err() || close {
                    break;
                }
            }
            Err(WireError::TimedOut) => {
                let reply = Reply::error(408, "RequestTimeout", "read deadline expired");
                let _ = write_reply(&mut writer, &reply, true);
                break;
            }
            Err(WireError::TooLarge { what, limit }) => {
                let reply = Reply::error(
                    413,
                    "PayloadTooLarge",
                    &format!("{what} exceeds the {limit}-byte limit"),
                );
                let _ = write_reply(&mut writer, &reply, true);
                break;
            }
            Err(WireError::Malformed(why)) => {
                shared.parse_rejects.fetch_add(1, Ordering::SeqCst);
                let reply = Reply::error(400, "Malformed", &why);
                let _ = write_reply(&mut writer, &reply, true);
                break;
            }
            // Peer is gone mid-request: nobody to answer.
            Err(WireError::ConnectionClosed) | Err(WireError::Io(_)) => break,
        }
    }
}

/// One routed response, before serialisation.
struct Reply {
    status: u16,
    content_type: &'static str,
    body: Vec<u8>,
    retry_after: Option<Duration>,
}

impl Reply {
    fn json(status: u16, body: Json) -> Reply {
        Reply {
            status,
            content_type: "application/json",
            body: body.render_bytes(),
            retry_after: None,
        }
    }

    fn error(status: u16, kind: &str, message: &str) -> Reply {
        let mut reply = Reply::json(
            status,
            Json::obj(vec![
                ("error", Json::Str(message.into())),
                ("kind", Json::Str(kind.into())),
            ]),
        );
        if status == 503 {
            reply.retry_after = Some(Duration::from_secs(1));
        }
        reply
    }

    fn text(status: u16, body: String) -> Reply {
        Reply {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into_bytes(),
            retry_after: None,
        }
    }
}

fn write_reply(w: &mut impl Write, reply: &Reply, close: bool) -> std::io::Result<()> {
    wire::write_response(
        w,
        reply.status,
        reply.content_type,
        &reply.body,
        reply.retry_after,
        close,
    )
}

/// Status code for every admission error — one exhaustive `match`, so a
/// new [`RequestError`] variant is a compile error here, not a silent
/// `500`.
pub fn status_for_request(e: &RequestError) -> u16 {
    match e {
        RequestError::KShapeMismatch { .. } => 400,
        RequestError::VRowsMismatch { .. } => 400,
        RequestError::EmptyRequest => 400,
        RequestError::Unsupported { .. } => 400,
        RequestError::DecodeShapeMismatch { .. } => 400,
    }
}

/// Status code for every prefill/decode serving error (exhaustive).
pub fn status_for_serve(e: &ServeError) -> u16 {
    match e {
        ServeError::ServerGone => 503,
        ServeError::Rejected(inner) => status_for_request(inner),
        ServeError::BatchPanicked { .. } => 500,
        ServeError::DeadlineExceeded { .. } => 504,
        ServeError::Overloaded { .. } => 503,
        ServeError::WaitTimeout => 504,
    }
}

/// Status code for every session-operation error (exhaustive).
pub fn status_for_session(e: &SessionError) -> u16 {
    match e {
        SessionError::UnknownSession(_) => 404,
        SessionError::Rejected(inner) => status_for_request(inner),
        SessionError::KvBudgetExhausted { .. } => 503,
        SessionError::Evicted(_) => 410,
        SessionError::Overloaded { .. } => 503,
    }
}

/// Short variant name for error bodies, exhaustive like the status maps.
fn kind_for_serve(e: &ServeError) -> &'static str {
    match e {
        ServeError::ServerGone => "ServerGone",
        ServeError::Rejected(_) => "Rejected",
        ServeError::BatchPanicked { .. } => "BatchPanicked",
        ServeError::DeadlineExceeded { .. } => "DeadlineExceeded",
        ServeError::Overloaded { .. } => "Overloaded",
        ServeError::WaitTimeout => "WaitTimeout",
    }
}

fn kind_for_session(e: &SessionError) -> &'static str {
    match e {
        SessionError::UnknownSession(_) => "UnknownSession",
        SessionError::Rejected(_) => "Rejected",
        SessionError::KvBudgetExhausted { .. } => "KvBudgetExhausted",
        SessionError::Evicted(_) => "Evicted",
        SessionError::Overloaded { .. } => "Overloaded",
    }
}

fn reply_serve_error(e: &ServeError) -> Reply {
    Reply::error(status_for_serve(e), kind_for_serve(e), &e.to_string())
}

fn reply_session_error(e: &SessionError) -> Reply {
    Reply::error(status_for_session(e), kind_for_session(e), &e.to_string())
}

/// Dispatch one parsed request to its endpoint.
fn route(shared: &Shared, req: &Request) -> Reply {
    let path = req.target.split('?').next().unwrap_or("");
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => {
            Reply::json(200, Json::obj(vec![("status", Json::Str("ok".into()))]))
        }
        ("GET", ["readyz"]) => {
            if shared.draining.load(Ordering::SeqCst) {
                Reply::error(503, "Draining", "shutdown in progress")
            } else {
                Reply::json(200, Json::obj(vec![("status", Json::Str("ready".into()))]))
            }
        }
        ("GET", ["metrics"]) => Reply::text(200, metrics_text(shared)),
        ("POST", ["v1", "prefill"]) => prefill(shared, &req.body),
        ("POST", ["v1", "sessions"]) => open_session(shared, &req.body),
        ("POST", ["v1", "sessions", id, "append"]) => match parse_session_id(id) {
            Ok(session) => append(shared, session, &req.body),
            Err(reply) => reply,
        },
        ("POST", ["v1", "sessions", id, "decode"]) => match parse_session_id(id) {
            Ok(session) => decode(shared, session, &req.body),
            Err(reply) => reply,
        },
        ("DELETE", ["v1", "sessions", id]) => match parse_session_id(id) {
            Ok(session) => match shared.att.close_session(session) {
                Ok(()) => Reply::json(200, Json::obj(vec![("closed", Json::Bool(true))])),
                Err(e) => reply_session_error(&e),
            },
            Err(reply) => reply,
        },
        ("GET" | "POST" | "DELETE", _) => Reply::error(404, "NoRoute", "no such endpoint"),
        _ => Reply::error(405, "MethodNotAllowed", "unsupported method"),
    }
}

fn parse_session_id(raw: &str) -> Result<SessionId, Reply> {
    raw.parse::<u64>()
        .map(SessionId)
        .map_err(|_| Reply::error(400, "Malformed", &format!("bad session id {raw:?}")))
}

/// Parse a JSON body, mapping failures to a typed `400`.
fn parse_body(body: &[u8]) -> Result<Json, Reply> {
    Json::parse(body)
        .map_err(|why| Reply::error(400, "Malformed", &format!("bad JSON body: {why}")))
}

/// Extract an `n × ?` matrix field from a body (array of equal-width
/// numeric rows), copying the rows into the matrix once.
fn matrix_field(doc: &Json, field: &str) -> Result<Matrix<f32>, Reply> {
    let rows = doc.get(field).and_then(Json::as_arr).ok_or_else(|| {
        Reply::error(400, "Malformed", &format!("missing matrix field {field:?}"))
    })?;
    let rows: Vec<&[f32]> = rows
        .iter()
        .map(Json::as_f32_row)
        .collect::<Option<_>>()
        .unwrap_or_default();
    let d = rows.first().map_or(0, |r| r.len());
    if d == 0 || rows.iter().any(|r| r.len() != d) {
        return Err(Reply::error(
            400,
            "Malformed",
            &format!("{field:?} must be a non-empty rectangle of numbers"),
        ));
    }
    Ok(Matrix::from_vec(rows.len(), d, rows.concat()))
}

fn row_field(doc: &Json, field: &str) -> Result<Vec<f32>, Reply> {
    doc.get(field)
        .and_then(Json::to_f32_row)
        .ok_or_else(|| Reply::error(400, "Malformed", &format!("missing row field {field:?}")))
}

fn usize_field(doc: &Json, field: &str) -> Option<usize> {
    let x = doc.get(field)?.as_f64()?;
    if x.fract() == 0.0 && x >= 0.0 && x < u32::MAX as f64 {
        Some(x as usize)
    } else {
        None
    }
}

fn matrix_json(m: &Matrix<f32>) -> Json {
    Json::Arr(
        (0..m.rows())
            .map(|i| Json::f32_row(&m.as_slice()[i * m.cols()..(i + 1) * m.cols()]))
            .collect(),
    )
}

/// `POST /v1/prefill` — body `{"q": [[..]], "k": [[..]], "v": [[..]]}`.
fn prefill(shared: &Shared, body: &[u8]) -> Reply {
    let doc = match parse_body(body) {
        Ok(doc) => doc,
        Err(reply) => return reply,
    };
    let (q, k, v) = match (
        matrix_field(&doc, "q"),
        matrix_field(&doc, "k"),
        matrix_field(&doc, "v"),
    ) {
        (Ok(q), Ok(k), Ok(v)) => (q, k, v),
        (Err(reply), _, _) | (_, Err(reply), _) | (_, _, Err(reply)) => return reply,
    };
    let handle = match shared.att.submit(q, k, v) {
        Ok(handle) => handle,
        Err(e) => return reply_serve_error(&e),
    };
    match handle.wait_timeout(shared.config.response_timeout) {
        Ok(served) => Reply::json(
            200,
            Json::obj(vec![
                ("output", matrix_json(&served.output)),
                ("ticket", Json::Num(served.ticket.0 as f64)),
                (
                    "queue_wait_us",
                    Json::Num(served.queue_wait.as_micros() as f64),
                ),
                ("sim_latency_s", Json::Num(served.sim_latency_s)),
            ]),
        ),
        Err(e) => reply_serve_error(&e),
    }
}

/// `POST /v1/sessions` — body `{"d": 16}` or `{"d": 16, "d_v": 32}`.
fn open_session(shared: &Shared, body: &[u8]) -> Reply {
    let doc = match parse_body(body) {
        Ok(doc) => doc,
        Err(reply) => return reply,
    };
    let Some(d) = usize_field(&doc, "d") else {
        return Reply::error(400, "Malformed", "missing integer field \"d\"");
    };
    let d_v = match doc.get("d_v") {
        None => d,
        Some(_) => match usize_field(&doc, "d_v") {
            Some(d_v) => d_v,
            None => return Reply::error(400, "Malformed", "\"d_v\" must be an integer"),
        },
    };
    match shared.att.open_session(d, d_v) {
        Ok(session) => Reply::json(
            200,
            Json::obj(vec![("session", Json::Num(session.0 as f64))]),
        ),
        Err(e) => reply_session_error(&e),
    }
}

/// `POST /v1/sessions/{id}/append` — body `{"k_row": [..], "v_row": [..]}`
/// for one position, or `{"k": [[..]], "v": [[..]]}` for a block.
fn append(shared: &Shared, session: SessionId, body: &[u8]) -> Reply {
    let doc = match parse_body(body) {
        Ok(doc) => doc,
        Err(reply) => return reply,
    };
    if doc.get("k").is_some() || doc.get("v").is_some() {
        let (k, v) = match (matrix_field(&doc, "k"), matrix_field(&doc, "v")) {
            (Ok(k), Ok(v)) => (k, v),
            (Err(reply), _) | (_, Err(reply)) => return reply,
        };
        let rows = k.rows();
        return match shared.att.extend(session, k, v) {
            Ok(()) => Reply::json(200, Json::obj(vec![("rows", Json::Num(rows as f64))])),
            Err(e) => reply_session_error(&e),
        };
    }
    let (k_row, v_row) = match (row_field(&doc, "k_row"), row_field(&doc, "v_row")) {
        (Ok(k), Ok(v)) => (k, v),
        (Err(reply), _) | (_, Err(reply)) => return reply,
    };
    match shared.att.append(session, k_row, v_row) {
        Ok(()) => Reply::json(200, Json::obj(vec![("rows", Json::Num(1.0))])),
        Err(e) => reply_session_error(&e),
    }
}

/// `POST /v1/sessions/{id}/decode` — body `{"q_row": [..]}`.
fn decode(shared: &Shared, session: SessionId, body: &[u8]) -> Reply {
    let doc = match parse_body(body) {
        Ok(doc) => doc,
        Err(reply) => return reply,
    };
    let q_row = match row_field(&doc, "q_row") {
        Ok(row) => row,
        Err(reply) => return reply,
    };
    let handle = match shared.att.submit_decode(DecodeRequest { session, q_row }) {
        Ok(handle) => handle,
        Err(e) => return reply_session_error(&e),
    };
    match handle.wait_timeout(shared.config.response_timeout) {
        Ok(served) => Reply::json(
            200,
            Json::obj(vec![
                ("output", Json::f32_row(served.output.as_slice())),
                ("cached_len", Json::Num(served.cached_len as f64)),
                ("batch_size", Json::Num(served.batch_size as f64)),
                ("ticket", Json::Num(served.ticket.0 as f64)),
            ]),
        ),
        Err(e) => reply_serve_error(&e),
    }
}

/// `GET /metrics` — every [`ServeStats`] counter as a
/// `dfss_<name> <value>` line, plus the live queue depths: one prefill
/// sample per admitted shape, labelled with all three of its `n`, `d`
/// and `d_v` so no two samples share a label set.
/// The destructuring is deliberately exhaustive: adding a `ServeStats`
/// field without exporting it is a compile error.
fn metrics_text(shared: &Shared) -> String {
    let stats = shared.att.stats_snapshot();
    let ServeStats {
        served,
        rejected,
        decode_steps,
        decode_batches,
        max_decode_batch,
        sessions_opened,
        sessions_closed,
        kv_rows_appended,
        kv_bytes_peak,
        kv_pages_allocated,
        kv_pages_freed,
        evictions,
        admission_rejections,
        batch_panics,
        deadline_sheds,
        overload_sheds,
        total_sim_latency_s,
        // The HTTP counters in the snapshot are zero (they live here,
        // not in the worker) — exported from the shared atomics below.
        http_connections_accepted: _,
        http_connections_shed: _,
        http_parse_rejects: _,
        drain_force_closed: _,
        sched_iterations,
        prefill_chunks,
    } = stats;
    let mut out = String::new();
    let mut line = |name: &str, value: f64| {
        out.push_str("dfss_");
        out.push_str(name);
        out.push(' ');
        if value.fract() == 0.0 && value.abs() < 1e15 {
            out.push_str(&format!("{}\n", value as i64));
        } else {
            out.push_str(&format!("{value}\n"));
        }
    };
    line("served", served as f64);
    line("rejected", rejected as f64);
    line("decode_steps", decode_steps as f64);
    line("decode_batches", decode_batches as f64);
    line("max_decode_batch", max_decode_batch as f64);
    line("sessions_opened", sessions_opened as f64);
    line("sessions_closed", sessions_closed as f64);
    line("kv_rows_appended", kv_rows_appended as f64);
    line("kv_bytes_peak", kv_bytes_peak as f64);
    line("kv_pages_allocated", kv_pages_allocated as f64);
    line("kv_pages_freed", kv_pages_freed as f64);
    line("evictions", evictions as f64);
    line("admission_rejections", admission_rejections as f64);
    line("batch_panics", batch_panics as f64);
    line("deadline_sheds", deadline_sheds as f64);
    line("overload_sheds", overload_sheds as f64);
    line("total_sim_latency_s", total_sim_latency_s);
    line("sched_iterations", sched_iterations as f64);
    line("prefill_chunks", prefill_chunks as f64);
    line(
        "http_connections_accepted",
        shared.accepted.load(Ordering::SeqCst) as f64,
    );
    line(
        "http_connections_shed",
        shared.shed.load(Ordering::SeqCst) as f64,
    );
    line(
        "http_parse_rejects",
        shared.parse_rejects.load(Ordering::SeqCst) as f64,
    );
    line(
        "drain_force_closed",
        shared.force_closed.load(Ordering::SeqCst) as f64,
    );
    line(
        "http_connections_active",
        shared.active.load(Ordering::SeqCst) as f64,
    );
    let depths = shared.att.queue_depths();
    line("queue_depth_decode", depths.decode as f64);
    for (key, depth) in depths.prefill {
        out.push_str(&format!(
            "dfss_queue_depth_prefill{{n=\"{}\",d=\"{}\",d_v=\"{}\"}} {}\n",
            key.n, key.d, key.d_v, depth
        ));
    }
    // Which SIMD microkernel backend this process dispatched to (pinned
    // once at pool startup; `DFSS_SIMD` overrides — see dfss-kernels).
    out.push_str(&format!(
        "dfss_simd_backend{{name=\"{}\"}} 1\n",
        dfss_kernels::simd::active().name()
    ));
    out
}

/// Why an [`HttpClient`] call failed. `Status` carries the typed
/// non-2xx answer (the transient-classification input for
/// [`crate::retry::with_backoff`]); `Transport` is a socket-level
/// failure with no response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HttpClientError {
    /// The server answered with a non-2xx status.
    Status {
        /// The HTTP status code.
        status: u16,
        /// The `Retry-After` header in seconds, if the server sent one.
        retry_after: Option<u64>,
        /// The response body (usually a JSON error object).
        body: String,
    },
    /// The request never completed: connect/read/write failure, or an
    /// unparseable response.
    Transport(String),
}

impl std::fmt::Display for HttpClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpClientError::Status { status, body, .. } => {
                write!(f, "HTTP {status}: {body}")
            }
            HttpClientError::Transport(why) => write!(f, "transport failure: {why}"),
        }
    }
}

impl std::error::Error for HttpClientError {}

/// A minimal blocking HTTP/1.1 client (keep-alive, bounded reads) for
/// loopback testing, the chaos harness, and the repository benchmark's
/// `http_front` clients.
///
/// Non-2xx responses surface as [`HttpClientError::Status`], which
/// [`crate::retry::Transient`] classifies: `503` (shed / back-pressure,
/// usually with `Retry-After`) and `408` (wire deadline) are worth
/// retrying, everything else is not.
pub struct HttpClient {
    addr: SocketAddr,
    limits: WireLimits,
    timeout: Duration,
    conn: Option<(RequestReader<TcpStream>, TcpStream)>,
}

impl HttpClient {
    /// A client for one server address. Connects lazily on the first
    /// request; reconnects transparently after `Connection: close`.
    pub fn connect(addr: SocketAddr) -> HttpClient {
        HttpClient {
            addr,
            limits: WireLimits::default(),
            timeout: Duration::from_secs(10),
            conn: None,
        }
    }

    /// Override the per-call read/write deadline (default 10s).
    pub fn with_timeout(mut self, timeout: Duration) -> HttpClient {
        self.timeout = timeout;
        self
    }

    fn ensure_conn(
        &mut self,
    ) -> Result<&mut (RequestReader<TcpStream>, TcpStream), HttpClientError> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(self.addr)
                .map_err(|e| HttpClientError::Transport(e.to_string()))?;
            let _ = stream.set_read_timeout(Some(self.timeout));
            let _ = stream.set_write_timeout(Some(self.timeout));
            let _ = stream.set_nodelay(true);
            let read_half = stream
                .try_clone()
                .map_err(|e| HttpClientError::Transport(e.to_string()))?;
            self.conn = Some((RequestReader::new(read_half), stream));
        }
        Ok(self.conn.as_mut().expect("just ensured"))
    }

    /// Send one request and read the raw response, whatever its status.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&Json>,
    ) -> Result<wire::Response, HttpClientError> {
        let payload = body.map(Json::render_bytes).unwrap_or_default();
        let head = format!(
            "{method} {path} HTTP/1.1\r\nhost: dfss\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n",
            payload.len()
        );
        let limits = self.limits;
        let (reader, writer) = self.ensure_conn()?;
        let sent = wire::write_message(writer, head.as_bytes(), &payload);
        // The body is on the wire: free it before the reply arrives, so a
        // large body and its reply are never held at once.
        drop(payload);
        if let Err(e) = sent {
            self.conn = None;
            return Err(HttpClientError::Transport(e.to_string()));
        }
        match wire::read_response(reader, &limits) {
            Ok(resp) => {
                if resp
                    .header("connection")
                    .is_some_and(|v| v.eq_ignore_ascii_case("close"))
                {
                    self.conn = None;
                }
                Ok(resp)
            }
            Err(e) => {
                self.conn = None;
                Err(HttpClientError::Transport(e.to_string()))
            }
        }
    }

    /// Send one request and parse the JSON body of a 2xx response.
    /// Non-2xx statuses come back as [`HttpClientError::Status`] so
    /// callers can wrap this in [`crate::retry::with_backoff`].
    pub fn call(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&Json>,
    ) -> Result<Json, HttpClientError> {
        let resp = self.request(method, path, body)?;
        if (200..300).contains(&resp.status) {
            Json::parse(&resp.body)
                .map_err(|why| HttpClientError::Transport(format!("bad response body: {why}")))
        } else {
            Err(HttpClientError::Status {
                status: resp.status,
                retry_after: resp.retry_after(),
                body: String::from_utf8_lossy(&resp.body).into_owned(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::retry::{with_backoff, Backoff};
    use crate::{BatchPolicy, FaultKind, FaultPlan, KvConfig, SchedPolicy};
    use dfss_core::dfss::DfssAttention;
    use dfss_core::full::FullAttention;
    use dfss_core::mechanism::Attention;
    use dfss_kernels::GpuCtx;
    use dfss_nmsparse::NmPattern;
    use dfss_tensor::Rng;
    use std::io::Read;

    fn quick_config() -> HttpConfig {
        HttpConfig {
            read_timeout: Duration::from_millis(300),
            write_timeout: Duration::from_millis(300),
            drain_deadline: Duration::from_millis(500),
            ..HttpConfig::default()
        }
    }

    fn start_http(policy: BatchPolicy) -> HttpServer {
        let mech: Arc<dyn Attention<f32> + Send + Sync> =
            Arc::new(DfssAttention::new(NmPattern::P1_2));
        let att = AttentionServer::start(mech, policy);
        HttpServer::bind(att, quick_config()).expect("bind loopback")
    }

    fn matrix_body(m: &Matrix<f32>) -> Json {
        matrix_json(m)
    }

    #[test]
    fn prefill_over_http_is_bit_identical_to_solo_forward() {
        let mech: Arc<dyn Attention<f32> + Send + Sync> =
            Arc::new(DfssAttention::new(NmPattern::P1_2));
        let server = start_http(BatchPolicy::default());
        let mut client = HttpClient::connect(server.local_addr());
        let mut rng = Rng::new(23);
        // 32 rows run whole; 96 rows split into two chunks under the
        // default 64-row `SchedPolicy`.
        for n in [32, 96] {
            let q = Matrix::random_normal(n, 16, 0.0, 1.0, &mut rng);
            let k = Matrix::random_normal(n, 16, 0.0, 1.0, &mut rng);
            let v = Matrix::random_normal(n, 16, 0.0, 1.0, &mut rng);
            let body = Json::obj(vec![
                ("q", matrix_body(&q)),
                ("k", matrix_body(&k)),
                ("v", matrix_body(&v)),
            ]);
            let out = client
                .call("POST", "/v1/prefill", Some(&body))
                .expect("served");
            let rows = out.get("output").and_then(Json::as_arr).expect("output");
            let got: Vec<f32> = rows
                .iter()
                .flat_map(|r| r.to_f32_row().expect("row"))
                .collect();
            let mut sctx = GpuCtx::a100();
            let want = mech.forward(&mut sctx, &q, &k, &v);
            assert_eq!(got.len(), want.as_slice().len());
            for (a, b) in got.iter().zip(want.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits(), "output diverged through HTTP");
            }
        }
        let stats = server.shutdown();
        assert_eq!(stats.served, 2);
        assert_eq!(stats.prefill_chunks, 3);
        assert_eq!(stats.http_connections_accepted, 1);
        assert_eq!(stats.http_parse_rejects, 0);
    }

    #[test]
    fn session_lifecycle_and_decode_over_http() {
        let server = start_http(BatchPolicy::default());
        let mut client = HttpClient::connect(server.local_addr());
        let opened = client
            .call(
                "POST",
                "/v1/sessions",
                Some(&Json::obj(vec![("d", Json::Num(8.0))])),
            )
            .expect("open");
        let sid = opened.get("session").unwrap().as_f64().unwrap() as u64;
        let mut rng = Rng::new(29);
        let k = Matrix::<f32>::random_normal(6, 8, 0.0, 1.0, &mut rng);
        let v = Matrix::<f32>::random_normal(6, 8, 0.0, 1.0, &mut rng);
        let extended = client
            .call(
                "POST",
                &format!("/v1/sessions/{sid}/append"),
                Some(&Json::obj(vec![
                    ("k", matrix_body(&k)),
                    ("v", matrix_body(&v)),
                ])),
            )
            .expect("extend");
        assert_eq!(extended.get("rows").unwrap().as_f64(), Some(6.0));
        let q_row: Vec<f32> = (0..8).map(|i| i as f32 * 0.1).collect();
        let decoded = client
            .call(
                "POST",
                &format!("/v1/sessions/{sid}/decode"),
                Some(&Json::obj(vec![("q_row", Json::f32_row(&q_row))])),
            )
            .expect("decode");
        assert_eq!(decoded.get("cached_len").unwrap().as_f64(), Some(6.0));
        let out = decoded.get("output").unwrap().to_f32_row().unwrap();
        assert_eq!(out.len(), 8);
        client
            .call("DELETE", &format!("/v1/sessions/{sid}"), None)
            .expect("close");
        // Typed errors end to end: the closed id is now a 404.
        let err = client
            .call("DELETE", &format!("/v1/sessions/{sid}"), None)
            .unwrap_err();
        assert!(matches!(err, HttpClientError::Status { status: 404, .. }));
        let stats = server.shutdown();
        assert_eq!(stats.decode_steps, 1);
        assert_eq!(stats.sessions_opened, 1);
        assert_eq!(stats.kv_pages_allocated, stats.kv_pages_freed);
    }

    #[test]
    fn unknown_routes_bad_ids_and_bad_bodies_are_typed() {
        let server = start_http(BatchPolicy::default());
        let mut client = HttpClient::connect(server.local_addr());
        for (method, path, body, want) in [
            ("GET", "/nope", None, 404),
            ("POST", "/v1/sessions/banana/decode", None, 400),
            ("PATCH", "/healthz", None, 405),
            (
                "POST",
                "/v1/prefill",
                Some(Json::Str("not an object".into())),
                400,
            ),
            (
                "POST",
                "/v1/sessions/999/decode",
                Some(Json::obj(vec![("q_row", Json::f32_row(&[0.0]))])),
                404,
            ),
        ] {
            let err = client.call(method, path, body.as_ref()).unwrap_err();
            match err {
                HttpClientError::Status { status, .. } => {
                    assert_eq!(status, want, "{method} {path}")
                }
                other => panic!("{method} {path}: expected status, got {other:?}"),
            }
        }
        // An unparseable prefill body is a 400, and the server keeps
        // serving valid traffic on the same connection.
        let health = client.call("GET", "/healthz", None).expect("healthz");
        assert_eq!(health.get("status").unwrap().as_str(), Some("ok"));
        let _ = server.shutdown();
    }

    #[test]
    fn matrix_field_takes_only_non_empty_rectangles_of_numbers() {
        let field = |text: &str| {
            let doc = Json::parse(format!("{{\"q\":{text}}}").as_bytes()).expect("valid JSON");
            matrix_field(&doc, "q")
        };
        let m = field("[[1,2],[3,-0]]").ok().expect("a 2 x 2 matrix");
        assert_eq!((m.rows(), m.cols()), (2, 2));
        assert_eq!(m.as_slice()[3].to_bits(), (-0.0f32).to_bits());
        for bad in [
            "[[1,2],[3]]",
            "[[1],[2,3]]",
            "[]",
            "[[]]",
            "[[],[]]",
            "[1,2]",
            "[[1,2],[3,\"a\"]]",
            "[[1,2],null]",
            "\"q\"",
        ] {
            match field(bad) {
                Err(reply) => assert_eq!(reply.status, 400, "{bad}"),
                Ok(_) => panic!("accepted {bad} as a matrix"),
            }
        }
    }

    #[test]
    fn out_of_range_numbers_are_typed_400_and_never_reach_the_server() {
        let server = start_http(BatchPolicy::default());
        let mut client = HttpClient::connect(server.local_addr());
        let opened = client
            .call(
                "POST",
                "/v1/sessions",
                Some(&Json::obj(vec![("d", Json::Num(2.0))])),
            )
            .expect("open");
        let sid = opened.get("session").unwrap().as_f64().unwrap() as u64;
        // 1e39 is a finite f64 but past f32::MAX: inside an array it is
        // refused as the body parses.
        let row = |x: f64| Json::Arr(vec![Json::Num(x), Json::Num(0.0)]);
        let matrix = |x: f64| Json::Arr(vec![row(x), row(1.0)]);
        for (path, body) in [
            (
                "/v1/prefill".to_string(),
                Json::obj(vec![
                    ("q", matrix(1e39)),
                    ("k", matrix(1.0)),
                    ("v", matrix(1.0)),
                ]),
            ),
            (
                format!("/v1/sessions/{sid}/append"),
                Json::obj(vec![("k", matrix(1.0)), ("v", matrix(-1e39))]),
            ),
            (
                format!("/v1/sessions/{sid}/append"),
                Json::obj(vec![("k_row", row(1e39)), ("v_row", row(1.0))]),
            ),
            (
                format!("/v1/sessions/{sid}/decode"),
                Json::obj(vec![("q_row", row(-1e39))]),
            ),
        ] {
            match client.call("POST", &path, Some(&body)) {
                Err(HttpClientError::Status { status, body, .. }) => {
                    assert_eq!(status, 400, "{path}");
                    assert!(body.contains("\"kind\":\"Malformed\""), "{path}: {body}");
                }
                other => panic!("{path}: expected a typed 400, got {other:?}"),
            }
        }
        let stats = server.shutdown();
        assert_eq!(stats.served, 0);
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.admission_rejections, 0);
        assert_eq!(stats.kv_rows_appended, 0);
        assert_eq!(stats.decode_steps, 0);
    }

    #[test]
    fn numbers_and_escapes_outside_json_are_typed_400() {
        let server = start_http(BatchPolicy::default());
        let addr = server.local_addr();
        let mut client = HttpClient::connect(addr);
        let opened = client
            .call(
                "POST",
                "/v1/sessions",
                Some(&Json::obj(vec![("d", Json::Num(2.0))])),
            )
            .expect("open");
        let sid = opened.get("session").unwrap().as_f64().unwrap() as u64;
        let path = format!("/v1/sessions/{sid}/decode");
        // Rust's float parser and `from_str_radix` took each of these.
        for body in [
            r#"{"q_row":[+1,0]}"#,
            r#"{"q_row":[.5,0]}"#,
            r#"{"q_row":[1.,0]}"#,
            r#"{"q_row":[01,0]}"#,
            r#"{"q_row":[-.5e-3,0]}"#,
            r#"{"q_row":[1,0],"x":"\u+041"}"#,
            r#"{"q_row":[1,0],"x":"\ud83d"}"#,
        ] {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            let head = format!(
                "POST {path} HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
                body.len()
            );
            stream.write_all(head.as_bytes()).unwrap();
            stream.write_all(body.as_bytes()).unwrap();
            let mut reader = RequestReader::new(stream.try_clone().unwrap());
            let resp =
                wire::read_response(&mut reader, &WireLimits::default()).expect("a response");
            let text = String::from_utf8_lossy(&resp.body);
            assert_eq!(resp.status, 400, "{body}: {text}");
            assert!(text.contains("\"kind\":\"Malformed\""), "{body}: {text}");
        }
        let stats = server.shutdown();
        assert_eq!(stats.served, 0);
        assert_eq!(stats.decode_steps, 0);
    }

    #[test]
    fn garbage_bytes_get_400_and_count_as_parse_rejects() {
        let server = start_http(BatchPolicy::default());
        let addr = server.local_addr();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream
            .write_all(b"NOT HTTP AT ALL\x00\xff\r\n\r\n")
            .unwrap();
        let mut reader = RequestReader::new(stream.try_clone().unwrap());
        let resp = wire::read_response(&mut reader, &WireLimits::default()).expect("a response");
        assert_eq!(resp.status, 400);
        // The acceptor survived; metrics report the reject.
        let mut client = HttpClient::connect(addr);
        let metrics = client.request("GET", "/metrics", None).expect("metrics");
        let text = String::from_utf8(metrics.body).unwrap();
        assert!(
            text.contains("dfss_http_parse_rejects 1"),
            "metrics missing the parse reject:\n{text}"
        );
        let stats = server.shutdown();
        assert_eq!(stats.http_parse_rejects, 1);
        assert_eq!(stats.http_connections_accepted, 2);
    }

    #[test]
    fn content_lengths_that_disagree_or_carry_a_sign_get_400() {
        let server = start_http(BatchPolicy::default());
        let addr = server.local_addr();
        for fields in [
            "content-length: 3\r\ncontent-length: 5\r\n",
            "content-length: +5\r\n",
        ] {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            let request = format!("POST /v1/sessions HTTP/1.1\r\n{fields}\r\n{{\"d\":4}}");
            stream.write_all(request.as_bytes()).unwrap();
            let mut reader = RequestReader::new(stream.try_clone().unwrap());
            let resp =
                wire::read_response(&mut reader, &WireLimits::default()).expect("a response");
            let text = String::from_utf8_lossy(&resp.body);
            assert_eq!(resp.status, 400, "{fields:?}: {text}");
            assert!(
                text.contains("\"kind\":\"Malformed\""),
                "{fields:?}: {text}"
            );
        }
        let stats = server.shutdown();
        assert_eq!(stats.http_parse_rejects, 2);
        assert_eq!(stats.sessions_opened, 0);
    }

    #[test]
    fn slow_loris_gets_typed_408_not_a_hung_acceptor() {
        let server = start_http(BatchPolicy::default());
        let addr = server.local_addr();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        // Half a request line, then silence past the read deadline.
        stream.write_all(b"GET /heal").unwrap();
        let mut reader = RequestReader::new(stream.try_clone().unwrap());
        let resp = wire::read_response(&mut reader, &WireLimits::default()).expect("a response");
        assert_eq!(resp.status, 408);
        // The acceptor is still serving.
        let mut client = HttpClient::connect(addr);
        assert!(client.call("GET", "/healthz", None).is_ok());
        let _ = server.shutdown();
    }

    #[test]
    fn oversized_body_is_typed_413() {
        let mech: Arc<dyn Attention<f32> + Send + Sync> = Arc::new(FullAttention);
        let att = AttentionServer::start(mech, BatchPolicy::default());
        let config = HttpConfig {
            limits: WireLimits {
                max_body_bytes: 64,
                ..WireLimits::default()
            },
            ..quick_config()
        };
        let server = HttpServer::bind(att, config).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream
            .write_all(b"POST /v1/prefill HTTP/1.1\r\ncontent-length: 100000\r\n\r\n")
            .unwrap();
        let mut reader = RequestReader::new(stream.try_clone().unwrap());
        let resp = wire::read_response(&mut reader, &WireLimits::default()).expect("a response");
        assert_eq!(resp.status, 413);
        let _ = server.shutdown();
    }

    #[test]
    fn connection_cap_sheds_typed_503_with_retry_after() {
        let mech: Arc<dyn Attention<f32> + Send + Sync> = Arc::new(FullAttention);
        let att = AttentionServer::start(mech, BatchPolicy::default());
        let config = HttpConfig {
            max_connections: 1,
            ..quick_config()
        };
        let server = HttpServer::bind(att, config).unwrap();
        // One idle connection occupies the only slot...
        let _holder = TcpStream::connect(server.local_addr()).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        // ...so the next connection is shed before any bytes are read.
        let mut client = HttpClient::connect(server.local_addr());
        let resp = client.request("GET", "/healthz", None).expect("a response");
        assert_eq!(resp.status, 503);
        assert_eq!(resp.retry_after(), Some(1), "shed must carry Retry-After");
        let stats = server.shutdown();
        assert_eq!(stats.http_connections_shed, 1);
        assert_eq!(stats.http_connections_accepted, 2);
    }

    #[test]
    fn overload_shed_rides_the_wire_as_503_retry_after() {
        // Queue depth 1, and the first request rides a slowed launch
        // (front-door op 0), so it stays unresolved: the second submission
        // is shed at admission and the wire answer is a typed 503.
        let mech: Arc<dyn Attention<f32> + Send + Sync> = Arc::new(FullAttention);
        let att = AttentionServer::start_with_faults(
            mech,
            BatchPolicy::default().with_queue_depth(1),
            FaultPlan::new().inject(0, FaultKind::SlowLaunch(Duration::from_millis(300))),
        );
        let server = HttpServer::bind(att, quick_config()).unwrap();
        let addr = server.local_addr();
        let body = Json::obj(vec![
            ("q", matrix_body(&Matrix::<f32>::zeros(4, 4))),
            ("k", matrix_body(&Matrix::<f32>::zeros(4, 4))),
            ("v", matrix_body(&Matrix::<f32>::zeros(4, 4))),
        ]);
        // First request occupies the queue (its launch sleeps 300 ms);
        // fire it from a second thread and shed the overlapping one.
        let mut bg = HttpClient::connect(addr);
        let bg_body = body.clone();
        let t = std::thread::spawn(move || bg.call("POST", "/v1/prefill", Some(&bg_body)));
        std::thread::sleep(Duration::from_millis(30));
        let mut client = HttpClient::connect(addr);
        let err = client.call("POST", "/v1/prefill", Some(&body)).unwrap_err();
        match err {
            HttpClientError::Status {
                status,
                retry_after,
                ..
            } => {
                assert_eq!(status, 503);
                assert_eq!(retry_after, Some(1));
            }
            other => panic!("expected a typed 503, got {other:?}"),
        }
        assert!(t.join().unwrap().is_ok(), "the queued request still serves");
        let stats = server.shutdown();
        assert_eq!(stats.overload_sheds, 1);
    }

    #[test]
    fn readyz_flips_and_drain_force_closes_stragglers() {
        let mech: Arc<dyn Attention<f32> + Send + Sync> = Arc::new(FullAttention);
        let att = AttentionServer::start(mech, BatchPolicy::default());
        let config = HttpConfig {
            // Long read deadline: the straggler below would otherwise
            // pin its handler far past the drain deadline.
            read_timeout: Duration::from_secs(60),
            write_timeout: Duration::from_secs(1),
            drain_deadline: Duration::from_millis(200),
            ..HttpConfig::default()
        };
        let server = HttpServer::bind(att, config).unwrap();
        let mut client = HttpClient::connect(server.local_addr());
        let ready = client.request("GET", "/readyz", None).expect("readyz");
        assert_eq!(ready.status, 200);
        // Close the probe's keep-alive connection so the only straggler
        // left at drain time is the silent one below.
        drop(client);
        std::thread::sleep(Duration::from_millis(50));
        // A connection that sends nothing: its handler blocks in read.
        let straggler = TcpStream::connect(server.local_addr()).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let t0 = Instant::now();
        let stats = server.shutdown();
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "drain must not wait out the 60s read deadline"
        );
        assert_eq!(stats.drain_force_closed, 1, "straggler was force-closed");
        drop(straggler);
    }

    #[test]
    fn poisoned_registry_heals_through_the_http_layer() {
        // A thread dies holding the registry lock with scribbled
        // counters; /metrics and every later endpoint must keep serving
        // off the healed, reconciled registry.
        let mech: Arc<dyn Attention<f32> + Send + Sync> = Arc::new(FullAttention);
        let att = AttentionServer::start_with_kv(
            mech,
            BatchPolicy::default(),
            KvConfig {
                page_elems: 64,
                budget_bytes: 16 * 1024,
                evict_idle: false,
                ..KvConfig::default()
            },
        );
        let server = HttpServer::bind(att, quick_config()).unwrap();
        let mut client = HttpClient::connect(server.local_addr());
        let opened = client
            .call(
                "POST",
                "/v1/sessions",
                Some(&Json::obj(vec![("d", Json::Num(8.0))])),
            )
            .expect("open");
        let sid = opened.get("session").unwrap().as_f64().unwrap() as u64;
        client
            .call(
                "POST",
                &format!("/v1/sessions/{sid}/append"),
                Some(&Json::obj(vec![
                    ("k_row", Json::f32_row(&[1.0; 8])),
                    ("v_row", Json::f32_row(&[2.0; 8])),
                ])),
            )
            .expect("append");
        // Poison the registry mid-flight (a dead client thread).
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        server
            .inner
            .as_ref()
            .expect("live")
            .shared
            .att
            .poison_registry_for_test();
        std::panic::set_hook(hook);
        // /metrics reads the healed registry: the scribbled u64::MAX
        // byte count must not surface.
        let metrics = client.request("GET", "/metrics", None).expect("metrics");
        assert_eq!(metrics.status, 200);
        let text = String::from_utf8(metrics.body).unwrap();
        let peak_line = text
            .lines()
            .find(|l| l.starts_with("dfss_kv_bytes_peak "))
            .expect("kv_bytes_peak exported");
        let peak: f64 = peak_line.split(' ').nth(1).unwrap().parse().unwrap();
        // One appended row of k (8 f32) + v (8 f32) = 64 bytes.
        assert_eq!(peak as u64, (8 + 8) * 4, "healed peak, not the scribble");
        // Subsequent session traffic still serves (free-page arithmetic
        // under pages_used = 9999 would underflow without the heal).
        client
            .call(
                "POST",
                &format!("/v1/sessions/{sid}/append"),
                Some(&Json::obj(vec![
                    ("k_row", Json::f32_row(&[3.0; 8])),
                    ("v_row", Json::f32_row(&[4.0; 8])),
                ])),
            )
            .expect("append after heal");
        let decoded = client
            .call(
                "POST",
                &format!("/v1/sessions/{sid}/decode"),
                Some(&Json::obj(vec![("q_row", Json::f32_row(&[0.5; 8]))])),
            )
            .expect("decode after heal");
        assert_eq!(decoded.get("cached_len").unwrap().as_f64(), Some(2.0));
        let stats = server.shutdown();
        assert_eq!(stats.kv_pages_allocated, stats.kv_pages_freed);
    }

    #[test]
    fn client_retry_loop_rides_503_retry_after() {
        // An injected pool exhaustion fails the first append with a 503
        // Retry-After; with_backoff retries it to success — the typed
        // transient contract working end to end over the wire.
        let mech: Arc<dyn Attention<f32> + Send + Sync> = Arc::new(FullAttention);
        let att = AttentionServer::start_with_faults(
            mech,
            BatchPolicy::default(),
            FaultPlan::new().inject(1, FaultKind::ExhaustPool),
        );
        let server = HttpServer::bind(att, quick_config()).unwrap();
        let mut client = HttpClient::connect(server.local_addr());
        let opened = client
            .call(
                "POST",
                "/v1/sessions",
                Some(&Json::obj(vec![("d", Json::Num(8.0))])),
            )
            .expect("open");
        let sid = opened.get("session").unwrap().as_f64().unwrap() as u64;
        let body = Json::obj(vec![
            ("k_row", Json::f32_row(&[1.0; 8])),
            ("v_row", Json::f32_row(&[2.0; 8])),
        ]);
        let mut attempts = 0;
        let out = with_backoff(Backoff::quick(3), || {
            attempts += 1;
            client.call("POST", &format!("/v1/sessions/{sid}/append"), Some(&body))
        });
        assert!(out.is_ok(), "retry must clear the injected exhaustion");
        assert_eq!(attempts, 2, "exactly one 503 then success");
        let _ = server.shutdown();
    }

    #[test]
    fn metrics_exports_queue_depths() {
        // Work in flight shows in the gauges: a prefill and a decode step
        // each ride a slowed launch (front-door ops 2 and 3, in whichever
        // order they arrive), and each must read 1 on `/metrics` while
        // its launch runs. Ops 4–6 are the V-width case below: op 4 holds
        // the worker for a second, long enough for ops 5 and 6 to queue
        // behind it, and those two launch slowly enough to be seen.
        let mech: Arc<dyn Attention<f32> + Send + Sync> = Arc::new(FullAttention);
        let slow = FaultKind::SlowLaunch(Duration::from_millis(400));
        let hold = FaultKind::SlowLaunch(Duration::from_secs(1));
        let plan = FaultPlan::new()
            .inject(2, slow)
            .inject(3, slow)
            .inject(4, hold)
            .inject(5, slow)
            .inject(6, slow);
        let att = AttentionServer::start_continuous_with_kv_faults(
            mech,
            BatchPolicy::default(),
            SchedPolicy::default(),
            KvConfig::default(),
            plan,
        );
        let session = att.open_session(4, 4).unwrap();
        att.extend(session, Matrix::zeros(2, 4), Matrix::zeros(2, 4))
            .unwrap();
        let server = HttpServer::bind(att, quick_config()).unwrap();
        let addr = server.local_addr();
        let prefill = move |d_v: usize| {
            let zeros = |cols| matrix_body(&Matrix::<f32>::zeros(4, cols));
            let body = Json::obj(vec![("q", zeros(4)), ("k", zeros(4)), ("v", zeros(d_v))]);
            let mut bg = HttpClient::connect(addr);
            std::thread::spawn(move || bg.call("POST", "/v1/prefill", Some(&body)))
        };
        let step = Json::obj(vec![("q_row", Json::f32_row(&[0.0; 4]))]);
        let path = format!("/v1/sessions/{}/decode", session.0);
        let t_prefill = prefill(4);
        let mut bg = HttpClient::connect(addr);
        let t_decode = std::thread::spawn(move || bg.call("POST", &path, Some(&step)));
        let mut client = HttpClient::connect(addr);
        // Poll `/metrics` until `done` holds, checking on every scrape
        // that no two prefill samples share a label set.
        let mut scrape_until = |done: &mut dyn FnMut(&str) -> bool| {
            let deadline = Instant::now() + Duration::from_secs(10);
            let mut text = String::new();
            while Instant::now() < deadline {
                let metrics = client.request("GET", "/metrics", None).expect("metrics");
                text = String::from_utf8(metrics.body).unwrap();
                let mut labels: Vec<&str> = text
                    .lines()
                    .filter(|l| l.starts_with("dfss_queue_depth_prefill{"))
                    .filter_map(|l| l.split_once('}').map(|(labels, _)| labels))
                    .collect();
                let samples = labels.len();
                labels.sort_unstable();
                labels.dedup();
                assert_eq!(labels.len(), samples, "duplicate label sets:\n{text}");
                if done(&text) {
                    return text;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            panic!("metrics never showed the work in flight:\n{text}");
        };
        let (mut saw_prefill, mut saw_decode) = (false, false);
        let text = scrape_until(&mut |text| {
            saw_prefill |= text.contains("dfss_queue_depth_prefill{n=\"4\",d=\"4\",d_v=\"4\"} 1");
            saw_decode |= text.contains("dfss_queue_depth_decode 1");
            saw_prefill && saw_decode
        });
        let backend = dfss_kernels::simd::active().name();
        assert!(
            text.contains(&format!("dfss_simd_backend{{name=\"{backend}\"}} 1")),
            "metrics missing the dispatched SIMD backend:\n{text}"
        );
        assert!(t_prefill.join().unwrap().is_ok());
        assert!(t_decode.join().unwrap().is_ok());
        // Prefills that differ only in V width are distinct series: the
        // two queued behind the held worker show as two samples with two
        // label sets.
        let depth_line =
            |d_v: usize| format!("dfss_queue_depth_prefill{{n=\"4\",d=\"4\",d_v=\"{d_v}\"}} 1");
        let held = prefill(3);
        scrape_until(&mut |text| text.contains(&depth_line(3)));
        let queued = [prefill(4), prefill(2)];
        scrape_until(&mut |text| text.contains(&depth_line(4)) && text.contains(&depth_line(2)));
        for t in std::iter::once(held).chain(queued) {
            assert!(t.join().unwrap().is_ok());
        }
        let _ = server.shutdown();
    }

    #[test]
    fn keep_alive_serves_many_requests_on_one_connection() {
        let server = start_http(BatchPolicy::default());
        let mut client = HttpClient::connect(server.local_addr());
        for _ in 0..5 {
            client.call("GET", "/healthz", None).expect("healthz");
        }
        let stats = server.shutdown();
        assert_eq!(
            stats.http_connections_accepted, 1,
            "five requests, one connection"
        );
    }

    #[test]
    fn stalled_response_reader_cannot_pin_the_server() {
        // A client that sends a request and then refuses to read the
        // response: the write lands in the socket buffer (or fails the
        // bounded write deadline) and drain still completes.
        let server = start_http(BatchPolicy::default());
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nhost: x\r\n\r\n")
            .unwrap();
        std::thread::sleep(Duration::from_millis(100));
        let t0 = Instant::now();
        let stats = server.shutdown();
        assert!(t0.elapsed() < Duration::from_secs(5));
        assert_eq!(stats.http_connections_accepted, 1);
        // Server-side state is fully reconciled regardless.
        assert_eq!(stats.kv_pages_allocated, stats.kv_pages_freed);
        let mut sink = Vec::new();
        let _ = stream.read_to_end(&mut sink);
    }
}
