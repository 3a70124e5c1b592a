//! Chaos at the wire: random serving traffic driven through the HTTP
//! front door with a random seeded [`FaultPlan`] spanning **both** fault
//! layers — worker faults (injected panics, slow launches, pool
//! exhaustion) keyed by front-door operation ordinal, and socket faults
//! (mid-request disconnects, stalled response reads, garbage bytes)
//! keyed by wire-request ordinal and interpreted by the chaos client.
//! The contract, end to end over a real loopback socket:
//!
//! - **Typed failures only**: every response carries a status from the
//!   endpoint's documented set — never a hang, never an untyped error,
//!   never a dropped acceptor.
//! - **No acceptor hang**: after the whole fault schedule has fired, a
//!   plain `GET /healthz` on a fresh connection still answers `200`
//!   within a bounded read.
//! - **Bit-identity for untouched requests**: every `200` response is
//!   bit-identical to fault-free solo computation against a host-side
//!   model of the session state at submission time. Odd seeds store the
//!   KV cache bf16-quantised; their model holds each admitted row rounded
//!   through bf16.
//! - **Reconciliation**: post-drain, `kv_pages_allocated ==
//!   kv_pages_freed` (abandoned sessions included),
//!   `http_connections_accepted` equals the connections this test
//!   opened, and `http_parse_rejects` equals the garbage streams it
//!   sent.
//!
//! A second fuzz-style proptest feeds arbitrary byte streams straight at
//! the parser: it must return typed errors, never panic. It also strings
//! JSON fragments into numeric-row edge cases, each of which must parse
//! to a typed error or round-trip bit-exactly.

use dfss::prelude::*;
use dfss_serve::http::{HttpConfig, HttpServer};
use dfss_serve::wire::{self, Json, RequestReader, WireLimits};
use dfss_serve::{AttentionServer, BatchPolicy, FaultKind, FaultPlan, KvDtype};
use proptest::prelude::*;
use std::io::Write as _;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// The fragments the JSON fuzz strings together: numbers a numeric row
/// must carry bit for bit once read (`-0`, subnormals,
/// `f32::MIN_POSITIVE`, `f32::MAX`, and `1e-50`, which reads as `0`),
/// numbers it must refuse (out of `f32` range, a lone sign, an empty
/// item, and forms outside JSON's number grammar), strings whose `\u`
/// escapes must pair or be refused, and items that make an array mixed,
/// nested or unbalanced.
const JSON_ITEMS: [&str; 29] = [
    "-0",
    "0",
    "1",
    "0.1",
    "-2.5e-3",
    "1e-45",
    "-1.4e-45",
    "1.1754944e-38",
    "3.4028235e38",
    "-3.4028235e38",
    "1e-50",
    "1e39",
    "-",
    "",
    "\"a\"",
    "null",
    "[]",
    "[2]",
    "[-0,1e-45]",
    "[1,[",
    "+1",
    ".5",
    "1.",
    "01",
    "-.5e-3",
    r#""\u+041""#,
    r#""\ud83d\ude00""#,
    r#""\ud83d""#,
    r#""\ude00""#,
];

/// Bounded client-side wait: long enough that a live server always
/// answers, short enough that a hang fails the test instead of wedging
/// CI.
const NO_HANG: Duration = Duration::from_secs(10);

fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn matrix_json(m: &Matrix<f32>) -> Json {
    Json::Arr(
        (0..m.rows())
            .map(|i| Json::f32_row(&m.as_slice()[i * m.cols()..(i + 1) * m.cols()]))
            .collect(),
    )
}

/// Serialise one HTTP/1.1 request with `Connection: close` (each chaos
/// exchange uses a fresh connection so accepted-connection accounting
/// stays exact).
fn request_bytes(method: &str, path: &str, body: Option<&Json>) -> Vec<u8> {
    let payload = body.map(Json::render).unwrap_or_default();
    let mut out = format!(
        "{method} {path} HTTP/1.1\r\nhost: chaos\r\nconnection: close\r\ncontent-length: {}\r\n\r\n",
        payload.len()
    )
    .into_bytes();
    out.extend_from_slice(payload.as_bytes());
    out
}

/// What one wire exchange produced: a parsed response, or nothing
/// (the fault destroyed the exchange before a response existed).
enum Outcome {
    Response(wire::Response),
    NoResponse,
}

/// Run one exchange on a fresh connection, applying the wire fault
/// scheduled for this ordinal (if any).
fn exchange(addr: SocketAddr, bytes: &[u8], fault: Option<FaultKind>) -> std::io::Result<Outcome> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(NO_HANG))?;
    stream.set_write_timeout(Some(NO_HANG))?;
    stream.set_nodelay(true)?;
    match fault {
        Some(FaultKind::DisconnectMidRequest) => {
            // Half the bytes, then a hard close: the server must drop
            // the torso silently — no response, no hung handler.
            stream.write_all(&bytes[..bytes.len() / 2])?;
            let _ = stream.shutdown(Shutdown::Both);
            return Ok(Outcome::NoResponse);
        }
        Some(FaultKind::GarbageBytes) => {
            // Not HTTP at all (TLS-handshake-looking junk): the typed
            // 400 must come back on a live connection.
            stream.write_all(b"\x16\x03\x01\x02\x00chaos-not-http\r\n\r\n")?;
        }
        Some(FaultKind::StallMidResponse(delay)) => {
            // Full request, then refuse to read for a while: the
            // response parks in the socket buffer, the server moves on.
            stream.write_all(bytes)?;
            std::thread::sleep(delay);
        }
        _ => {
            stream.write_all(bytes)?;
        }
    }
    let mut reader = RequestReader::new(stream);
    match wire::read_response(&mut reader, &WireLimits::default()) {
        Ok(resp) => Ok(Outcome::Response(resp)),
        Err(_) => Ok(Outcome::NoResponse),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn wire_chaos_stays_typed_isolated_and_reconciled(
        seed in 0u64..10_000,
        ops in proptest::collection::vec(0usize..8, 14),
        // One shared ordinal space: the worker walks it by front-door
        // operation index, the chaos client by wire-request index. The
        // two counters drift once a wire fault eats an exchange — that
        // is fine, the schedule stays deterministic for a given input.
        fault_ops in proptest::collection::vec(0u64..28, 6),
        fault_kinds in proptest::collection::vec(0usize..6, 6),
    ) {
        let mech: Arc<dyn Attention<f32> + Send + Sync> = if seed % 3 == 0 {
            Arc::new(FullAttention)
        } else {
            Arc::new(DfssAttention::new(NmPattern::P1_2))
        };
        let mut plan = FaultPlan::new();
        for (&op, &kind) in fault_ops.iter().zip(&fault_kinds) {
            let kind = match kind {
                0 => FaultKind::PanicInBatch,
                1 => FaultKind::SlowLaunch(Duration::from_millis(1)),
                2 => FaultKind::ExhaustPool,
                3 => FaultKind::DisconnectMidRequest,
                4 => FaultKind::StallMidResponse(Duration::from_millis(50)),
                _ => FaultKind::GarbageBytes,
            };
            plan = plan.inject(op, kind);
        }
        // The KV-dtype draw: odd seeds run the bf16 store.
        let kv_dtype = if seed % 2 == 1 { KvDtype::Bf16 } else { KvDtype::Native };
        let att = AttentionServer::start_continuous_with_kv_faults(
            Arc::clone(&mech),
            BatchPolicy::default(),
            SchedPolicy::default(),
            KvConfig { kv_dtype, ..KvConfig::default() },
            plan.clone(),
        );
        // What the store holds of an admitted row: the row itself, or its
        // bf16 rounding widened back to f32.
        let stored = |m: &Matrix<f32>| match kv_dtype {
            KvDtype::Native => m.clone(),
            KvDtype::Bf16 => m.map(|x| Bf16::from_f32(x).to_f32()),
        };
        let config = HttpConfig {
            read_timeout: Duration::from_millis(500),
            write_timeout: Duration::from_millis(500),
            drain_deadline: Duration::from_secs(2),
            ..HttpConfig::default()
        };
        let server = HttpServer::bind(att, config).expect("bind loopback");
        let addr = server.local_addr();
        let (d, d_v) = (8usize, 8usize);
        let mut rng = Rng::new(seed);
        // Host-side model of each open session's cache, updated only on
        // a 200 — wire-destroyed and shed operations leave it untouched.
        let mut model: Vec<(u64, Matrix<f32>, Matrix<f32>)> = Vec::new();
        let mut connects = 0u64;
        let mut garbage_sent = 0u64;
        let mut ok_prefills = 0u64;
        let mut ok_decodes = 0u64;
        let mut saw_panic = false;
        let mut wire_op = 0u64;
        let mut run = |method: &str,
                       path: &str,
                       body: Option<&Json>,
                       connects: &mut u64,
                       garbage_sent: &mut u64|
         -> Result<Option<wire::Response>, TestCaseError> {
            let fault = plan.get(wire_op).filter(|f| f.is_wire());
            wire_op += 1;
            *connects += 1;
            if fault == Some(FaultKind::GarbageBytes) {
                *garbage_sent += 1;
            }
            let bytes = request_bytes(method, path, body);
            match exchange(addr, &bytes, fault) {
                Ok(Outcome::Response(resp)) => {
                    if fault == Some(FaultKind::GarbageBytes) {
                        prop_assert!(resp.status == 400, "garbage must answer typed 400, got {}", resp.status);
                        return Ok(None);
                    }
                    Ok(Some(resp))
                }
                Ok(Outcome::NoResponse) => {
                    prop_assert!(
                        fault == Some(FaultKind::DisconnectMidRequest),
                        "only a mid-request disconnect may end without a response"
                    );
                    Ok(None)
                }
                Err(e) => Err(TestCaseError::fail(format!("socket failure: {e}"))),
            }
        };
        for &op in &ops {
            match op {
                // Open + prime a session.
                0 | 1 => {
                    let resp = run(
                        "POST",
                        "/v1/sessions",
                        Some(&Json::obj(vec![("d", Json::Num(d as f64))])),
                        &mut connects,
                        &mut garbage_sent,
                    )?;
                    let Some(resp) = resp else { continue };
                    prop_assert!(
                        matches!(resp.status, 200 | 503),
                        "open answered {}", resp.status
                    );
                    if resp.status != 200 {
                        continue;
                    }
                    let body = Json::parse(&resp.body).expect("valid JSON body");
                    let sid = body.get("session").unwrap().as_f64().unwrap() as u64;
                    let len = 1 + rng.below(5);
                    let k = Matrix::<f32>::random_normal(len, d, 0.0, 1.0, &mut rng);
                    let v = Matrix::<f32>::random_normal(len, d_v, 0.0, 1.0, &mut rng);
                    let resp = run(
                        "POST",
                        &format!("/v1/sessions/{sid}/append"),
                        Some(&Json::obj(vec![
                            ("k", matrix_json(&k)),
                            ("v", matrix_json(&v)),
                        ])),
                        &mut connects,
                        &mut garbage_sent,
                    )?;
                    match resp {
                        Some(resp) if resp.status == 200 => {
                            model.push((sid, stored(&k), stored(&v)));
                        }
                        Some(resp) => {
                            prop_assert!(
                                matches!(resp.status, 503),
                                "extend answered {}", resp.status
                            );
                        }
                        // Wire fault ate the extend: the session stays
                        // open and empty — the drain must still reclaim
                        // it.
                        None => {}
                    }
                }
                // Append one row to a random open session.
                2 | 3 => {
                    if model.is_empty() {
                        continue;
                    }
                    let i = rng.below(model.len());
                    let k_row: Vec<f32> = (0..d).map(|_| rng.normal(0.0, 1.0)).collect();
                    let v_row: Vec<f32> = (0..d_v).map(|_| rng.normal(0.0, 1.0)).collect();
                    let sid = model[i].0;
                    let resp = run(
                        "POST",
                        &format!("/v1/sessions/{sid}/append"),
                        Some(&Json::obj(vec![
                            ("k_row", Json::f32_row(&k_row)),
                            ("v_row", Json::f32_row(&v_row)),
                        ])),
                        &mut connects,
                        &mut garbage_sent,
                    )?;
                    match resp {
                        Some(resp) if resp.status == 200 => {
                            let (_, k, v) = &mut model[i];
                            *k = k.vstack(&stored(&Matrix::from_vec(1, d, k_row)));
                            *v = v.vstack(&stored(&Matrix::from_vec(1, d_v, v_row)));
                        }
                        Some(resp) => {
                            prop_assert!(
                                matches!(resp.status, 503),
                                "append answered {}", resp.status
                            );
                        }
                        None => {}
                    }
                }
                // Decode against the model's snapshot.
                4..=6 => {
                    if model.is_empty() {
                        continue;
                    }
                    let i = rng.below(model.len());
                    let q_row: Vec<f32> = (0..d).map(|_| rng.normal(0.0, 1.0)).collect();
                    let (sid, k, v) = &model[i];
                    let mut sctx = GpuCtx::a100();
                    let want = mech.decode(&mut sctx, &Matrix::from_vec(1, d, q_row.clone()), k, v);
                    let resp = run(
                        "POST",
                        &format!("/v1/sessions/{sid}/decode"),
                        Some(&Json::obj(vec![("q_row", Json::f32_row(&q_row))])),
                        &mut connects,
                        &mut garbage_sent,
                    )?;
                    let Some(resp) = resp else { continue };
                    prop_assert!(
                        matches!(resp.status, 200 | 500),
                        "decode answered {}", resp.status
                    );
                    if resp.status == 500 {
                        saw_panic = true;
                        continue;
                    }
                    ok_decodes += 1;
                    let body = Json::parse(&resp.body).expect("valid JSON body");
                    let got = body.get("output").unwrap().to_f32_row().unwrap();
                    prop_assert!(
                        bits_equal(&got, want.as_slice()),
                        "decode diverged from fault-free solo decode over HTTP"
                    );
                    prop_assert_eq!(
                        body.get("cached_len").unwrap().as_f64().unwrap() as usize,
                        k.rows()
                    );
                }
                // A prefill request rides the same front door.
                _ => {
                    let n = 12;
                    let q = Matrix::<f32>::random_normal(n, d, 0.0, 1.0, &mut rng);
                    let k = Matrix::<f32>::random_normal(n, d, 0.0, 1.0, &mut rng);
                    let v = Matrix::<f32>::random_normal(n, d, 0.0, 1.0, &mut rng);
                    let mut sctx = GpuCtx::a100();
                    let want = mech.forward(&mut sctx, &q, &k, &v);
                    let resp = run(
                        "POST",
                        "/v1/prefill",
                        Some(&Json::obj(vec![
                            ("q", matrix_json(&q)),
                            ("k", matrix_json(&k)),
                            ("v", matrix_json(&v)),
                        ])),
                        &mut connects,
                        &mut garbage_sent,
                    )?;
                    let Some(resp) = resp else { continue };
                    prop_assert!(
                        matches!(resp.status, 200 | 500),
                        "prefill answered {}", resp.status
                    );
                    if resp.status == 500 {
                        saw_panic = true;
                        continue;
                    }
                    ok_prefills += 1;
                    let body = Json::parse(&resp.body).expect("valid JSON body");
                    let rows = body.get("output").unwrap().as_arr().unwrap();
                    let got: Vec<f32> = rows
                        .iter()
                        .flat_map(|r| r.to_f32_row().expect("float rows"))
                        .collect();
                    prop_assert!(
                        bits_equal(&got, want.as_slice()),
                        "prefill diverged from fault-free solo forward over HTTP"
                    );
                }
            }
        }
        // No acceptor hang: after the whole schedule fired, a fresh
        // connection gets a prompt 200 (no wire fault applies — the
        // healthz probe is outside the counted chaos ordinals).
        connects += 1;
        let health = exchange(addr, &request_bytes("GET", "/healthz", None), None)
            .expect("healthz socket");
        match health {
            Outcome::Response(resp) => {
                prop_assert_eq!(resp.status, 200);
            }
            Outcome::NoResponse => {
                return Err(TestCaseError::fail("healthz got no response"))
            }
        }
        // Sessions are deliberately left open: the drain must reclaim
        // every page anyway, and the wire counters must reconcile with
        // what this client actually did.
        let stats = server.shutdown();
        prop_assert_eq!(stats.kv_pages_allocated, stats.kv_pages_freed);
        prop_assert_eq!(stats.http_connections_accepted, connects);
        prop_assert_eq!(stats.http_parse_rejects, garbage_sent);
        prop_assert_eq!(stats.http_connections_shed, 0);
        prop_assert_eq!(stats.served, ok_prefills);
        prop_assert_eq!(stats.decode_steps, ok_decodes);
        prop_assert_eq!(stats.rejected, 0);
        prop_assert_eq!(saw_panic, stats.batch_panics > 0);
    }

    /// Fuzz the request parser with arbitrary byte streams: it must
    /// answer `Ok` or a typed [`wire::WireError`] — never panic, never
    /// loop. JSON arrays strung from [`JSON_ITEMS`] must parse to a typed
    /// error or to a value whose rendering parses back to the same bits.
    #[test]
    fn request_parser_never_panics_on_arbitrary_bytes(
        bytes in proptest::collection::vec(0u8..=255u8, 1024),
        picks in proptest::collection::vec(0usize..JSON_ITEMS.len(), 12),
    ) {
        let limits = WireLimits {
            max_header_bytes: 256,
            max_body_bytes: 1024,
        };
        let mut reader = RequestReader::new(&bytes[..]);
        // Drain the stream through the parser; both arms are typed.
        loop {
            match reader.read_request(&limits) {
                Ok(None) => break,
                Ok(Some(_)) => {}
                Err(_) => break,
            }
        }
        // The JSON parser gets the same treatment.
        let _ = Json::parse(&bytes);
        let items: Vec<&str> = picks.iter().map(|&i| JSON_ITEMS[i]).collect();
        let rows: Vec<String> = items.chunks(3).map(|c| format!("[{}]", c.join(","))).collect();
        let docs = [
            items.concat(),
            format!("[{}]", items.join(",")),
            format!("[{}]", rows.join(",")),
            format!("{{\"q_row\":{}}}", rows[0]),
        ];
        for doc in docs.iter().chain(&rows) {
            if let Ok(value) = Json::parse(doc.as_bytes()) {
                // Distinct finite f32 (and f64) bits render as distinct
                // text, so equal text after a second pass is equal bits.
                let text = value.render();
                let back = Json::parse(text.as_bytes());
                prop_assert!(back.is_ok(), "{doc} rendered as unparseable {text}");
                let back = back.unwrap();
                prop_assert_eq!(back.render(), text);
                prop_assert!(back == value, "{doc} changed through {text}");
            }
        }
    }

    /// A valid request head with arbitrary trailing junk parses the head
    /// and types whatever the junk turns out to be.
    #[test]
    fn parser_stays_typed_after_a_valid_prefix(
        junk in proptest::collection::vec(0u8..=255u8, 256),
    ) {
        let mut stream = b"GET /healthz HTTP/1.1\r\nhost: x\r\n\r\n".to_vec();
        stream.extend_from_slice(&junk);
        let mut reader = RequestReader::new(&stream[..]);
        let limits = WireLimits::default();
        let first = reader.read_request(&limits).expect("valid head parses");
        prop_assert!(first.is_some());
        loop {
            match reader.read_request(&limits) {
                Ok(None) => break,
                Ok(Some(_)) => {}
                Err(_) => break,
            }
        }
    }
}
