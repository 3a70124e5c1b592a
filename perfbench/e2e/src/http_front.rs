//! `http_front`: the serving stack of `serve_mixed` behind `HttpServer` on
//! loopback, driven by `nproc` keep-alive `HttpClient` connections, each a
//! closed loop repeating one deterministic session life:
//!
//! 1. `POST /v1/sessions`
//! 2. a block append of a 256-row prompt
//! 3. 32 tokens, each one row `append` and one `decode`
//! 4. `DELETE` the session
//! 5. one `POST /v1/prefill` at n = 256
//!
//! The prompt and prefill bodies load the float codec; the token requests
//! load per-request overhead. Kernels run at small shapes only.

use crate::inputs::{self, Prefill, D, HTTP_POOL, HTTP_PREFILL_N, HTTP_PROMPT, HTTP_TOKENS};
use crate::report::Metric;
use crate::stats::{bit_equal, median, ms, quantile, Windows};
use crate::trace::Tracer;
use crate::Outcome;
use dfss_kernels::GpuCtx;
use dfss_serve::http::{HttpClient, HttpConfig, HttpServer};
use dfss_serve::wire::Json;
use dfss_serve::ServeStats;
use dfss_tensor::Matrix;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Route names, as in the per-layer `http.<route>.p50_ms` metrics.
pub const ROUTES: [&str; 6] = ["open", "extend", "append", "decode", "close", "prefill"];
const OPEN: usize = 0;
const EXTEND: usize = 1;
const APPEND: usize = 2;
const DECODE: usize = 3;
const CLOSE: usize = 4;
const PREFILL: usize = 5;
/// Every this many lives of a connection one is kept for checking …
const SAMPLE_EVERY: usize = 8;
/// … up to this many per connection.
const SAMPLES: usize = 8;
/// Width of the windows the all-route statistics are taken over.
const WINDOW_S: f64 = 1.0;

/// A matrix as a JSON array of rows (the wire's matrix encoding).
pub fn matrix_json(m: &Matrix<f32>) -> Json {
    Json::Arr((0..m.rows()).map(|r| Json::f32_row(m.row(r))).collect())
}

/// One token of a session life.
#[derive(Debug)]
pub struct Token {
    /// `{"k_row": [..], "v_row": [..]}`.
    pub append: Json,
    /// `{"q_row": [..]}`.
    pub decode: Json,
    /// The appended key row.
    pub k_row: Vec<f32>,
    /// The appended value row.
    pub v_row: Vec<f32>,
    /// The decode query row.
    pub q_row: Vec<f32>,
}

/// One connection's pre-built request bodies and the data behind them.
#[derive(Debug)]
pub struct Plan {
    /// `{"d": 64}`.
    pub open: Json,
    /// Prompt blocks `{"k": [[..]], "v": [[..]]}` with their K and V.
    pub prompts: Vec<(Json, Matrix<f32>, Matrix<f32>)>,
    /// The tokens every life decodes.
    pub tokens: Vec<Token>,
    /// Prefill bodies `{"q", "k", "v"}` with their inputs.
    pub prefills: Vec<(Json, Prefill)>,
}

/// The bodies of connection `conn` for `seed`.
pub fn plan(seed: u64, conn: usize) -> Plan {
    let mut rng = inputs::rng(seed, inputs::purpose::HTTP).fork(conn as u64);
    let prompts = (0..HTTP_POOL)
        .map(|_| {
            let k = inputs::normal(&mut rng, HTTP_PROMPT, D);
            let v = inputs::normal(&mut rng, HTTP_PROMPT, D);
            let body = Json::obj(vec![("k", matrix_json(&k)), ("v", matrix_json(&v))]);
            (body, k, v)
        })
        .collect();
    let tokens = (0..HTTP_TOKENS)
        .map(|_| {
            let k_row = inputs::normal_row(&mut rng);
            let v_row = inputs::normal_row(&mut rng);
            let q_row = inputs::normal_row(&mut rng);
            Token {
                append: Json::obj(vec![
                    ("k_row", Json::f32_row(&k_row)),
                    ("v_row", Json::f32_row(&v_row)),
                ]),
                decode: Json::obj(vec![("q_row", Json::f32_row(&q_row))]),
                k_row,
                v_row,
                q_row,
            }
        })
        .collect();
    let prefills = (0..HTTP_POOL)
        .map(|_| {
            let p = Prefill {
                q: inputs::normal(&mut rng, HTTP_PREFILL_N, D),
                k: inputs::normal(&mut rng, HTTP_PREFILL_N, D),
                v: inputs::normal(&mut rng, HTTP_PREFILL_N, D),
            };
            let body = Json::obj(vec![
                ("q", matrix_json(&p.q)),
                ("k", matrix_json(&p.k)),
                ("v", matrix_json(&p.v)),
            ]);
            (body, p)
        })
        .collect();
    Plan {
        open: Json::obj(vec![("d", Json::Num(D as f64))]),
        prompts,
        tokens,
        prefills,
    }
}

/// Load-generating connections: one per core.
pub fn connections() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The workload after set-up.
pub struct Http {
    server: HttpServer,
    plans: Vec<Plan>,
}

/// Start the server behind the front door, build every connection's bodies
/// and run one untimed life per connection.
pub fn setup(seed: u64) -> Http {
    let server =
        HttpServer::bind(inputs::start_server(), HttpConfig::default()).expect("bind loopback");
    let plans: Vec<Plan> = (0..connections()).map(|c| plan(seed, c)).collect();
    let addr = server.local_addr();
    for p in &plans {
        let mut off = Tracer::new(false, Instant::now());
        let mut conn = Conn::new(addr, &mut off, Instant::now());
        assert!(
            life(&mut conn, p, 0, false).is_some(),
            "warm-up life failed"
        );
    }
    Http { server, plans }
}

impl Http {
    /// Drain the front door and the server, returning lifetime counters
    /// (HTTP counters included).
    pub fn finish(self) -> ServeStats {
        self.server.shutdown()
    }
}

/// One connection's tallies.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    /// `(route, completion time in the run, latency)` of every successful
    /// request.
    done: Vec<(usize, f64, f64)>,
    samples: Vec<(usize, Vec<f32>, Vec<f32>)>,
}

struct Conn<'t> {
    start: Instant,
    client: HttpClient,
    tr: &'t mut Tracer,
    tally: Tally,
    next_req: u64,
}

impl<'t> Conn<'t> {
    fn new(addr: SocketAddr, tr: &'t mut Tracer, start: Instant) -> Conn<'t> {
        Conn {
            start,
            client: HttpClient::connect(addr).with_timeout(Duration::from_secs(30)),
            tr,
            tally: Tally::default(),
            next_req: 0,
        }
    }

    /// One request, timed as the client sees it: send, read, parse.
    fn call(
        &mut self,
        route: usize,
        method: &str,
        path: &str,
        body: Option<&Json>,
    ) -> Option<Json> {
        let req = self.next_req;
        self.next_req += 1;
        let client = &mut self.client;
        let t0 = Instant::now();
        let reply = self.tr.span("http", ROUTES[route], req, |tr| {
            let resp = client.request(method, path, body).ok()?;
            if !(200..300).contains(&resp.status) {
                return None;
            }
            tr.span("wire", "parse_reply", req, |_| Json::parse(&resp.body).ok())
        });
        let dt = ms(t0.elapsed());
        self.tally.attempted += 1;
        match reply {
            Some(_) => {
                let t = self.start.elapsed().as_secs_f64();
                self.tally.done.push((route, t, dt));
            }
            None => self.tally.failed += 1,
        }
        reply
    }
}

/// One session life; `Some((decode output of the last token, prefill
/// output))` when every request succeeded.
fn life(c: &mut Conn<'_>, plan: &Plan, idx: usize, keep: bool) -> Option<(Vec<f32>, Vec<f32>)> {
    let opened = c.call(OPEN, "POST", "/v1/sessions", Some(&plan.open))?;
    let sid = opened.get("session")?.as_f64()? as u64;
    let append = format!("/v1/sessions/{sid}/append");
    let decode = format!("/v1/sessions/{sid}/decode");
    let p = idx % HTTP_POOL;
    c.call(EXTEND, "POST", &append, Some(&plan.prompts[p].0))?;
    let mut last = Vec::new();
    for tok in &plan.tokens {
        c.call(APPEND, "POST", &append, Some(&tok.append))?;
        let out = c.call(DECODE, "POST", &decode, Some(&tok.decode))?;
        if keep {
            last = out.get("output")?.to_f32_row()?;
        }
    }
    c.call(CLOSE, "DELETE", &format!("/v1/sessions/{sid}"), None)?;
    let reply = c.call(PREFILL, "POST", "/v1/prefill", Some(&plan.prefills[p].0))?;
    let mut pre = Vec::new();
    if keep {
        for row in reply.get("output")?.as_arr()? {
            pre.extend(row.to_f32_row()?);
        }
    }
    Some((last, pre))
}

/// Run every connection's closed loop for `seconds` (finishing the life in
/// progress), then check the sampled replies, parsed bit-exact, against
/// solo compute. `tracers` holds one tracer per connection.
pub fn run(h: &Http, seconds: f64, tracers: &mut [Tracer], layers: bool) -> Outcome {
    let addr = h.server.local_addr();
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let tallies: Vec<Tally> = std::thread::scope(|scope| {
        let handles: Vec<_> = h
            .plans
            .iter()
            .zip(tracers.iter_mut())
            .map(|(plan, tr)| {
                scope.spawn(move || {
                    let mut conn = Conn::new(addr, tr, start);
                    let mut idx = 0;
                    while Instant::now() < end {
                        let keep = idx % SAMPLE_EVERY == 0 && conn.tally.samples.len() < SAMPLES;
                        if let Some((dec, pre)) = life(&mut conn, plan, idx, keep) {
                            if keep {
                                conn.tally.samples.push((idx % HTTP_POOL, dec, pre));
                            }
                        }
                        idx += 1;
                    }
                    conn.tally
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|t| t.join().expect("connection thread"))
            .collect()
    });

    // Output checks, outside the timed region.
    let mech = inputs::serving_mech();
    let mut ctx = GpuCtx::a100();
    let (mut checked, mut mismatches) = (0, 0);
    for (plan, t) in h.plans.iter().zip(&tallies) {
        for (p, dec, pre) in &t.samples {
            let (_, pk, pv) = &plan.prompts[*p];
            let mut k = pk.as_slice().to_vec();
            let mut v = pv.as_slice().to_vec();
            for tok in &plan.tokens {
                k.extend_from_slice(&tok.k_row);
                v.extend_from_slice(&tok.v_row);
            }
            let len = HTTP_PROMPT + HTTP_TOKENS;
            let q = &plan.tokens[HTTP_TOKENS - 1].q_row;
            let want = mech.decode(
                &mut ctx,
                &Matrix::from_vec(1, D, q.clone()),
                &Matrix::from_vec(len, D, k),
                &Matrix::from_vec(len, D, v),
            );
            checked += 1;
            mismatches += u64::from(!bit_equal(dec, want.as_slice()));
            let pf = &plan.prefills[*p].1;
            let want = mech.forward(&mut ctx, &pf.q, &pf.k, &pf.v);
            ctx.reset_timeline();
            checked += 1;
            mismatches += u64::from(!bit_equal(pre, want.as_slice()));
        }
    }

    // The token requests form two modes (append, decode); a median between
    // modes jumps from run to run, so the latency metric is the decode
    // route's alone.
    let mut all = Windows::new(WINDOW_S);
    let mut decodes = Windows::new(WINDOW_S);
    for (r, t, lat) in tallies.iter().flat_map(|t| &t.done) {
        all.push(*t, *lat);
        if *r == DECODE {
            decodes.push(*t, *lat);
        }
    }
    let requests = all.all().len();
    let route = |r: usize| -> Vec<f64> {
        tallies
            .iter()
            .flat_map(|t| &t.done)
            .filter(|d| d.0 == r)
            .map(|d| d.2)
            .collect()
    };
    let mut prefill = route(PREFILL);
    let mut layer_metrics = Vec::new();
    if layers {
        for (r, name) in ROUTES.iter().enumerate() {
            layer_metrics.push(Metric::new(
                format!("http.{name}.p50_ms"),
                median(&mut route(r)),
                "ms",
            ));
        }
    }
    Outcome {
        metrics: vec![
            Metric::new("main_per_s", all.median_rate(seconds), "1/s"),
            Metric::new("main_p50_ms", decodes.median_quantile(seconds, 0.5), "ms"),
            Metric::new("side_p50_ms", median(&mut prefill), "ms"),
        ],
        attempted: tallies.iter().map(|t| t.attempted).sum(),
        failed: tallies.iter().map(|t| t.failed).sum(),
        mismatches,
        checked,
        layers: layer_metrics,
        extras: vec![
            Metric::new("tail.http_p99_ms", all.median_quantile(seconds, 0.99), "ms"),
            Metric::new(
                "http.all_routes_p50_ms",
                all.median_quantile(seconds, 0.5),
                "ms",
            ),
            Metric::new("http.prefill_p90_ms", quantile(&mut prefill, 0.9), "ms"),
            Metric::new("http.requests", requests as f64, "count"),
            Metric::new("http.prefill_samples", prefill.len() as f64, "count"),
        ],
    }
}
