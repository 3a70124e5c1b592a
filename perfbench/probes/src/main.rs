//! Per-layer probes of the repository benchmark.
//!
//! ```text
//! perfbench-probes --seed <n> [--out <dir>] [--commit <id>]
//! ```
//!
//! Replays each workload's own seeded inputs directly into the lower rungs,
//! so the ladder kernel → mechanism → engine → server → wire reads as
//! differences between adjacent rungs:
//!
//! * `attn_batched` shapes into the `_batched` kernel entry points and
//!   `forward_batched`;
//! * the `serve_mixed` fleet into the `_ragged` kernels, `decode_ragged`,
//!   `AttentionEngine::flush_decode` (over paged KV) and `forward_chunk`;
//! * short `serve_mixed` and `http_front` runs for the server, KV,
//!   scheduler and HTTP numbers the public API reports;
//! * the `http_front` bodies into `wire::Json::render` / `parse`.
//!
//! The last stdout line is the result object with every per-layer metric.

use dfss_core::engine::{AttentionEngine, DecodeStep};
use dfss_gpusim::Stage;
use dfss_kernels::{gemm, sddmm, softmax, spmm, GpuCtx};
use dfss_nmsparse::NmPattern;
use dfss_serve::wire::Json;
use dfss_serve::{KvPool, PagedKvCache};
use dfss_tensor::{Matrix, RaggedBatch};
use perfbench::inputs::{self, Fleet, ATTN_MECHS, D};
use perfbench::report::{self, Metric};
use perfbench::stats::{bit_equal, median};
use perfbench::trace::Tracer;
use perfbench::{attn, http_front, serve};
use std::hint::black_box;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Median wall time of `reps` calls of `f`, in milliseconds, after one
/// untimed warm-up call.
fn time_ms<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    black_box(f());
    let mut xs: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&mut xs)
}

/// Repetitions per timing at sequence length `n`: fewer for the long calls.
fn reps_for(n: usize) -> usize {
    if n >= 4096 {
        3
    } else {
        7
    }
}

/// Tallies of the output checks the probes make along the way.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    checked: u64,
    mismatches: u64,
}

impl Checks {
    fn same(&mut self, a: &[f32], b: &[f32]) {
        self.checked += 1;
        self.mismatches += u64::from(!bit_equal(a, b));
    }
}

/// The kernel and mechanism rungs on the `attn_batched` shapes.
fn attention_rungs(seed: u64, out: &mut Vec<Metric>, checks: &mut Checks) {
    let mechs = inputs::attn_mechs();
    let mut ctx = GpuCtx::a100();
    let scale = 1.0 / (D as f32).sqrt();
    let p12 = NmPattern::P1_2;
    for s in attn::shapes(seed) {
        let (n, reps) = (s.n, reps_for(s.n));
        let gemm_nt = time_ms(reps, || {
            let r = gemm::gemm_nt_batched(&mut ctx, Stage::Qk, &s.q, &s.k, scale);
            ctx.reset_timeline();
            r
        });
        let scores = gemm::gemm_nt_batched(&mut ctx, Stage::Qk, &s.q, &s.k, scale);
        let softmax_dense = time_ms(reps, || {
            let r = softmax::softmax_dense_batched(&mut ctx, &scores);
            ctx.reset_timeline();
            r
        });
        let weights = softmax::softmax_dense_batched(&mut ctx, &scores);
        drop(scores);
        let gemm_nn = time_ms(reps, || {
            let r = gemm::gemm_nn_batched(&mut ctx, Stage::Av, &weights, &s.v);
            ctx.reset_timeline();
            r
        });
        drop(weights);
        let sddmm_ms = time_ms(reps, || {
            let r = sddmm::sddmm_nm_fused_batched(&mut ctx, &s.q, &s.k, scale, p12);
            ctx.reset_timeline();
            r
        });
        let mut comp = sddmm::sddmm_nm_fused_batched(&mut ctx, &s.q, &s.k, scale, p12);
        // Softmax runs in place; repeating it on normalised rows costs the same.
        let softmax_nm = time_ms(reps, || {
            softmax::softmax_nm_batched(&mut ctx, &mut comp);
            ctx.reset_timeline();
        });
        let mut comp = sddmm::sddmm_nm_fused_batched(&mut ctx, &s.q, &s.k, scale, p12);
        softmax::softmax_nm_batched(&mut ctx, &mut comp);
        let spmm_ms = time_ms(reps, || {
            let r = spmm::spmm_nm_batched(&mut ctx, &comp, &s.v);
            ctx.reset_timeline();
            r
        });
        // The hand-run Dfss 1:2 pipeline must equal `forward_batched`.
        let pipeline = spmm::spmm_nm_batched(&mut ctx, &comp, &s.v);
        ctx.reset_timeline();
        drop(comp);
        for (f, ms) in [
            ("gemm_nt", gemm_nt),
            ("gemm_nn", gemm_nn),
            ("softmax_dense", softmax_dense),
            ("sddmm_nm_fused", sddmm_ms),
            ("softmax_nm", softmax_nm),
            ("spmm_nm", spmm_ms),
        ] {
            out.push(Metric::new(format!("kernels.{f}.n{n}_ms"), ms, "ms"));
        }
        out.push(Metric::new(
            format!("mechanism.prune_overhead.n{n}"),
            sddmm_ms / gemm_nt,
            "ratio",
        ));
        out.push(Metric::new(
            format!("mechanism.av_ratio.n{n}"),
            spmm_ms / gemm_nn,
            "ratio",
        ));

        for (name, mech) in ATTN_MECHS.iter().zip(&mechs) {
            let t = time_ms(reps, || {
                let r = mech.forward_batched(&mut ctx, &s.q, &s.k, &s.v);
                ctx.reset_timeline();
                r
            });
            out.push(Metric::new(format!("mechanism.{name}.n{n}_ms"), t, "ms"));
            if *name == "dfss12" {
                let glue = t - (sddmm_ms + softmax_nm + spmm_ms);
                out.push(Metric::new(format!("mechanism.glue.n{n}_ms"), glue, "ms"));
                let whole = mech.forward_batched(&mut ctx, &s.q, &s.k, &s.v);
                ctx.reset_timeline();
                checks.same(pipeline.as_slice(), whole.as_slice());
            }
        }
        checks.attempted += (6 + ATTN_MECHS.len()) as u64 * (reps as u64 + 1);
    }
}

/// The decode rungs on the `serve_mixed` fleet, and one prefill chunk.
fn decode_rungs(seed: u64, out: &mut Vec<Metric>, checks: &mut Checks) {
    const REPS: usize = 51;
    let fleet = Fleet::new(seed);
    let mech = inputs::serving_mech();
    let mut ctx = GpuCtx::a100();
    let scale = 1.0 / (D as f32).sqrt();
    let p12 = NmPattern::P1_2;
    let k_parts: Vec<&[f32]> = fleet.k.iter().map(Matrix::as_slice).collect();
    let v_parts: Vec<&[f32]> = fleet.v.iter().map(Matrix::as_slice).collect();
    let k = RaggedBatch::from_slices(D, &k_parts);
    let v = RaggedBatch::from_slices(D, &v_parts);
    let q = &fleet.q;

    let sddmm_ms = time_ms(REPS, || {
        let r = sddmm::sddmm_nm_fused_ragged(&mut ctx, q, &k, scale, p12);
        ctx.reset_timeline();
        r
    });
    let mut comp = sddmm::sddmm_nm_fused_ragged(&mut ctx, q, &k, scale, p12);
    let softmax_ms = time_ms(REPS, || {
        softmax::softmax_nm_ragged(&mut ctx, &mut comp);
        ctx.reset_timeline();
    });
    let mut comp = sddmm::sddmm_nm_fused_ragged(&mut ctx, q, &k, scale, p12);
    softmax::softmax_nm_ragged(&mut ctx, &mut comp);
    let spmm_ms = time_ms(REPS, || {
        let r = spmm::spmm_nm_ragged(&mut ctx, &comp, &v);
        ctx.reset_timeline();
        r
    });
    let ragged_ms = time_ms(REPS, || {
        let r = mech.decode_ragged(&mut ctx, q, &k, &v);
        ctx.reset_timeline();
        r
    });
    let want = mech.decode_ragged(&mut ctx, q, &k, &v);

    // The same fleet in paged KV, as the server's sessions hold it.
    let config = inputs::kv_config();
    let mut pool = KvPool::<f32>::new(&config);
    let caches: Vec<PagedKvCache<f32>> = fleet
        .k
        .iter()
        .zip(&fleet.v)
        .map(|(kk, vv)| {
            let mut c = PagedKvCache::new(&config, D, D).expect("fleet rows fit a page");
            c.extend(&mut pool, kk, vv)
                .expect("budget admits the fleet");
            c
        })
        .collect();
    let steps: Vec<DecodeStep<'_, f32>> = caches
        .iter()
        .enumerate()
        .map(|(i, c)| DecodeStep {
            q_row: q.row(i),
            k_rows: c.k_rows(&pool),
            v_rows: c.v_rows(&pool),
            len: c.len(),
            d: D,
            d_v: D,
        })
        .collect();
    let mut engine = AttentionEngine::new(mech.as_ref());
    let flush_ms = time_ms(REPS, || {
        let r = engine.flush_decode(&steps);
        engine.reset_timeline();
        r
    });
    match engine.flush_decode(&steps) {
        Ok(done) => {
            let got: Vec<f32> = done
                .iter()
                .flat_map(|d| d.output.as_ref().map_or(&[][..], Matrix::as_slice).to_vec())
                .collect();
            checks.same(&got, want.as_slice());
        }
        Err(_) => checks.failed += 1,
    }
    engine.reset_timeline();

    out.push(Metric::new(
        "kernels.decode.sddmm_nm_fused_ragged_ms",
        sddmm_ms,
        "ms",
    ));
    out.push(Metric::new(
        "kernels.decode.softmax_nm_ragged_ms",
        softmax_ms,
        "ms",
    ));
    out.push(Metric::new(
        "kernels.decode.spmm_nm_ragged_ms",
        spmm_ms,
        "ms",
    ));
    out.push(Metric::new("mechanism.decode_ragged_ms", ragged_ms, "ms"));
    out.push(Metric::new("engine.flush_decode_ms", flush_ms, "ms"));
    out.push(Metric::new(
        "engine.decode_pack_ms",
        flush_ms - ragged_ms,
        "ms",
    ));

    // One 64-row prefill chunk at n = 1024, from the prefill pool.
    let (_, prefills) = inputs::serve_pools(seed);
    let p = prefills
        .iter()
        .find(|p| p.q.rows() == 1024)
        .expect("the pool holds n = 1024 prefills");
    let chunk = inputs::head_rows(&p.q, inputs::sched_policy().prefill_chunk);
    let chunk_ms = time_ms(21, || {
        let r = engine.forward_chunk(&chunk, &p.k, &p.v);
        engine.reset_timeline();
        r
    });
    out.push(Metric::new("engine.forward_chunk_ms", chunk_ms, "ms"));
    checks.attempted += 5 * (REPS as u64 + 1) + 22;
}

/// The tail percentiles a run reports among its unbounded extras.
fn tails(extras: &[Metric]) -> impl Iterator<Item = Metric> + '_ {
    extras
        .iter()
        .filter(|m| m.name.starts_with("tail."))
        .cloned()
}

/// Short `serve_mixed` and `http_front` runs, for the numbers the server,
/// KV pool, scheduler and front door report through their public API.
fn serving_rungs(seed: u64, seconds: f64, out: &mut Vec<Metric>, checks: &mut Checks) {
    let off = || Tracer::new(false, Instant::now());
    let mut s = serve::setup(seed);
    let o = serve::run(&mut s, seconds, &mut [off(), off()], true);
    s.finish();
    checks.attempted += o.attempted;
    checks.failed += o.failed;
    checks.checked += o.checked;
    checks.mismatches += o.mismatches;
    out.extend(o.layers);
    out.extend(tails(&o.extras));

    let h = http_front::setup(seed);
    let mut trs: Vec<Tracer> = (0..http_front::connections()).map(|_| off()).collect();
    let o = http_front::run(&h, seconds, &mut trs, true);
    let stats = h.finish();
    checks.attempted += o.attempted;
    checks.failed += o.failed;
    checks.checked += o.checked;
    checks.mismatches += o.mismatches;
    out.extend(o.layers);
    out.extend(tails(&o.extras));
    out.push(Metric::new(
        "http.connections_accepted",
        stats.http_connections_accepted as f64,
        "count",
    ));
    out.push(Metric::new(
        "http.parse_rejects",
        stats.http_parse_rejects as f64,
        "count",
    ));
}

/// The wire rung: render and parse `http_front`'s own bodies and replies.
fn wire_rung(seed: u64, out: &mut Vec<Metric>, checks: &mut Checks) {
    let plan = http_front::plan(seed, 0);
    let mech = inputs::serving_mech();
    let mut ctx = GpuCtx::a100();
    let (body, p) = &plan.prefills[0];
    let rendered = body.render();
    let output = mech.forward(&mut ctx, &p.q, &p.k, &p.v);
    // Reply shapes as the front door builds them.
    let prefill_reply = Json::obj(vec![
        ("output", http_front::matrix_json(&output)),
        ("ticket", Json::Num(1.0)),
        ("batch_size", Json::Num(1.0)),
        ("queue_wait_us", Json::Num(10.0)),
        ("sim_latency_s", Json::Num(1e-5)),
    ]);
    let tok = &plan.tokens[0];
    let token_body = tok.append.render();
    let decode_reply = Json::obj(vec![
        ("output", Json::f32_row(&tok.q_row)),
        ("cached_len", Json::Num(288.0)),
        ("batch_size", Json::Num(2.0)),
        ("ticket", Json::Num(1.0)),
    ]);
    let render_body = time_ms(21, || body.render());
    let parse_body = time_ms(21, || Json::parse(rendered.as_bytes()));
    let render_reply = time_ms(21, || prefill_reply.render());
    let parse_token = time_ms(501, || Json::parse(token_body.as_bytes())) * 1e3;
    let render_decode = time_ms(501, || decode_reply.render()) * 1e3;
    match Json::parse(rendered.as_bytes()) {
        Ok(back) => {
            checks.checked += 1;
            checks.mismatches += u64::from(back != *body);
        }
        Err(_) => checks.failed += 1,
    }
    out.push(Metric::new(
        "wire.render_ms.prefill_body",
        render_body,
        "ms",
    ));
    out.push(Metric::new("wire.parse_ms.prefill_body", parse_body, "ms"));
    out.push(Metric::new(
        "wire.render_ms.prefill_reply",
        render_reply,
        "ms",
    ));
    out.push(Metric::new("wire.parse_us.token_body", parse_token, "us"));
    out.push(Metric::new(
        "wire.render_us.decode_reply",
        render_decode,
        "us",
    ));
    checks.attempted += 3 * 22 + 2 * 502;
}

const USAGE: &str = "usage: perfbench-probes --seed <n> [--out <dir>] [--commit <id>]";

/// Seconds each of the short serving runs lasts.
const SERVE_SECONDS: f64 = 3.0;

struct Args {
    seed: u64,
    out: PathBuf,
    commit: String,
}

fn parse_args() -> Option<Args> {
    let mut it = std::env::args().skip(1);
    let mut seed = None;
    let mut args = Args {
        seed: 0,
        out: PathBuf::from("perfbench/out"),
        commit: String::from("unknown"),
    };
    while let Some(flag) = it.next() {
        let value = it.next()?;
        match flag.as_str() {
            "--seed" => seed = Some(value.parse().ok()?),
            "--out" => args.out = PathBuf::from(value),
            "--commit" => args.commit = value,
            _ => return None,
        }
    }
    args.seed = seed?;
    Some(args)
}

fn main() -> ExitCode {
    let Some(args) = parse_args() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let seed = args.seed;
    let mut out = Vec::new();
    let mut checks = Checks::default();
    attention_rungs(seed, &mut out, &mut checks);
    decode_rungs(seed, &mut out, &mut checks);
    serving_rungs(seed, SERVE_SECONDS, &mut out, &mut checks);
    wire_rung(seed, &mut out, &mut checks);
    let correct = checks.mismatches == 0 && checks.failed == 0;

    let mut fields = vec![
        ("seed", seed.to_string()),
        ("commit", report::string(&args.commit)),
    ];
    fields.extend(report::host_fields());
    fields.push(("checked", checks.checked.to_string()));
    fields.push(("mismatches", checks.mismatches.to_string()));
    fields.push(("metrics", report::metrics_object(&out)));
    let path = args.out.join(format!("probes-seed{seed}.json"));
    let written = std::fs::create_dir_all(&args.out)
        .and_then(|()| std::fs::write(&path, format!("{}\n", report::object(&fields))));
    if let Err(e) = written {
        eprintln!("perfbench-probes: cannot write {}: {e}", path.display());
    }
    println!(
        "{}",
        report::result_line(
            correct,
            checks.attempted,
            checks.failed + checks.mismatches,
            &out
        )
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench-probes: {} of {} checked outputs differ, {} operations failed",
            checks.mismatches, checks.checked, checks.failed
        );
        ExitCode::FAILURE
    }
}
