//! `speedup` — host wall-clock of the executed kernels and of batched
//! attention.
//!
//! Unlike the figure/table binaries (which report *simulated device*
//! latency), this times the real CPU work and writes two artifacts:
//!
//! * `results/bench_kernels.json` — each kernel family timed under the
//!   forced-scalar backend and under the runtime-dispatched one at one size
//!   (interleaved, min-based speedup), plus decode tokens/sec against cache
//!   length for f32 vs bf16-quantised KV. In full mode `--check` gates on
//!   it: no family may regress past the noise floor, at least one family
//!   must clear 1.3x, and bf16 decode must beat f32 at the longest cache.
//! * `results/bench_attention.json` — exec-mode Dfss multi-head forward
//!   over the §5.2 B×H grid, batched (one launch per op across the whole
//!   stack) vs the per-head loop. In full mode `--check` requires the
//!   (n ≥ 512, B×H ≥ 64) shape; the ratio itself is not gated.
//!
//! Per-family kernel times at the benchmark's own shapes, and any
//! before/after comparison of two trees, come from the repository
//! benchmark (`perfbench/`), which runs alternating parent/change pairs.
//!
//! Knobs: `DFSS_QUICK=1` (small shapes, few samples: the CI smoke mode),
//! `DFSS_RESULTS=<dir>`. `speedup --check <path>` validates either artifact
//! (dispatched on its `artifact` field) and exits non-zero on violation.

use dfss_bench::json::Json;
use dfss_bench::{
    artifact_header, check_array, check_header, check_numbers, mode, quick, round3, save_json,
    Report,
};
use dfss_core::mechanism::KvViews;
use dfss_core::{Attention, DfssAttention};
use dfss_gpusim::Stage;
use dfss_kernels::simd::{self, Backend};
use dfss_kernels::{gemm, sddmm, softmax, spmm, GpuCtx};
use dfss_nmsparse::{NmCompressed, NmPattern};
use dfss_tensor::{tf32_round, BatchedMatrix, Bf16, Matrix, RaggedBatch, Rng};
use std::hint::black_box;
use std::time::{Duration, Instant};

const SCHEMA_VERSION: f64 = 3.0;
const HEAD_DIM: usize = 64;

/// One batched-attention configuration: interleaved samples of the
/// per-head-looped and natively batched exec-mode Dfss forward.
struct AttnMeasurement {
    n: usize,
    d: usize,
    bh: usize,
    looped_s: Vec<f64>,
    batched_s: Vec<f64>,
}

fn stats_of(samples: &[f64]) -> (f64, f64) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let p50 = sorted[(sorted.len() - 1) / 2];
    (sorted[0], p50)
}

/// Measure the batched-attention section over the §5.2 B×H grid: the same
/// B×H panel stack runs through `forward_batched` (one launch per op) and
/// through a per-head `forward` loop, alternating so host-load drift hits
/// both sides equally. Outputs are bit-identical (asserted once per
/// config); only wall-clock differs.
fn run_attention_grid() -> Vec<AttnMeasurement> {
    let d = HEAD_DIM;
    let grid: &[(usize, usize)] = if quick() {
        &[(256, 8)]
    } else {
        // (n, B×H): the acceptance gate shape (512, 64) plus a longer
        // sequence at the same batch volume.
        &[(512, 64), (1024, 64)]
    };
    let samples = if quick() { 3 } else { 7 };
    let mech = DfssAttention::new(NmPattern::P1_2);
    let mut out = Vec::new();
    for &(n, bh) in grid {
        let mut rng = Rng::new((n + bh) as u64);
        let qb = BatchedMatrix::<f32>::random_normal(bh, n, d, 0.0, 1.0, &mut rng);
        let kb = BatchedMatrix::<f32>::random_normal(bh, n, d, 0.0, 1.0, &mut rng);
        let vb = BatchedMatrix::<f32>::random_normal(bh, n, d, 0.0, 1.0, &mut rng);
        let panels: Vec<(Matrix<f32>, Matrix<f32>, Matrix<f32>)> = (0..bh)
            .map(|b| (qb.to_panel(b), kb.to_panel(b), vb.to_panel(b)))
            .collect();

        let run_looped = || {
            let mut outs = Vec::with_capacity(bh);
            for (q, k, v) in &panels {
                let mut ctx = GpuCtx::a100();
                outs.push(mech.forward(&mut ctx, q, k, v));
            }
            outs
        };
        let run_batched = || {
            let mut ctx = GpuCtx::a100();
            mech.forward_batched(&mut ctx, &qb, &kb, &vb)
        };

        // Warm-up doubles as the bit-parity assertion.
        let looped = run_looped();
        let batched = run_batched();
        for (b, m) in looped.iter().enumerate() {
            let equal = m
                .as_slice()
                .iter()
                .zip(batched.panel(b))
                .all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(
                equal,
                "batched forward diverged from per-head loop (panel {b})"
            );
        }

        eprintln!("[speedup] attention n = {n}, BxH = {bh} ...");
        let mut m = AttnMeasurement {
            n,
            d,
            bh,
            looped_s: Vec::new(),
            batched_s: Vec::new(),
        };
        for _ in 0..samples {
            let t = Instant::now();
            black_box(run_looped());
            m.looped_s.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            black_box(run_batched());
            m.batched_s.push(t.elapsed().as_secs_f64());
        }
        out.push(m);
    }
    out
}

fn emit_attention(measurements: &[AttnMeasurement]) {
    let mut report = Report::new(
        "batched vs per-head-looped Dfss forward (exec mode wall-clock)",
        &[
            "n",
            "d",
            "BxH",
            "looped_min_ms",
            "looped_p50_ms",
            "batched_min_ms",
            "batched_p50_ms",
            "speedup",
        ],
    );
    let mut entries = Vec::new();
    for m in measurements {
        let (lmin, lp50) = stats_of(&m.looped_s);
        let (bmin, bp50) = stats_of(&m.batched_s);
        let speedup = lmin / bmin.max(1e-12);
        entries.push(Json::obj(vec![
            ("n", Json::Num(m.n as f64)),
            ("d", Json::Num(m.d as f64)),
            ("bh", Json::Num(m.bh as f64)),
            ("samples", Json::Num(m.looped_s.len() as f64)),
            ("looped_min_ms", Json::Num(round3(lmin * 1e3))),
            ("looped_p50_ms", Json::Num(round3(lp50 * 1e3))),
            ("batched_min_ms", Json::Num(round3(bmin * 1e3))),
            ("batched_p50_ms", Json::Num(round3(bp50 * 1e3))),
            ("speedup", Json::Num(round3(speedup))),
            ("work_elems", Json::Num((m.bh * m.n * m.n * m.d) as f64)),
        ]));
        report.row(vec![
            m.n.to_string(),
            m.d.to_string(),
            m.bh.to_string(),
            format!("{:.3}", lmin * 1e3),
            format!("{:.3}", lp50 * 1e3),
            format!("{:.3}", bmin * 1e3),
            format!("{:.3}", bp50 * 1e3),
            format!("{speedup:.2}x"),
        ]);
    }
    let mut doc = artifact_header(SCHEMA_VERSION, "bench_attention");
    doc.extend([
        ("dtype", Json::Str("float".into())),
        ("pattern", Json::Str("1:2".into())),
        ("entries", Json::Arr(entries)),
    ]);
    println!("{}", report.render());
    save_json("bench_attention", &Json::obj(doc));
}

/// One scalar-vs-dispatched comparison for a kernel family: the same inputs
/// timed under `simd::force(Scalar)` and under the runtime-detected backend,
/// interleaved so host-load drift hits both sides equally.
struct SimdMeasurement {
    family: &'static str,
    n: usize,
    scalar_s: Vec<f64>,
    simd_s: Vec<f64>,
}

/// One decode throughput point: tokens/sec for a fixed stream batch at one
/// cache length, f32 KV vs bf16-quantised KV, each held as its serving
/// store holds it (both under the dispatched backend — this isolates the
/// storage dtype, not the instruction set).
struct DecodeMeasurement {
    cache_len: usize,
    streams: usize,
    f32_s: Vec<f64>,
    bf16_s: Vec<f64>,
}

/// Shortest run of calls one decode sample times: a single call takes tens
/// of microseconds, too short for one clock reading to separate two trees.
const DECODE_RUN: Duration = Duration::from_millis(2);

/// One decode sample: the mean seconds per call of `f` over a run of calls
/// lasting at least [`DECODE_RUN`].
fn per_call_s(mut f: impl FnMut()) -> f64 {
    let (t, mut calls) = (Instant::now(), 0u32);
    while calls == 0 || t.elapsed() < DECODE_RUN {
        f();
        calls += 1;
    }
    t.elapsed().as_secs_f64() / f64::from(calls)
}

/// Time `f` once under each forced backend, alternating per sample.
fn measure_forced(
    family: &'static str,
    n: usize,
    dispatched: Backend,
    samples: usize,
    mut f: impl FnMut(),
) -> SimdMeasurement {
    let mut m = SimdMeasurement {
        family,
        n,
        scalar_s: Vec::with_capacity(samples),
        simd_s: Vec::with_capacity(samples),
    };
    // Warm up each backend once before timing.
    simd::force(Some(Backend::Scalar));
    f();
    simd::force(Some(dispatched));
    f();
    for _ in 0..samples {
        simd::force(Some(Backend::Scalar));
        let t = Instant::now();
        f();
        m.scalar_s.push(t.elapsed().as_secs_f64());
        simd::force(Some(dispatched));
        let t = Instant::now();
        f();
        m.simd_s.push(t.elapsed().as_secs_f64());
    }
    simd::force(None);
    m
}

/// Measure `bench_kernels`: every kernel family scalar-vs-dispatched at one
/// representative size, then decode tokens/sec against cache length for
/// f32 vs bf16-quantised KV.
fn run_kernels() -> (Vec<SimdMeasurement>, Vec<DecodeMeasurement>) {
    let dispatched = simd::active();
    let n = if quick() { 128 } else { 512 };
    let d = HEAD_DIM;
    let samples = if quick() { 3 } else { 11 };
    let mut rng = Rng::new(0x51D);
    let q = Matrix::<f32>::random_normal(n, d, 0.0, 1.0, &mut rng);
    let k = Matrix::<f32>::random_normal(n, d, 0.0, 1.0, &mut rng);
    let v = Matrix::<f32>::random_normal(n, d, 0.0, 1.0, &mut rng);
    let scores = Matrix::<f32>::random_normal(n, n, 0.0, 1.0, &mut rng);
    let comp = NmCompressed::compress(&scores, NmPattern::P1_2);
    let mut softmax_comp = comp.clone();

    eprintln!(
        "[speedup] kernels: {} vs scalar, n = {n} ...",
        dispatched.name()
    );
    let mut kernels = Vec::new();
    kernels.push(measure_forced("gemm_nt", n, dispatched, samples, || {
        let mut ctx = GpuCtx::a100();
        black_box(gemm::gemm_nt(&mut ctx, Stage::Qk, &q, &k, 0.125));
    }));
    kernels.push(measure_forced("gemm_nn", n, dispatched, samples, || {
        let mut ctx = GpuCtx::a100();
        black_box(gemm::gemm_nn(&mut ctx, Stage::Av, &scores, &v));
    }));
    kernels.push(measure_forced(
        "sddmm_nm_fused",
        n,
        dispatched,
        samples,
        || {
            let mut ctx = GpuCtx::a100();
            black_box(sddmm::sddmm_nm_fused(
                &mut ctx,
                &q,
                &k,
                0.125,
                NmPattern::P1_2,
            ));
        },
    ));
    kernels.push(measure_forced(
        "softmax_dense",
        n,
        dispatched,
        samples,
        || {
            let mut ctx = GpuCtx::a100();
            black_box(softmax::softmax_dense(&mut ctx, &scores));
        },
    ));
    kernels.push(measure_forced("softmax_nm", n, dispatched, samples, || {
        let mut ctx = GpuCtx::a100();
        softmax::softmax_nm(&mut ctx, &mut softmax_comp);
        black_box(&mut softmax_comp);
    }));
    kernels.push(measure_forced("spmm_nm", n, dispatched, samples, || {
        let mut ctx = GpuCtx::a100();
        black_box(spmm::spmm_nm(&mut ctx, &comp, &v));
    }));

    // Decode throughput vs cache length, f32 vs bf16 KV. One call = one
    // decode step for the whole stream batch, so tokens/call = streams.
    let cache_lens: &[usize] = if quick() { &[256] } else { &[256, 1024, 4096] };
    let streams = 8;
    let decode_samples = if quick() { 3 } else { 9 };
    let mech = DfssAttention::new(NmPattern::P1_2);
    let mut decode = Vec::new();
    for &len in cache_lens {
        let mut rng = Rng::new(len as u64);
        let q = Matrix::<f32>::random_normal(streams, d, 0.0, 1.0, &mut rng);
        let lens = vec![len; streams];
        let mut kf = RaggedBatch::<f32>::zeros(d, &lens);
        let mut vf = RaggedBatch::<f32>::zeros(d, &lens);
        for x in kf.as_mut_slice() {
            *x = rng.normal(0.0, 1.0);
        }
        for x in vf.as_mut_slice() {
            *x = rng.normal(0.0, 1.0);
        }
        // Each side holds the same cache as its serving store does: the bf16
        // side narrowed once at build time, as `KvStore::Quant` stores it,
        // and the f32 side TF32-rounded once and read in operand form, as
        // `KvStore::Native` stores it.
        let mut kb = RaggedBatch::<Bf16>::zeros(d, &lens);
        let mut vb = RaggedBatch::<Bf16>::zeros(d, &lens);
        for (o, x) in kb.as_mut_slice().iter_mut().zip(kf.as_slice()) {
            *o = Bf16::from_f32(*x);
        }
        for (o, x) in vb.as_mut_slice().iter_mut().zip(vf.as_slice()) {
            *o = Bf16::from_f32(*x);
        }
        for x in kf.as_mut_slice().iter_mut().chain(vf.as_mut_slice()) {
            *x = tf32_round(*x);
        }
        let (mut k, mut v) = (kf.views(), vf.views());
        for view in k.iter_mut().chain(&mut v) {
            view.operand_form = true;
        }
        let f32_kv = KvViews::Native { k, v };
        let bf16_kv = KvViews::Bf16 {
            k: kb.views(),
            v: vb.views(),
        };

        eprintln!("[speedup] decode: cache_len = {len} ...");
        let mut m = DecodeMeasurement {
            cache_len: len,
            streams,
            f32_s: Vec::with_capacity(decode_samples),
            bf16_s: Vec::with_capacity(decode_samples),
        };
        // Warm-up.
        let mut ctx = GpuCtx::a100();
        black_box(mech.decode_paged(&mut ctx, &q, &f32_kv, d));
        black_box(mech.decode_paged(&mut ctx, &q, &bf16_kv, d));
        for _ in 0..decode_samples {
            let mut ctx = GpuCtx::a100();
            m.f32_s.push(per_call_s(|| {
                black_box(mech.decode_paged(&mut ctx, &q, &f32_kv, d));
            }));
            m.bf16_s.push(per_call_s(|| {
                black_box(mech.decode_paged(&mut ctx, &q, &bf16_kv, d));
            }));
        }
        decode.push(m);
    }
    (kernels, decode)
}

/// Print the kernel and decode tables and write `bench_kernels.json`.
fn emit_kernels(kernels: &[SimdMeasurement], decode: &[DecodeMeasurement]) {
    let mut kernel_report = Report::new(
        "scalar vs dispatched SIMD backend (exec mode wall-clock)",
        &["family", "n", "scalar_min_ms", "simd_min_ms", "speedup"],
    );
    let kernel_entries: Vec<Json> = kernels
        .iter()
        .map(|m| {
            let (smin, sp50) = stats_of(&m.scalar_s);
            let (dmin, dp50) = stats_of(&m.simd_s);
            let speedup = smin / dmin.max(1e-12);
            kernel_report.row(vec![
                m.family.to_string(),
                m.n.to_string(),
                format!("{:.3}", smin * 1e3),
                format!("{:.3}", dmin * 1e3),
                format!("{speedup:.2}x"),
            ]);
            Json::obj(vec![
                ("family", Json::Str(m.family.into())),
                ("n", Json::Num(m.n as f64)),
                ("samples", Json::Num(m.scalar_s.len() as f64)),
                ("scalar_min_ms", Json::Num(round3(smin * 1e3))),
                ("scalar_p50_ms", Json::Num(round3(sp50 * 1e3))),
                ("simd_min_ms", Json::Num(round3(dmin * 1e3))),
                ("simd_p50_ms", Json::Num(round3(dp50 * 1e3))),
                ("speedup", Json::Num(round3(speedup))),
            ])
        })
        .collect();

    let mut decode_report = Report::new(
        "decode tokens/sec vs cache length, f32 vs bf16 KV",
        &[
            "cache_len",
            "streams",
            "f32 tok/s",
            "bf16 tok/s",
            "bf16 speedup",
        ],
    );
    let decode_entries: Vec<Json> = decode
        .iter()
        .map(|m| {
            let (fmin, _) = stats_of(&m.f32_s);
            let (bmin, _) = stats_of(&m.bf16_s);
            let f_tps = m.streams as f64 / fmin.max(1e-12);
            let b_tps = m.streams as f64 / bmin.max(1e-12);
            decode_report.row(vec![
                m.cache_len.to_string(),
                m.streams.to_string(),
                format!("{f_tps:.0}"),
                format!("{b_tps:.0}"),
                format!("{:.2}x", fmin / bmin.max(1e-12)),
            ]);
            Json::obj(vec![
                ("cache_len", Json::Num(m.cache_len as f64)),
                ("streams", Json::Num(m.streams as f64)),
                ("d", Json::Num(HEAD_DIM as f64)),
                ("samples", Json::Num(m.f32_s.len() as f64)),
                ("f32_min_ms", Json::Num(round3(fmin * 1e3))),
                ("f32_tokens_per_sec", Json::Num(f_tps.round())),
                ("bf16_min_ms", Json::Num(round3(bmin * 1e3))),
                ("bf16_tokens_per_sec", Json::Num(b_tps.round())),
                ("bf16_speedup", Json::Num(round3(fmin / bmin.max(1e-12)))),
            ])
        })
        .collect();

    println!("{}", kernel_report.render());
    println!("{}", decode_report.render());
    let mut doc = artifact_header(SCHEMA_VERSION, "bench_kernels");
    doc.extend([
        ("backend", Json::Str(simd::active().name().into())),
        ("kernels", Json::Arr(kernel_entries)),
        ("decode", Json::Arr(decode_entries)),
    ]);
    save_json("bench_kernels", &Json::obj(doc));
}

/// `speedup --check`: validate either artifact, dispatched on its
/// `artifact` field.
fn check(doc: &Json) -> Result<String, String> {
    match doc.get("artifact").and_then(Json::as_str) {
        Some("bench_kernels") => check_kernels(doc),
        Some("bench_attention") => check_attention(doc),
        other => Err(format!(
            "artifact {other:?} not in {{bench_kernels, bench_attention}}"
        )),
    }
}

/// Allowed wall-clock regression for the scalar-vs-dispatched comparison:
/// min-of-interleaved-samples on a shared host still jitters by a few
/// percent, so "no family regresses" means `speedup >= 0.95`, not `>= 1.0`.
const SIMD_NOISE_FLOOR: f64 = 0.95;
/// At least one family must clear this under the dispatched backend.
const SIMD_WIN_GATE: f64 = 1.3;

/// Validate `bench_kernels` and, in full mode, its perf gates: no kernel
/// family regresses past the noise floor, at least one clears
/// [`SIMD_WIN_GATE`], and bf16-quantised KV decode beats f32 at the longest
/// measured cache length (which must reach 1024 rows).
fn check_kernels(doc: &Json) -> Result<String, String> {
    let mode = check_header(doc, SCHEMA_VERSION, "bench_kernels")?;
    let backend = doc
        .get("backend")
        .and_then(Json::as_str)
        .ok_or("missing backend")?;
    if !["scalar", "avx2", "avx512"].contains(&backend) {
        return Err(format!("unknown backend `{backend}`"));
    }
    let kernels = check_array(doc, "kernels")?;
    let mut best = 0.0f64;
    for (i, e) in kernels.iter().enumerate() {
        let what = format!("kernel {i}");
        let family = e
            .get("family")
            .and_then(Json::as_str)
            .ok_or(format!("{what}: missing family"))?;
        check_numbers(
            e,
            &what,
            &[
                "n",
                "samples",
                "scalar_min_ms",
                "scalar_p50_ms",
                "simd_min_ms",
                "simd_p50_ms",
                "speedup",
            ],
        )?;
        let speedup = e.get("speedup").and_then(Json::as_f64).unwrap_or(0.0);
        best = best.max(speedup);
        if mode == "full" && speedup < SIMD_NOISE_FLOOR {
            return Err(format!(
                "family {family} regressed under the dispatched backend \
                 (speedup {speedup} < {SIMD_NOISE_FLOOR})"
            ));
        }
    }
    if mode == "full" && best < SIMD_WIN_GATE {
        return Err(format!(
            "no kernel family clears {SIMD_WIN_GATE}x (best {best})"
        ));
    }
    let decode = check_array(doc, "decode")?;
    let mut longest: Option<(f64, f64, f64)> = None; // (cache_len, f32 tok/s, bf16 tok/s)
    for (i, e) in decode.iter().enumerate() {
        check_numbers(
            e,
            &format!("decode {i}"),
            &[
                "cache_len",
                "streams",
                "d",
                "samples",
                "f32_min_ms",
                "f32_tokens_per_sec",
                "bf16_min_ms",
                "bf16_tokens_per_sec",
                "bf16_speedup",
            ],
        )?;
        let num = |field| e.get(field).and_then(Json::as_f64).unwrap_or(0.0);
        let len = num("cache_len");
        if longest.is_none_or(|(l, _, _)| len > l) {
            longest = Some((len, num("f32_tokens_per_sec"), num("bf16_tokens_per_sec")));
        }
    }
    if mode == "full" {
        let (len, f_tps, b_tps) = longest.expect("decode is non-empty");
        if len < 1024.0 {
            return Err(format!(
                "full-mode decode sweep must reach cache_len >= 1024 (longest {len})"
            ));
        }
        if b_tps <= f_tps {
            return Err(format!(
                "bf16 KV decode does not beat f32 at cache_len {len} \
                 ({b_tps} <= {f_tps} tokens/sec)"
            ));
        }
    }
    Ok(format!(
        "bench_kernels {mode} mode, {} families, {} decode points",
        kernels.len(),
        decode.len()
    ))
}

/// Validate `bench_attention`; a full-mode artifact must cover the
/// acceptance-gate shape (B×H ≥ 64 at n ≥ 512).
fn check_attention(doc: &Json) -> Result<String, String> {
    let mode = check_header(doc, SCHEMA_VERSION, "bench_attention")?;
    let entries = check_array(doc, "entries")?;
    for (i, e) in entries.iter().enumerate() {
        check_numbers(
            e,
            &format!("entry {i}"),
            &[
                "n",
                "d",
                "bh",
                "samples",
                "looped_min_ms",
                "looped_p50_ms",
                "batched_min_ms",
                "batched_p50_ms",
                "speedup",
                "work_elems",
            ],
        )?;
    }
    if mode == "full"
        && !entries.iter().any(|e| {
            e.get("n").and_then(Json::as_f64).unwrap_or(0.0) >= 512.0
                && e.get("bh").and_then(Json::as_f64).unwrap_or(0.0) >= 64.0
        })
    {
        return Err("full-mode artifact lacks a (n >= 512, BxH >= 64) entry".into());
    }
    Ok(format!(
        "bench_attention {mode} mode, {} entries",
        entries.len()
    ))
}

fn main() {
    if dfss_bench::handle_check(check) {
        return;
    }
    eprintln!(
        "[speedup] {} mode, {} thread(s)",
        mode(),
        rayon::current_num_threads()
    );
    let (kernels, decode) = run_kernels();
    emit_kernels(&kernels, &decode);
    emit_attention(&run_attention_grid());
}
