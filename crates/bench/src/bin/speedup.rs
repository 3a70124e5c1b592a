//! `speedup` — exec-mode kernel wall-clock benchmark.
//!
//! Unlike the figure/table binaries (which report *simulated device* latency),
//! this measures the real CPU time of the executed kernels across the paper's
//! size grid and emits a stable JSON artifact, `results/bench_kernels.json`,
//! that perf PRs are diffed against.
//!
//! Modes and knobs:
//! * `DFSS_QUICK=1` — small grid + short sampling (the CI smoke mode).
//! * `DFSS_BENCH_BASELINE=<path>` — a previous `bench_kernels.json`; each
//!   entry gains `baseline_mean_ms` and `speedup` fields computed against it.
//! * `DFSS_RESULTS=<dir>` — output directory (default `results/`).
//! * `DFSS_BENCH_PASSES=<n>` — full passes over the grid (default 3; quick
//!   mode 1); samples accumulate per kernel across passes.
//! * `DFSS_BENCH_SAMPLE_CACHE=<path>` — persist raw samples across
//!   *invocations*: previous samples are loaded and merged before stats are
//!   computed, and the union is written back. This is how the checked-in
//!   artifact pair is produced — alternating seed-build and current-build
//!   invocations so host-load drift hits both sides equally (see README
//!   "Performance").
//! * `speedup --check <path>` — validate an artifact against its schema
//!   (`bench_kernels` or `bench_attention`, dispatched on the `artifact`
//!   field) and exit non-zero on violation (used by the CI bench-smoke job).
//!
//! Besides the kernel grid, the run measures a **batched-attention
//! section**: exec-mode Dfss multi-head forward over the §5.2 B×H grid,
//! batched (one launch per op across the whole stack) vs the per-head loop,
//! emitted as `results/bench_attention.json` so the trajectory tooling can
//! track batched-vs-looped speedups across PRs.
//!
//! Schema 2.0 adds a **`simd` section** to `bench_kernels.json`: each kernel
//! family timed under the forced-scalar backend vs the runtime-dispatched
//! one (interleaved, min-based speedup), plus decode tokens/sec against
//! cache length for f32 vs bf16-quantised KV. In full mode `--check` gates
//! on it: no family may regress past the noise floor, at least one family
//! must clear 1.3x, and bf16 decode must beat f32 at the longest cache.

use dfss_bench::json::Json;
use dfss_bench::{quick, results_dir, Report};
use dfss_core::mechanism::KvViews;
use dfss_core::{Attention, DfssAttention};
use dfss_gpusim::Stage;
use dfss_kernels::simd::{self, Backend};
use dfss_kernels::{gemm, sddmm, softmax, spmm, GpuCtx};
use dfss_nmsparse::{NmCompressed, NmPattern};
use dfss_tensor::{tf32_round, BatchedMatrix, Bf16, Matrix, RaggedBatch, Rng};
use std::hint::black_box;
use std::time::{Duration, Instant};

const SCHEMA_VERSION: f64 = 2.0;
const HEAD_DIM: usize = 64;

/// One measured configuration.
struct Measurement {
    kernel: &'static str,
    n: usize,
    d: usize,
    samples: Vec<f64>, // seconds per call
    work_elems: u64,   // logical elements processed per call (throughput unit)
}

impl Measurement {
    /// (min, mean, p50, p95, p99) in seconds per call.
    fn stats(&self) -> (f64, f64, f64, f64, f64) {
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let pct = |p: f64| {
            let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
            sorted[rank.clamp(1, sorted.len()) - 1]
        };
        let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
        (sorted[0], mean, pct(50.0), pct(95.0), pct(99.0))
    }
}

/// Time one kernel closure: warm-up call doubles as the pilot that sizes the
/// sample count to a wall-clock budget.
/// `DFSS_BENCH_ONLY=<kernel>` restricts measurement to one kernel (A/B
/// investigation aid); unset measures everything.
fn kernel_enabled(kernel: &str) -> bool {
    match std::env::var("DFSS_BENCH_ONLY") {
        Ok(only) => only == kernel,
        Err(_) => true,
    }
}

fn measure(
    kernel: &'static str,
    n: usize,
    d: usize,
    work_elems: u64,
    mut f: impl FnMut(),
) -> Measurement {
    if !kernel_enabled(kernel) {
        return Measurement {
            kernel,
            n,
            d,
            samples: Vec::new(),
            work_elems,
        };
    }
    let budget_s = if quick() { 0.15 } else { 0.6 };
    let t0 = Instant::now();
    f(); // warm-up + pilot
    let pilot = t0.elapsed().as_secs_f64().max(1e-9);
    let target = ((budget_s / pilot) as usize).clamp(3, if quick() { 8 } else { 30 });
    let mut samples = Vec::with_capacity(target);
    for _ in 0..target {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
    }
    Measurement {
        kernel,
        n,
        d,
        samples,
        work_elems,
    }
}

/// Number of full passes over the size grid; samples accumulate per kernel
/// across passes. Spreading a kernel's samples over several minutes keeps
/// the per-entry p50 (the statistic speedups are computed on) robust against
/// sustained interference on shared hosts (a bad minute can no longer cover
/// one kernel's whole window).
fn passes() -> usize {
    std::env::var("DFSS_BENCH_PASSES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick() { 1 } else { 3 })
        .max(1)
}

/// Load previously cached raw samples (see `DFSS_BENCH_SAMPLE_CACHE`).
fn load_sample_cache(path: &str) -> Vec<Measurement> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let Ok(doc) = Json::parse(&text) else {
        eprintln!("[speedup] ignoring unparseable sample cache {path}");
        return Vec::new();
    };
    let mut out = Vec::new();
    let Some(entries) = doc.get("entries").and_then(Json::as_arr) else {
        return Vec::new();
    };
    for e in entries {
        let (Some(kernel), Some(n), Some(d), Some(work), Some(samples)) = (
            e.get("kernel").and_then(Json::as_str),
            e.get("n").and_then(Json::as_f64),
            e.get("d").and_then(Json::as_f64),
            e.get("work_elems").and_then(Json::as_f64),
            e.get("samples_s").and_then(Json::as_arr),
        ) else {
            continue;
        };
        // Interned kernel names: samples only merge into configs the current
        // grid also measures, so leaking the &'static str is bounded.
        let kernel: &'static str = match kernel {
            "gemm_nt" => "gemm_nt",
            "gemm_nn" => "gemm_nn",
            "sddmm_nm_fused" => "sddmm_nm_fused",
            "softmax_dense" => "softmax_dense",
            "softmax_nm" => "softmax_nm",
            "spmm_nm" => "spmm_nm",
            _ => continue,
        };
        out.push(Measurement {
            kernel,
            n: n as usize,
            d: d as usize,
            samples: samples.iter().filter_map(Json::as_f64).collect(),
            work_elems: work as u64,
        });
    }
    out
}

/// Write the union of raw samples back to the cache.
fn save_sample_cache(path: &str, measurements: &[Measurement]) {
    let entries: Vec<Json> = measurements
        .iter()
        .map(|m| {
            Json::obj(vec![
                ("kernel", Json::Str(m.kernel.into())),
                ("n", Json::Num(m.n as f64)),
                ("d", Json::Num(m.d as f64)),
                ("work_elems", Json::Num(m.work_elems as f64)),
                (
                    "samples_s",
                    Json::Arr(m.samples.iter().map(|&x| Json::Num(x)).collect()),
                ),
            ])
        })
        .collect();
    let doc = Json::obj(vec![
        ("artifact", Json::Str("bench_samples".into())),
        ("entries", Json::Arr(entries)),
    ]);
    if let Err(e) = std::fs::write(path, doc.render()) {
        eprintln!("[speedup] could not write sample cache {path}: {e}");
    }
}

fn run_grid() -> Vec<Measurement> {
    let sizes: &[usize] = if quick() {
        &[128, 256]
    } else {
        &[256, 512, 1024, 2048]
    };
    let d = HEAD_DIM;
    let mut out: Vec<Measurement> = Vec::new();
    let passes = passes();
    for pass in 0..passes {
        let mut pass_out = run_grid_pass(sizes, d, pass, passes);
        for m in pass_out.drain(..) {
            match out
                .iter_mut()
                .find(|o| o.kernel == m.kernel && o.n == m.n && o.d == m.d)
            {
                Some(existing) => existing.samples.extend(m.samples),
                None => out.push(m),
            }
        }
    }
    out
}

fn run_grid_pass(sizes: &[usize], d: usize, pass: usize, passes: usize) -> Vec<Measurement> {
    let mut out = Vec::new();
    for &n in sizes {
        let mut rng = Rng::new(n as u64);
        let q = Matrix::<f32>::random_normal(n, d, 0.0, 1.0, &mut rng);
        let k = Matrix::<f32>::random_normal(n, d, 0.0, 1.0, &mut rng);
        let v = Matrix::<f32>::random_normal(n, d, 0.0, 1.0, &mut rng);
        let scores = Matrix::<f32>::random_normal(n, n, 0.0, 1.0, &mut rng);
        let comp = NmCompressed::compress(&scores, NmPattern::P1_2);

        eprintln!("[speedup] pass {}/{passes}: n = {n} ...", pass + 1);
        out.push(measure("gemm_nt", n, d, (n * n * d) as u64, || {
            let mut ctx = GpuCtx::a100();
            black_box(gemm::gemm_nt(&mut ctx, Stage::Qk, &q, &k, 0.125));
        }));
        out.push(measure("gemm_nn", n, d, (n * n * d) as u64, || {
            let mut ctx = GpuCtx::a100();
            black_box(gemm::gemm_nn(&mut ctx, Stage::Av, &scores, &v));
        }));
        out.push(measure("sddmm_nm_fused", n, d, (n * n * d) as u64, || {
            let mut ctx = GpuCtx::a100();
            black_box(sddmm::sddmm_nm_fused(
                &mut ctx,
                &q,
                &k,
                0.125,
                NmPattern::P1_2,
            ));
        }));
        out.push(measure("softmax_dense", n, d, (n * n) as u64, || {
            let mut ctx = GpuCtx::a100();
            black_box(softmax::softmax_dense(&mut ctx, &scores));
        }));
        // Clone once outside the timed closure: re-normalising the same
        // buffer runs the identical per-row work (max/exp/sum/scale over the
        // same lengths) without timing an 8 MB memcpy alongside the kernel.
        let mut softmax_comp = comp.clone();
        out.push(measure("softmax_nm", n, d, (n * n / 2) as u64, || {
            let mut ctx = GpuCtx::a100();
            softmax::softmax_nm(&mut ctx, &mut softmax_comp);
            black_box(&mut softmax_comp);
        }));
        out.push(measure("spmm_nm", n, d, (n * n / 2 * d) as u64, || {
            let mut ctx = GpuCtx::a100();
            black_box(spmm::spmm_nm(&mut ctx, &comp, &v));
        }));
    }
    out
}

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
    let doc = Json::obj(vec![
        ("schema_version", Json::Num(SCHEMA_VERSION)),
        ("artifact", Json::Str("bench_attention".into())),
        (
            "mode",
            Json::Str(if quick() { "quick" } else { "full" }.into()),
        ),
        ("threads", Json::Num(rayon::current_num_threads() as f64)),
        ("dtype", Json::Str("float".into())),
        ("pattern", Json::Str("1:2".into())),
        ("entries", Json::Arr(entries)),
    ]);
    println!("{}", report.render());
    let path = results_dir().join("bench_attention.json");
    std::fs::write(&path, doc.render()).expect("write bench_attention.json");
    println!("[saved {}]", path.display());
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

/// Measure the `simd` section: every kernel family scalar-vs-dispatched at
/// one representative size, then decode tokens/sec against cache length for
/// f32 vs bf16-quantised KV.
fn run_simd_grid() -> (Vec<SimdMeasurement>, Vec<DecodeMeasurement>) {
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
        "[speedup] simd section: {} vs scalar, n = {n} ...",
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

        eprintln!("[speedup] simd decode: cache_len = {len} ...");
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

/// Render the `simd` section object and print its human-readable tables.
fn emit_simd(kernels: &[SimdMeasurement], decode: &[DecodeMeasurement]) -> Json {
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
    Json::obj(vec![
        ("backend", Json::Str(simd::active().name().into())),
        ("kernels", Json::Arr(kernel_entries)),
        ("decode", Json::Arr(decode_entries)),
    ])
}

/// Load a baseline artifact: `(kernel, n, d, min_ms, p50_ms)` per entry.
fn load_baseline(path: &str) -> Vec<(String, usize, usize, f64, f64)> {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read baseline {path}: {e}"));
    let doc = Json::parse(&text).unwrap_or_else(|e| panic!("parse baseline {path}: {e}"));
    let mut out = Vec::new();
    if let Some(entries) = doc.get("entries").and_then(Json::as_arr) {
        for e in entries {
            let (Some(kernel), Some(n), Some(d), Some(min), Some(p50)) = (
                e.get("kernel").and_then(Json::as_str),
                e.get("n").and_then(Json::as_f64),
                e.get("d").and_then(Json::as_f64),
                e.get("min_ms").and_then(Json::as_f64),
                e.get("p50_ms").and_then(Json::as_f64),
            ) else {
                continue;
            };
            out.push((kernel.to_string(), n as usize, d as usize, min, p50));
        }
    }
    out
}

fn emit(measurements: &[Measurement], simd_section: Json) {
    let baseline = std::env::var("DFSS_BENCH_BASELINE")
        .ok()
        .map(|p| load_baseline(&p));

    let mut report = Report::new(
        "exec-mode kernel wall-clock",
        &[
            "kernel", "n", "d", "min_ms", "p50_ms", "p95_ms", "p99_ms", "Melem/s", "speedup",
        ],
    );
    let mut entries = Vec::new();
    for m in measurements {
        if m.samples.is_empty() {
            continue;
        }
        let (min, mean, p50, p95, p99) = m.stats();
        let elems_per_sec = m.work_elems as f64 / p50;
        let base = baseline.as_ref().and_then(|b| {
            b.iter()
                .find(|(k, n, d, _, _)| k == m.kernel && *n == m.n && *d == m.d)
                .map(|&(_, _, _, min_ms, p50_ms)| (min_ms, p50_ms))
        });
        // Speedup is defined on the per-config minimum: interference on a
        // shared/virtualised host is strictly additive, so the minimum over
        // many interleaved samples is the robust estimate of a kernel's
        // intrinsic wall-clock (medians of two builds measured minutes apart
        // drift by several percent with the host's phase).
        let speedup = base.map(|(bmin, _)| bmin / (min * 1e3).max(1e-6));
        let mut fields = vec![
            ("kernel", Json::Str(m.kernel.into())),
            ("n", Json::Num(m.n as f64)),
            ("d", Json::Num(m.d as f64)),
            ("samples", Json::Num(m.samples.len() as f64)),
            ("min_ms", Json::Num(round3(min * 1e3))),
            ("mean_ms", Json::Num(round3(mean * 1e3))),
            ("p50_ms", Json::Num(round3(p50 * 1e3))),
            ("p95_ms", Json::Num(round3(p95 * 1e3))),
            ("p99_ms", Json::Num(round3(p99 * 1e3))),
            ("work_elems", Json::Num(m.work_elems as f64)),
            ("elems_per_sec", Json::Num(elems_per_sec.round())),
        ];
        if let Some((bmin, bp50)) = base {
            fields.push(("baseline_min_ms", Json::Num(round3(bmin))));
            fields.push(("baseline_p50_ms", Json::Num(round3(bp50))));
        }
        if let Some(s) = speedup {
            fields.push(("speedup", Json::Num(round3(s))));
        }
        entries.push(Json::obj(fields));
        report.row(vec![
            m.kernel.to_string(),
            m.n.to_string(),
            m.d.to_string(),
            format!("{:.3}", min * 1e3),
            format!("{:.3}", p50 * 1e3),
            format!("{:.3}", p95 * 1e3),
            format!("{:.3}", p99 * 1e3),
            format!("{:.1}", elems_per_sec / 1e6),
            speedup.map_or_else(|| "-".into(), |s| format!("{s:.2}x")),
        ]);
    }

    if entries.is_empty() {
        // DFSS_BENCH_ONLY skipped the whole kernel grid: keep the existing
        // artifact instead of overwriting it with an empty document.
        eprintln!("[speedup] no kernel samples; leaving bench_kernels.json untouched");
        return;
    }
    let mut doc_fields = vec![
        ("schema_version", Json::Num(SCHEMA_VERSION)),
        ("artifact", Json::Str("bench_kernels".into())),
        (
            "mode",
            Json::Str(if quick() { "quick" } else { "full" }.into()),
        ),
        ("threads", Json::Num(rayon::current_num_threads() as f64)),
        ("dtype", Json::Str("float".into())),
        ("pattern", Json::Str("1:2".into())),
        ("entries", Json::Arr(entries)),
    ];
    // `DFSS_BENCH_ONLY` pinned to another kernel skips the simd section;
    // the resulting artifact is an A/B aid and won't pass `--check`.
    if !matches!(simd_section, Json::Null) {
        doc_fields.push(("simd", simd_section));
    }
    let doc = Json::obj(doc_fields);
    println!("{}", report.render());
    let path = results_dir().join("bench_kernels.json");
    std::fs::write(&path, doc.render()).expect("write bench_kernels.json");
    println!("[saved {}]", path.display());
}

fn round3(x: f64) -> f64 {
    (x * 1e3).round() / 1e3
}

/// Schema validation for the CI smoke job, dispatched on the document's
/// `artifact` field (`bench_kernels` or `bench_attention`).
fn check(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let doc = Json::parse(&text)?;
    let version = doc
        .get("schema_version")
        .and_then(Json::as_f64)
        .ok_or("missing schema_version")?;
    if version != SCHEMA_VERSION {
        return Err(format!("schema_version {version} != {SCHEMA_VERSION}"));
    }
    let mode = doc
        .get("mode")
        .and_then(Json::as_str)
        .ok_or("missing mode")?;
    if mode != "quick" && mode != "full" {
        return Err(format!("mode `{mode}` not in {{quick, full}}"));
    }
    doc.get("threads")
        .and_then(Json::as_f64)
        .ok_or("missing threads")?;
    let entries = doc
        .get("entries")
        .and_then(Json::as_arr)
        .ok_or("missing entries array")?;
    if entries.is_empty() {
        return Err("entries array is empty".into());
    }
    let artifact = doc.get("artifact").and_then(Json::as_str);
    let n_entries = entries.len();
    match artifact {
        Some("bench_kernels") => {
            check_kernel_entries(entries, mode)?;
            check_simd_section(&doc, mode)?;
        }
        Some("bench_attention") => check_attention_entries(entries, mode)?,
        other => {
            return Err(format!(
                "artifact {other:?} not in {{bench_kernels, bench_attention}}"
            ))
        }
    }
    println!(
        "{path}: schema OK ({} {mode} mode, {n_entries} entries)",
        artifact.unwrap_or("?"),
    );
    Ok(())
}

fn check_kernel_entries(entries: &[Json], mode: &str) -> Result<(), String> {
    for (i, e) in entries.iter().enumerate() {
        e.get("kernel")
            .and_then(Json::as_str)
            .ok_or(format!("entry {i}: missing kernel"))?;
        for field in [
            "n",
            "d",
            "samples",
            "min_ms",
            "mean_ms",
            "p50_ms",
            "p95_ms",
            "p99_ms",
            "work_elems",
            "elems_per_sec",
        ] {
            let x = e
                .get(field)
                .and_then(Json::as_f64)
                .ok_or(format!("entry {i}: missing numeric {field}"))?;
            if !x.is_finite() || x < 0.0 {
                return Err(format!(
                    "entry {i}: {field} = {x} not a finite non-negative"
                ));
            }
        }
    }
    // A full-mode artifact must cover the acceptance-gate shape.
    if mode == "full"
        && !entries.iter().any(|e| {
            e.get("kernel").and_then(Json::as_str) == Some("gemm_nt")
                && e.get("n").and_then(Json::as_f64) == Some(1024.0)
        })
    {
        return Err("full-mode artifact lacks the gemm_nt n=1024 entry".into());
    }
    Ok(())
}

/// Allowed wall-clock regression for the scalar-vs-dispatched comparison:
/// min-of-interleaved-samples on a shared host still jitters by a few
/// percent, so "no family regresses" means `speedup >= 0.95`, not `>= 1.0`.
const SIMD_NOISE_FLOOR: f64 = 0.95;
/// At least one family must clear this under the dispatched backend.
const SIMD_WIN_GATE: f64 = 1.3;

/// Validate the schema-2.0 `simd` section and, in full mode, its perf
/// gates: no kernel family regresses past the noise floor, at least one
/// clears [`SIMD_WIN_GATE`], and bf16-quantised KV decode beats f32 at the
/// longest measured cache length (which must reach 1024 rows).
fn check_simd_section(doc: &Json, mode: &str) -> Result<(), String> {
    let simd = doc.get("simd").ok_or("missing simd section")?;
    let backend = simd
        .get("backend")
        .and_then(Json::as_str)
        .ok_or("simd: missing backend")?;
    if !["scalar", "avx2", "avx512"].contains(&backend) {
        return Err(format!("simd: unknown backend `{backend}`"));
    }
    let kernels = simd
        .get("kernels")
        .and_then(Json::as_arr)
        .ok_or("simd: missing kernels array")?;
    if kernels.is_empty() {
        return Err("simd: kernels array is empty".into());
    }
    let mut best = 0.0f64;
    for (i, e) in kernels.iter().enumerate() {
        let family = e
            .get("family")
            .and_then(Json::as_str)
            .ok_or(format!("simd kernel {i}: missing family"))?;
        for field in [
            "n",
            "samples",
            "scalar_min_ms",
            "scalar_p50_ms",
            "simd_min_ms",
            "simd_p50_ms",
            "speedup",
        ] {
            let x = e
                .get(field)
                .and_then(Json::as_f64)
                .ok_or(format!("simd kernel {i}: missing numeric {field}"))?;
            if !x.is_finite() || x < 0.0 {
                return Err(format!(
                    "simd kernel {i}: {field} = {x} not a finite non-negative"
                ));
            }
        }
        let speedup = e.get("speedup").and_then(Json::as_f64).unwrap_or(0.0);
        best = best.max(speedup);
        if mode == "full" && speedup < SIMD_NOISE_FLOOR {
            return Err(format!(
                "simd: family {family} regressed under the dispatched backend \
                 (speedup {speedup} < {SIMD_NOISE_FLOOR})"
            ));
        }
    }
    if mode == "full" && best < SIMD_WIN_GATE {
        return Err(format!(
            "simd: no kernel family clears {SIMD_WIN_GATE}x (best {best})"
        ));
    }
    let decode = simd
        .get("decode")
        .and_then(Json::as_arr)
        .ok_or("simd: missing decode array")?;
    if decode.is_empty() {
        return Err("simd: decode array is empty".into());
    }
    let mut longest: Option<(f64, f64, f64)> = None; // (cache_len, f32 tok/s, bf16 tok/s)
    for (i, e) in decode.iter().enumerate() {
        for field in [
            "cache_len",
            "streams",
            "d",
            "samples",
            "f32_min_ms",
            "f32_tokens_per_sec",
            "bf16_min_ms",
            "bf16_tokens_per_sec",
            "bf16_speedup",
        ] {
            let x = e
                .get(field)
                .and_then(Json::as_f64)
                .ok_or(format!("simd decode {i}: missing numeric {field}"))?;
            if !x.is_finite() || x < 0.0 {
                return Err(format!(
                    "simd decode {i}: {field} = {x} not a finite non-negative"
                ));
            }
        }
        let len = e.get("cache_len").and_then(Json::as_f64).unwrap_or(0.0);
        if longest.is_none_or(|(l, _, _)| len > l) {
            longest = Some((
                len,
                e.get("f32_tokens_per_sec")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0),
                e.get("bf16_tokens_per_sec")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0),
            ));
        }
    }
    if mode == "full" {
        let (len, f_tps, b_tps) = longest.unwrap();
        if len < 1024.0 {
            return Err(format!(
                "simd: full-mode decode sweep must reach cache_len >= 1024 (longest {len})"
            ));
        }
        if b_tps <= f_tps {
            return Err(format!(
                "simd: bf16 KV decode does not beat f32 at cache_len {len} \
                 ({b_tps} <= {f_tps} tokens/sec)"
            ));
        }
    }
    Ok(())
}

fn check_attention_entries(entries: &[Json], mode: &str) -> Result<(), String> {
    for (i, e) in entries.iter().enumerate() {
        for field in [
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
        ] {
            let x = e
                .get(field)
                .and_then(Json::as_f64)
                .ok_or(format!("entry {i}: missing numeric {field}"))?;
            if !x.is_finite() || x < 0.0 {
                return Err(format!(
                    "entry {i}: {field} = {x} not a finite non-negative"
                ));
            }
        }
    }
    // A full-mode artifact must cover the acceptance-gate shape
    // (B×H ≥ 64 at n ≥ 512).
    if mode == "full"
        && !entries.iter().any(|e| {
            e.get("n").and_then(Json::as_f64).unwrap_or(0.0) >= 512.0
                && e.get("bh").and_then(Json::as_f64).unwrap_or(0.0) >= 64.0
        })
    {
        return Err("full-mode artifact lacks a (n >= 512, BxH >= 64) entry".into());
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.len() > 1 {
        // Any argument must be a well-formed `--check <path>`; never fall
        // through to a full benchmark run (which would overwrite the
        // checked-in artifact) on a malformed command line.
        if args.len() != 3 || args[1] != "--check" {
            eprintln!("usage: speedup [--check <artifact.json>]");
            std::process::exit(2);
        }
        if let Err(e) = check(&args[2]) {
            eprintln!("schema validation failed: {e}");
            std::process::exit(1);
        }
        return;
    }
    eprintln!(
        "[speedup] {} mode, {} thread(s)",
        if quick() { "quick" } else { "full" },
        rayon::current_num_threads()
    );
    let mut measurements = run_grid();
    if let Ok(cache) = std::env::var("DFSS_BENCH_SAMPLE_CACHE") {
        for cached in load_sample_cache(&cache) {
            if let Some(m) = measurements
                .iter_mut()
                .find(|m| m.kernel == cached.kernel && m.n == cached.n && m.d == cached.d)
            {
                m.samples.extend(cached.samples);
            }
        }
        save_sample_cache(&cache, &measurements);
        let total: usize = measurements.iter().map(|m| m.samples.len()).sum();
        eprintln!("[speedup] sample cache {cache}: {total} samples total");
    }
    // Scalar-vs-dispatched comparison + bf16-KV decode sweep (skipped when
    // DFSS_BENCH_ONLY pins another kernel).
    let simd_section = if kernel_enabled("simd") {
        let (kernels, decode) = run_simd_grid();
        emit_simd(&kernels, &decode)
    } else {
        Json::Null
    };
    emit(&measurements, simd_section);
    // Batched-attention section (skipped when DFSS_BENCH_ONLY pins another
    // kernel).
    if kernel_enabled("attention") {
        emit_attention(&run_attention_grid());
    }
}
