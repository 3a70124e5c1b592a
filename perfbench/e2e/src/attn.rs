//! `attn_batched`: the paper's own experiment. One caller thread, closed
//! loop, no serving layers: `Attention::forward_batched` for Dfss 1:2,
//! Dfss 2:4 and Full on identical inputs at n ∈ {512, 1024, 4096}.
//!
//! A *round* is one call per (length, mechanism); the runner interleaves
//! the mechanisms length by length so slow drifts of the host hit all three.

use crate::inputs::{self, ATTN_MECHS, ATTN_SHAPES};
use crate::report::Metric;
use crate::stats::{bit_equal, median};
use crate::trace::Tracer;
use crate::Outcome;
use dfss_core::mechanism::Attention;
use dfss_kernels::GpuCtx;
use dfss_tensor::BatchedMatrix;
use std::time::Instant;

/// One shape's inputs.
#[derive(Debug)]
pub struct Shape {
    /// Sequence length.
    pub n: usize,
    /// Panels per call (batch × heads).
    pub bh: usize,
    /// Queries.
    pub q: BatchedMatrix<f32>,
    /// Keys.
    pub k: BatchedMatrix<f32>,
    /// Values.
    pub v: BatchedMatrix<f32>,
}

/// The workload after set-up.
pub struct Attn {
    shapes: Vec<Shape>,
    mechs: Vec<Box<dyn Attention<f32> + Send + Sync>>,
    seed: u64,
}

/// The seeded inputs of every shape.
pub fn shapes(seed: u64) -> Vec<Shape> {
    ATTN_SHAPES
        .iter()
        .map(|&(n, bh)| {
            let (q, k, v) = inputs::attn_inputs(seed, n, bh);
            Shape { n, bh, q, k, v }
        })
        .collect()
}

/// Build the inputs and run each mechanism once on the smallest shape, so
/// pool threads and scratch buffers exist before timing starts.
pub fn setup(seed: u64) -> Attn {
    let shapes = shapes(seed);
    let mechs = inputs::attn_mechs();
    let mut ctx = GpuCtx::a100();
    let s = &shapes[0];
    for m in &mechs {
        std::hint::black_box(m.forward_batched(&mut ctx, &s.q, &s.k, &s.v));
        ctx.reset_timeline();
    }
    Attn {
        shapes,
        mechs,
        seed,
    }
}

/// Span names of the `forward_batched` calls, by mechanism.
const SPAN_NAMES: [&str; 3] = [
    "dfss12.forward_batched",
    "dfss24.forward_batched",
    "full.forward_batched",
];

/// Geometric mean of `f` over the shapes, so every length weighs the same.
fn geomean(shapes: usize, f: impl Fn(usize) -> f64) -> f64 {
    ((0..shapes).map(|si| f(si).ln()).sum::<f64>() / shapes as f64).exp()
}

/// Run whole rounds until `seconds` have passed, then check a sample of
/// the last outputs against per-panel solo `forward`.
pub fn run(a: &Attn, seconds: f64, tr: &mut Tracer) -> Outcome {
    let (mechs, shapes) = (a.mechs.len(), a.shapes.len());
    let mut ctx = GpuCtx::a100();
    // Milliseconds of every call, and the last output, by (shape, mechanism).
    let mut calls: Vec<Vec<f64>> = vec![Vec::new(); shapes * mechs];
    let mut last: Vec<Option<BatchedMatrix<f32>>> = (0..shapes * mechs).map(|_| None).collect();
    let (mut req, mut rounds) = (0u64, 0u64);
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        for (si, s) in a.shapes.iter().enumerate() {
            for (mi, mech) in a.mechs.iter().enumerate() {
                let t0 = Instant::now();
                let out = tr.span("mechanism", SPAN_NAMES[mi], req, |_| {
                    mech.forward_batched(&mut ctx, &s.q, &s.k, &s.v)
                });
                calls[si * mechs + mi].push(t0.elapsed().as_secs_f64() * 1e3);
                ctx.reset_timeline();
                last[si * mechs + mi] = Some(out);
                req += 1;
            }
        }
        rounds += 1;
    }

    // Output check, outside the timed region: one seeded panel of every
    // (shape, mechanism) pair's last output against a solo `forward`.
    let mut pick = inputs::rng(a.seed, inputs::purpose::CHECK);
    let mut mismatches = 0;
    let mut checked = 0;
    let mut solo_ctx = GpuCtx::a100();
    for (si, s) in a.shapes.iter().enumerate() {
        for (mi, mech) in a.mechs.iter().enumerate() {
            let p = pick.below(s.bh);
            let want = mech.forward(
                &mut solo_ctx,
                &s.q.to_panel(p),
                &s.k.to_panel(p),
                &s.v.to_panel(p),
            );
            solo_ctx.reset_timeline();
            let got = last[si * mechs + mi]
                .as_ref()
                .expect("every pair ran at least once");
            checked += 1;
            if !bit_equal(got.panel(p), want.as_slice()) {
                mismatches += 1;
            }
        }
    }

    // Per length the median call, so a burst of host noise spoils one call,
    // not the result; across lengths the geometric mean, so a slowdown at
    // n = 512 moves a metric as much as the same slowdown at n = 4096.
    let call_ms = |mi: usize, si: usize| median(&mut calls[si * mechs + mi].clone());
    let rate = |mi: usize, si: usize| {
        let s = &a.shapes[si];
        (s.n * s.bh) as f64 / call_ms(mi, si) * 1e3
    };
    // Indices in `ATTN_MECHS` order.
    let (d12, d24, full) = (0, 1, 2);
    let mut extras = Vec::new();
    for (mi, name) in ATTN_MECHS.iter().enumerate() {
        for (si, s) in a.shapes.iter().enumerate() {
            let n = s.n;
            extras.push(Metric::new(
                format!("attn.{name}.n{n}.rows_heads_per_s"),
                rate(mi, si),
                "1/s",
            ));
            extras.push(Metric::new(
                format!("attn.{name}.n{n}.call_p50_ms"),
                call_ms(mi, si),
                "ms",
            ));
        }
        extras.push(Metric::new(
            format!("attn.{name}.rows_heads_per_s"),
            geomean(shapes, |si| rate(mi, si)),
            "1/s",
        ));
    }
    extras.push(Metric::new("attn.rounds", rounds as f64, "count"));
    Outcome {
        metrics: vec![
            Metric::new("main_per_s", geomean(shapes, |si| rate(d12, si)), "1/s"),
            Metric::new("main_p50_ms", geomean(shapes, |si| call_ms(d24, si)), "ms"),
            Metric::new("side_p50_ms", geomean(shapes, |si| call_ms(full, si)), "ms"),
        ],
        attempted: req,
        failed: 0,
        mismatches,
        checked,
        layers: Vec::new(),
        extras,
    }
}
