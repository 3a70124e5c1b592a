//! `serving` — the decode sweep of the attention serving layer.
//!
//! `streams` concurrent sessions, each with a (ragged, deliberately
//! misaligned) cached K/V length around a base `cached_len`, take decode
//! steps either through the per-stream **solo loop** (`Attention::decode`
//! with a fresh context per step — the deployment without ragged batching)
//! or through `AttentionEngine::flush_decode` (**one ragged launch per op**
//! across all streams). Outputs are asserted bit-identical.
//!
//! The headline decode metric is **simulated-device tokens/sec**: a decode
//! step moves so little data that the fixed per-launch overhead dominates
//! its device time, so the ragged launch's 3-launches-for-B-streams
//! amortisation is the whole story (A.1.2) — and it is deterministic, so
//! even quick-mode artifacts gate on it. Host wall-clock tokens/sec rides
//! along un-gated: the host fan-out only pays off with worker threads, and
//! a single-core CI runner cannot parallelise it.
//!
//! Host serving numbers under load (goodput, tails, the typed sheds) come
//! from the repository benchmark's `serve_mixed` and `http_front`
//! workloads (`perfbench/`), and the serving contracts — typed KV
//! back-pressure and eviction, queue-bound shedding, panic isolation, the
//! wire's `503 Retry-After`, chunked-prefill parity — are pinned by named
//! tests in `dfss-serve` and the workspace `tests/`.
//!
//! Emits schema-stable `results/bench_serving.json`. Every artifact must
//! show batched decode beating the solo loop on (simulated) tokens/sec at
//! ≥ 2 stream counts (asserted at generation time and re-validated by
//! `serving --check`, which CI runs against the checked-in artifact).
//!
//! Knobs: `DFSS_QUICK=1` (small shapes, short run), `DFSS_RESULTS=<dir>`.

use dfss_bench::json::Json;
use dfss_bench::{
    artifact_header, check_array, check_header, check_numbers, mode, quick, round3, save_json,
};
use dfss_core::engine::{AttentionEngine, DecodeStep};
use dfss_core::{Attention, DfssAttention};
use dfss_kernels::GpuCtx;
use dfss_nmsparse::NmPattern;
use dfss_tensor::{Matrix, Rng};
use std::time::Instant;

const SCHEMA_VERSION: f64 = 11.0;

/// How many distinct concurrent-stream counts batched decode must win on
/// simulated tokens/sec (at every cached length), in either mode.
const MIN_DECODE_WINS: usize = 2;

/// Decode sweep grid: base cached lengths × concurrent stream counts.
struct DecodeSpec {
    cached_lens: Vec<usize>,
    streams: Vec<usize>,
    rounds: usize,
    head_dim: usize,
}

fn decode_workload() -> DecodeSpec {
    if quick() {
        DecodeSpec {
            cached_lens: vec![64],
            streams: vec![2, 4],
            rounds: 4,
            head_dim: 32,
        }
    } else {
        DecodeSpec {
            cached_lens: vec![256, 1024],
            streams: vec![1, 4, 8, 16],
            rounds: 24,
            head_dim: 64,
        }
    }
}

/// One decode sweep point: tokens/sec of the per-stream solo loop vs the
/// ragged batched flush over the same sessions and query rows.
/// `solo_tok_s` / `batched_tok_s` are tokens per second of **simulated
/// device time** (the gated metric); `host_*` are host wall-clock
/// tokens/sec, reported for reference.
struct DecodePoint {
    cached_len: usize,
    streams: usize,
    solo_tok_s: f64,
    batched_tok_s: f64,
    host_solo_tok_s: f64,
    host_batched_tok_s: f64,
}

/// Run one (cached_len, streams) decode point. Caches get ragged lengths
/// around the base (`len - (s % 4)`, exercising the dense-tail format);
/// both sides serve the same pre-generated query rows, and outputs are
/// asserted bit-identical on the first round.
fn run_decode_point(
    mech: &DfssAttention,
    spec: &DecodeSpec,
    cached_len: usize,
    streams: usize,
    seed: u64,
) -> DecodePoint {
    let d = spec.head_dim;
    let mut rng = Rng::new(seed);
    let lens: Vec<usize> = (0..streams).map(|s| cached_len - (s % 4)).collect();
    let ks: Vec<Matrix<f32>> = lens
        .iter()
        .map(|&l| Matrix::random_normal(l, d, 0.0, 1.0, &mut rng))
        .collect();
    let vs: Vec<Matrix<f32>> = lens
        .iter()
        .map(|&l| Matrix::random_normal(l, d, 0.0, 1.0, &mut rng))
        .collect();
    let q_rounds: Vec<Matrix<f32>> = (0..spec.rounds)
        .map(|_| Matrix::random_normal(streams, d, 0.0, 1.0, &mut rng))
        .collect();

    let mut engine = AttentionEngine::new(mech);
    fn steps_of<'a>(
        q: &'a Matrix<f32>,
        ks: &'a [Matrix<f32>],
        vs: &'a [Matrix<f32>],
        lens: &'a [usize],
        d: usize,
    ) -> Vec<DecodeStep<'a, f32>> {
        (0..ks.len())
            .map(|s| {
                DecodeStep::contiguous(q.row(s), ks[s].as_slice(), vs[s].as_slice(), lens[s], d, d)
            })
            .collect()
    }

    // Parity gate: the ragged flush must be bit-identical to the solo
    // loop. Simulated latencies (shape-deterministic, identical across
    // rounds) are read off this same pass: the batched flush's one ragged
    // launch per op vs the solo loop's three launches per stream.
    let (solo_sim_s, batched_sim_s);
    {
        let q = &q_rounds[0];
        let results = engine
            .flush_decode(&steps_of(q, &ks, &vs, &lens, d))
            .expect("valid steps");
        batched_sim_s = engine.last_decode().sim_latency_s();
        assert_eq!(
            engine.last_decode().launches(),
            3,
            "ragged decode must be one launch per op"
        );
        engine.reset_timeline();
        let mut solo_total = 0.0f64;
        for (s, res) in results.iter().enumerate() {
            let mut sctx = GpuCtx::a100();
            let q_row = Matrix::from_vec(1, d, q.row(s).to_vec());
            let want = mech.decode(&mut sctx, &q_row, &ks[s], &vs[s]);
            solo_total += sctx.latency();
            let same = res
                .output
                .as_ref()
                .expect("exec mode")
                .as_slice()
                .iter()
                .zip(want.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "decode stream {s} diverged from the solo loop");
        }
        solo_sim_s = solo_total;
    }

    // Interleave the two sides (two passes each, take the faster pass) so
    // host drift cannot bias the comparison.
    let (mut solo_best, mut batched_best) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..2 {
        let t0 = Instant::now();
        for q in &q_rounds {
            for s in 0..streams {
                let mut ctx = GpuCtx::a100();
                let q_row = Matrix::from_vec(1, d, q.row(s).to_vec());
                std::hint::black_box(mech.decode(&mut ctx, &q_row, &ks[s], &vs[s]));
            }
        }
        solo_best = solo_best.min(t0.elapsed().as_secs_f64());

        let t1 = Instant::now();
        for q in &q_rounds {
            std::hint::black_box(
                engine
                    .flush_decode(&steps_of(q, &ks, &vs, &lens, d))
                    .expect("valid steps"),
            );
            engine.reset_timeline();
        }
        batched_best = batched_best.min(t1.elapsed().as_secs_f64());
    }
    let tokens = (spec.rounds * streams) as f64;
    DecodePoint {
        cached_len,
        streams,
        solo_tok_s: streams as f64 / solo_sim_s.max(1e-12),
        batched_tok_s: streams as f64 / batched_sim_s.max(1e-12),
        host_solo_tok_s: tokens / solo_best.max(1e-9),
        host_batched_tok_s: tokens / batched_best.max(1e-9),
    }
}

/// Sweep the decode grid; returns the points and the number of distinct
/// stream counts where batched wins at **every** cached length.
fn run_decode_sweep(mech: &DfssAttention, spec: &DecodeSpec) -> (Vec<DecodePoint>, usize) {
    let mut points = Vec::new();
    println!(
        "{:>10}  {:>8}  {:>14}  {:>16}  {:>8}  {:>14}",
        "cached", "streams", "solo sim tok/s", "batched sim tok/s", "speedup", "host batch tok/s"
    );
    for (i, &len) in spec.cached_lens.iter().enumerate() {
        for (j, &streams) in spec.streams.iter().enumerate() {
            let p = run_decode_point(mech, spec, len, streams, 7000 + (i * 16 + j) as u64);
            println!(
                "{:>10}  {:>8}  {:>14.1}  {:>16.1}  {:>7.2}x  {:>14.1}",
                p.cached_len,
                p.streams,
                p.solo_tok_s,
                p.batched_tok_s,
                p.batched_tok_s / p.solo_tok_s.max(1e-9),
                p.host_batched_tok_s
            );
            points.push(p);
        }
    }
    let wins = spec
        .streams
        .iter()
        .filter(|&&sc| {
            points
                .iter()
                .filter(|p| p.streams == sc)
                .all(|p| p.batched_tok_s > p.solo_tok_s)
        })
        .count();
    (points, wins)
}

fn main() {
    if dfss_bench::handle_check(check) {
        return;
    }

    let mech = DfssAttention::new(NmPattern::P1_2);
    eprintln!("[serving] {} mode", mode());

    // Decode sweep: tokens/sec vs concurrent streams at several cached
    // lengths, ragged batched flush vs the per-stream solo loop.
    let dspec = decode_workload();
    eprintln!(
        "[serving] decode sweep ({} points)",
        dspec.cached_lens.len() * dspec.streams.len()
    );
    let (decode_points, decode_wins) = run_decode_sweep(&mech, &dspec);
    // The simulated-device metric is deterministic, so the gate holds in
    // both modes.
    assert!(
        decode_wins >= MIN_DECODE_WINS,
        "batched decode won tokens/sec at only {decode_wins} stream counts (need {MIN_DECODE_WINS})"
    );
    let decode_rows: Vec<Json> = decode_points
        .iter()
        .map(|p| {
            Json::obj(vec![
                ("cached_len", Json::Num(p.cached_len as f64)),
                ("streams", Json::Num(p.streams as f64)),
                ("solo_tok_s", Json::Num(round3(p.solo_tok_s))),
                ("batched_tok_s", Json::Num(round3(p.batched_tok_s))),
                (
                    "speedup",
                    Json::Num(round3(p.batched_tok_s / p.solo_tok_s.max(1e-9))),
                ),
                ("host_solo_tok_s", Json::Num(round3(p.host_solo_tok_s))),
                (
                    "host_batched_tok_s",
                    Json::Num(round3(p.host_batched_tok_s)),
                ),
            ])
        })
        .collect();

    let mut doc = artifact_header(SCHEMA_VERSION, "bench_serving");
    doc.extend([
        ("mechanism", Json::Str(Attention::<f32>::name(&mech))),
        (
            "decode",
            Json::obj(vec![
                ("head_dim", Json::Num(dspec.head_dim as f64)),
                ("rounds", Json::Num(dspec.rounds as f64)),
                ("winning_stream_counts", Json::Num(decode_wins as f64)),
                ("rows", Json::Arr(decode_rows)),
            ]),
        ),
    ]);
    save_json("bench_serving", &Json::obj(doc));
}

/// Schema validation (`serving --check <path>`): structure and the decode
/// sweep's gate.
fn check(doc: &Json) -> Result<String, String> {
    let mode = check_header(doc, SCHEMA_VERSION, "bench_serving")?;
    doc.get("mechanism")
        .and_then(Json::as_str)
        .ok_or("missing mechanism")?;
    // Decode sweep section: structure, and the "batched decode beats the
    // solo loop at >= 2 stream counts" gate.
    let decode = doc.get("decode").ok_or("missing decode section")?;
    check_numbers(
        decode,
        "decode",
        &["head_dim", "rounds", "winning_stream_counts"],
    )?;
    let drows = check_array(decode, "rows")?;
    let mut stream_counts: Vec<u64> = Vec::new();
    for (i, r) in drows.iter().enumerate() {
        check_numbers(
            r,
            &format!("decode row {i}"),
            &[
                "cached_len",
                "streams",
                "solo_tok_s",
                "batched_tok_s",
                "speedup",
                "host_solo_tok_s",
                "host_batched_tok_s",
            ],
        )?;
        let sc = r.get("streams").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        if !stream_counts.contains(&sc) {
            stream_counts.push(sc);
        }
    }
    // Recompute the winning stream counts (batched > solo at every cached
    // length of that stream count). The metric is simulated-device
    // tokens/sec — deterministic — so the gate holds for both modes.
    let decode_wins = stream_counts
        .iter()
        .filter(|&&sc| {
            drows
                .iter()
                .filter(|r| r.get("streams").and_then(Json::as_f64).unwrap_or(0.0) as u64 == sc)
                .all(|r| {
                    r.get("batched_tok_s").and_then(Json::as_f64).unwrap_or(0.0)
                        > r.get("solo_tok_s").and_then(Json::as_f64).unwrap_or(0.0)
                })
        })
        .count();
    if decode_wins < MIN_DECODE_WINS {
        return Err(format!(
            "artifact: batched decode wins tokens/sec at only {decode_wins} stream counts (need {MIN_DECODE_WINS})"
        ));
    }
    Ok(format!(
        "bench_serving {mode} mode, {} decode points, {decode_wins} decode stream-count wins",
        drows.len()
    ))
}
