//! The reusable attention execution engine — batching as a *service*, not
//! a call convention.
//!
//! [`AttentionEngine`] owns the per-launch state a caller would otherwise
//! rebuild on every call — the simulated device context (timeline + memory
//! ledger) and the decode pack/unpack plumbing of the paper's
//! one-launch-per-op batching (A.1.2) — and has one entry point per kind of
//! traffic:
//!
//! * [`forward_chunk`](AttentionEngine::forward_chunk) — **prefill**: one
//!   borrowed `(q_rows, k, v)` chunk — a whole request, or a row slice of
//!   one for a mechanism that can chunk — validated against the mechanism's
//!   shape constraints with a typed [`RequestError`] (never a panic) before
//!   anything runs, then run through [`Attention::forward`]. Outputs are
//!   bit-identical to those rows of a solo `forward` call.
//! * [`flush_decode`](AttentionEngine::flush_decode) — **decode**: one new
//!   query row per stream against that stream's cached K/V, with
//!   per-stream lengths free to differ, as one **ragged** launch per op
//!   (only the query rows are packed; the kernels read each stream's cached
//!   K/V in place through its page table, per-stream charges summed into a
//!   single profile), bit-identical to a per-stream solo
//!   [`Attention::decode`] loop.
//!
//! The serving layer (`dfss-serve`) and the serving bench sit on this
//! engine.
//!
//! ```
//! use dfss_core::dfss::DfssAttention;
//! use dfss_core::engine::{AttentionEngine, DecodeStep};
//! use dfss_nmsparse::NmPattern;
//! use dfss_tensor::{Matrix, Rng};
//!
//! let mech = DfssAttention::new(NmPattern::P1_2);
//! let mut engine = AttentionEngine::new(&mech);
//! let mut rng = Rng::new(0);
//!
//! // Two decode streams with different (odd!) cached lengths.
//! let caches: Vec<(Matrix<f32>, Matrix<f32>)> = [5usize, 9]
//!     .iter()
//!     .map(|&len| {
//!         (
//!             Matrix::random_normal(len, 8, 0.0, 1.0, &mut rng),
//!             Matrix::random_normal(len, 8, 0.0, 1.0, &mut rng),
//!         )
//!     })
//!     .collect();
//! let q = Matrix::<f32>::random_normal(2, 8, 0.0, 1.0, &mut rng);
//! let steps: Vec<DecodeStep<'_, f32>> = caches
//!     .iter()
//!     .enumerate()
//!     .map(|(i, (k, v))| {
//!         DecodeStep::contiguous(q.row(i), k.as_slice(), v.as_slice(), k.rows(), 8, 8)
//!     })
//!     .collect();
//! let results = engine.flush_decode(&steps).unwrap();
//! assert_eq!(results.len(), 2);
//! // One ragged launch per op across both streams (Dfss runs 3 ops).
//! assert_eq!(engine.last_decode().launches(), 3);
//! ```

use crate::mechanism::{try_check_qkv, Attention, KvViews, RequestError};
use dfss_kernels::GpuCtx;
use dfss_tensor::{Bf16, Matrix, PagedPanel, Scalar};

/// Where one stream's cached K or V rows live in caller storage: a
/// [`PagedPanel`] view of its page table, at the element width the cache
/// stores. A contiguous slab is the one-page view
/// ([`PagedPanel::one_page`]).
///
/// The engine never copies these rows: it hands each view to the decode
/// kernels, which read every row in place in the same order whatever the
/// page geometry, so a paged source produces **bit-identical** launches to
/// a contiguous slab of the same rows (pinned by
/// `paged_steps_match_contiguous_steps` here and the workspace proptest
/// `paged_decode_matches_contiguous`).
#[derive(Clone, Debug)]
pub enum KvRows<'a, T> {
    /// Rows stored at the compute type `T`.
    Native(PagedPanel<'a, T>),
    /// Rows stored **bf16-quantised** whatever `T` is: decode widens them
    /// to f32 in-register (fused widen-on-load, see `dfss_kernels::simd`),
    /// so the launch reads the cache at 2 bytes per element. Both sides (K
    /// and V) of a step must agree on quantisation.
    Bf16(PagedPanel<'a, Bf16>),
}

impl<T> KvRows<'_, T> {
    /// Whether the rows are stored bf16-quantised.
    fn is_quantized(&self) -> bool {
        matches!(self, KvRows::Bf16(_))
    }
}

/// One pending decode step, borrowing the caller's KV storage: the
/// stream's new query row and page views of its cached K and V rows
/// ([`KvRows`]), each holding the step's `len` rows. The serving layer's
/// session caches hand these out without copying; the engine runs a whole
/// batch of steps as one ragged launch per op that reads them in place.
#[derive(Clone, Debug)]
pub struct DecodeStep<'a, T> {
    /// The new query row (`d` elements).
    pub q_row: &'a [T],
    /// Cached keys (`len` rows of width `d`).
    pub k_rows: KvRows<'a, T>,
    /// Cached values (`len` rows of width `d_v`).
    pub v_rows: KvRows<'a, T>,
    /// Cached positions.
    pub len: usize,
    /// Query/key width.
    pub d: usize,
    /// Value width.
    pub d_v: usize,
}

impl<'a, T> DecodeStep<'a, T> {
    /// A step over contiguous row-major K/V slabs, read to their first
    /// `len` rows (`len × d` and `len × d_v` elements; longer slabs are
    /// fine, shorter ones a typed rejection).
    pub fn contiguous(
        q_row: &'a [T],
        k_rows: &'a [T],
        v_rows: &'a [T],
        len: usize,
        d: usize,
        d_v: usize,
    ) -> DecodeStep<'a, T> {
        DecodeStep {
            q_row,
            k_rows: KvRows::Native(PagedPanel::one_page(k_rows, len)),
            v_rows: KvRows::Native(PagedPanel::one_page(v_rows, len)),
            len,
            d,
            d_v,
        }
    }
}

/// Validate one decode step's declared shape against its buffers, without
/// panicking — the serving front door rejects malformed steps with a typed
/// error before they reach a launch. Each view must pass
/// [`PagedPanel::check`] and hold exactly the step's `len` rows.
pub fn try_check_decode_step<T: Scalar>(step: &DecodeStep<'_, T>) -> Result<(), RequestError> {
    let mismatch = |reason| RequestError::DecodeShapeMismatch { reason };
    if step.len == 0 || step.d == 0 || step.d_v == 0 {
        return Err(RequestError::EmptyRequest);
    }
    if step.q_row.len() != step.d {
        return Err(mismatch(format!(
            "query row has {} elements, d = {}",
            step.q_row.len(),
            step.d
        )));
    }
    if step.k_rows.is_quantized() != step.v_rows.is_quantized() {
        return Err(mismatch(format!(
            "K and V disagree on KV quantisation (K bf16: {}, V bf16: {})",
            step.k_rows.is_quantized(),
            step.v_rows.is_quantized()
        )));
    }
    for (which, rows, width) in [("K", &step.k_rows, step.d), ("V", &step.v_rows, step.d_v)] {
        let len = match rows {
            KvRows::Native(view) => view.check(width),
            KvRows::Bf16(view) => view.check(width),
        }
        .map_err(|e| mismatch(format!("{which} {e}")))?;
        if len != step.len {
            return Err(mismatch(format!(
                "{which} view holds {len} rows, the step declares len = {}",
                step.len
            )));
        }
    }
    Ok(())
}

/// The K/V views of one decode bucket's steps, in bucket order. `quantized`
/// is the bucket's key, so every source matches it.
fn bucket_views<'a, T: Scalar>(
    steps: &[DecodeStep<'a, T>],
    idxs: &[usize],
    quantized: bool,
) -> KvViews<'a, T> {
    let mut kv = if quantized {
        KvViews::Bf16 {
            k: Vec::with_capacity(idxs.len()),
            v: Vec::with_capacity(idxs.len()),
        }
    } else {
        KvViews::Native {
            k: Vec::with_capacity(idxs.len()),
            v: Vec::with_capacity(idxs.len()),
        }
    };
    for step in idxs.iter().map(|&i| &steps[i]) {
        match (&mut kv, &step.k_rows, &step.v_rows) {
            (KvViews::Native { k, v }, KvRows::Native(kr), KvRows::Native(vr)) => {
                k.push(kr.clone());
                v.push(vr.clone());
            }
            (KvViews::Bf16 { k, v }, KvRows::Bf16(kr), KvRows::Bf16(vr)) => {
                k.push(kr.clone());
                v.push(vr.clone());
            }
            _ => unreachable!("a bucket's sources share its quantisation"),
        }
    }
    kv
}

/// One completed prefill **chunk** out of a
/// [`forward_chunk`](AttentionEngine::forward_chunk) — `c` query rows of one
/// request run against its full K/V: the whole request, or a row slice of it
/// (the resumable unit the continuous batching scheduler interleaves with
/// decode steps).
#[derive(Debug)]
pub struct FlushedChunk<T: Scalar> {
    /// Query rows in the chunk.
    pub rows: usize,
    /// The `c × d_v` output rows — `None` under a charge-only context.
    pub output: Option<Matrix<T>>,
    /// Simulated-device latency of the chunk's launches.
    pub sim_latency_s: f64,
    /// Kernel launches the chunk recorded (one per op).
    pub launches: u64,
}

/// One completed decode step out of a
/// [`flush_decode`](AttentionEngine::flush_decode).
#[derive(Debug)]
pub struct FlushedDecode<T: Scalar> {
    /// The `1 × d_v` output row — `None` under a charge-only context.
    pub output: Option<Matrix<T>>,
    /// Streams that shared the step's ragged launch (its `(d, d_v)`
    /// bucket).
    pub batch_size: usize,
    /// The stream's cached length at launch time.
    pub cached_len: usize,
    /// Simulated-device latency of the step's whole ragged launch.
    pub sim_latency_s: f64,
}

/// Per-bucket accounting of one decode flush (steps bucket by `(d, d_v)`;
/// cached lengths stay ragged within a bucket).
#[derive(Clone, Debug)]
pub struct DecodeBucketReport {
    /// Query/key width of the bucket.
    pub d: usize,
    /// Value width of the bucket.
    pub d_v: usize,
    /// Streams batched into the bucket's ragged launch.
    pub streams: usize,
    /// Sum of the streams' cached lengths.
    pub total_cached: usize,
    /// Simulated-device latency of the bucket's launches.
    pub sim_latency_s: f64,
    /// Kernel launches the bucket recorded (one per op).
    pub launches: u64,
    /// Whether the bucket's KV rows were bf16-quantised (quantised and
    /// native steps never share a launch).
    pub quantized: bool,
}

/// Accounting of one [`flush_decode`](AttentionEngine::flush_decode).
#[derive(Clone, Debug, Default)]
pub struct DecodeFlushReport {
    /// One entry per `(d, d_v)` bucket, in first-seen order.
    pub buckets: Vec<DecodeBucketReport>,
}

impl DecodeFlushReport {
    /// Total simulated-device latency across the flush's buckets.
    pub fn sim_latency_s(&self) -> f64 {
        self.buckets.iter().map(|b| b.sim_latency_s).sum()
    }

    /// Total kernel launches across the flush's buckets.
    pub fn launches(&self) -> u64 {
        self.buckets.iter().map(|b| b.launches).sum()
    }
}

/// A reusable batching front end over one attention mechanism.
///
/// The engine borrows the mechanism (mechanisms are small, often `Copy`
/// structs; the serving layer owns one per server) and owns the simulated
/// device context, reusing it across launches instead of recreating it per
/// call.
pub struct AttentionEngine<'m, T: Scalar> {
    mech: &'m dyn Attention<T>,
    ctx: GpuCtx,
    last_decode: DecodeFlushReport,
}

impl<'m, T: Scalar> AttentionEngine<'m, T> {
    /// Engine on the paper's evaluation device (A100).
    pub fn new(mech: &'m dyn Attention<T>) -> AttentionEngine<'m, T> {
        AttentionEngine::with_ctx(mech, GpuCtx::a100())
    }

    /// Engine over an existing context (carries its `exec` mode, device
    /// config and any recorded history).
    pub fn with_ctx(mech: &'m dyn Attention<T>, ctx: GpuCtx) -> AttentionEngine<'m, T> {
        AttentionEngine {
            mech,
            ctx,
            last_decode: DecodeFlushReport::default(),
        }
    }

    /// The mechanism this engine batches for.
    pub fn mech(&self) -> &dyn Attention<T> {
        self.mech
    }

    /// The owned device context (timeline, memory ledger).
    pub fn ctx(&self) -> &GpuCtx {
        &self.ctx
    }

    /// Accounting of the most recent [`flush_decode`](Self::flush_decode).
    pub fn last_decode(&self) -> &DecodeFlushReport {
        &self.last_decode
    }

    /// Run one prefill **chunk** — `q_rows` (`c × d`) of one request
    /// against its full `n`-key K/V — through the mechanism's
    /// [`forward`](Attention::forward): the whole request (`c = n`), or,
    /// when the mechanism
    /// [`supports_row_chunking`](Attention::supports_row_chunking), a row
    /// slice of one, bit-identical to those rows of the whole-Q forward (the
    /// parity contract the scheduler gauntlet and the serving bench's
    /// `--check` pin).
    ///
    /// The chunk is validated before anything launches: a malformed triple,
    /// a shape the mechanism cannot run, or a partial chunk of a mechanism
    /// that cannot chunk comes back as a typed error with no launch recorded.
    pub fn forward_chunk(
        &mut self,
        q_rows: &Matrix<T>,
        k: &Matrix<T>,
        v: &Matrix<T>,
    ) -> Result<FlushedChunk<T>, RequestError> {
        try_check_qkv(self.mech, q_rows, k, v)?;
        let mark = self.ctx.timeline.entries().len();
        let out = self.mech.forward(&mut self.ctx, q_rows, k, v);
        let entries = &self.ctx.timeline.entries()[mark..];
        let sim_latency_s: f64 = entries.iter().map(|e| e.latency(&self.ctx.dev)).sum();
        let launches: u64 = entries.iter().map(|e| e.launches).sum();
        Ok(FlushedChunk {
            rows: q_rows.rows(),
            output: self.ctx.exec.then_some(out),
            sim_latency_s,
            launches,
        })
    }

    /// Batch a set of **decode steps** (one new query row per stream
    /// against its own cached K/V length) into ragged launches: steps group
    /// into `(d, d_v)` buckets (cached lengths stay ragged within a
    /// bucket), each bucket packs its query rows and runs one
    /// [`decode_paged`](Attention::decode_paged) over borrowed views of its
    /// steps' K/V pages — **one launch per op** across all its streams, with
    /// per-stream charges summed into a single profile, and no copy of any
    /// cached row — and outputs unpack per step, bit-identical to a
    /// per-stream solo `decode` loop. Results come back in step order.
    ///
    /// A flush with **zero steps is a no-op** — no launch is recorded and
    /// the decode report resets to empty (never a zero-size launch).
    /// Malformed steps fail the whole flush with a typed error before any
    /// launch; callers that validated at admission (the serving layer)
    /// never see one.
    pub fn flush_decode(
        &mut self,
        steps: &[DecodeStep<'_, T>],
    ) -> Result<Vec<FlushedDecode<T>>, RequestError> {
        self.last_decode = DecodeFlushReport::default();
        if steps.is_empty() {
            return Ok(Vec::new());
        }
        for step in steps {
            try_check_decode_step(step)?;
        }
        // Bucket step indices by (d, d_v, quantised), first-seen order —
        // bf16-KV and native-KV steps run different launches and never mix.
        let mut buckets: Vec<((usize, usize, bool), Vec<usize>)> = Vec::new();
        for (i, step) in steps.iter().enumerate() {
            let key = (step.d, step.d_v, step.k_rows.is_quantized());
            match buckets.iter_mut().find(|(k, _)| *k == key) {
                Some((_, idxs)) => idxs.push(i),
                None => buckets.push((key, vec![i])),
            }
        }

        let mut results: Vec<(usize, FlushedDecode<T>)> = Vec::with_capacity(steps.len());
        for ((d, d_v, quantized), idxs) in buckets {
            let mut q_data = Vec::with_capacity(idxs.len() * d);
            for &i in &idxs {
                q_data.extend_from_slice(steps[i].q_row);
            }
            let q = Matrix::from_vec(idxs.len(), d, q_data);

            // Only the query rows were packed: the kernels read every
            // step's K/V in place.
            let kv = bucket_views(steps, &idxs, quantized);
            let mark = self.ctx.timeline.entries().len();
            let out = self.mech.decode_paged(&mut self.ctx, &q, &kv, d_v);
            let new_entries = &self.ctx.timeline.entries()[mark..];
            let sim_latency_s: f64 = new_entries.iter().map(|e| e.latency(&self.ctx.dev)).sum();
            let launches: u64 = new_entries.iter().map(|e| e.launches).sum();
            self.last_decode.buckets.push(DecodeBucketReport {
                d,
                d_v,
                streams: idxs.len(),
                total_cached: idxs.iter().map(|&i| steps[i].len).sum(),
                sim_latency_s,
                launches,
                quantized,
            });
            for (row, &i) in idxs.iter().enumerate() {
                let output = self
                    .ctx
                    .exec
                    .then(|| Matrix::from_vec(1, d_v, out.row(row).to_vec()));
                let done = FlushedDecode {
                    output,
                    batch_size: idxs.len(),
                    cached_len: steps[i].len,
                    sim_latency_s,
                };
                results.push((i, done));
            }
        }
        results.sort_by_key(|&(i, _)| i);
        Ok(results.into_iter().map(|(_, done)| done).collect())
    }

    /// Drop the accumulated kernel timeline (the memory ledger keeps its
    /// peak) — long-running servers call this between batches so the
    /// context does not grow without bound.
    pub fn reset_timeline(&mut self) {
        self.ctx.reset_timeline();
    }

    /// Restore the engine to a serviceable state after a panic unwound
    /// through [`forward_chunk`](Self::forward_chunk) or
    /// [`flush_decode`](Self::flush_decode) and was caught by the caller
    /// (the serving layer's batch-panic isolation): a panic mid-launch can
    /// leave a partially recorded launch timeline and a stale decode report
    /// behind, and this drops both so the next launch starts clean.
    pub fn recover_after_panic(&mut self) {
        self.ctx.reset_timeline();
        self.last_decode = DecodeFlushReport::default();
    }
}

impl<T: Scalar> std::fmt::Debug for AttentionEngine<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AttentionEngine<{}> for {:?}", T::NAME, self.mech.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfss::DfssAttention;
    use crate::full::FullAttention;
    use dfss_nmsparse::NmPattern;
    use dfss_tensor::Rng;

    fn request(n: usize, d: usize, rng: &mut Rng) -> (Matrix<f32>, Matrix<f32>, Matrix<f32>) {
        (
            Matrix::random_normal(n, d, 0.0, 1.0, rng),
            Matrix::random_normal(n, d, 0.0, 1.0, rng),
            Matrix::random_normal(n, d, 0.0, 1.0, rng),
        )
    }

    fn bits(m: &Matrix<f32>) -> Vec<u32> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn ctx_persists_across_launches_until_reset() {
        let mech = FullAttention;
        let mut engine = AttentionEngine::new(&mech);
        let mut rng = Rng::new(11);
        let (q, k, v) = request(16, 8, &mut rng);
        engine.forward_chunk(&q, &k, &v).unwrap();
        let launches_after_first = engine.ctx().timeline.launches();
        engine.forward_chunk(&q, &k, &v).unwrap();
        // The context is owned and reused: the timeline accumulated both
        // launches until explicitly reset.
        assert_eq!(engine.ctx().timeline.launches(), 2 * launches_after_first);
        engine.reset_timeline();
        assert_eq!(engine.ctx().timeline.launches(), 0);
    }

    fn cache(len: usize, d: usize, d_v: usize, rng: &mut Rng) -> (Matrix<f32>, Matrix<f32>) {
        (
            Matrix::random_normal(len, d, 0.0, 1.0, rng),
            Matrix::random_normal(len, d_v, 0.0, 1.0, rng),
        )
    }

    #[test]
    fn flush_decode_is_bit_identical_to_solo_decode_loop() {
        let mech = DfssAttention::new(NmPattern::P1_2);
        let mut engine = AttentionEngine::new(&mech);
        let mut rng = Rng::new(31);
        // Ragged cached lengths, including odd (dense-tail) ones.
        let lens = [5usize, 16, 33, 8];
        let (d, d_v) = (16usize, 8usize);
        let caches: Vec<(Matrix<f32>, Matrix<f32>)> =
            lens.iter().map(|&l| cache(l, d, d_v, &mut rng)).collect();
        let q = Matrix::<f32>::random_normal(lens.len(), d, 0.0, 1.0, &mut rng);

        let steps: Vec<DecodeStep<'_, f32>> = caches
            .iter()
            .enumerate()
            .map(|(i, (k, v))| {
                DecodeStep::contiguous(q.row(i), k.as_slice(), v.as_slice(), lens[i], d, d_v)
            })
            .collect();
        let results = engine.flush_decode(&steps).unwrap();
        assert_eq!(results.len(), lens.len());
        // One ragged launch per op: Dfss decode runs 3 ops for the whole
        // batch.
        assert_eq!(engine.last_decode().launches(), 3);
        assert_eq!(engine.ctx().timeline.launches(), 3);
        assert!(engine.last_decode().sim_latency_s() > 0.0);
        assert_eq!(engine.last_decode().buckets.len(), 1);
        assert_eq!(engine.last_decode().buckets[0].total_cached, 62);

        for (i, res) in results.iter().enumerate() {
            assert_eq!(res.cached_len, lens[i]);
            assert_eq!(res.batch_size, lens.len());
            let got = res.output.as_ref().expect("exec mode");
            let mut sctx = GpuCtx::a100();
            let q_row = Matrix::from_vec(1, d, q.row(i).to_vec());
            let want = mech.decode(&mut sctx, &q_row, &caches[i].0, &caches[i].1);
            let same = got
                .as_slice()
                .iter()
                .zip(want.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "step {i} diverged from solo decode");
        }
    }

    #[test]
    fn flush_decode_buckets_by_width_and_keeps_step_order() {
        let mech = FullAttention;
        let mut engine = AttentionEngine::new(&mech);
        let mut rng = Rng::new(33);
        // Two (d, d_v) buckets interleaved.
        let shapes = [(8usize, 8usize), (4, 4), (8, 8), (4, 4)];
        let lens = [6usize, 9, 3, 5];
        let caches: Vec<(Matrix<f32>, Matrix<f32>)> = shapes
            .iter()
            .zip(&lens)
            .map(|(&(d, d_v), &l)| cache(l, d, d_v, &mut rng))
            .collect();
        let q_rows: Vec<Vec<f32>> = shapes
            .iter()
            .map(|&(d, _)| (0..d).map(|_| rng.normal(0.0, 1.0)).collect())
            .collect();
        let steps: Vec<DecodeStep<'_, f32>> = caches
            .iter()
            .enumerate()
            .map(|(i, (k, v))| {
                DecodeStep::contiguous(
                    &q_rows[i],
                    k.as_slice(),
                    v.as_slice(),
                    lens[i],
                    shapes[i].0,
                    shapes[i].1,
                )
            })
            .collect();
        let results = engine.flush_decode(&steps).unwrap();
        assert_eq!(results.len(), 4);
        for (i, res) in results.iter().enumerate() {
            assert_eq!(res.cached_len, lens[i]);
            assert_eq!(res.batch_size, 2);
            assert_eq!(res.output.as_ref().unwrap().cols(), shapes[i].1);
        }
        let report = engine.last_decode();
        assert_eq!(report.buckets.len(), 2);
        // The default (dense-row) decode merges the per-stream loop into
        // one launch per op: gemm_nt + softmax + gemm_nn per bucket.
        for b in &report.buckets {
            assert_eq!(b.streams, 2);
            assert_eq!(b.launches, 3);
        }
    }

    #[test]
    fn empty_decode_flush_is_a_no_op_not_a_zero_size_launch() {
        let mech = DfssAttention::new(NmPattern::P1_2);
        let mut engine: AttentionEngine<'_, f32> = AttentionEngine::new(&mech);
        let results = engine.flush_decode(&[]).unwrap();
        assert!(results.is_empty());
        assert_eq!(engine.ctx().timeline.launches(), 0);
        assert!(engine.ctx().timeline.is_empty());
        assert!(engine.last_decode().buckets.is_empty());
    }

    /// A mechanism that panics on its next forward while armed — stand-in
    /// for a kernel bug the serving layer must survive.
    struct PanicOnce {
        armed: std::cell::Cell<bool>,
    }
    impl Attention<f32> for PanicOnce {
        fn name(&self) -> String {
            "panic-once".into()
        }
        fn forward(
            &self,
            ctx: &mut dfss_kernels::GpuCtx,
            q: &Matrix<f32>,
            k: &Matrix<f32>,
            v: &Matrix<f32>,
        ) -> Matrix<f32> {
            if self.armed.replace(false) {
                panic!("injected kernel panic");
            }
            FullAttention.forward(ctx, q, k, v)
        }
    }

    #[test]
    fn recover_after_panic_leaves_a_serviceable_engine() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let mech = PanicOnce {
            armed: std::cell::Cell::new(true),
        };
        let mut engine = AttentionEngine::new(&mech);
        let mut rng = Rng::new(61);
        let (q, k, v) = request(16, 8, &mut rng);
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            let _ = engine.forward_chunk(&q, &k, &v);
        }));
        assert!(unwound.is_err(), "armed mechanism must panic mid-launch");
        engine.recover_after_panic();
        assert!(engine.ctx().timeline.is_empty());
        assert!(engine.last_decode().buckets.is_empty());
        // The next launch serves normally.
        let done = engine.forward_chunk(&q, &k, &v).unwrap();
        assert!(done.output.is_some());
    }

    #[test]
    fn flush_decode_rejects_malformed_steps_before_launching() {
        let mech = DfssAttention::new(NmPattern::P1_2);
        let mut engine = AttentionEngine::new(&mech);
        let q = vec![0.0f32; 8];
        let k = vec![0.0f32; 4 * 8];
        let v = vec![0.0f32; 4 * 8];
        // Wrong query width.
        let bad = DecodeStep::contiguous(&q[..4], &k, &v, 4, 8, 8);
        let err = engine.flush_decode(&[bad]).unwrap_err();
        assert!(matches!(err, RequestError::DecodeShapeMismatch { .. }));
        // Empty cache.
        let empty = DecodeStep::contiguous(&q, &[], &[], 0, 8, 8);
        let err = engine.flush_decode(&[empty]).unwrap_err();
        assert_eq!(err, RequestError::EmptyRequest);
        // Paged: a page table that disagrees with the declared length.
        let short_table = DecodeStep {
            q_row: &q,
            k_rows: KvRows::Native(PagedPanel {
                pages: vec![&k[..16]],
                rows_per_page: 2,
                len: 4,
                operand_form: false,
            }),
            v_rows: KvRows::Native(PagedPanel::one_page(&v, 4)),
            len: 4,
            d: 8,
            d_v: 8,
        };
        let err = engine.flush_decode(&[short_table]).unwrap_err();
        assert!(matches!(err, RequestError::DecodeShapeMismatch { .. }));
        // Paged: a page too small for its declared rows_per_page.
        let thin_page = DecodeStep {
            q_row: &q,
            k_rows: KvRows::Native(PagedPanel {
                pages: vec![&k[..16], &k[16..24]],
                rows_per_page: 2,
                len: 4,
                operand_form: false,
            }),
            v_rows: KvRows::Native(PagedPanel::one_page(&v, 4)),
            len: 4,
            d: 8,
            d_v: 8,
        };
        let err = engine.flush_decode(&[thin_page]).unwrap_err();
        assert!(matches!(err, RequestError::DecodeShapeMismatch { .. }));
        assert_eq!(engine.ctx().timeline.launches(), 0);
    }

    #[test]
    fn a_view_of_another_length_than_the_step_is_a_typed_rejection() {
        let mech = DfssAttention::new(NmPattern::P1_2);
        let mut engine = AttentionEngine::new(&mech);
        let q = vec![0.0f32; 8];
        let kv = vec![0.0f32; 4 * 8];
        // Each view is a valid table of its own rows; only the step's `len`
        // disagrees with one of them.
        for (k_len, v_len) in [(3usize, 4usize), (4, 3)] {
            let step = DecodeStep {
                q_row: &q,
                k_rows: KvRows::Native(PagedPanel::one_page(&kv, k_len)),
                v_rows: KvRows::Native(PagedPanel::one_page(&kv, v_len)),
                len: 4,
                d: 8,
                d_v: 8,
            };
            let err = engine.flush_decode(&[step]).unwrap_err();
            assert!(matches!(err, RequestError::DecodeShapeMismatch { .. }));
            assert!(err.to_string().contains("view holds 3 rows"), "got: {err}");
        }
        assert_eq!(engine.ctx().timeline.launches(), 0);
    }

    #[test]
    fn a_contiguous_slab_is_read_to_len_rows() {
        // A slab one row longer than `len × d` decodes bit-identically to
        // the exact slab (its last row is NaN, so reading it would show);
        // one row shorter is refused before anything launches.
        let mech = DfssAttention::new(NmPattern::P1_2);
        let mut rng = Rng::new(53);
        let (len, d) = (6usize, 8usize);
        let (k, v) = cache(len, d, d, &mut rng);
        let q = Matrix::<f32>::random_normal(1, d, 0.0, 1.0, &mut rng);
        let longer = |m: &Matrix<f32>| {
            let mut slab = m.as_slice().to_vec();
            slab.resize(slab.len() + d, f32::NAN);
            slab
        };
        let (k_long, v_long) = (longer(&k), longer(&v));
        let mut eng_x = AttentionEngine::new(&mech);
        let exact = DecodeStep::contiguous(q.row(0), k.as_slice(), v.as_slice(), len, d, d);
        let want = eng_x.flush_decode(&[exact]).unwrap();
        let mut eng_l = AttentionEngine::new(&mech);
        let long = DecodeStep::contiguous(q.row(0), &k_long, &v_long, len, d, d);
        let got = eng_l.flush_decode(&[long]).unwrap();
        assert_eq!(
            bits(got[0].output.as_ref().unwrap()),
            bits(want[0].output.as_ref().unwrap())
        );
        assert_eq!(
            eng_l.ctx().timeline.total_bytes(),
            eng_x.ctx().timeline.total_bytes()
        );

        let mut engine = AttentionEngine::new(&mech);
        let short = &k.as_slice()[..(len - 1) * d];
        for step in [
            DecodeStep::contiguous(q.row(0), short, v.as_slice(), len, d, d),
            DecodeStep::contiguous(q.row(0), k.as_slice(), short, len, d, d),
        ] {
            let err = engine.flush_decode(&[step]).unwrap_err();
            assert!(matches!(err, RequestError::DecodeShapeMismatch { .. }));
        }
        assert_eq!(engine.ctx().timeline.launches(), 0);
    }

    #[test]
    fn paged_steps_match_contiguous_steps() {
        // Shred each stream's K/V slab into fixed-size pages and decode both
        // ways — the ragged launches must be bit-identical. Every page has a
        // NaN dead tail longer than a row and not a multiple of the width,
        // and rows past `len` on the last page are NaN too, so a reader that
        // strides or stops by anything but `rows_per_page` and `len`
        // poisons the output. Page sizes of 1, 3 and 16 rows; lengths 16 and
        // 48 end exactly on a page boundary.
        let mech = DfssAttention::new(NmPattern::P1_2);
        let mut rng = Rng::new(41);
        let lens = [5usize, 16, 7, 48];
        let (d, d_v) = (8usize, 8usize);
        let caches: Vec<(Matrix<f32>, Matrix<f32>)> =
            lens.iter().map(|&l| cache(l, d, d_v, &mut rng)).collect();
        let q = Matrix::<f32>::random_normal(lens.len(), d, 0.0, 1.0, &mut rng);
        let contiguous: Vec<DecodeStep<'_, f32>> = caches
            .iter()
            .enumerate()
            .map(|(i, (k, v))| {
                DecodeStep::contiguous(q.row(i), k.as_slice(), v.as_slice(), lens[i], d, d_v)
            })
            .collect();
        let mut eng_c = AttentionEngine::new(&mech);
        let out_c = eng_c.flush_decode(&contiguous).unwrap();

        for rows_per_page in [1usize, 3, 16] {
            let shred = |slab: &[f32], len: usize, width: usize| -> Vec<Vec<f32>> {
                (0..len.div_ceil(rows_per_page))
                    .map(|p| {
                        let lo = p * rows_per_page * width;
                        let hi = slab.len().min(lo + rows_per_page * width);
                        let mut page = slab[lo..hi].to_vec();
                        page.resize(rows_per_page * width + width + 5, f32::NAN);
                        page
                    })
                    .collect()
            };
            let k_pages: Vec<Vec<Vec<f32>>> = caches
                .iter()
                .zip(&lens)
                .map(|((k, _), &l)| shred(k.as_slice(), l, d))
                .collect();
            let v_pages: Vec<Vec<Vec<f32>>> = caches
                .iter()
                .zip(&lens)
                .map(|((_, v), &l)| shred(v.as_slice(), l, d_v))
                .collect();
            let paged: Vec<DecodeStep<'_, f32>> = (0..lens.len())
                .map(|i| DecodeStep {
                    q_row: q.row(i),
                    k_rows: KvRows::Native(PagedPanel {
                        pages: k_pages[i].iter().map(|p| p.as_slice()).collect(),
                        rows_per_page,
                        len: lens[i],
                        operand_form: false,
                    }),
                    v_rows: KvRows::Native(PagedPanel {
                        pages: v_pages[i].iter().map(|p| p.as_slice()).collect(),
                        rows_per_page,
                        len: lens[i],
                        operand_form: false,
                    }),
                    len: lens[i],
                    d,
                    d_v,
                })
                .collect();

            let mut eng_p = AttentionEngine::new(&mech);
            let out_p = eng_p.flush_decode(&paged).unwrap();
            assert_eq!(out_c.len(), out_p.len());
            for (i, (c, p)) in out_c.iter().zip(&out_p).enumerate() {
                let (c, p) = (c.output.as_ref().unwrap(), p.output.as_ref().unwrap());
                let same = c
                    .as_slice()
                    .iter()
                    .zip(p.as_slice())
                    .all(|(x, y)| x.to_bits() == y.to_bits());
                assert!(
                    same,
                    "stream {i} diverged between paged and contiguous at \
                     {rows_per_page} rows/page"
                );
            }
            // Same launch count and charges either way: the kernels read the
            // same rows in the same order, so they cannot tell.
            assert_eq!(
                eng_c.last_decode().launches(),
                eng_p.last_decode().launches()
            );
            assert_eq!(
                eng_c.ctx().timeline.total_bytes(),
                eng_p.ctx().timeline.total_bytes()
            );
        }
    }

    #[test]
    fn operand_form_views_of_rounded_rows_match_raw_contiguous_steps() {
        // A view flagged `operand_form` over the TF32-rounded rows (what a
        // serving KV cache hands the engine) skips the rounding on load; a
        // contiguous step over the raw rows rounds them as it reads. Both
        // read the same multiply operands, so outputs and charges must be
        // bit-identical. A 100-row stream keeps 50 values under 1:2, more
        // than one SpMM batch; d_v = 72 is a 64-column window and a tail.
        // K carries a NaN with a payload, V an ∞, a subnormal and a value
        // TF32 rounds.
        let (d, d_v) = (16usize, 72usize);
        let lens = [5usize, 40, 17, 100];
        let mut rng = Rng::new(43);
        let mut caches: Vec<(Matrix<f32>, Matrix<f32>)> =
            lens.iter().map(|&l| cache(l, d, d_v, &mut rng)).collect();
        caches[0].0.row_mut(2)[3] = f32::from_bits(0x7fa0_1234);
        caches[1].1.row_mut(7)[70] = f32::INFINITY;
        caches[3].1.row_mut(50)[9] = f32::from_bits(0x0000_0001);
        caches[3].1.row_mut(51)[9] = 1.000_000_1;
        let round = |m: &Matrix<f32>| -> Vec<f32> {
            m.as_slice()
                .iter()
                .map(|&x| dfss_tensor::tf32_round(x))
                .collect()
        };
        let rounded: Vec<(Vec<f32>, Vec<f32>)> =
            caches.iter().map(|(k, v)| (round(k), round(v))).collect();
        let q = Matrix::<f32>::random_normal(lens.len(), d, 0.0, 1.0, &mut rng);
        fn operand(slab: &[f32], len: usize) -> PagedPanel<'_, f32> {
            PagedPanel {
                operand_form: true,
                ..PagedPanel::one_page(slab, len)
            }
        }
        let raw_steps: Vec<DecodeStep<'_, f32>> = (0..lens.len())
            .map(|i| {
                let (k, v) = &caches[i];
                DecodeStep::contiguous(q.row(i), k.as_slice(), v.as_slice(), lens[i], d, d_v)
            })
            .collect();
        let operand_steps: Vec<DecodeStep<'_, f32>> = (0..lens.len())
            .map(|i| DecodeStep {
                q_row: q.row(i),
                k_rows: KvRows::Native(operand(&rounded[i].0, lens[i])),
                v_rows: KvRows::Native(operand(&rounded[i].1, lens[i])),
                len: lens[i],
                d,
                d_v,
            })
            .collect();
        let dfss_1_2 = DfssAttention::new(NmPattern::P1_2);
        let dfss_2_4 = DfssAttention::new(NmPattern::P2_4);
        let mechs: [&dyn Attention<f32>; 3] = [&dfss_1_2, &dfss_2_4, &FullAttention];
        for mech in mechs {
            let mut eng_raw = AttentionEngine::new(mech);
            let mut eng_op = AttentionEngine::new(mech);
            let out_raw = eng_raw.flush_decode(&raw_steps).unwrap();
            let out_op = eng_op.flush_decode(&operand_steps).unwrap();
            for (i, (r, o)) in out_raw.iter().zip(&out_op).enumerate() {
                let (r, o) = (r.output.as_ref().unwrap(), o.output.as_ref().unwrap());
                let bits =
                    |m: &Matrix<f32>| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(r), bits(o), "{}: stream {i} diverged", mech.name());
            }
            assert_eq!(
                eng_raw.ctx().timeline.total_bytes(),
                eng_op.ctx().timeline.total_bytes()
            );
        }
    }

    #[test]
    fn quantized_steps_match_host_widen_model_and_charge_half_the_kv_bytes() {
        // A bf16 ragged flush must be bit-identical to widening the pages
        // on the host and flushing f32 steps, while its KV-panel traffic
        // charges at 2 bytes/element — the whole point of the quant store.
        let mech = DfssAttention::new(NmPattern::P1_2);
        let mut rng = Rng::new(43);
        let lens = [5usize, 9];
        let (d, d_v) = (8usize, 8usize);
        let rows_per_page = 4usize;
        let q = Matrix::<f32>::random_normal(lens.len(), d, 0.0, 1.0, &mut rng);
        // Live rows are random; rows past `len` on the last page and a dead
        // tail of `width + 3` elements (not a multiple of the width) are
        // NaN, so the widen-on-load reader must touch live rows only.
        let make_pages = |len: usize, width: usize, rng: &mut Rng| -> Vec<Vec<Bf16>> {
            (0..len.div_ceil(rows_per_page))
                .map(|p| {
                    let live = (len - p * rows_per_page).min(rows_per_page) * width;
                    (0..rows_per_page * width + width + 3)
                        .map(|e| {
                            if e < live {
                                Bf16::from_f32(rng.normal(0.0, 1.0))
                            } else {
                                Bf16::from_f32(f32::NAN)
                            }
                        })
                        .collect()
                })
                .collect()
        };
        let k_pages: Vec<Vec<Vec<Bf16>>> =
            lens.iter().map(|&l| make_pages(l, d, &mut rng)).collect();
        let v_pages: Vec<Vec<Vec<Bf16>>> =
            lens.iter().map(|&l| make_pages(l, d_v, &mut rng)).collect();
        let widen = |pages: &[Vec<Bf16>], len: usize, width: usize| -> Vec<f32> {
            pages
                .iter()
                .enumerate()
                .flat_map(|(p, page)| {
                    let live = (len - p * rows_per_page).min(rows_per_page) * width;
                    page[..live].iter().map(|x| x.to_f32())
                })
                .collect()
        };
        let k_host: Vec<Vec<f32>> = k_pages
            .iter()
            .zip(&lens)
            .map(|(p, &l)| widen(p, l, d))
            .collect();
        let v_host: Vec<Vec<f32>> = v_pages
            .iter()
            .zip(&lens)
            .map(|(p, &l)| widen(p, l, d_v))
            .collect();

        let quant: Vec<DecodeStep<'_, f32>> = (0..lens.len())
            .map(|i| DecodeStep {
                q_row: q.row(i),
                k_rows: KvRows::Bf16(PagedPanel {
                    pages: k_pages[i].iter().map(|p| p.as_slice()).collect(),
                    rows_per_page,
                    len: lens[i],
                    operand_form: false,
                }),
                v_rows: KvRows::Bf16(PagedPanel {
                    pages: v_pages[i].iter().map(|p| p.as_slice()).collect(),
                    rows_per_page,
                    len: lens[i],
                    operand_form: false,
                }),
                len: lens[i],
                d,
                d_v,
            })
            .collect();
        let host: Vec<DecodeStep<'_, f32>> = (0..lens.len())
            .map(|i| DecodeStep::contiguous(q.row(i), &k_host[i], &v_host[i], lens[i], d, d_v))
            .collect();

        let mut eng_q = AttentionEngine::new(&mech);
        let mut eng_h = AttentionEngine::new(&mech);
        let out_q = eng_q.flush_decode(&quant).unwrap();
        let out_h = eng_h.flush_decode(&host).unwrap();
        for (i, (a, b)) in out_q.iter().zip(&out_h).enumerate() {
            let (a, b) = (a.output.as_ref().unwrap(), b.output.as_ref().unwrap());
            let same = a
                .as_slice()
                .iter()
                .zip(b.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(same, "stream {i}: fused bf16 diverged from host widen");
        }
        // The quant bucket reports itself, and moves fewer bytes (the KV
        // panels at half width; everything else is unchanged).
        assert!(eng_q.last_decode().buckets.iter().all(|b| b.quantized));
        assert!(eng_h.last_decode().buckets.iter().all(|b| !b.quantized));
        assert!(
            eng_q.ctx().timeline.total_bytes() < eng_h.ctx().timeline.total_bytes(),
            "bf16 KV panels must charge fewer bytes than f32 ({} vs {})",
            eng_q.ctx().timeline.total_bytes(),
            eng_h.ctx().timeline.total_bytes()
        );
    }

    #[test]
    fn mixed_kv_quantisation_is_a_typed_rejection() {
        let mech = DfssAttention::new(NmPattern::P1_2);
        let mut engine = AttentionEngine::new(&mech);
        let mut rng = Rng::new(47);
        let q: Vec<f32> = (0..8).map(|_| rng.normal(0.0, 1.0)).collect();
        let k_bf16: Vec<Bf16> = (0..4 * 8)
            .map(|_| Bf16::from_f32(rng.normal(0.0, 1.0)))
            .collect();
        let v_f32: Vec<f32> = (0..4 * 8).map(|_| rng.normal(0.0, 1.0)).collect();
        let step = DecodeStep {
            q_row: &q,
            k_rows: KvRows::Bf16(PagedPanel::one_page(&k_bf16, 4)),
            v_rows: KvRows::Native(PagedPanel::one_page(&v_f32, 4)),
            len: 4,
            d: 8,
            d_v: 8,
        };
        let err = engine.flush_decode(&[step]).unwrap_err();
        assert!(matches!(err, RequestError::DecodeShapeMismatch { .. }));
        assert!(err.to_string().contains("quantisation"), "got: {err}");
        assert_eq!(engine.ctx().timeline.launches(), 0);
    }

    #[test]
    fn charge_only_launch_reports_costs_without_outputs() {
        let mech = DfssAttention::new(NmPattern::P1_2);
        let mut exec_engine = AttentionEngine::new(&mech);
        let mut charge_engine = AttentionEngine::with_ctx(&mech, GpuCtx::a100_charge_only());
        let mut rng = Rng::new(13);
        let (q, k, v) = request(32, 16, &mut rng);
        // A whole request and a partial chunk, both ways.
        for q_rows in [q.clone(), q.take_rows(4, 20)] {
            let e = exec_engine.forward_chunk(&q_rows, &k, &v).unwrap();
            let c = charge_engine.forward_chunk(&q_rows, &k, &v).unwrap();
            assert!(e.output.is_some());
            assert!(c.output.is_none());
            // Identical charges either way.
            assert_eq!((e.rows, e.launches), (c.rows, c.launches));
            assert!((e.sim_latency_s - c.sim_latency_s).abs() < 1e-15);
            assert_eq!(
                exec_engine.ctx().timeline.total_bytes(),
                charge_engine.ctx().timeline.total_bytes()
            );
        }
    }

    /// The continuous-batching parity contract: for every chunk-opted-in
    /// mechanism, stacking `forward_chunk` outputs over any row partition —
    /// including odd, unaligned chunk sizes — is bit-identical to one solo
    /// whole-Q `forward`.
    #[test]
    fn chunked_forward_stacks_bit_identical_to_whole_forward() {
        let mechs: Vec<(&str, Box<dyn Attention<f32>>)> = vec![
            ("full", Box::new(FullAttention)),
            ("dfss", Box::new(DfssAttention::new(NmPattern::P1_2))),
        ];
        let mut rng = Rng::new(41);
        for (name, mech) in &mechs {
            assert!(mech.supports_row_chunking(), "{name}");
            let (n, d) = (48, 16);
            let (q, k, v) = request(n, d, &mut rng);
            let solo = {
                let mut ctx = GpuCtx::a100();
                mech.forward(&mut ctx, &q, &k, &v)
            };
            // Uneven partition: 17 + 17 + 14 rows.
            for chunk in [17usize, 48, 5] {
                let mut engine = AttentionEngine::with_ctx(mech.as_ref(), GpuCtx::a100());
                let mut got: Vec<f32> = Vec::new();
                let mut lo = 0;
                while lo < n {
                    let hi = (lo + chunk).min(n);
                    let mut rows = Vec::with_capacity((hi - lo) * d);
                    for r in lo..hi {
                        rows.extend_from_slice(q.row(r));
                    }
                    let q_rows = Matrix::from_vec(hi - lo, d, rows);
                    let res = engine.forward_chunk(&q_rows, &k, &v).unwrap();
                    assert_eq!(res.rows, hi - lo);
                    assert!(res.launches > 0 && res.sim_latency_s > 0.0);
                    got.extend_from_slice(res.output.as_ref().unwrap().as_slice());
                    lo = hi;
                }
                let solo_bits: Vec<u32> = solo.as_slice().iter().map(|x| x.to_bits()).collect();
                let got_bits: Vec<u32> = got.iter().map(|x| x.to_bits()).collect();
                assert_eq!(solo_bits, got_bits, "{name} chunk={chunk}");
            }
        }
    }

    /// A mechanism that cannot chunk runs a whole chunk through its own
    /// `forward` — never a dense stand-in — and refuses a partial one typed,
    /// before anything launches. Nyström's landmarks are segment means of
    /// the whole Q, and Performer's feature stabiliser is a max over all of
    /// Q's projections.
    #[test]
    fn forward_chunk_runs_the_mechanism_and_refuses_partial_chunks_it_cannot_chunk() {
        use crate::linear_baselines::{NystromAttention, PerformerAttention};
        let mechs: Vec<Box<dyn Attention<f32>>> = vec![
            Box::new(NystromAttention::new(8)),
            Box::new(PerformerAttention::new(4)),
        ];
        let mut rng = Rng::new(3);
        let (q, k, v) = request(32, 16, &mut rng);
        for mech in &mechs {
            assert!(!mech.supports_row_chunking(), "{}", mech.name());
            let solo = mech.forward(&mut GpuCtx::a100(), &q, &k, &v);
            let mut engine = AttentionEngine::new(mech.as_ref());
            let whole = engine.forward_chunk(&q, &k, &v).unwrap();
            let got = whole.output.as_ref().expect("exec mode");
            assert_eq!(bits(got), bits(&solo), "{}", mech.name());
            engine.reset_timeline();
            let err = engine
                .forward_chunk(&q.take_rows(0, 16), &k, &v)
                .unwrap_err();
            assert!(
                matches!(err, RequestError::Unsupported { .. }),
                "{}: {err}",
                mech.name()
            );
            assert!(engine.ctx().timeline.is_empty(), "{}", mech.name());
        }
    }

    #[test]
    fn forward_chunk_rejects_malformed_chunks_without_launching() {
        let mech = DfssAttention::new(NmPattern::P1_2);
        let mut engine = AttentionEngine::new(&mech);
        let mut rng = Rng::new(42);
        let (_, k, v) = request(32, 16, &mut rng);
        // Wrong head dim vs K.
        let q_bad = Matrix::<f32>::random_normal(4, 8, 0.0, 1.0, &mut rng);
        assert!(matches!(
            engine.forward_chunk(&q_bad, &k, &v),
            Err(RequestError::KShapeMismatch { .. })
        ));
        // Key count violating the mechanism's N:M alignment.
        let q_rows = Matrix::<f32>::random_normal(4, 16, 0.0, 1.0, &mut rng);
        let k_odd = Matrix::<f32>::random_normal(31, 16, 0.0, 1.0, &mut rng);
        let v_odd = Matrix::<f32>::random_normal(31, 16, 0.0, 1.0, &mut rng);
        assert!(matches!(
            engine.forward_chunk(&q_rows, &k_odd, &v_odd),
            Err(RequestError::Unsupported { .. })
        ));
        // A zero-width V has nothing to attend into.
        let err = engine
            .forward_chunk(&q_rows, &k, &Matrix::zeros(32, 0))
            .unwrap_err();
        assert_eq!(err, RequestError::EmptyRequest);
        assert_eq!(engine.ctx().timeline.entries().len(), 0);
    }
}
