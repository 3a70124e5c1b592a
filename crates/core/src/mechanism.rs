//! The attention-mechanism interface.

use dfss_gpusim::Stage;
use dfss_kernels::{gemm, softmax, GpuCtx};
use dfss_tensor::{BatchedMatrix, Bf16, Matrix, PagedPanel, RaggedBatch, Scalar};

/// The cached K/V of a ragged decode batch, borrowed in place: one
/// [`PagedPanel`] view per stream at the element width the cache stores.
/// Entry `i` of `k` and `v` is stream `i`'s cache (K rows `d` wide, V rows
/// `d_v` wide). A contiguous slab — and one panel of a packed
/// [`RaggedBatch`] — is the one-page view; K and V always share one storage
/// width.
#[derive(Clone, Debug)]
pub enum KvViews<'a, T> {
    /// Rows stored at the compute type `T`.
    Native {
        /// Cached keys, one view per stream.
        k: Vec<PagedPanel<'a, T>>,
        /// Cached values, one view per stream.
        v: Vec<PagedPanel<'a, T>>,
    },
    /// Rows stored **bf16-quantised** whatever `T` is: decode widens them
    /// to f32 on load, so a native kernel reads the cache at 2 bytes per
    /// element.
    Bf16 {
        /// Cached keys, one view per stream.
        k: Vec<PagedPanel<'a, Bf16>>,
        /// Cached values, one view per stream.
        v: Vec<PagedPanel<'a, Bf16>>,
    },
}

impl<'a, T: Scalar> KvViews<'a, T> {
    /// One-page views of packed K/V stacks.
    pub fn packed(k: &'a RaggedBatch<T>, v: &'a RaggedBatch<T>) -> KvViews<'a, T> {
        KvViews::Native {
            k: k.views(),
            v: v.views(),
        }
    }

    /// Stream `s`'s cached K and V copied out as `T` matrices (`len × d`
    /// and `len × d_v`, bf16 rows widened exactly).
    fn to_matrices(&self, s: usize, d: usize, d_v: usize) -> (Matrix<T>, Matrix<T>) {
        match self {
            KvViews::Native { k, v } => (k[s].to_matrix(d), v[s].to_matrix(d_v)),
            KvViews::Bf16 { k, v } => (k[s].to_matrix(d), v[s].to_matrix(d_v)),
        }
    }
}

/// An attention mechanism: `O = attend(Q, K, V)` with `Q, K, V : n×d`.
///
/// Implementations execute on the host and charge the simulated device
/// through `ctx` (kernel timeline + peak-memory ledger), so a single forward
/// call yields the output, the Figure 5 stage breakdown, and the Figure 16
/// footprint at once.
pub trait Attention<T: Scalar> {
    /// Display name as used in the paper's figures (e.g. `"Dfss 1:2"`).
    fn name(&self) -> String;

    /// Compute the attention output of `q` (`c × d`) against `k` (`n × d`)
    /// and `v` (`n × d_v`). Every mechanism runs square Q (`c = n`); one
    /// that [`supports_row_chunking`](Self::supports_row_chunking) also runs
    /// any `c ≥ 1` query rows — a **chunk** of a prefill's Q, the resumable
    /// unit a continuous batching scheduler interleaves with decode steps.
    fn forward(&self, ctx: &mut GpuCtx, q: &Matrix<T>, k: &Matrix<T>, v: &Matrix<T>) -> Matrix<T>;

    /// Compute the attention output for a whole B×H stack — **one launch
    /// per op** across the batch ("batch size … large enough to keep the
    /// GPU busy", §5.2).
    ///
    /// Mechanisms with natively batched kernels (Dfss, the dense
    /// transformer) override this with single-profile whole-stack launches.
    /// The default covers every other mechanism with the paper's batched
    /// launch model (A.1.2): each panel runs for real — every head's
    /// traffic, MACs and overhead are charged — the per-panel launches of
    /// each kernel then collapse to one, exactly as a batched grid would
    /// execute them, and the memory ledger reserves the other panels'
    /// working sets alongside each panel's run (a batched launch holds
    /// every panel's transient footprint concurrently, matching what the
    /// native overrides allocate explicitly).
    fn forward_batched(
        &self,
        ctx: &mut GpuCtx,
        q: &BatchedMatrix<T>,
        k: &BatchedMatrix<T>,
        v: &BatchedMatrix<T>,
    ) -> BatchedMatrix<T> {
        let (batch, n, _) = check_qkv_batched(q, k, v);
        let mut out = BatchedMatrix::zeros(batch, n, v.cols());
        run_batched(ctx, batch, "batched_panels_concurrent", |ctx, b| {
            let ob = self.forward(ctx, &q.to_panel(b), &k.to_panel(b), &v.to_panel(b));
            out.panel_mut(b).copy_from_slice(ob.as_slice());
        });
        out
    }

    /// The `1/√d` standardisation of Equation (1).
    fn scale_for(&self, d: usize) -> f32 {
        1.0 / (d as f32).sqrt()
    }

    /// One **decode step**: the stream's new query row (`1 × d`) attends
    /// over its cached `K` (`len × d`) and `V` (`len × d_v`), returning the
    /// `1 × d_v` output row — the incremental-inference counterpart of
    /// [`forward`](Self::forward), where the cache grows by one position per
    /// generated token and `len` need not satisfy the mechanism's prefill
    /// alignment rules.
    ///
    /// The default runs the generic dense row pipeline (`gemm_nt` scores →
    /// dense softmax → `gemm_nn` AV) — correct for any mechanism, since a
    /// single row gains nothing from sparsity without hardware-structured
    /// metadata. Mechanisms with a native decode format (Dfss: N:M over the
    /// row's full M-groups with a dense tail) override it.
    fn decode(
        &self,
        ctx: &mut GpuCtx,
        q_row: &Matrix<T>,
        k: &Matrix<T>,
        v: &Matrix<T>,
    ) -> Matrix<T> {
        let (len, d) = check_decode(q_row, k, v);
        let scale = self.scale_for(d);
        let scores_id = ctx
            .mem
            .alloc("scores_decode_dense", (len * T::BYTES) as u64);
        let scores = gemm::gemm_nt(ctx, Stage::Qk, q_row, k, scale);
        let a = softmax::softmax_dense(ctx, &scores);
        let out = gemm::gemm_nn(ctx, Stage::Av, &a, v);
        ctx.mem.free(scores_id);
        out
    }

    /// Batched decode across **ragged streams**, reading every stream's
    /// cached K/V in place: row `i` of `q` is stream `i`'s new query row,
    /// entry `i` of `kv`'s K and V views its cache (lengths may differ per
    /// stream; V rows are `d_v` wide) — **one launch per op** for the whole
    /// ragged batch, outputs bit-identical to a per-stream
    /// [`decode`](Self::decode) loop. Returns the `streams × d_v` output,
    /// one row per stream.
    ///
    /// The default runs the per-stream loop, copying each stream's K/V
    /// straight from its pages into the `T` matrices `decode` takes (bf16
    /// rows widened exactly; the kernels then read and charge `T`-width
    /// rows), and merges the per-stream kernel logs positionally into
    /// batched launches (one launch per op, per-stream charges summed — the
    /// same model as the batched prefill default), reserving the remaining
    /// streams' transient working sets alongside the first stream's run
    /// (sized from stream 0, the same first-panel approximation
    /// `forward_batched` uses). Mechanisms with natively ragged kernels
    /// (Dfss) override it with single-profile whole-batch launches that
    /// read the pages at their stored width.
    fn decode_paged(
        &self,
        ctx: &mut GpuCtx,
        q: &Matrix<T>,
        kv: &KvViews<'_, T>,
        d_v: usize,
    ) -> Matrix<T> {
        let streams = check_decode_paged(q, kv, d_v);
        let mut out = Matrix::zeros(streams, d_v);
        let d = q.cols();
        run_batched(ctx, streams, "decode_streams_concurrent", |ctx, s| {
            let (k, v) = kv.to_matrices(s, d, d_v);
            let os = self.decode(ctx, &Matrix::from_vec(1, d, q.row(s).to_vec()), &k, &v);
            out.row_mut(s).copy_from_slice(os.as_slice());
        });
        out
    }

    /// [`decode_paged`](Self::decode_paged) over packed K/V stacks (panel
    /// `i` = stream `i`'s cache), read as one-page views.
    fn decode_ragged(
        &self,
        ctx: &mut GpuCtx,
        q: &Matrix<T>,
        k: &RaggedBatch<T>,
        v: &RaggedBatch<T>,
    ) -> Matrix<T> {
        assert_eq!(q.cols(), k.cols(), "query width mismatch");
        self.decode_paged(ctx, q, &KvViews::packed(k, v), v.cols())
    }

    /// Validate that this mechanism can run an `n × d` request, without
    /// panicking — the serving front door ([`crate::engine`], `dfss-serve`)
    /// rejects unservable shapes with a typed error before admission.
    ///
    /// The default accepts any non-empty shape; mechanisms with structural
    /// requirements (N:M group alignment) override it.
    fn check_shape(&self, n: usize, d: usize) -> Result<(), RequestError> {
        let _ = d;
        if n == 0 {
            return Err(RequestError::EmptyRequest);
        }
        Ok(())
    }

    /// Whether [`forward`](Self::forward) accepts a chunk of Q's rows, with
    /// chunk outputs stacking **bit-identically** to one whole-Q forward.
    ///
    /// The contract when `true`: for any partition of Q's rows, stacking
    /// the chunk outputs in row order is bit-identical to one `forward`
    /// over the whole Q. That holds whenever the mechanism's score pipeline
    /// is row-separable over the key columns — scores keep the serial-k
    /// per-element sum order, softmax and any pruning act per score row —
    /// which is true of the dense pipeline and of Dfss's N:M epilogue, but
    /// *not* of mechanisms that depend on the whole Q (Nyström's landmarks
    /// are segment means of all of Q's rows).
    ///
    /// `false` (the default) keeps Q square and tells the serving scheduler
    /// to run this mechanism's prefills whole — correctness never depends
    /// on a mechanism opting in.
    fn supports_row_chunking(&self) -> bool {
        false
    }
}

/// Typed rejection of an attention request — serving must not abort the
/// process on a malformed `(Q, K, V)` triple.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RequestError {
    /// K's shape differs from Q's `n × d`.
    KShapeMismatch {
        q: (usize, usize),
        k: (usize, usize),
    },
    /// V's row count differs from the sequence length.
    VRowsMismatch { n: usize, v_rows: usize },
    /// Zero-sized panels cannot be served.
    EmptyRequest,
    /// The mechanism cannot run this shape (e.g. `n` not a multiple of M).
    Unsupported { mechanism: String, reason: String },
    /// A decode step's buffers disagree with the declared `(len, d, d_v)`
    /// shape (wrong query-row width, cache slab not `len × d`, …).
    DecodeShapeMismatch { reason: String },
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::KShapeMismatch { q, k } => {
                write!(f, "K shape {}x{} != Q shape {}x{}", k.0, k.1, q.0, q.1)
            }
            RequestError::VRowsMismatch { n, v_rows } => {
                write!(f, "V has {v_rows} rows, sequence length is {n}")
            }
            RequestError::EmptyRequest => write!(f, "empty request"),
            RequestError::Unsupported { mechanism, reason } => {
                write!(f, "{mechanism} cannot serve this shape: {reason}")
            }
            RequestError::DecodeShapeMismatch { reason } => {
                write!(f, "decode step shape mismatch: {reason}")
            }
        }
    }
}

impl std::error::Error for RequestError {}

/// Non-panicking validation of a `(Q, K, V)` triple and the mechanism's own
/// shape constraints, returning `(c, d)`: `c × d` query rows against `n × d`
/// keys and `n × d_v` values. A whole request has `c = n`; a chunk of its
/// query rows (`c < n`) passes only when the mechanism
/// [`supports_row_chunking`](Attention::supports_row_chunking). The
/// mechanism's [`Attention::check_shape`] runs against the **key count** `n`
/// — structural constraints like N:M group alignment bind the score-row
/// width, not the number of query rows.
pub fn try_check_qkv<T: Scalar>(
    mech: &dyn Attention<T>,
    q: &Matrix<T>,
    k: &Matrix<T>,
    v: &Matrix<T>,
) -> Result<(usize, usize), RequestError> {
    let (c, d) = q.shape();
    let n = k.rows();
    if c == 0 || d == 0 || v.cols() == 0 {
        return Err(RequestError::EmptyRequest);
    }
    if k.cols() != d || c > n {
        return Err(RequestError::KShapeMismatch {
            q: (c, d),
            k: k.shape(),
        });
    }
    if v.rows() != n {
        return Err(RequestError::VRowsMismatch {
            n,
            v_rows: v.rows(),
        });
    }
    if c < n && !mech.supports_row_chunking() {
        return Err(RequestError::Unsupported {
            mechanism: mech.name(),
            reason: format!("cannot run a chunk of {c} of its {n} query rows"),
        });
    }
    mech.check_shape(n, d)?;
    Ok((c, d))
}

/// Validate a chunked-prefill triple — `c × d` query rows against `n × d`
/// K and `n`-row V — returning `(c, n, d)`. Panicking twin of
/// [`try_check_qkv`] for mechanisms that run row chunks, called after the
/// front door validated.
pub fn check_qkv_rows<T: Scalar>(
    q_rows: &Matrix<T>,
    k: &Matrix<T>,
    v: &Matrix<T>,
) -> (usize, usize, usize) {
    let (c, d) = q_rows.shape();
    let (n, dk) = k.shape();
    assert!(c > 0 && d > 0, "empty query chunk");
    assert!(n > 0, "chunked prefill against an empty K");
    assert_eq!(d, dk, "Q chunk and K disagree on head dim");
    assert_eq!(v.rows(), n, "V rows != key count");
    (c, n, d)
}

/// Run `count` items of one batched launch through `item`, one at a time,
/// as the two trait defaults do: item 0 doubles as the measurement of one
/// item's transient footprint, the other items run with `count − 1` times
/// it reserved under `label` (a batched launch holds every item's working
/// set at once), and the per-item kernel logs then merge through
/// [`batch_panel_launches`]. Zero items run nothing.
fn run_batched(
    ctx: &mut GpuCtx,
    count: usize,
    label: &'static str,
    mut item: impl FnMut(&mut GpuCtx, usize),
) {
    if count == 0 {
        return;
    }
    let mark = ctx.timeline.entries().len();
    let resident = ctx.mem.current();
    ctx.mem.begin_window();
    item(ctx, 0);
    let transient = ctx.mem.window_peak().saturating_sub(resident);
    let rsv = ctx.mem.alloc(label, (count as u64 - 1) * transient);
    for i in 1..count {
        item(ctx, i);
    }
    ctx.mem.free(rsv);
    batch_panel_launches(ctx, mark, count);
}

/// Merge the per-panel kernel logs recorded since `mark` into batched
/// launches — the paper's batched kernel model ("using a batched kernel …
/// reduce kernel launching overhead", A.1.2).
///
/// When every panel recorded the same kernel sequence (the usual case —
/// mechanisms run a fixed op pipeline per head), the j-th op of every panel
/// merges **positionally** into one launch whose counters are the sum over
/// panels: per-panel sequential ops (e.g. k-means iterations) stay separate
/// launches, exactly one launch per batched op. A mechanism whose panels
/// recorded differing sequences keeps every entry and collapses launches by
/// kernel name instead.
///
/// **Latency model (pinned)**: a merged entry charges **one** launch
/// overhead and `max(Σ mem_time, Σ compute_time)` over its panels — the
/// batched launch overlaps memory and compute across the whole panel grid,
/// like a real batched kernel's double-buffered software pipeline
/// (A.1.2). Consequences, load-bearing for the serving bench's
/// simulated-device numbers:
///
/// * identical panels (the figure binaries' broadcast stacks): exactly the
///   old per-head-loop×B accounting, since every panel sits on the same
///   side of the memory/compute boundary;
/// * heterogeneous panels whose ops straddle that boundary (a serving
///   bucket mixing mem-bound and compute-bound requests): deliberately
///   **≤** the per-panel sum of maxes — one launch hides each panel's
///   underutilised pipe behind the other panels' busy one. The merged
///   latency is never below `max` of either pipe's total, so it cannot
///   under-charge a saturated resource.
///
/// `mechanism::tests::merged_launch_latency_is_max_of_pipe_totals` pins
/// this model.
fn batch_panel_launches(ctx: &mut GpuCtx, mark: usize, batch: usize) {
    let entries = ctx.timeline.entries();
    let total = entries.len() - mark;
    if batch <= 1 || total == 0 {
        return;
    }
    let per = total / batch;
    let uniform = total.is_multiple_of(batch)
        && (1..batch).all(|b| {
            (0..per).all(|j| {
                let a = &entries[mark + j];
                let e = &entries[mark + b * per + j];
                a.name == e.name && a.stage == e.stage
            })
        });
    if uniform {
        let es = ctx.timeline.entries_mut();
        for j in 0..per {
            for b in 1..batch {
                let src = es[mark + b * per + j].clone();
                let dst = &mut es[mark + j];
                dst.bytes_read += src.bytes_read;
                dst.bytes_written += src.bytes_written;
                dst.tc_macs += src.tc_macs;
                dst.alu_ops += src.alu_ops;
                // `launches` stays 1: one batched launch per op.
            }
        }
        ctx.timeline.truncate(mark + per);
    } else {
        let mut seen: Vec<&'static str> = Vec::new();
        for e in ctx.timeline.entries_mut()[mark..].iter_mut() {
            if seen.contains(&e.name) {
                e.launches = 0;
            } else {
                seen.push(e.name);
                e.launches = 1;
            }
        }
    }
}

/// Validate decode-step preconditions; returns `(len, d)`. The query is a
/// single row, K is the `len × d` cache, V has `len` rows.
pub fn check_decode<T: Scalar>(q_row: &Matrix<T>, k: &Matrix<T>, v: &Matrix<T>) -> (usize, usize) {
    assert_eq!(q_row.rows(), 1, "decode takes a single query row");
    let (len, d) = k.shape();
    assert!(len > 0, "decode against an empty cache");
    assert_eq!(q_row.cols(), d, "query width mismatch");
    assert_eq!(v.rows(), len, "V row mismatch");
    (len, d)
}

/// Ragged batched counterpart of [`check_decode`]; returns the stream
/// count. Row `i` of `q` pairs with entry `i` of the K and V views, whose
/// row counts must agree per stream; every view's page table must hold its
/// rows (K rows `q.cols()` wide, V rows `d_v` wide).
pub fn check_decode_paged<T: Scalar>(q: &Matrix<T>, kv: &KvViews<'_, T>, d_v: usize) -> usize {
    fn lens<S>(views: &[PagedPanel<'_, S>], width: usize) -> Vec<usize> {
        views.iter().map(|view| view.checked_len(width)).collect()
    }
    let (k_lens, v_lens) = match kv {
        KvViews::Native { k, v } => (lens(k, q.cols()), lens(v, d_v)),
        KvViews::Bf16 { k, v } => (lens(k, q.cols()), lens(v, d_v)),
    };
    assert_eq!(q.rows(), k_lens.len(), "one query row per stream");
    assert_eq!(k_lens, v_lens, "per-stream K/V length mismatch");
    assert!(
        k_lens.iter().all(|&l| l > 0),
        "decode against an empty cache"
    );
    k_lens.len()
}

/// Validate common attention preconditions; returns `(n, d)`.
pub fn check_qkv<T: Scalar>(q: &Matrix<T>, k: &Matrix<T>, v: &Matrix<T>) -> (usize, usize) {
    let (n, d) = q.shape();
    assert_eq!(k.shape(), (n, d), "K shape mismatch");
    assert_eq!(v.rows(), n, "V row mismatch");
    (n, d)
}

/// Batched counterpart of [`check_qkv`]; returns `(batch, n, d)`.
pub fn check_qkv_batched<T: Scalar>(
    q: &BatchedMatrix<T>,
    k: &BatchedMatrix<T>,
    v: &BatchedMatrix<T>,
) -> (usize, usize, usize) {
    let (batch, n, d) = q.shape();
    assert_eq!(k.shape(), (batch, n, d), "K shape mismatch");
    assert_eq!(v.batch(), batch, "V batch mismatch");
    assert_eq!(v.rows(), n, "V row mismatch");
    (batch, n, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Id;
    impl Attention<f32> for Id {
        fn name(&self) -> String {
            "id".into()
        }
        fn forward(
            &self,
            _ctx: &mut GpuCtx,
            _q: &Matrix<f32>,
            _k: &Matrix<f32>,
            v: &Matrix<f32>,
        ) -> Matrix<f32> {
            v.clone()
        }
    }

    #[test]
    fn scale_is_inverse_sqrt_d() {
        let a = Id;
        assert!((a.scale_for(64) - 0.125).abs() < 1e-7);
    }

    /// A mechanism that records a fixed two-kernel sequence per forward —
    /// stand-in for the baselines that go through the default
    /// `forward_batched` loop.
    struct TwoKernel;
    impl Attention<f32> for TwoKernel {
        fn name(&self) -> String {
            "two".into()
        }
        fn forward(
            &self,
            ctx: &mut GpuCtx,
            _q: &Matrix<f32>,
            _k: &Matrix<f32>,
            v: &Matrix<f32>,
        ) -> Matrix<f32> {
            use dfss_gpusim::{KernelProfile, Stage};
            ctx.record(KernelProfile::new("op_a", Stage::Overhead).with_traffic(100, 10));
            ctx.record(
                KernelProfile::new("op_b", Stage::Av)
                    .with_traffic(200, 20)
                    .with_alu(7),
            );
            v.clone()
        }
    }

    #[test]
    fn default_forward_batched_merges_panels_positionally() {
        // 3 panels × 2 ops → 2 batched launches, each charging 3 × the
        // per-panel traffic — exactly the old per-head-loop×B accounting.
        let q = BatchedMatrix::<f32>::zeros(3, 4, 2);
        let mut ctx = GpuCtx::a100();
        let out = TwoKernel.forward_batched(&mut ctx, &q, &q, &q);
        assert_eq!(out.shape(), (3, 4, 2));
        let es = ctx.timeline.entries();
        assert_eq!(es.len(), 2);
        assert_eq!(
            (es[0].name, es[0].bytes_read, es[0].launches),
            ("op_a", 300, 1)
        );
        assert_eq!(
            (es[1].name, es[1].bytes_read, es[1].alu_ops),
            ("op_b", 600, 21)
        );
        assert_eq!(ctx.timeline.launches(), 2);
    }

    /// A mechanism with a per-forward transient allocation (stand-in for a
    /// baseline materialising scratch per head).
    struct Alloc1K;
    impl Attention<f32> for Alloc1K {
        fn name(&self) -> String {
            "alloc1k".into()
        }
        fn forward(
            &self,
            ctx: &mut GpuCtx,
            _q: &Matrix<f32>,
            _k: &Matrix<f32>,
            v: &Matrix<f32>,
        ) -> Matrix<f32> {
            ctx.mem.with_alloc("scratch", 1024, |_| {});
            v.clone()
        }
    }

    #[test]
    fn default_forward_batched_models_concurrent_panel_memory() {
        // A batched launch holds every panel's working set at once: the
        // default loop must peak at batch × the per-panel transient (plus
        // anything already resident), like the native overrides do.
        let q = BatchedMatrix::<f32>::zeros(5, 4, 2);
        let mut ctx = GpuCtx::a100();
        let base = ctx.mem.alloc("resident", 10_000);
        let _ = Alloc1K.forward_batched(&mut ctx, &q, &q, &q);
        ctx.mem.free(base);
        assert_eq!(ctx.mem.peak(), 10_000 + 5 * 1024);
        assert_eq!(ctx.mem.current(), 0);
    }

    #[test]
    fn batch_panel_launches_falls_back_on_heterogeneous_logs() {
        use dfss_gpusim::{KernelProfile, Stage};
        let mut ctx = GpuCtx::a100();
        // Panel 0 records two ops, panel 1 records one — not mergeable
        // positionally; every entry survives with name-collapsed launches.
        ctx.record(KernelProfile::new("op_a", Stage::Overhead).with_traffic(1, 0));
        ctx.record(KernelProfile::new("op_b", Stage::Av).with_traffic(2, 0));
        ctx.record(KernelProfile::new("op_a", Stage::Overhead).with_traffic(4, 0));
        batch_panel_launches(&mut ctx, 0, 2);
        assert_eq!(ctx.timeline.entries().len(), 3);
        assert_eq!(ctx.timeline.total_bytes(), 7);
        assert_eq!(ctx.timeline.launches(), 2); // op_a once + op_b once
    }

    /// Pin the merged-launch latency model: one launch overhead plus
    /// `max(Σ mem_time, Σ compute_time)` across panels — cheaper than the
    /// per-panel sum of maxes when panels straddle the memory/compute
    /// boundary, never cheaper than either pipe's own total.
    #[test]
    fn merged_launch_latency_is_max_of_pipe_totals() {
        use dfss_gpusim::{KernelProfile, Stage, TcClass};
        let mut ctx = GpuCtx::a100();
        // Panel 0: op strongly memory-bound. Panel 1: same op, strongly
        // compute-bound (a heterogeneous serving bucket).
        let mem_heavy = KernelProfile::new("op", Stage::Av)
            .with_traffic(2_000_000_000, 0)
            .with_tc(1_000_000, TcClass::DenseTf32);
        let compute_heavy = KernelProfile::new("op", Stage::Av)
            .with_traffic(1_000, 0)
            .with_tc(400_000_000_000, TcClass::DenseTf32);
        let per_panel_sum_of_maxes = mem_heavy.latency(&ctx.dev) + compute_heavy.latency(&ctx.dev);
        let mem_total = mem_heavy.mem_time(&ctx.dev) + compute_heavy.mem_time(&ctx.dev);
        let compute_total = mem_heavy.compute_time(&ctx.dev) + compute_heavy.compute_time(&ctx.dev);
        ctx.record(mem_heavy);
        ctx.record(compute_heavy);
        batch_panel_launches(&mut ctx, 0, 2);
        assert_eq!(ctx.timeline.entries().len(), 1);
        assert_eq!(ctx.timeline.launches(), 1);
        let merged = ctx.latency();
        let expected = ctx.dev.kernel_launch_sec + mem_total.max(compute_total);
        assert!(
            (merged - expected).abs() < 1e-12,
            "merged {merged} != max(sum-mem, sum-compute) model {expected}"
        );
        // Strictly cheaper than running the panels back to back (the hidden
        // pipe), but not cheaper than the saturated pipe itself.
        assert!(merged < per_panel_sum_of_maxes);
        assert!(merged >= mem_total.max(compute_total));
    }

    #[test]
    fn try_check_qkv_rejects_bad_requests_with_typed_errors() {
        let q = Matrix::<f32>::zeros(8, 4);
        let k_bad = Matrix::<f32>::zeros(4, 4);
        let v_bad = Matrix::<f32>::zeros(6, 4);
        let v = Matrix::<f32>::zeros(8, 4);
        assert_eq!(try_check_qkv(&Id, &q, &q, &v), Ok((8, 4)));
        assert_eq!(
            try_check_qkv(&Id, &q, &k_bad, &v),
            Err(RequestError::KShapeMismatch {
                q: (8, 4),
                k: (4, 4)
            })
        );
        assert_eq!(
            try_check_qkv(&Id, &q, &q, &v_bad),
            Err(RequestError::VRowsMismatch { n: 8, v_rows: 6 })
        );
        let empty = Matrix::<f32>::zeros(0, 4);
        assert_eq!(
            try_check_qkv(&Id, &empty, &empty, &empty),
            Err(RequestError::EmptyRequest)
        );
        // Zero-width V: nothing to attend into.
        let no_cols = Matrix::<f32>::zeros(8, 0);
        assert_eq!(
            try_check_qkv(&Id, &q, &q, &no_cols),
            Err(RequestError::EmptyRequest)
        );
        // A partial chunk of Q's rows needs a mechanism that can chunk.
        let chunk = Matrix::<f32>::zeros(3, 4);
        assert!(matches!(
            try_check_qkv(&Id, &chunk, &q, &v),
            Err(RequestError::Unsupported { .. })
        ));
        assert_eq!(
            try_check_qkv(&crate::full::FullAttention, &chunk, &q, &v),
            Ok((3, 4))
        );
    }

    #[test]
    fn check_qkv_accepts_valid() {
        let q = Matrix::<f32>::zeros(8, 4);
        let k = Matrix::<f32>::zeros(8, 4);
        let v = Matrix::<f32>::zeros(8, 4);
        assert_eq!(check_qkv(&q, &k, &v), (8, 4));
    }

    #[test]
    #[should_panic(expected = "K shape mismatch")]
    fn check_qkv_rejects_bad_k() {
        let q = Matrix::<f32>::zeros(8, 4);
        let k = Matrix::<f32>::zeros(4, 4);
        let v = Matrix::<f32>::zeros(8, 4);
        check_qkv(&q, &k, &v);
    }
}
