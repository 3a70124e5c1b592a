//! Worker-pool parity tests: every kernel must produce **bit-identical**
//! results whether its `par_*` loops fan out across the persistent pool or
//! run serially on one thread, nested parallel sections must not deadlock,
//! and a panic inside one kernel launch must not poison the pool.
//!
//! The batched B×H entry points carry the same contract twice over: their
//! outputs must be bit-identical to a **per-panel serial loop** of the
//! single-head kernels (for all four kernel families; a stack's N:M scores
//! are one `NmCompressed` whose panel `p` is a range of its rows), and
//! their single recorded profile must charge **exactly batch ×** the
//! single-head `KernelProfile` in one launch. The row-tile attention
//! driver must equal the staged three-launch pipeline it replaces, bit for
//! bit and profile for profile.
//!
//! `RAYON_NUM_THREADS=4` is pinned before the first pool use so the fan-out
//! paths are exercised even on single-core CI runners.

use dfss_gpusim::{KernelProfile, Stage};
use dfss_kernels::{gemm, rowtile, sddmm, softmax, spmm, GpuCtx};
use dfss_nmsparse::{Csr, NmCompressed, NmPattern};
use dfss_tensor::{BatchedMatrix, Bf16, Matrix, Rng, Scalar};

/// Pin the pool width before its lazy initialisation (call first in every
/// test; whichever test runs first wins the race, all set the same value).
fn pin_pool() {
    static PIN: std::sync::OnceLock<()> = std::sync::OnceLock::new();
    PIN.get_or_init(|| {
        std::env::set_var("RAYON_NUM_THREADS", "4");
    });
}

fn bits<T: Scalar>(m: &Matrix<T>) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_f32().to_bits()).collect()
}

/// Panel `p` of a stack of `rows`-row panels' compressed scores — rows
/// `p·rows .. (p+1)·rows` — as a standalone [`NmCompressed`].
fn panel_of(comp: &NmCompressed<f32>, rows: usize, p: usize) -> NmCompressed<f32> {
    let (kept, gpr) = (rows * comp.kept_per_row(), rows * comp.groups_per_row());
    NmCompressed::from_parts(
        comp.pattern(),
        rows,
        comp.cols(),
        comp.nonzeros()[p * kept..(p + 1) * kept].to_vec(),
        comp.codes()[p * gpr..(p + 1) * gpr].to_vec(),
    )
}

/// A whole stack as one matrix of `batch · rows` rows, the layout a
/// batched launch's compressed scores take.
fn stacked(m: &BatchedMatrix<f32>) -> Matrix<f32> {
    Matrix::from_vec(m.batch() * m.rows(), m.cols(), m.as_slice().to_vec())
}

fn qkv(n: usize, d: usize, seed: u64) -> (Matrix<f32>, Matrix<f32>, Matrix<f32>) {
    let mut rng = Rng::new(seed);
    (
        Matrix::random_normal(n, d, 0.0, 1.0, &mut rng),
        Matrix::random_normal(n, d, 0.0, 1.0, &mut rng),
        Matrix::random_normal(n, d, 0.0, 1.0, &mut rng),
    )
}

#[test]
fn gemm_kernels_match_serial_bitwise() {
    pin_pool();
    // 67 rows: exercises the odd-row tail of the paired NT microkernel.
    let (q, k, v) = qkv(67, 64, 1);
    let par_nt = gemm::gemm_nt(&mut GpuCtx::a100(), Stage::Qk, &q, &k, 0.125);
    let ser_nt =
        rayon::with_serial(|| gemm::gemm_nt(&mut GpuCtx::a100(), Stage::Qk, &q, &k, 0.125));
    assert_eq!(bits(&par_nt), bits(&ser_nt), "gemm_nt");

    let par_nn = gemm::gemm_nn(&mut GpuCtx::a100(), Stage::Av, &par_nt, &v);
    let ser_nn = rayon::with_serial(|| gemm::gemm_nn(&mut GpuCtx::a100(), Stage::Av, &par_nt, &v));
    assert_eq!(bits(&par_nn), bits(&ser_nn), "gemm_nn");
}

#[test]
fn sddmm_matches_serial_bitwise() {
    pin_pool();
    let (q, k, _) = qkv(66, 32, 2);
    let par = sddmm::sddmm_nm_fused(&mut GpuCtx::a100(), &q, &k, 0.2, NmPattern::P1_2);
    let ser = rayon::with_serial(|| {
        sddmm::sddmm_nm_fused(&mut GpuCtx::a100(), &q, &k, 0.2, NmPattern::P1_2)
    });
    assert_eq!(par.codes(), ser.codes());
    assert_eq!(bits(&par.decompress()), bits(&ser.decompress()));
}

#[test]
fn softmax_matches_serial_bitwise() {
    pin_pool();
    let mut rng = Rng::new(3);
    let scores = Matrix::<f32>::random_normal(65, 64, 0.0, 1.0, &mut rng);
    let par = softmax::softmax_dense(&mut GpuCtx::a100(), &scores);
    let ser = rayon::with_serial(|| softmax::softmax_dense(&mut GpuCtx::a100(), &scores));
    assert_eq!(bits(&par), bits(&ser));

    let mut par_c = NmCompressed::compress(&scores, NmPattern::P1_2);
    let mut ser_c = par_c.clone();
    softmax::softmax_nm(&mut GpuCtx::a100(), &mut par_c);
    rayon::with_serial(|| softmax::softmax_nm(&mut GpuCtx::a100(), &mut ser_c));
    assert_eq!(bits(&par_c.decompress()), bits(&ser_c.decompress()));
}

#[test]
fn spmm_matches_serial_bitwise() {
    pin_pool();
    let mut rng = Rng::new(4);
    let scores = Matrix::<f32>::random_normal(64, 64, 0.0, 1.0, &mut rng);
    let v = Matrix::<f32>::random_normal(64, 32, 0.0, 1.0, &mut rng);
    let comp = NmCompressed::compress(&scores, NmPattern::P1_2);
    let par = spmm::spmm_nm(&mut GpuCtx::a100(), &comp, &v);
    let ser = rayon::with_serial(|| spmm::spmm_nm(&mut GpuCtx::a100(), &comp, &v));
    assert_eq!(bits(&par), bits(&ser), "spmm_nm");

    let csr = Csr::from_dense_topk(&scores, 9);
    let par = spmm::spmm_csr(&mut GpuCtx::a100(), &csr, &v);
    let ser = rayon::with_serial(|| spmm::spmm_csr(&mut GpuCtx::a100(), &csr, &v));
    assert_eq!(bits(&par), bits(&ser), "spmm_csr");
}

/// A stack of `batch` distinct random n×d panels.
fn stack(batch: usize, n: usize, d: usize, seed: u64) -> BatchedMatrix<f32> {
    let mut rng = Rng::new(seed);
    BatchedMatrix::random_normal(batch, n, d, 0.0, 1.0, &mut rng)
}

/// Assert one batched profile charges exactly `batch ×` the single-head
/// profile, in a single launch.
fn assert_batched_charge(batched: &KernelProfile, single: &KernelProfile, batch: u64, what: &str) {
    assert_eq!(batched.name, single.name, "{what}: kernel name");
    assert_eq!(batched.stage, single.stage, "{what}: stage");
    assert_eq!(
        batched.bytes_read,
        batch * single.bytes_read,
        "{what}: reads"
    );
    assert_eq!(
        batched.bytes_written,
        batch * single.bytes_written,
        "{what}: writes"
    );
    assert_eq!(batched.tc_macs, batch * single.tc_macs, "{what}: MACs");
    assert_eq!(batched.alu_ops, batch * single.alu_ops, "{what}: ALU ops");
    assert_eq!(batched.tc_class, single.tc_class, "{what}: tc class");
    assert_eq!(batched.launches, 1, "{what}: one launch per batched op");
}

/// Batched GEMMs: bit-identical to a serial per-panel loop; one profile of
/// exactly batch × the per-panel charge.
#[test]
fn batched_gemm_matches_serial_panel_loop() {
    pin_pool();
    // 35 rows: odd row-group tail; 37-wide B panels: odd column-tile tail.
    let (batch, m, n, d) = (5usize, 35usize, 37usize, 16usize);
    let a = stack(batch, m, d, 10);
    let b = stack(batch, n, d, 11);
    let mut bctx = GpuCtx::a100();
    let nt = gemm::gemm_nt_batched(&mut bctx, Stage::Qk, &a, &b, 0.25);
    let mut sctx = GpuCtx::a100();
    for p in 0..batch {
        let single = rayon::with_serial(|| {
            gemm::gemm_nt(&mut sctx, Stage::Qk, &a.to_panel(p), &b.to_panel(p), 0.25)
        });
        assert_eq!(bits(&nt.to_panel(p)), bits(&single), "gemm_nt panel {p}");
    }
    assert_eq!(bctx.timeline.entries().len(), 1);
    assert_batched_charge(
        &bctx.timeline.entries()[0],
        &sctx.timeline.entries()[0],
        batch as u64,
        "gemm_nt",
    );

    // NN: weights (batch×m×n) × V (batch×n×d).
    let w = stack(batch, m, n, 12);
    let v = stack(batch, n, d, 13);
    let mut bctx = GpuCtx::a100();
    let nn = gemm::gemm_nn_batched(&mut bctx, Stage::Av, &w, &v);
    let mut sctx = GpuCtx::a100();
    for p in 0..batch {
        let single = rayon::with_serial(|| {
            gemm::gemm_nn(&mut sctx, Stage::Av, &w.to_panel(p), &v.to_panel(p))
        });
        assert_eq!(bits(&nn.to_panel(p)), bits(&single), "gemm_nn panel {p}");
    }
    assert_batched_charge(
        &bctx.timeline.entries()[0],
        &sctx.timeline.entries()[0],
        batch as u64,
        "gemm_nn",
    );
}

/// Batched fused SDDMM (both hardware patterns): bit-identical nonzeros +
/// codes, exact batch × charge.
#[test]
fn batched_sddmm_matches_serial_panel_loop() {
    pin_pool();
    let (batch, n, d) = (4usize, 66usize, 32usize);
    for pattern in [NmPattern::P1_2, NmPattern::P2_4, NmPattern::new(1, 4)] {
        // 66 columns is not a multiple of 4; round the K stack to the
        // pattern's group size.
        let cols = n - n % pattern.m().max(2);
        let q = stack(batch, n, d, 20);
        let k = stack(batch, cols, d, 21);
        let mut bctx = GpuCtx::a100();
        let comp = sddmm::sddmm_nm_fused_batched(&mut bctx, &q, &k, 0.2, pattern);
        assert_eq!((comp.rows(), comp.cols()), (batch * n, cols));
        let mut sctx = GpuCtx::a100();
        for p in 0..batch {
            let single = rayon::with_serial(|| {
                sddmm::sddmm_nm_fused(&mut sctx, &q.to_panel(p), &k.to_panel(p), 0.2, pattern)
            });
            let panel = panel_of(&comp, n, p);
            assert_eq!(panel.codes(), single.codes(), "{pattern} codes {p}");
            assert_eq!(
                bits(&panel.decompress()),
                bits(&single.decompress()),
                "{pattern} values {p}"
            );
        }
        assert_eq!(bctx.timeline.entries().len(), 1);
        assert_batched_charge(
            &bctx.timeline.entries()[0],
            &sctx.timeline.entries()[0],
            batch as u64,
            "sddmm_nm_fused",
        );
    }
}

/// Batched softmax (dense + compressed): bit-identical rows, exact batch ×
/// charge.
#[test]
fn batched_softmax_matches_serial_panel_loop() {
    pin_pool();
    let (batch, n) = (4usize, 48usize);
    let scores = stack(batch, n, n, 40);
    let mut bctx = GpuCtx::a100();
    let dense = softmax::softmax_dense_batched(&mut bctx, &scores);
    let mut sctx = GpuCtx::a100();
    for p in 0..batch {
        let single = rayon::with_serial(|| softmax::softmax_dense(&mut sctx, &scores.to_panel(p)));
        assert_eq!(bits(&dense.to_panel(p)), bits(&single), "dense panel {p}");
    }
    assert_batched_charge(
        &bctx.timeline.entries()[0],
        &sctx.timeline.entries()[0],
        batch as u64,
        "softmax_dense",
    );

    let panels: Vec<NmCompressed<f32>> = (0..batch)
        .map(|p| NmCompressed::compress(&scores.to_panel(p), NmPattern::P1_2))
        .collect();
    let mut comp = NmCompressed::compress(&stacked(&scores), NmPattern::P1_2);
    let mut bctx = GpuCtx::a100();
    softmax::softmax_nm_batched(&mut bctx, &mut comp);
    let mut sctx = GpuCtx::a100();
    for (p, panel) in panels.into_iter().enumerate() {
        let mut single = panel;
        rayon::with_serial(|| softmax::softmax_nm(&mut sctx, &mut single));
        assert_eq!(
            bits(&panel_of(&comp, n, p).decompress()),
            bits(&single.decompress()),
            "nm panel {p}"
        );
    }
    assert_batched_charge(
        &bctx.timeline.entries()[0],
        &sctx.timeline.entries()[0],
        batch as u64,
        "softmax_nm",
    );
}

/// Independent serial reference of one N:M SpMM panel (rows
/// `p·rows .. (p+1)·rows` of `a`): `scan_row` plus a serial axpy per kept
/// entry, in ascending column order.
fn spmm_reference(a: &NmCompressed<f32>, rows: usize, p: usize, v: &Matrix<f32>) -> Vec<u32> {
    let mut out = Vec::with_capacity(rows * v.cols());
    for r in p * rows..(p + 1) * rows {
        let mut acc = vec![0.0f32; v.cols()];
        a.scan_row(r, |col, val| {
            let s = val.to_mul();
            for (o, x) in acc.iter_mut().zip(v.row(col)) {
                *o += s * x.to_mul();
            }
        });
        out.extend(acc.iter().map(|&x| f32::from_acc(x).to_bits()));
    }
    out
}

/// Batched and solo N:M SpMM: bit-identical to the serial reference at
/// widths on both sides of every register-tile width and with 1-, 2- and
/// 3-row tile tails; exact batch × charge.
#[test]
fn batched_spmm_matches_serial_panel_loop() {
    pin_pool();
    let (batch, inner) = (3usize, 64usize);
    for pattern in [
        NmPattern::P1_2,
        NmPattern::P2_4,
        NmPattern::new(1, 4),
        NmPattern::new(3, 4),
    ] {
        // 13, 18 and 35 rows: the last (panel, row-tile) work item of each
        // panel ends in a 1-, 2- and 3-row register tile.
        for rows in [13usize, 18, 35] {
            let scores = stack(batch, rows, inner, 50);
            let panels: Vec<NmCompressed<f32>> = (0..batch)
                .map(|p| NmCompressed::compress(&scores.to_panel(p), pattern))
                .collect();
            let comp = NmCompressed::compress(&stacked(&scores), pattern);
            for d in [1usize, 15, 16, 24, 64, 80, 128] {
                let v = stack(batch, inner, d, 51);
                let mut bctx = GpuCtx::a100();
                let out = spmm::spmm_nm_batched(&mut bctx, &comp, &v);
                let mut sctx = GpuCtx::a100();
                for (p, panel) in panels.iter().enumerate() {
                    let v_p = v.to_panel(p);
                    let want = spmm_reference(&comp, rows, p, &v_p);
                    let single = rayon::with_serial(|| spmm::spmm_nm(&mut sctx, panel, &v_p));
                    let what = format!("{pattern} rows {rows} d {d} panel {p}");
                    assert_eq!(bits(&out.to_panel(p)), want, "batched {what}");
                    assert_eq!(bits(&single), want, "solo {what}");
                }
                assert_batched_charge(
                    &bctx.timeline.entries()[0],
                    &sctx.timeline.entries()[0],
                    batch as u64,
                    "spmm_nm",
                );
            }
        }
    }
}

/// Integer-valued Q and K make the scores tie heavily, so the prune
/// epilogues' lower-index tie-break decides most groups: batched and solo
/// fused SDDMM must match a prune of the dense scores bit for bit.
#[test]
fn batched_sddmm_with_tied_scores_matches_dense_prune() {
    pin_pool();
    let (batch, n, d) = (3usize, 40usize, 8usize);
    let mut rng = Rng::new(23);
    let mut ints = || BatchedMatrix::from_fn(batch, n, d, |_, _, _| rng.below(3) as f32 - 1.0);
    let (q, k) = (ints(), ints());
    for pattern in [
        NmPattern::P1_2,
        NmPattern::P2_4,
        NmPattern::new(1, 4),
        NmPattern::new(3, 4),
    ] {
        // A power-of-two scale keeps scaled scores exactly as tied as the
        // raw ones the fused epilogue compares.
        let comp = sddmm::sddmm_nm_fused_batched(&mut GpuCtx::a100(), &q, &k, 0.25, pattern);
        for p in 0..batch {
            let (q_p, k_p) = (q.to_panel(p), k.to_panel(p));
            let single = sddmm::sddmm_nm_fused(&mut GpuCtx::a100(), &q_p, &k_p, 0.25, pattern);
            let dense = gemm::gemm_nt(&mut GpuCtx::a100(), Stage::Qk, &q_p, &k_p, 0.25);
            let want = NmCompressed::compress(&dense, pattern);
            for (got, what) in [(panel_of(&comp, n, p), "batched"), (single, "solo")] {
                assert_eq!(got.codes(), want.codes(), "{pattern} {what} codes {p}");
                assert_eq!(
                    bits(&got.decompress()),
                    bits(&want.decompress()),
                    "{pattern} {what} values {p}"
                );
            }
        }
    }
}

/// Charge-only batched launches record the identical profiles without
/// materialising any panel data.
#[test]
fn batched_charge_only_profiles_match_executed() {
    pin_pool();
    let (batch, n, d) = (4usize, 64usize, 32usize);
    let q = stack(batch, n, d, 70);
    let k = stack(batch, n, d, 71);
    let mut exec = GpuCtx::a100();
    let _ = sddmm::sddmm_nm_fused_batched(&mut exec, &q, &k, 0.125, NmPattern::P1_2);
    let mut charge = GpuCtx::a100_charge_only();
    let comp = sddmm::sddmm_nm_fused_batched(&mut charge, &q, &k, 0.125, NmPattern::P1_2);
    assert!(!comp.is_materialized());
    assert_eq!((comp.rows(), comp.cols()), (batch * n, n));
    let (e, c) = (&exec.timeline.entries()[0], &charge.timeline.entries()[0]);
    assert_eq!(e.bytes_read, c.bytes_read);
    assert_eq!(e.bytes_written, c.bytes_written);
    assert_eq!(e.tc_macs, c.tc_macs);
    assert_eq!(e.alu_ops, c.alu_ops);
}

/// The staged three-launch pipeline the row-tile driver replaces: dense
/// (`prune == None`) or fused N:M, over a whole stack.
fn staged_batched<T: Scalar>(
    ctx: &mut GpuCtx,
    prune: Option<NmPattern>,
    (q, k, v): (&BatchedMatrix<T>, &BatchedMatrix<T>, &BatchedMatrix<T>),
    scale: f32,
) -> BatchedMatrix<T> {
    match prune {
        None => {
            let scores = gemm::gemm_nt_batched(ctx, Stage::Qk, q, k, scale);
            let weights = softmax::softmax_dense_batched(ctx, &scores);
            gemm::gemm_nn_batched(ctx, Stage::Av, &weights, v)
        }
        Some(pattern) => {
            let mut comp = sddmm::sddmm_nm_fused_batched(ctx, q, k, scale, pattern);
            softmax::softmax_nm_batched(ctx, &mut comp);
            spmm::spmm_nm_batched(ctx, &comp, v)
        }
    }
}

/// [`staged_batched`] on one panel, through the solo kernels.
fn staged_solo<T: Scalar>(
    ctx: &mut GpuCtx,
    prune: Option<NmPattern>,
    (q, k, v): (&Matrix<T>, &Matrix<T>, &Matrix<T>),
    scale: f32,
) -> Matrix<T> {
    match prune {
        None => {
            let scores = gemm::gemm_nt(ctx, Stage::Qk, q, k, scale);
            let weights = softmax::softmax_dense(ctx, &scores);
            gemm::gemm_nn(ctx, Stage::Av, &weights, v)
        }
        Some(pattern) => {
            let mut comp = sddmm::sddmm_nm_fused(ctx, q, k, scale, pattern);
            softmax::softmax_nm(ctx, &mut comp);
            spmm::spmm_nm(ctx, &comp, v)
        }
    }
}

/// Every pipeline the driver runs: dense, the two hardware patterns and
/// two general ones.
fn driver_pipelines() -> [Option<NmPattern>; 5] {
    [
        None,
        Some(NmPattern::P1_2),
        Some(NmPattern::P2_4),
        Some(NmPattern::new(1, 4)),
        Some(NmPattern::new(3, 4)),
    ]
}

/// Driver inputs: 3 panels of 37 query rows (not a multiple of 16 or 4)
/// against `keys` keys, head dim 16 and a 20-wide V, with a NaN, a +∞ and
/// a −∞ planted in Q.
fn driver_inputs<T: Scalar>(
    keys: usize,
    seed: u64,
) -> (BatchedMatrix<T>, BatchedMatrix<T>, BatchedMatrix<T>) {
    let (batch, rows, d, d_v) = (3usize, 37usize, 16usize, 20usize);
    let mut rng = Rng::new(seed);
    let mut q = BatchedMatrix::<T>::random_normal(batch, rows, d, 0.0, 1.0, &mut rng);
    let k = BatchedMatrix::<T>::random_normal(batch, keys, d, 0.0, 1.0, &mut rng);
    let v = BatchedMatrix::<T>::random_normal(batch, keys, d_v, 0.0, 1.0, &mut rng);
    q.panel_mut(0)[5 * d + 3] = T::from_f32(f32::NAN);
    q.panel_mut(1)[36 * d] = T::from_f32(f32::INFINITY);
    q.panel_mut(2)[17 * d + 2] = T::from_f32(f32::NEG_INFINITY);
    (q, k, v)
}

/// The row-tile driver against the staged launches, bit for bit, batched
/// and solo, pooled and serial, for one scalar type.
fn check_driver_matches_staged<T: Scalar>() {
    let scale = 0.25;
    // Key counts that are multiples of every M here but not of 64 (nor of
    // the 16-column pack tile), and never equal to the 37 query rows.
    for keys in [44usize, 100] {
        let (q, k, v) = driver_inputs::<T>(keys, 80 + keys as u64);
        for prune in driver_pipelines() {
            let what = format!("{} {prune:?} keys {keys}", T::NAME);
            let want = staged_batched(&mut GpuCtx::a100(), prune, (&q, &k, &v), scale);
            let got = rowtile::attend_batched(&mut GpuCtx::a100(), prune, &q, &k, &v, scale);
            let serial = rayon::with_serial(|| {
                rowtile::attend_batched(&mut GpuCtx::a100(), prune, &q, &k, &v, scale)
            });
            for p in 0..q.batch() {
                let want_p = bits(&want.to_panel(p));
                assert_eq!(bits(&got.to_panel(p)), want_p, "batched {what} panel {p}");
                assert_eq!(bits(&serial.to_panel(p)), want_p, "serial {what} panel {p}");
                let (q_p, k_p, v_p) = (q.to_panel(p), k.to_panel(p), v.to_panel(p));
                let solo = rowtile::attend(&mut GpuCtx::a100(), prune, &q_p, &k_p, &v_p, scale);
                let staged = staged_solo(&mut GpuCtx::a100(), prune, (&q_p, &k_p, &v_p), scale);
                assert_eq!(bits(&staged), want_p, "staged solo {what} panel {p}");
                assert_eq!(bits(&solo), want_p, "solo {what} panel {p}");
            }
            // The planted +∞ reaches the output (∞ − ∞ in the softmax),
            // rows without a planted value stay finite, and the planted
            // NaN's all-NaN score row softmaxes to the zero row on every
            // backend (its row max ignores NaN and is −∞).
            let nan = |r: usize| got.row(1, r).iter().all(|x| x.to_f32().is_nan());
            let finite = |r: usize| got.row(1, r).iter().all(|x| x.to_f32().is_finite());
            assert!(nan(36) && finite(0), "{what}");
            let zero = got.row(0, 5).iter().all(|x| x.to_f32() == 0.0);
            assert!(zero, "{what}: NaN row {:?}", got.row(0, 5));
        }
    }
}

/// The row-tile driver (QK → prune → softmax → AV per 16-row tile) is
/// bit-identical to the staged three-launch pipeline it replaces, at f32
/// and bf16, for the dense pipeline and every N:M pattern.
#[test]
fn row_tile_driver_matches_staged_pipeline() {
    pin_pool();
    check_driver_matches_staged::<f32>();
    check_driver_matches_staged::<Bf16>();
}

/// Both driver entry points record the staged pipeline's profiles (names,
/// stages, counters, order) and leave the memory ledger as the staged
/// kernels do, in exec and in charge-only mode; charge-only executes
/// nothing.
#[test]
fn row_tile_driver_charges_like_staged_pipeline() {
    pin_pool();
    let (q, k, v) = driver_inputs::<f32>(44, 90);
    let (q_p, k_p, v_p) = (q.to_panel(1), k.to_panel(1), v.to_panel(1));
    let ledger = |ctx: &GpuCtx| (format!("{:?}", ctx.timeline.entries()), ctx.mem.peak());
    for exec in [true, false] {
        let ctx = || {
            let mut ctx = GpuCtx::a100();
            ctx.exec = exec;
            ctx
        };
        for prune in driver_pipelines() {
            let what = format!("{prune:?} exec {exec}");
            let (mut drv, mut stg) = (ctx(), ctx());
            let out = rowtile::attend_batched(&mut drv, prune, &q, &k, &v, 0.5);
            let _ = staged_batched(&mut stg, prune, (&q, &k, &v), 0.5);
            assert_eq!(out.is_materialized(), exec, "batched {what}");
            assert_eq!(drv.timeline.entries().len(), 3, "batched {what}");
            assert_eq!(ledger(&drv), ledger(&stg), "batched {what}");

            let (mut drv, mut stg) = (ctx(), ctx());
            let _ = rowtile::attend(&mut drv, prune, &q_p, &k_p, &v_p, 0.5);
            let _ = staged_solo(&mut stg, prune, (&q_p, &k_p, &v_p), 0.5);
            assert_eq!(ledger(&drv), ledger(&stg), "solo {what}");
        }
    }
}

#[test]
fn nested_kernel_calls_do_not_deadlock() {
    pin_pool();
    use rayon::prelude::*;
    // Outer parallel loop over heads, each head running full parallel
    // kernels — the shape `dfss-transformer::attn` produces once batching
    // lands. Completion (rather than hanging) is the assertion.
    let outs: Vec<Matrix<f32>> = (0..4usize)
        .into_par_iter()
        .map(|h| {
            let (q, k, v) = qkv(48, 16, 100 + h as u64);
            let mut ctx = GpuCtx::a100();
            let mut a = sddmm::sddmm_nm_fused(&mut ctx, &q, &k, 0.25, NmPattern::P1_2);
            softmax::softmax_nm(&mut ctx, &mut a);
            spmm::spmm_nm(&mut ctx, &a, &v)
        })
        .collect();
    assert_eq!(outs.len(), 4);
    for (h, o) in outs.iter().enumerate() {
        // And each nested result matches its serial computation.
        let (q, k, v) = qkv(48, 16, 100 + h as u64);
        let expect = rayon::with_serial(|| {
            let mut ctx = GpuCtx::a100();
            let mut a = sddmm::sddmm_nm_fused(&mut ctx, &q, &k, 0.25, NmPattern::P1_2);
            softmax::softmax_nm(&mut ctx, &mut a);
            spmm::spmm_nm(&mut ctx, &a, &v)
        });
        assert_eq!(bits(o), bits(&expect), "head {h}");
    }
}

#[test]
fn kernel_panic_poisons_only_its_launch() {
    pin_pool();
    // A dimension-mismatch panic fires *inside* the launch path. It must
    // propagate to the caller…
    let boom = std::panic::catch_unwind(|| {
        let a = Matrix::<f32>::zeros(64, 3);
        let b = Matrix::<f32>::zeros(64, 4);
        let _ = gemm::gemm_nt(&mut GpuCtx::a100(), Stage::Qk, &a, &b, 1.0);
    });
    assert!(boom.is_err());
    // …and the pool must keep serving kernels afterwards.
    let (q, k, _) = qkv(64, 32, 6);
    let c = gemm::gemm_nt(&mut GpuCtx::a100(), Stage::Qk, &q, &k, 1.0);
    let reference =
        rayon::with_serial(|| gemm::gemm_nt(&mut GpuCtx::a100(), Stage::Qk, &q, &k, 1.0));
    assert_eq!(bits(&c), bits(&reference));
    assert!(rayon::spawned_workers() <= rayon::current_num_threads());
}
