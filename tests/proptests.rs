//! Workspace-level property-based tests on the core invariants (README,
//! "Testing").

use dfss::prelude::*;
use dfss_core::full::reference_attention;
use dfss_nmsparse::meta::DeviceMeta;
use dfss_tensor::math;
use proptest::prelude::*;

fn arb_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix<f32>> {
    proptest::collection::vec(-100.0f32..100.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn compress_decompress_keeps_group_maxima(m in arb_matrix(8, 16)) {
        let comp = NmCompressed::compress(&m, NmPattern::P2_4);
        let dec = comp.decompress();
        // In every group, the decompressed nonzeros are the 2 largest.
        for r in 0..8 {
            for g in 0..4 {
                let vals: Vec<f32> = (0..4).map(|i| m.get(r, g * 4 + i)).collect();
                let mut sorted = vals.clone();
                sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
                let kept: Vec<f32> = (0..4)
                    .map(|i| dec.get(r, g * 4 + i))
                    .filter(|&v| v != 0.0)
                    .collect();
                for k in kept {
                    prop_assert!(k >= sorted[1] - 1e-6);
                }
            }
        }
    }

    #[test]
    fn device_meta_roundtrip(seed in 0u64..10_000) {
        let mut rng = Rng::new(seed);
        let m = Matrix::<f32>::random_normal(32, 32, 0.0, 1.0, &mut rng);
        let comp = NmCompressed::compress(&m, NmPattern::P1_2);
        let dm = comp.to_device_meta().expect("hardware pattern");
        let back = NmCompressed::from_device_meta(
            NmPattern::P1_2, 32, 32, comp.nonzeros().to_vec(), &dm)
            .expect("hardware pattern");
        prop_assert_eq!(back, comp);
    }

    #[test]
    fn device_meta_encode_decode_is_identity(
        codes in proptest::collection::vec(0usize..6, 32 * 8)
    ) {
        let valid: Vec<u8> = codes
            .iter()
            .map(|&i| dfss_nmsparse::meta::BF16_CODES[i])
            .collect();
        let dm = DeviceMeta::encode(32, 8, &valid);
        prop_assert_eq!(dm.decode(), valid);
    }

    #[test]
    fn softmax_rows_are_distributions(m in arb_matrix(6, 12)) {
        let mut x = m;
        for r in 0..x.rows() {
            math::softmax_row(x.row_mut(r));
            let s: f32 = x.row(r).iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-4);
            prop_assert!(x.row(r).iter().all(|&p| (0.0..=1.0 + 1e-6).contains(&p)));
        }
    }

    #[test]
    fn nm_mask_density_is_exact(m in arb_matrix(8, 16)) {
        for pattern in [NmPattern::P1_2, NmPattern::P2_4] {
            let mask = pattern.mask_matrix(&m);
            let kept = mask.as_slice().iter().filter(|&&v| v == 1.0).count();
            prop_assert_eq!(kept as f64, 8.0 * 16.0 * pattern.density());
        }
    }

    #[test]
    fn spmm_equals_masked_dense_product(seed in 0u64..1000) {
        let mut rng = Rng::new(seed);
        let s = Matrix::<f32>::random_normal(16, 32, 0.0, 1.0, &mut rng);
        let v = Matrix::<f32>::random_normal(32, 8, 0.0, 1.0, &mut rng);
        let comp = NmCompressed::compress(&s, NmPattern::P1_2);
        let mut ctx = GpuCtx::a100();
        let fast = dfss_kernels::spmm::spmm_nm(&mut ctx, &comp, &v);
        let reference = comp.decompress().matmul_ref(&v);
        prop_assert!(fast.max_abs_diff(&reference) < 1e-2);
    }

    #[test]
    fn fused_sddmm_equals_unfused(seed in 0u64..1000) {
        let mut rng = Rng::new(seed);
        let q = Matrix::<f32>::random_normal(16, 8, 0.0, 1.0, &mut rng);
        let k = Matrix::<f32>::random_normal(16, 8, 0.0, 1.0, &mut rng);
        let mut c1 = GpuCtx::a100();
        let mut c2 = GpuCtx::a100();
        let a = dfss_kernels::sddmm::sddmm_nm_fused(&mut c1, &q, &k, 1.0, NmPattern::P2_4);
        let b = dfss_kernels::sddmm::sddmm_nm_unfused(&mut c2, &q, &k, 1.0, NmPattern::P2_4);
        prop_assert_eq!(a.codes(), b.codes());
        // And the fused one never moves more bytes.
        prop_assert!(c1.timeline.total_bytes() < c2.timeline.total_bytes());
    }

    #[test]
    fn qp_is_monotone_in_topk_density(seed in 0u64..500) {
        let mut rng = Rng::new(seed);
        let m = Matrix::<f32>::random_normal(24, 24, 0.0, 1.0, &mut rng);
        let q1 = dfss_core::quality::qp_quality_from_scores(
            &m, &dfss_core::quality::topk_mask(&m, 6), 2.0);
        let q2 = dfss_core::quality::qp_quality_from_scores(
            &m, &dfss_core::quality::topk_mask(&m, 12), 2.0);
        prop_assert!(q2 >= q1 - 1e-9);
    }

    #[test]
    fn bf16_roundtrip_is_idempotent(x in -1e30f32..1e30) {
        let once = Bf16::from_f32(x);
        let twice = Bf16::from_f32(once.to_f32());
        prop_assert_eq!(once.0, twice.0);
    }

    #[test]
    fn tf32_preserves_order(a in -1e6f32..1e6, b in -1e6f32..1e6) {
        let (ra, rb) = (dfss_tensor::tf32_round(a), dfss_tensor::tf32_round(b));
        if a < b {
            prop_assert!(ra <= rb);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // The serving contract of the engine's one prefill entry,
    // `forward_chunk`, for both the Dfss pipeline and the dense baseline:
    // every request of an interleaved stream of random shapes, run whole,
    // is bit-identical to its solo `forward`; and a random partial chunk of
    // a request's query rows is bit-identical to those rows of its solo
    // `forward`.
    #[test]
    fn engine_pack_forward_unpack_matches_solo(
        seed in 0u64..10_000,
        picks in proptest::collection::vec(0usize..3, 8),
    ) {
        use dfss_core::engine::AttentionEngine;
        let shapes = [(16usize, 8usize), (32, 8), (32, 16)];
        let mech_dfss = DfssAttention::new(NmPattern::P1_2);
        let mech_full = dfss_core::FullAttention;
        let mech: &dyn Attention<f32> = if seed % 2 == 0 { &mech_full } else { &mech_dfss };
        let count = 2 + (seed as usize % 7); // 2..=8 requests
        let mut engine = AttentionEngine::new(mech);
        let mut rng = Rng::new(seed);
        let mut reqs = Vec::new();
        let mut solo = Vec::new();
        for &p in picks.iter().take(count) {
            let (n, d) = shapes[p];
            let q = Matrix::<f32>::random_normal(n, d, 0.0, 1.0, &mut rng);
            let k = Matrix::<f32>::random_normal(n, d, 0.0, 1.0, &mut rng);
            let v = Matrix::<f32>::random_normal(n, d, 0.0, 1.0, &mut rng);
            let mut sctx = GpuCtx::a100();
            solo.push(mech.forward(&mut sctx, &q, &k, &v));
            reqs.push((q, k, v));
        }
        let same_bits = |got: &[f32], want: &[f32]| {
            got.len() == want.len() && got.iter().zip(want).all(|(x, y)| x.to_bits() == y.to_bits())
        };
        for (i, (q, k, v)) in reqs.iter().enumerate() {
            let done = engine.forward_chunk(q, k, v).expect("servable shapes");
            let got = done.output.as_ref().expect("exec mode");
            prop_assert_eq!(got.shape(), solo[i].shape());
            prop_assert!(same_bits(got.as_slice(), solo[i].as_slice()),
                "request {} diverged from solo forward", i);
            engine.reset_timeline();
        }
        // A random partial chunk [lo, hi) of one request's query rows.
        let pick = rng.below(reqs.len());
        let (q, k, v) = &reqs[pick];
        let n = q.rows();
        let c = 1 + rng.below(n - 1);
        let lo = rng.below(n - c + 1);
        let hi = lo + c;
        let done = engine.forward_chunk(&q.take_rows(lo, hi), k, v).expect("servable chunk");
        let d_v = v.cols();
        let got = done.output.as_ref().expect("exec mode");
        prop_assert_eq!(got.shape(), (hi - lo, d_v));
        prop_assert!(same_bits(got.as_slice(), &solo[pick].as_slice()[lo * d_v..hi * d_v]),
            "chunk [{}, {}) of request {} diverged from solo forward", lo, hi, pick);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // When attention is fully concentrated (one dominant key per query —
    // the trained-attention regime the paper targets), pruning cannot drop
    // mass: Dfss must equal full attention up to float tolerance, at every
    // shape and for both hardware patterns.
    #[test]
    fn concentrated_scores_match_reference(
        seed in 0u64..10_000,
        shape in 0usize..4,
        pat in 0usize..2,
    ) {
        let n = [16usize, 32, 48, 64][shape];
        let pattern = [NmPattern::P1_2, NmPattern::P2_4][pat];
        let mut rng = Rng::new(seed);
        // K = 16·I and Q rows are 16·e_{t(i)}: query i's logit on its
        // dominant key t(i) is 256/√n ≥ 32, every other logit is 0, so the
        // softmax row is one up to e^{-32} — and the dominant column always
        // survives the N:M top-N selection of its group.
        let mut q = Matrix::<f32>::zeros(n, n);
        let mut k = Matrix::<f32>::zeros(n, n);
        for j in 0..n {
            k.set(j, j, 16.0);
        }
        for i in 0..n {
            let t = rng.below(n);
            q.set(i, t, 16.0);
        }
        let v = Matrix::<f32>::random_normal(n, n, 0.0, 1.0, &mut rng);

        let mut ctx = GpuCtx::a100();
        let sparse = DfssAttention::new(pattern).forward(&mut ctx, &q, &k, &v);
        let dense = reference_attention(&q, &k, &v);
        let rel =
            sparse.zip_with(&dense, |a, b| a - b).frobenius_norm() / dense.frobenius_norm();
        // Tolerance: the kernel path rounds GEMM/SpMM inputs through TF32
        // (~2⁻¹⁰ relative), the host reference does not; any *pruning* loss
        // would show up orders of magnitude above this.
        prop_assert!(
            rel < 2e-3,
            "relative error {} at n={} pattern {}", rel, n, pattern.name()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // The decode-serving contract: interleaved prefill + decode traffic
    // through one `AttentionServer`, across random session open / append /
    // close orders, stays bit-identical to solo forwards and solo decode
    // steps computed against a host-side model of each session's cache at
    // submission time. Decode steps from different sessions (with ragged,
    // often M-misaligned cached lengths) coalesce into one ragged launch
    // per op; appends racing a queued decode must not leak into it. Odd
    // seeds store the KV cache bf16-quantised; their model holds each
    // admitted row rounded through bf16.
    #[test]
    fn server_interleaved_prefill_and_decode_matches_solo(
        seed in 0u64..10_000,
        ops in proptest::collection::vec(0usize..8, 24),
    ) {
        use dfss_serve::{DecodeRequest, KvDtype};
        use std::sync::Arc;

        let mech_dfss = DfssAttention::new(NmPattern::P1_2);
        let mech_full = FullAttention;
        let mech: Arc<dyn Attention<f32> + Send + Sync> = if seed % 3 == 0 {
            Arc::new(mech_full)
        } else {
            Arc::new(mech_dfss)
        };
        // The KV-dtype draw: odd seeds run the bf16 store.
        let kv_dtype = if seed % 2 == 1 { KvDtype::Bf16 } else { KvDtype::Native };
        let server = dfss_serve::AttentionServer::start_with_kv(
            Arc::clone(&mech),
            dfss_serve::BatchPolicy::default(),
            KvConfig { kv_dtype, ..KvConfig::default() },
        );
        // What the store holds of an admitted row: the row itself, or its
        // bf16 rounding widened back to f32.
        let stored = |m: &Matrix<f32>| match kv_dtype {
            KvDtype::Native => m.clone(),
            KvDtype::Bf16 => m.map(|x| Bf16::from_f32(x).to_f32()),
        };
        let (d, d_v) = (8usize, 8usize);
        let mut rng = Rng::new(seed);
        // Host-side model: (session, K rows so far, V rows so far).
        let mut model: Vec<(dfss_serve::SessionId, Matrix<f32>, Matrix<f32>)> = Vec::new();
        let mut prefills = Vec::new();
        let mut decodes = Vec::new();
        for &op in &ops {
            match op {
                // Open a session, primed with a random (possibly odd) block.
                0 | 1 => {
                    let len = 1 + rng.below(7);
                    let k = Matrix::<f32>::random_normal(len, d, 0.0, 1.0, &mut rng);
                    let v = Matrix::<f32>::random_normal(len, d_v, 0.0, 1.0, &mut rng);
                    let s = server.open_session(d, d_v).expect("open");
                    server.extend(s, k.clone(), v.clone()).expect("extend");
                    model.push((s, stored(&k), stored(&v)));
                }
                // Append one row to a random open session.
                2 | 3 => {
                    if model.is_empty() { continue; }
                    let i = rng.below(model.len());
                    let k_row: Vec<f32> = (0..d).map(|_| rng.normal(0.0, 1.0)).collect();
                    let v_row: Vec<f32> = (0..d_v).map(|_| rng.normal(0.0, 1.0)).collect();
                    server
                        .append(model[i].0, k_row.clone(), v_row.clone())
                        .expect("append");
                    let (_, k, v) = &mut model[i];
                    *k = k.vstack(&stored(&Matrix::from_vec(1, d, k_row)));
                    *v = v.vstack(&stored(&Matrix::from_vec(1, d_v, v_row)));
                }
                // Decode on a random open session; expected output from the
                // model's snapshot of the cache.
                4..=6 => {
                    if model.is_empty() { continue; }
                    let i = rng.below(model.len());
                    let q_row: Vec<f32> = (0..d).map(|_| rng.normal(0.0, 1.0)).collect();
                    let (s, k, v) = &model[i];
                    let mut sctx = GpuCtx::a100();
                    let want =
                        mech.decode(&mut sctx, &Matrix::from_vec(1, d, q_row.clone()), k, v);
                    let handle = server
                        .submit_decode(DecodeRequest { session: *s, q_row })
                        .expect("decode");
                    decodes.push((handle, want, k.rows()));
                }
                // A prefill request rides the same server.
                _ => {
                    let n = 16;
                    let q = Matrix::<f32>::random_normal(n, d, 0.0, 1.0, &mut rng);
                    let k = Matrix::<f32>::random_normal(n, d, 0.0, 1.0, &mut rng);
                    let v = Matrix::<f32>::random_normal(n, d, 0.0, 1.0, &mut rng);
                    let mut sctx = GpuCtx::a100();
                    let want = mech.forward(&mut sctx, &q, &k, &v);
                    prefills.push((server.submit(q, k, v).expect("submit"), want));
                }
            }
            // Occasionally close the oldest session mid-stream.
            if op == 6 && !model.is_empty() {
                let (s, _, _) = model.remove(0);
                server.close_session(s).expect("close");
            }
        }
        let n_decodes = decodes.len();
        for (i, (handle, want, len_at_submit)) in decodes.into_iter().enumerate() {
            let served = handle.wait().expect("decode served");
            prop_assert_eq!(served.cached_len, len_at_submit);
            let same = served
                .output
                .as_slice()
                .iter()
                .zip(want.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            prop_assert!(same, "decode {} diverged from solo decode", i);
        }
        for (i, (handle, want)) in prefills.into_iter().enumerate() {
            let served = handle.wait().expect("prefill served");
            let same = served
                .output
                .as_slice()
                .iter()
                .zip(want.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            prop_assert!(same, "prefill {} diverged from solo forward", i);
        }
        let stats = server.shutdown();
        prop_assert_eq!(stats.decode_steps as usize, n_decodes);
        prop_assert_eq!(stats.rejected, 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // The paged-KV contract: page tables over a shared fixed-size block
    // pool, at random page geometries (including rows-per-page that do not
    // divide the cached lengths, so pages carry dead tails and partially
    // live last pages), through random interleaved open / append / extend /
    // decode / close orders, decode bit-identically to the PR 5 contiguous
    // slabs — and the pool's free list never leaks or double-counts a page
    // at any step along the way.
    #[test]
    fn paged_decode_matches_contiguous(
        seed in 0u64..10_000,
        page_elems in 8usize..40,
        ops in proptest::collection::vec(0usize..8, 20),
    ) {
        use dfss_core::engine::AttentionEngine;
        use dfss_serve::{KvConfig, KvPool, PagedKvCache};

        let (d, d_v) = (8usize, 8usize);
        // page_elems in 8..40 at width 8 → 1..=4 rows per page, and most
        // draws are not a multiple of the width, so pages have dead tails.
        let cfg = KvConfig { page_elems, budget_bytes: u64::MAX, evict_idle: false, ..KvConfig::default() };
        let mut pool = KvPool::<f32>::new(&cfg);
        let mech_dfss = DfssAttention::new(NmPattern::P1_2);
        let mech_full = FullAttention;
        let mech: &dyn Attention<f32> = if seed % 2 == 0 { &mech_full } else { &mech_dfss };
        let mut rng = Rng::new(seed);
        // Live sessions: the paged cache plus a host-side contiguous model
        // of exactly what it should hold.
        let mut live: Vec<(PagedKvCache<f32>, Matrix<f32>, Matrix<f32>)> = Vec::new();
        for &op in &ops {
            match op {
                // Open a session, primed with a random (often page-misaligned)
                // block.
                0 | 1 => {
                    let len = 1 + rng.below(9);
                    let k = Matrix::<f32>::random_normal(len, d, 0.0, 1.0, &mut rng);
                    let v = Matrix::<f32>::random_normal(len, d_v, 0.0, 1.0, &mut rng);
                    let mut c = PagedKvCache::<f32>::new(&cfg, d, d_v)
                        .expect("page fits a row");
                    c.extend(&mut pool, &k, &v).expect("unbounded budget");
                    live.push((c, k, v));
                }
                // Append one row to a random session.
                2 | 3 => {
                    if live.is_empty() { continue; }
                    let i = rng.below(live.len());
                    let k_row: Vec<f32> = (0..d).map(|_| rng.normal(0.0, 1.0)).collect();
                    let v_row: Vec<f32> = (0..d_v).map(|_| rng.normal(0.0, 1.0)).collect();
                    let (c, k, v) = &mut live[i];
                    c.append(&mut pool, &k_row, &v_row).expect("unbounded budget");
                    *k = k.vstack(&Matrix::from_vec(1, d, k_row));
                    *v = v.vstack(&Matrix::from_vec(1, d_v, v_row));
                }
                // Extend a random session by a block.
                4 => {
                    if live.is_empty() { continue; }
                    let i = rng.below(live.len());
                    let rows = 1 + rng.below(6);
                    let dk = Matrix::<f32>::random_normal(rows, d, 0.0, 1.0, &mut rng);
                    let dv = Matrix::<f32>::random_normal(rows, d_v, 0.0, 1.0, &mut rng);
                    let (c, k, v) = &mut live[i];
                    c.extend(&mut pool, &dk, &dv).expect("unbounded budget");
                    *k = k.vstack(&dk);
                    *v = v.vstack(&dv);
                }
                // Decode over every live session: the paged page tables (rows
                // rounded at write, read as operands) and the contiguous
                // model slabs (raw rows, rounded on load) must coalesce into
                // bit-identical ragged launches.
                5 | 6 => {
                    if live.is_empty() { continue; }
                    let q = Matrix::<f32>::random_normal(live.len(), d, 0.0, 1.0, &mut rng);
                    let paged_steps: Vec<DecodeStep<'_, f32>> = live
                        .iter()
                        .enumerate()
                        .map(|(s, (c, _, _))| DecodeStep {
                            q_row: q.row(s),
                            k_rows: c.k_rows(&pool),
                            v_rows: c.v_rows(&pool),
                            len: c.len(),
                            d,
                            d_v,
                        })
                        .collect();
                    for step in &paged_steps {
                        for rows in [&step.k_rows, &step.v_rows] {
                            let operand = matches!(rows, KvRows::Native(view) if view.operand_form);
                            prop_assert!(operand, "a cache view is not in operand form");
                        }
                    }
                    let slab_steps: Vec<DecodeStep<'_, f32>> = live
                        .iter()
                        .enumerate()
                        .map(|(s, (c, k, v))| DecodeStep::contiguous(
                            q.row(s), k.as_slice(), v.as_slice(), c.len(), d, d_v,
                        ))
                        .collect();
                    let paged = AttentionEngine::new(mech)
                        .flush_decode(&paged_steps)
                        .expect("well-formed steps");
                    let slab = AttentionEngine::new(mech)
                        .flush_decode(&slab_steps)
                        .expect("well-formed steps");
                    prop_assert_eq!(paged.len(), slab.len());
                    for (s, (p, c)) in paged.iter().zip(&slab).enumerate() {
                        prop_assert_eq!(p.cached_len, c.cached_len);
                        prop_assert_eq!(p.batch_size, c.batch_size);
                        let got = p.output.as_ref().expect("exec mode");
                        let want = c.output.as_ref().expect("exec mode");
                        let same = got
                            .as_slice()
                            .iter()
                            .zip(want.as_slice())
                            .all(|(a, b)| a.to_bits() == b.to_bits());
                        prop_assert!(same, "stream {} diverged from its contiguous slab", s);
                    }
                }
                // Close a random session, returning its pages.
                _ => {
                    if live.is_empty() { continue; }
                    let i = rng.below(live.len());
                    let (mut c, _, _) = live.remove(i);
                    c.release(&mut pool);
                    prop_assert_eq!(c.pages(), 0);
                }
            }
            // After every step: reassembled tables hold the model's rows in
            // operand form (TF32-rounded) bitwise, and the pool neither leaks
            // nor double-counts a page.
            let operands = |m: &Matrix<f32>| {
                m.as_slice().iter().map(|&x| dfss_tensor::tf32_round(x).to_bits()).collect::<Vec<_>>()
            };
            let bits = |m: &Matrix<f32>| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            for (c, k, v) in &live {
                prop_assert_eq!(bits(&c.k_matrix(&pool)), operands(k));
                prop_assert_eq!(bits(&c.v_matrix(&pool)), operands(v));
            }
            if let Err(why) = pool.check_invariants() {
                return Err(TestCaseError::fail(format!("pool invariants broken: {why}")));
            }
            let held: usize = live.iter().map(|(c, _, _)| c.pages()).sum();
            prop_assert_eq!(pool.allocated(), held);
        }
        // Closing everything drains the pool completely.
        for (mut c, _, _) in live {
            c.release(&mut pool);
        }
        prop_assert_eq!(pool.allocated(), 0);
        if let Err(why) = pool.check_invariants() {
            return Err(TestCaseError::fail(format!("pool invariants broken at drain: {why}")));
        }
    }
}
