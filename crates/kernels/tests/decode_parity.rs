//! Decode-kernel contract: a ragged launch over B streams is bit-identical
//! to the per-stream solo decode loop (one launch per stream over a
//! one-page view of its cache), records exactly ONE profile per op, and its
//! counters are the sum of the per-stream solo charges.

use dfss_kernels::{sddmm, softmax, spmm, GpuCtx};
use dfss_nmsparse::{NmPattern, NmRagged};
use dfss_tensor::{Matrix, PagedPanel, RaggedBatch, Rng};

/// Ragged decode fixture: B streams with deliberately misaligned cached
/// lengths (odd lens exercise the dense tail), one query row each.
struct Fixture {
    q: Matrix<f32>,
    k_panels: Vec<Matrix<f32>>,
    v_panels: Vec<Matrix<f32>>,
    d: usize,
    d_v: usize,
}

fn fixture(lens: &[usize], d: usize, d_v: usize, seed: u64) -> Fixture {
    let mut rng = Rng::new(seed);
    let q = Matrix::random_normal(lens.len(), d, 0.0, 1.0, &mut rng);
    let k_panels: Vec<Matrix<f32>> = lens
        .iter()
        .map(|&l| Matrix::random_normal(l, d, 0.0, 1.0, &mut rng))
        .collect();
    let v_panels: Vec<Matrix<f32>> = lens
        .iter()
        .map(|&l| Matrix::random_normal(l, d_v, 0.0, 1.0, &mut rng))
        .collect();
    Fixture {
        q,
        k_panels,
        v_panels,
        d,
        d_v,
    }
}

fn ragged_of(panels: &[Matrix<f32>]) -> RaggedBatch<f32> {
    let refs: Vec<&Matrix<f32>> = panels.iter().collect();
    RaggedBatch::gather(&refs)
}

fn q_row(f: &Fixture, s: usize) -> Matrix<f32> {
    Matrix::from_vec(1, f.d, f.q.row(s).to_vec())
}

/// One stream's cache as the one-page view a solo decode step launches on.
fn one_view(panel: &Matrix<f32>) -> [PagedPanel<'_, f32>; 1] {
    [PagedPanel::one_page(panel.as_slice(), panel.rows())]
}

const LENS: [usize; 4] = [7, 16, 33, 2];

#[test]
fn fused_ragged_bit_identical_to_solo_loop_with_summed_charges() {
    let f = fixture(&LENS, 16, 8, 1);
    let pattern = NmPattern::P1_2;
    let mut rctx = GpuCtx::a100();
    let ragged =
        sddmm::sddmm_nm_fused_ragged(&mut rctx, &f.q, &ragged_of(&f.k_panels), 0.25, pattern);
    assert_eq!(rctx.timeline.entries().len(), 1);
    assert_eq!(rctx.timeline.launches(), 1);

    let mut sctx = GpuCtx::a100();
    for (s, k) in f.k_panels.iter().enumerate() {
        let solo =
            sddmm::sddmm_nm_fused_paged(&mut sctx, &q_row(&f, s), &one_view(k), 0.25, pattern);
        assert_eq!(solo.row_codes(0), ragged.row_codes(s), "stream {s} codes");
        let same = solo
            .row_nonzeros(0)
            .iter()
            .zip(ragged.row_nonzeros(s))
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same, "stream {s} values diverged");
    }
    // One summed profile: exactly the per-stream charges.
    assert_eq!(sctx.timeline.entries().len(), LENS.len());
    assert_eq!(rctx.timeline.total_bytes(), sctx.timeline.total_bytes());
    let (re, ses) = (&rctx.timeline.entries()[0], sctx.timeline.entries());
    assert_eq!(re.tc_macs, ses.iter().map(|e| e.tc_macs).sum::<u64>());
    assert_eq!(re.alu_ops, ses.iter().map(|e| e.alu_ops).sum::<u64>());
}

#[test]
fn dense_tail_is_kept_verbatim() {
    // len = 7 under 1:2: 3 full groups + 1 dense tail position, which must
    // hold the scaled score of the newest cached position.
    let f = fixture(&[7], 8, 4, 2);
    let mut ctx = GpuCtx::a100();
    let comp = sddmm::sddmm_nm_fused_paged(
        &mut ctx,
        &q_row(&f, 0),
        &one_view(&f.k_panels[0]),
        1.0,
        NmPattern::P1_2,
    );
    assert_eq!(
        (comp.kept_of(0), comp.groups_of(0), comp.tail_of(0)),
        (4, 3, 1)
    );
    let mut cols = Vec::new();
    comp.scan_row(0, |c, _| cols.push(c));
    assert_eq!(
        *cols.last().unwrap(),
        6,
        "tail column is the newest position"
    );
}

#[test]
fn softmax_ragged_rows_are_distributions_and_charges_sum() {
    let f = fixture(&LENS, 8, 4, 5);
    let pattern = NmPattern::P1_2;
    let mut bctx = GpuCtx::a100();
    let mut batched =
        sddmm::sddmm_nm_fused_ragged(&mut bctx, &f.q, &ragged_of(&f.k_panels), 1.0, pattern);
    let mark = bctx.timeline.entries().len();
    softmax::softmax_nm_ragged(&mut bctx, &mut batched);
    assert_eq!(bctx.timeline.entries().len() - mark, 1);

    let mut sctx = GpuCtx::a100();
    for (s, k) in f.k_panels.iter().enumerate() {
        let mut solo =
            sddmm::sddmm_nm_fused_paged(&mut sctx, &q_row(&f, s), &one_view(k), 1.0, pattern);
        softmax::softmax_nm_ragged(&mut sctx, &mut solo);
        let same = solo
            .row_nonzeros(0)
            .iter()
            .zip(batched.row_nonzeros(s))
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same, "stream {s} diverged");
        let sum: f32 = batched.row_nonzeros(s).iter().sum();
        assert!((sum - 1.0).abs() < 1e-5, "stream {s} sum {sum}");
    }
    assert_eq!(bctx.timeline.total_bytes(), sctx.timeline.total_bytes());
}

#[test]
fn full_decode_pipeline_ragged_matches_solo_loop() {
    // End-to-end over the three decode ops: one launch each, outputs
    // bit-identical to the per-stream loop.
    let f = fixture(&LENS, 16, 16, 6);
    let pattern = NmPattern::P1_2;
    let kb = ragged_of(&f.k_panels);
    let vb = ragged_of(&f.v_panels);
    let mut bctx = GpuCtx::a100();
    let mut comp = sddmm::sddmm_nm_fused_ragged(&mut bctx, &f.q, &kb, 0.25, pattern);
    softmax::softmax_nm_ragged(&mut bctx, &mut comp);
    let out = spmm::spmm_nm_ragged(&mut bctx, &comp, &vb);
    assert_eq!(out.shape(), (LENS.len(), f.d_v));
    assert_eq!(bctx.timeline.entries().len(), 3);
    assert_eq!(bctx.timeline.launches(), 3);

    let mut sctx = GpuCtx::a100();
    for s in 0..LENS.len() {
        let k = one_view(&f.k_panels[s]);
        let mut solo = sddmm::sddmm_nm_fused_paged(&mut sctx, &q_row(&f, s), &k, 0.25, pattern);
        softmax::softmax_nm_ragged(&mut sctx, &mut solo);
        let orow = spmm::spmm_nm_paged(&mut sctx, &solo, &one_view(&f.v_panels[s]), f.d_v);
        let same = orow
            .as_slice()
            .iter()
            .zip(out.row(s))
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same, "stream {s} diverged");
    }
    // 3 solo launches per stream vs 3 ragged launches total; same bytes.
    assert_eq!(sctx.timeline.launches(), 3 * LENS.len() as u64);
    assert_eq!(bctx.timeline.total_bytes(), sctx.timeline.total_bytes());
}

#[test]
fn decode_output_approximates_dense_row_attention() {
    // Semantics check: the Dfss decode row stays close to full dense row
    // attention over the cache (softmax mass concentrates on kept scores).
    let f = fixture(&[64], 32, 32, 7);
    let pattern = NmPattern::P1_2;
    let scale = 1.0 / (32.0f32).sqrt();
    let mut ctx = GpuCtx::a100();
    let k = one_view(&f.k_panels[0]);
    let mut comp = sddmm::sddmm_nm_fused_paged(&mut ctx, &q_row(&f, 0), &k, scale, pattern);
    softmax::softmax_nm_ragged(&mut ctx, &mut comp);
    let sparse = spmm::spmm_nm_paged(&mut ctx, &comp, &one_view(&f.v_panels[0]), f.d_v);

    // Dense reference.
    let mut scores: Vec<f32> = (0..64)
        .map(|j| {
            f.q.row(0)
                .iter()
                .zip(f.k_panels[0].row(j))
                .map(|(a, b)| a * b)
                .sum::<f32>()
                * scale
        })
        .collect();
    dfss_tensor::math::softmax_row(&mut scores);
    let mut dense = vec![0.0f32; 32];
    for (j, &w) in scores.iter().enumerate() {
        for (o, &x) in dense.iter_mut().zip(f.v_panels[0].row(j)) {
            *o += w * x;
        }
    }
    let err: f32 = sparse
        .as_slice()
        .iter()
        .zip(&dense)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f32::max);
    let scale_ref: f32 = dense.iter().map(|x| x.abs()).fold(0.0, f32::max);
    assert!(
        err < 0.8 * scale_ref.max(1.0),
        "decode err {err} vs dense {scale_ref}"
    );
}

#[test]
fn charge_only_decode_matches_exec_charges() {
    let f = fixture(&LENS, 16, 8, 8);
    let pattern = NmPattern::P1_2;
    let kb = ragged_of(&f.k_panels);
    let vb = ragged_of(&f.v_panels);
    let run = |ctx: &mut GpuCtx| {
        let mut comp = sddmm::sddmm_nm_fused_ragged(ctx, &f.q, &kb, 0.25, pattern);
        softmax::softmax_nm_ragged(ctx, &mut comp);
        let _ = spmm::spmm_nm_ragged(ctx, &comp, &vb);
        comp
    };
    let mut exec = GpuCtx::a100();
    let _ = run(&mut exec);
    let mut charge = GpuCtx::a100_charge_only();
    let comp = run(&mut charge);
    // Structurally valid placeholder result, identical charges.
    assert_eq!(comp.lens(), kb.lens());
    assert!(comp.nonzeros().iter().all(|&x| x == 0.0));
    assert_eq!(exec.timeline.total_bytes(), charge.timeline.total_bytes());
    assert_eq!(exec.timeline.launches(), charge.timeline.launches());
}

#[test]
fn ragged_kept_counts_follow_the_dense_tail_rule() {
    for (len, pattern, want_kept) in [
        (9usize, NmPattern::P1_2, 5usize),
        (10, NmPattern::P2_4, 6),
        (1, NmPattern::P1_2, 1),
    ] {
        assert_eq!(NmRagged::<f32>::kept_for(pattern, len), want_kept);
    }
}

/// Shred a contiguous `len × width` slab into pages of `rows_per_page`
/// rows, each `rows_per_page × width + dead` elements long. Rows past
/// `len` on the last page and every page's dead tail are NaN, so a reader
/// that touches anything but the live rows poisons its output.
fn paginate(slab: &[f32], width: usize, rows_per_page: usize, dead: usize) -> Vec<Vec<f32>> {
    let len = slab.len() / width;
    (0..len.div_ceil(rows_per_page))
        .map(|p| {
            let lo = p * rows_per_page * width;
            let hi = slab.len().min(lo + rows_per_page * width);
            let mut page = slab[lo..hi].to_vec();
            page.resize(rows_per_page * width + dead, f32::NAN);
            page
        })
        .collect()
}

fn view_of(pages: &[Vec<f32>], rows_per_page: usize, len: usize) -> PagedPanel<'_, f32> {
    PagedPanel {
        pages: pages.iter().map(Vec::as_slice).collect(),
        rows_per_page,
        len,
        operand_form: false,
    }
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Run the fused decode pipeline once over page views and once over the
/// same rows packed, and require bitwise equal outputs and equal charges
/// from single launches.
fn assert_views_match_packed(
    f: &Fixture,
    k_views: &[PagedPanel<'_, f32>],
    v_views: &[PagedPanel<'_, f32>],
) {
    let pattern = NmPattern::P1_2;
    let (kb, vb) = (ragged_of(&f.k_panels), ragged_of(&f.v_panels));
    let mut pctx = GpuCtx::a100();
    let mut paged = sddmm::sddmm_nm_fused_paged(&mut pctx, &f.q, k_views, 0.25, pattern);
    softmax::softmax_nm_ragged(&mut pctx, &mut paged);
    let out_p = spmm::spmm_nm_paged(&mut pctx, &paged, v_views, f.d_v);
    let mut rctx = GpuCtx::a100();
    let mut packed = sddmm::sddmm_nm_fused_ragged(&mut rctx, &f.q, &kb, 0.25, pattern);
    softmax::softmax_nm_ragged(&mut rctx, &mut packed);
    let out_r = spmm::spmm_nm_ragged(&mut rctx, &packed, &vb);

    for s in 0..k_views.len() {
        assert_eq!(paged.row_codes(s), packed.row_codes(s), "stream {s} codes");
    }
    assert_eq!(bits(paged.nonzeros()), bits(packed.nonzeros()));
    assert_eq!(bits(out_p.as_slice()), bits(out_r.as_slice()));
    assert_eq!(pctx.timeline.launches(), 3);
    assert_eq!(pctx.timeline.total_bytes(), rctx.timeline.total_bytes());
}

#[test]
fn paged_views_match_packed_launch_bitwise() {
    // Every stream's K and V shredded into pages with NaN dead tails longer
    // than a row, at several page sizes, including lengths that end exactly
    // on a page boundary (16 and 48 at 1, 16 and 48 rows per page).
    let lens = [5usize, 16, 33, 48];
    let f = fixture(&lens, 8, 4, 9);
    for rows_per_page in [1usize, 3, 16, 48] {
        let k_pages: Vec<Vec<Vec<f32>>> = f
            .k_panels
            .iter()
            .map(|k| paginate(k.as_slice(), f.d, rows_per_page, f.d + 3))
            .collect();
        let v_pages: Vec<Vec<Vec<f32>>> = f
            .v_panels
            .iter()
            .map(|v| paginate(v.as_slice(), f.d_v, rows_per_page, f.d_v + 3))
            .collect();
        let k_views: Vec<PagedPanel<'_, f32>> = k_pages
            .iter()
            .zip(&lens)
            .map(|(p, &l)| view_of(p, rows_per_page, l))
            .collect();
        let v_views: Vec<PagedPanel<'_, f32>> = v_pages
            .iter()
            .zip(&lens)
            .map(|(p, &l)| view_of(p, rows_per_page, l))
            .collect();
        assert_views_match_packed(&f, &k_views, &v_views);
    }
}

#[test]
fn one_launch_mixes_page_geometries_across_streams() {
    // Stream 0: 3 rows in pages of 2 (NaN dead tail and NaN row past len);
    // stream 1: a contiguous slab as the one-page view; stream 2:
    // rows_per_page larger than len (one partial page, NaN past len);
    // stream 3: one row per page.
    let lens = [3usize, 2, 1, 4];
    let f = fixture(&lens, 8, 4, 10);
    let geometry = [(2usize, 11usize), (2, 0), (4, 0), (1, 5)];
    let k_pages: Vec<Vec<Vec<f32>>> = f
        .k_panels
        .iter()
        .zip(&geometry)
        .map(|(k, &(rpp, dead))| paginate(k.as_slice(), f.d, rpp, dead))
        .collect();
    let v_pages: Vec<Vec<Vec<f32>>> = f
        .v_panels
        .iter()
        .zip(&geometry)
        .map(|(v, &(rpp, dead))| paginate(v.as_slice(), f.d_v, rpp, dead))
        .collect();
    let k_views: Vec<PagedPanel<'_, f32>> = (0..lens.len())
        .map(|s| match s {
            1 => PagedPanel::one_page(f.k_panels[s].as_slice(), lens[s]),
            _ => view_of(&k_pages[s], geometry[s].0, lens[s]),
        })
        .collect();
    let v_views: Vec<PagedPanel<'_, f32>> = (0..lens.len())
        .map(|s| match s {
            1 => PagedPanel::one_page(f.v_panels[s].as_slice(), lens[s]),
            _ => view_of(&v_pages[s], geometry[s].0, lens[s]),
        })
        .collect();
    assert_views_match_packed(&f, &k_views, &v_views);
}

#[test]
#[should_panic(expected = "page table holds")]
fn paged_views_reject_wrong_page_counts() {
    let f = fixture(&[3], 2, 2, 11);
    let page = [0.0f32; 4];
    let short = PagedPanel {
        pages: vec![&page[..]],
        rows_per_page: 2,
        len: 3, // needs 2 pages
        operand_form: false,
    };
    let mut ctx = GpuCtx::a100();
    let _ = sddmm::sddmm_nm_fused_paged(&mut ctx, &f.q, &[short], 1.0, NmPattern::P1_2);
}
