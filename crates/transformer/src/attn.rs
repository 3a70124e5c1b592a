//! Multi-head attention with a pluggable mechanism and manual backprop.
//!
//! [`AttnKind`] is the drop-in switch of the paper's Figure 3: changing
//! `Full` to `Nm(1:2)` is the entire code change a user makes. The
//! mask-based family (full, Dfss N:M, top-k, fixed, local, BigBird,
//! Longformer, LSH chunks, clusters, Sinkhorn blocks) shares one
//! forward/backward implementation — a binary mask over the score matrix
//! with gradients flowing straight-through the kept entries (pruned entries
//! have zero attention weight, hence zero gradient, which matches what the
//! real sparse kernels compute). Performer, Linformer and Nyströmformer get
//! dedicated differentiable paths.
//!
//! Training runs in f32; at `Precision::Bf16` the projections are rounded
//! through bf16 (inputs) with f32 accumulation, mirroring the tensor-core
//! numerics of the kernels.

use crate::linear::{matmul, Linear};
use crate::param::Param;
use dfss_nmsparse::NmPattern;
use dfss_tensor::{math, BatchedMatrix, Bf16, Matrix, Rng};

/// Which attention mechanism a layer uses.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AttnKind {
    /// Dense softmax attention.
    Full,
    /// Dfss: dynamic N:M pruning of the score matrix.
    Nm(NmPattern),
    /// Explicit top-k per row.
    TopK(usize),
    /// Keep the first ⌈s·n⌉ key columns.
    FixedPrefix(f64),
    /// Sliding window of the given width.
    Local(usize),
    /// BigBird-style global + window + random blocks.
    BigBird { block: usize, seed: u64 },
    /// Longformer-style: sliding window + a few global tokens.
    Longformer { window: usize, global_tokens: usize },
    /// Reformer-style LSH bucketing into chunks.
    LshChunks {
        chunk: usize,
        buckets: usize,
        seed: u64,
    },
    /// Routing-style k-means clusters over keys.
    Cluster { clusters: usize, seed: u64 },
    /// Sinkhorn-style block matching.
    SinkhornBlocks { block: usize },
    /// Linformer: learned sequence-length projections E, F of rank `proj`.
    Linformer { proj: usize },
    /// Performer: FAVOR+ positive softmax kernel, `features` random
    /// features.
    Performer { features: usize, seed: u64 },
    /// Nyströmformer with `landmarks` segment-mean landmarks.
    Nystrom { landmarks: usize },
    /// Nyströmformer with Dfss applied to both n-length factors (A.7).
    NystromNm {
        landmarks: usize,
        pattern: NmPattern,
    },
}

impl AttnKind {
    pub fn label(&self) -> String {
        match self {
            AttnKind::Full => "Full".into(),
            AttnKind::Nm(p) => format!("Dfss {p}"),
            AttnKind::TopK(k) => format!("TopK({k})"),
            AttnKind::FixedPrefix(s) => format!("Fixed({s})"),
            AttnKind::Local(w) => format!("Local({w})"),
            AttnKind::BigBird { .. } => "BigBird".into(),
            AttnKind::Longformer { .. } => "Longformer".into(),
            AttnKind::LshChunks { .. } => "Reformer".into(),
            AttnKind::Cluster { .. } => "Routing".into(),
            AttnKind::SinkhornBlocks { .. } => "Sinkhorn".into(),
            AttnKind::Linformer { .. } => "Linformer".into(),
            AttnKind::Performer { .. } => "Performer".into(),
            AttnKind::Nystrom { .. } => "Nystrom".into(),
            AttnKind::NystromNm { pattern, .. } => format!("Nystrom+Dfss {pattern}"),
        }
    }

    fn is_mask_family(&self) -> bool {
        !matches!(
            self,
            AttnKind::Linformer { .. }
                | AttnKind::Performer { .. }
                | AttnKind::Nystrom { .. }
                | AttnKind::NystromNm { .. }
        )
    }
}

/// Round a matrix through bf16 (tensor-core input rounding).
fn round_bf16(x: &mut Matrix<f32>) {
    for v in x.as_mut_slice() {
        *v = Bf16::from_f32(*v).to_f32();
    }
}

/// Rows per work item of the batched multi-head fan-outs.
const HEAD_ROW_CHUNK: usize = 8;

/// One batched "launch": fan out over (head, row-tile) work items across a
/// contiguous [`BatchedMatrix`] head stack, calling `f(head, row,
/// row_slice)` for every row. This is the training stack's analogue of the
/// batched B×H kernels in `dfss-kernels` — all heads' rows feed one
/// parallel dispatch over one backing buffer instead of a serial per-head
/// loop of parallel ops. Per-row work is self-contained, so the result is
/// bit-identical to any per-head schedule.
fn batched_rows(stack: &mut BatchedMatrix<f32>, f: impl Fn(usize, usize, &mut [f32]) + Sync) {
    use rayon::prelude::*;
    let row_len = stack.cols().max(1);
    let rows_per_panel = stack.rows().max(1);
    stack
        .as_mut_slice()
        .par_chunks_mut(row_len * HEAD_ROW_CHUNK)
        .enumerate()
        .for_each(|(ci, chunk)| {
            for (global_row, row) in (ci * HEAD_ROW_CHUNK..).zip(chunk.chunks_mut(row_len)) {
                f(
                    global_row / rows_per_panel,
                    global_row % rows_per_panel,
                    row,
                );
            }
        });
}

/// Binary group mask: union of index groups, each fully connected.
fn group_mask(n: usize, groups: &[Vec<usize>]) -> Matrix<f32> {
    let mut mask = Matrix::<f32>::zeros(n, n);
    for g in groups {
        for &i in g {
            let row = mask.row_mut(i);
            for &j in g {
                row[j] = 1.0;
            }
        }
    }
    mask
}

/// Build the binary keep-mask for the mask-family mechanisms.
fn build_mask(
    kind: &AttnKind,
    scores: &Matrix<f32>,
    q: &Matrix<f32>,
    k: &Matrix<f32>,
) -> Matrix<f32> {
    let n = scores.rows();
    match *kind {
        AttnKind::Full => Matrix::from_fn(n, n, |_, _| 1.0),
        AttnKind::Nm(p) => p.mask_matrix(scores),
        AttnKind::TopK(kk) => {
            let mut mask = Matrix::<f32>::zeros(n, n);
            let mut order: Vec<usize> = Vec::new();
            for r in 0..n {
                order.clear();
                order.extend(0..n);
                let row = scores.row(r);
                order.sort_by(|&a, &b| {
                    row[b]
                        .partial_cmp(&row[a])
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                let mrow = mask.row_mut(r);
                for &c in order.iter().take(kk.min(n)) {
                    mrow[c] = 1.0;
                }
            }
            mask
        }
        AttnKind::FixedPrefix(s) => {
            let keep = ((n as f64 * s).ceil() as usize).clamp(1, n);
            Matrix::from_fn(n, n, |_, c| if c < keep { 1.0 } else { 0.0 })
        }
        AttnKind::Local(w) => {
            let w = w.min(n);
            Matrix::from_fn(n, n, |r, c| {
                let lo = r.saturating_sub(w / 2).min(n - w);
                if c >= lo && c < lo + w {
                    1.0
                } else {
                    0.0
                }
            })
        }
        AttnKind::BigBird { block, seed } => {
            // Per row block: column block 0 (global), the 3 blocks around
            // the diagonal (clamped at the edges), then seeded random
            // blocks until 6 are active.
            let block = block.min(n).max(1);
            let blocks = n / block;
            let n_round = blocks * block;
            let width = blocks.min(6);
            // Ragged tail rows/cols attend globally.
            let mut mask = Matrix::from_fn(n, n, |r, c| {
                if r >= n_round || c >= n_round {
                    1.0
                } else {
                    0.0
                }
            });
            let mut rng = Rng::new(seed);
            let mut active = Vec::with_capacity(width);
            for rb in 0..blocks {
                let lo = rb.saturating_sub(1).min(blocks.saturating_sub(3));
                active.clear();
                active.push(0);
                active.extend(lo.max(1)..(lo + 3).min(blocks));
                while active.len() < width {
                    let cand = rng.below(blocks);
                    if !active.contains(&cand) {
                        active.push(cand);
                    }
                }
                for r in rb * block..(rb + 1) * block {
                    let row = mask.row_mut(r);
                    for &cb in &active {
                        row[cb * block..(cb + 1) * block].fill(1.0);
                    }
                }
            }
            mask
        }
        AttnKind::Longformer {
            window,
            global_tokens,
        } => {
            let w = window.min(n);
            Matrix::from_fn(n, n, |r, c| {
                let lo = r.saturating_sub(w / 2).min(n - w);
                let local = c >= lo && c < lo + w;
                let global = r < global_tokens || c < global_tokens;
                if local || global {
                    1.0
                } else {
                    0.0
                }
            })
        }
        AttnKind::LshChunks {
            chunk,
            buckets,
            seed,
        } => {
            let b = buckets.max(2);
            let d = q.cols();
            let mut rng = Rng::new(seed);
            let rmat = Matrix::<f32>::random_normal(b / 2, d, 0.0, 1.0, &mut rng);
            let mut order: Vec<(usize, usize)> = (0..n)
                .map(|i| {
                    let mut best = (0usize, f32::NEG_INFINITY);
                    for h in 0..b / 2 {
                        let p: f32 = q.row(i).iter().zip(rmat.row(h)).map(|(a, b)| a * b).sum();
                        if p > best.1 {
                            best = (h, p);
                        }
                        if -p > best.1 {
                            best = (h + b / 2, -p);
                        }
                    }
                    (best.0, i)
                })
                .collect();
            order.sort_unstable();
            let sorted: Vec<usize> = order.into_iter().map(|(_, i)| i).collect();
            let c = chunk.min(n).max(1);
            let mut groups = Vec::new();
            for ci in 0..n.div_ceil(c) {
                let lo = ci * c;
                let hi = (lo + c).min(n);
                let mut g = sorted[lo..hi].to_vec();
                if ci > 0 {
                    g.extend_from_slice(&sorted[(ci - 1) * c..lo]);
                }
                groups.push(g);
            }
            group_mask(n, &groups)
        }
        AttnKind::Cluster { clusters, seed } => {
            let c = clusters.min(n).max(1);
            let d = k.cols();
            let mut rng = Rng::new(seed);
            let mut centroids = k.gather_rows(&rng.sample_indices(n, c));
            let mut assign = vec![0usize; n];
            for _ in 0..3 {
                for i in 0..n {
                    let mut best = (0usize, f32::NEG_INFINITY);
                    for j in 0..c {
                        let dot: f32 = k
                            .row(i)
                            .iter()
                            .zip(centroids.row(j))
                            .map(|(a, b)| a * b)
                            .sum();
                        if dot > best.1 {
                            best = (j, dot);
                        }
                    }
                    assign[i] = best.0;
                }
                let mut sums = Matrix::<f32>::zeros(c, d);
                let mut counts = vec![0usize; c];
                for i in 0..n {
                    counts[assign[i]] += 1;
                    let srow = sums.row_mut(assign[i]);
                    for (s, &x) in srow.iter_mut().zip(k.row(i)) {
                        *s += x;
                    }
                }
                for j in 0..c {
                    if counts[j] > 0 {
                        sums.row_mut(j)
                            .iter_mut()
                            .for_each(|x| *x /= counts[j] as f32);
                    }
                }
                centroids = sums;
            }
            let mut groups: Vec<Vec<usize>> = vec![Vec::new(); c];
            for (i, &a) in assign.iter().enumerate() {
                groups[a].push(i);
            }
            group_mask(n, &groups)
        }
        AttnKind::SinkhornBlocks { block } => {
            let b = block.min(n).max(1);
            let nb = n / b;
            if nb <= 1 {
                return Matrix::from_fn(n, n, |_, _| 1.0);
            }
            // Match block i with the block whose mean key is most similar to
            // its mean query (greedy, bijective).
            let d = q.cols();
            let mut qb = Matrix::<f32>::zeros(nb, d);
            let mut kb = Matrix::<f32>::zeros(nb, d);
            for bi in 0..nb {
                for i in bi * b..(bi + 1) * b {
                    for (o, &x) in qb.row_mut(bi).iter_mut().zip(q.row(i)) {
                        *o += x / b as f32;
                    }
                    for (o, &x) in kb.row_mut(bi).iter_mut().zip(k.row(i)) {
                        *o += x / b as f32;
                    }
                }
            }
            let mut entries: Vec<(f32, usize, usize)> = Vec::new();
            for r in 0..nb {
                for c in 0..nb {
                    let dot: f32 = qb.row(r).iter().zip(kb.row(c)).map(|(a, b)| a * b).sum();
                    entries.push((dot, r, c));
                }
            }
            entries.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
            let mut matched = vec![usize::MAX; nb];
            let mut used = vec![false; nb];
            for (_, r, c) in entries {
                if matched[r] == usize::MAX && !used[c] {
                    matched[r] = c;
                    used[c] = true;
                }
            }
            let mut mask = Matrix::<f32>::zeros(n, n);
            for r in 0..n {
                let rb = (r / b).min(nb - 1);
                let row = mask.row_mut(r);
                for c in rb * b..((rb + 1) * b).min(n) {
                    row[c] = 1.0;
                }
                let mb = matched[rb.min(nb - 1)];
                for c in mb * b..((mb + 1) * b).min(n) {
                    row[c] = 1.0;
                }
                // Ragged tail columns always visible.
                for c in nb * b..n {
                    row[c] = 1.0;
                }
            }
            // Ragged tail rows attend to everything.
            for r in nb * b..n {
                mask.row_mut(r).iter_mut().for_each(|x| *x = 1.0);
            }
            mask
        }
        _ => unreachable!("not a mask-family kind"),
    }
}

/// Per-head cache of the mask-family path.
struct MaskCache {
    q: Matrix<f32>,
    k: Matrix<f32>,
    v: Matrix<f32>,
    a: Matrix<f32>,
}

/// Per-head cache of the Performer path.
struct PerformerCache {
    x_q: Matrix<f32>,
    x_k: Matrix<f32>,
    v: Matrix<f32>,
    phi_q: Matrix<f32>,
    phi_k: Matrix<f32>,
    t7: Vec<f32>,
    b: Matrix<f32>,
    u: Matrix<f32>,
    inv: Vec<f32>,
}

/// Per-head cache of the Nyström path.
struct NystromCache {
    q: Matrix<f32>,
    k: Matrix<f32>,
    v: Matrix<f32>,
    f1: Matrix<f32>,
    f3: Matrix<f32>,
    z: Matrix<f32>,
    m2: Matrix<f32>,
    seg_len: Vec<usize>,
}

/// Per-head cache of the Linformer path.
struct LinformerCache {
    q: Matrix<f32>,
    k: Matrix<f32>,
    v: Matrix<f32>,
    kp: Matrix<f32>,
    vp: Matrix<f32>,
    a: Matrix<f32>,
}

enum HeadCache {
    Mask(MaskCache),
    Performer(PerformerCache),
    Nystrom(NystromCache),
    Linformer(LinformerCache),
}

/// Multi-head attention block.
pub struct MultiHeadAttention {
    pub kind: AttnKind,
    pub heads: usize,
    pub wq: Linear,
    pub wk: Linear,
    pub wv: Linear,
    pub wo: Linear,
    /// Linformer sequence projections (`proj × max_len`), shared across
    /// heads.
    pub e_proj: Option<Param>,
    pub f_proj: Option<Param>,
    /// Fixed Performer feature matrix per head-dim (non-trainable).
    performer_w: Option<Matrix<f32>>,
    head_caches: Vec<HeadCache>,
    cache_x: Option<Matrix<f32>>,
}

impl MultiHeadAttention {
    pub fn new(
        kind: AttnKind,
        d_model: usize,
        heads: usize,
        max_len: usize,
        rng: &mut Rng,
    ) -> MultiHeadAttention {
        assert_eq!(d_model % heads, 0, "d_model must divide into heads");
        let (e_proj, f_proj) = if let AttnKind::Linformer { proj } = kind {
            let sigma = 1.0 / (max_len as f32).sqrt();
            (
                Some(Param::randn(proj, max_len, sigma, rng)),
                Some(Param::randn(proj, max_len, sigma, rng)),
            )
        } else {
            (None, None)
        };
        let performer_w = if let AttnKind::Performer { features, seed } = kind {
            let dh = d_model / heads;
            let mut prng = Rng::new(seed);
            Some(crate::attn::orthogonal_features(features, dh, &mut prng))
        } else {
            None
        };
        MultiHeadAttention {
            kind,
            heads,
            wq: Linear::new(d_model, d_model, rng),
            wk: Linear::new(d_model, d_model, rng),
            wv: Linear::new(d_model, d_model, rng),
            wo: Linear::new(d_model, d_model, rng),
            e_proj,
            f_proj,
            performer_w,
            head_caches: Vec::new(),
            cache_x: None,
        }
    }

    fn split_head(&self, x: &Matrix<f32>, h: usize) -> Matrix<f32> {
        let dh = x.cols() / self.heads;
        Matrix::from_fn(x.rows(), dh, |r, c| x.get(r, h * dh + c))
    }

    /// Forward pass. `bf16` rounds Q/K/V through bf16 first (the 2:4 eval
    /// configuration).
    pub fn forward(&mut self, x: &Matrix<f32>, train: bool, bf16: bool) -> Matrix<f32> {
        let n = x.rows();
        let d_model = x.cols();
        let dh = d_model / self.heads;
        let scale = 1.0 / (dh as f32).sqrt();

        let mut q = self.wq.forward(x, train);
        let mut k = self.wk.forward(x, train);
        let mut v = self.wv.forward(x, train);
        if bf16 {
            round_bf16(&mut q);
            round_bf16(&mut k);
            round_bf16(&mut v);
        }

        self.head_caches.clear();
        let mut concat = Matrix::<f32>::zeros(n, d_model);
        if self.kind.is_mask_family() {
            // The whole mask family shares the batched multi-head path: all
            // heads run through one fan-out per op (QKᵀ, mask+softmax, AV)
            // over contiguous head stacks instead of a per-head loop.
            let (outs, caches) = self.mask_family_forward_batched(&q, &k, &v, scale, n, dh);
            concat = outs.merge_heads();
            if train {
                self.head_caches = caches;
            }
        } else {
            for h in 0..self.heads {
                let qh = self.split_head(&q, h);
                let kh = self.split_head(&k, h);
                let vh = self.split_head(&v, h);
                let (oh, cache) = self.head_forward(&qh, &kh, &vh, scale, n);
                for r in 0..n {
                    let crow = concat.row_mut(r);
                    for c in 0..dh {
                        crow[h * dh + c] = oh.get(r, c);
                    }
                }
                if train {
                    self.head_caches.push(cache);
                }
            }
        }
        if train {
            self.cache_x = Some(x.clone());
        }
        self.wo.forward(&concat, train)
    }

    /// Batched mask-family forward on the shared [`BatchedMatrix`] head
    /// stacks (the same containers the inference engine's batched kernels
    /// consume): head panels are packed once via `split_heads`, then the
    /// three ops each run as **one launch across every head** — a single
    /// (head, row-tile) fan-out over one contiguous buffer for the scaled
    /// QKᵀ scores, one for the mask + softmax pass, and one for the AV
    /// product. Mask construction stays per head between launches
    /// (host-side metadata, like the paper's overhead stage). Numerically
    /// identical to the per-head loop (same per-element operations in the
    /// same order).
    fn mask_family_forward_batched(
        &self,
        q: &Matrix<f32>,
        k: &Matrix<f32>,
        v: &Matrix<f32>,
        scale: f32,
        n: usize,
        dh: usize,
    ) -> (BatchedMatrix<f32>, Vec<HeadCache>) {
        let heads = self.heads;
        let qh = BatchedMatrix::split_heads(q, heads);
        let kh = BatchedMatrix::split_heads(k, heads);
        let vh = BatchedMatrix::split_heads(v, heads);
        let kt_panels: Vec<Matrix<f32>> = (0..heads).map(|h| kh.to_panel(h).transpose()).collect();
        let kt = BatchedMatrix::gather(&kt_panels.iter().collect::<Vec<_>>());

        // Launch 1: scaled scores for every (head, row).
        let mut scores = BatchedMatrix::<f32>::zeros(heads, n, n);
        batched_rows(&mut scores, |h, i, orow| {
            for (kk, &av) in qh.row(h, i).iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                for (o, &bv) in orow.iter_mut().zip(kt.row(h, kk)) {
                    *o += av * bv;
                }
            }
            orow.iter_mut().for_each(|x| *x *= scale);
        });

        // Host-side mask metadata per head (unpacked panel views — mask
        // builders are per-head score/Q/K consumers).
        let q_panels: Vec<Matrix<f32>> = (0..heads).map(|h| qh.to_panel(h)).collect();
        let k_panels: Vec<Matrix<f32>> = (0..heads).map(|h| kh.to_panel(h)).collect();
        let masks: Vec<Matrix<f32>> = (0..heads)
            .map(|h| build_mask(&self.kind, &scores.to_panel(h), &q_panels[h], &k_panels[h]))
            .collect();

        // Launch 2: mask + softmax for every (head, row).
        batched_rows(&mut scores, |h, i, row| {
            let mrow = &masks[h].row(i)[..row.len()];
            for (x, &m) in row.iter_mut().zip(mrow) {
                if m == 0.0 {
                    *x = f32::NEG_INFINITY;
                }
            }
            math::softmax_row(row);
        });

        // Launch 3: AV for every (head, row).
        let mut outs = BatchedMatrix::<f32>::zeros(heads, n, dh);
        batched_rows(&mut outs, |h, i, orow| {
            for (kk, &av) in scores.row(h, i).iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                for (o, &bv) in orow.iter_mut().zip(vh.row(h, kk)) {
                    *o += av * bv;
                }
            }
        });

        // Scatter the stacks back into the per-head backward caches.
        let caches: Vec<HeadCache> = q_panels
            .into_iter()
            .zip(k_panels)
            .zip(vh.into_panels())
            .zip(scores.into_panels())
            .map(|(((q, k), v), a)| HeadCache::Mask(MaskCache { q, k, v, a }))
            .collect();
        (outs, caches)
    }

    fn head_forward(
        &self,
        qh: &Matrix<f32>,
        kh: &Matrix<f32>,
        vh: &Matrix<f32>,
        scale: f32,
        n: usize,
    ) -> (Matrix<f32>, HeadCache) {
        match self.kind {
            AttnKind::Performer { .. } => {
                let w = self.performer_w.as_ref().expect("performer features");
                let dh = qh.cols();
                let phi_q = favor_features(qh, w, dh);
                let phi_k = favor_features(kh, w, dh);
                let b = matmul(&phi_k.transpose(), vh);
                let mut t7 = vec![0.0f32; w.rows()];
                for r in 0..n {
                    for (acc, &x) in t7.iter_mut().zip(phi_k.row(r)) {
                        *acc += x;
                    }
                }
                let u = matmul(&phi_q, &b);
                let mut inv = vec![0.0f32; n];
                let mut out = Matrix::<f32>::zeros(n, vh.cols());
                for i in 0..n {
                    let denom: f32 = phi_q.row(i).iter().zip(&t7).map(|(a, b)| a * b).sum();
                    inv[i] = 1.0 / denom.max(1e-9);
                    let orow = out.row_mut(i);
                    for (o, &x) in orow.iter_mut().zip(u.row(i)) {
                        *o = x * inv[i];
                    }
                }
                (
                    out,
                    HeadCache::Performer(PerformerCache {
                        x_q: qh.clone(),
                        x_k: kh.clone(),
                        v: vh.clone(),
                        phi_q,
                        phi_k,
                        t7,
                        b,
                        u,
                        inv,
                    }),
                )
            }
            AttnKind::Nystrom { landmarks } | AttnKind::NystromNm { landmarks, .. } => {
                let m = landmarks.min(n);
                let (q_l, seg_len) = segment_means(qh, m);
                let (k_l, _) = segment_means(kh, m);
                let nm_pattern = if let AttnKind::NystromNm { pattern, .. } = self.kind {
                    Some(pattern)
                } else {
                    None
                };
                let f1 = masked_softmax_scaled(&matmul(qh, &k_l.transpose()), scale, nm_pattern);
                let f3 = masked_softmax_scaled(&matmul(&q_l, &kh.transpose()), scale, nm_pattern);
                let a_ss = masked_softmax_scaled(&matmul(&q_l, &k_l.transpose()), scale, None);
                let z = iterative_pinv(&a_ss, 6);
                let m1 = matmul(&f3, vh);
                let m2 = matmul(&z, &m1);
                let out = matmul(&f1, &m2);
                (
                    out,
                    HeadCache::Nystrom(NystromCache {
                        q: qh.clone(),
                        k: kh.clone(),
                        v: vh.clone(),
                        f1,
                        f3,
                        z,
                        m2,
                        seg_len,
                    }),
                )
            }
            AttnKind::Linformer { .. } => {
                let e = self.e_proj.as_ref().expect("linformer E");
                let f = self.f_proj.as_ref().expect("linformer F");
                // Slice projections to the current sequence length.
                let e_n = Matrix::from_fn(e.w.rows(), n, |r, c| e.w.get(r, c));
                let f_n = Matrix::from_fn(f.w.rows(), n, |r, c| f.w.get(r, c));
                let kp = matmul(&e_n, kh);
                let vp = matmul(&f_n, vh);
                let mut s = matmul(qh, &kp.transpose());
                for r in 0..n {
                    let row = s.row_mut(r);
                    row.iter_mut().for_each(|x| *x *= scale);
                    math::softmax_row(row);
                }
                let out = matmul(&s, &vp);
                (
                    out,
                    HeadCache::Linformer(LinformerCache {
                        q: qh.clone(),
                        k: kh.clone(),
                        v: vh.clone(),
                        kp,
                        vp,
                        a: s,
                    }),
                )
            }
            _ => unreachable!(
                "mask-family attention runs through mask_family_forward_batched, not per head"
            ),
        }
    }

    /// Attention weight matrices of the last `forward(train=true)` call,
    /// one per head (mask-family mechanisms only). Used by the quality and
    /// visualisation experiments (Figures 12, 13, 19).
    pub fn last_attention_maps(&self) -> Vec<&Matrix<f32>> {
        self.head_caches
            .iter()
            .filter_map(|c| match c {
                HeadCache::Mask(m) => Some(&m.a),
                _ => None,
            })
            .collect()
    }

    /// Backward pass; returns dx.
    pub fn backward(&mut self, dy: &Matrix<f32>) -> Matrix<f32> {
        let dconcat = self.wo.backward(dy);
        let x = self.cache_x.take().expect("MHA::backward without forward");
        let n = x.rows();
        let d_model = x.cols();
        let dh = d_model / self.heads;
        let scale = 1.0 / (dh as f32).sqrt();

        let mut dq = Matrix::<f32>::zeros(n, d_model);
        let mut dk = Matrix::<f32>::zeros(n, d_model);
        let mut dv = Matrix::<f32>::zeros(n, d_model);

        let caches = std::mem::take(&mut self.head_caches);
        for (h, cache) in caches.into_iter().enumerate() {
            let doh = Matrix::from_fn(n, dh, |r, c| dconcat.get(r, h * dh + c));
            let (dqh, dkh, dvh) = self.head_backward(cache, &doh, scale);
            for r in 0..n {
                for c in 0..dh {
                    dq.set(r, h * dh + c, dqh.get(r, c));
                    dk.set(r, h * dh + c, dkh.get(r, c));
                    dv.set(r, h * dh + c, dvh.get(r, c));
                }
            }
        }

        let dx_q = self.wq.backward(&dq);
        let dx_k = self.wk.backward(&dk);
        let dx_v = self.wv.backward(&dv);
        let mut dx = dx_q;
        dx.axpy(1.0, &dx_k);
        dx.axpy(1.0, &dx_v);
        dx
    }

    fn head_backward(
        &mut self,
        cache: HeadCache,
        doh: &Matrix<f32>,
        scale: f32,
    ) -> (Matrix<f32>, Matrix<f32>, Matrix<f32>) {
        match cache {
            HeadCache::Mask(c) => {
                let da = matmul(doh, &c.v.transpose());
                let dvh = matmul(&c.a.transpose(), doh);
                let ds = softmax_backward(&c.a, &da);
                let mut dqh = matmul(&ds, &c.k);
                dqh.scale(scale);
                let mut dkh = matmul(&ds.transpose(), &c.q);
                dkh.scale(scale);
                (dqh, dkh, dvh)
            }
            HeadCache::Performer(c) => {
                let n = doh.rows();
                let m = c.t7.len();
                // O_i = U_i · inv_i.
                let mut du = Matrix::<f32>::zeros(n, c.u.cols());
                let mut ddenom = vec![0.0f32; n];
                for i in 0..n {
                    let d_inv: f32 = doh.row(i).iter().zip(c.u.row(i)).map(|(a, b)| a * b).sum();
                    ddenom[i] = -c.inv[i] * c.inv[i] * d_inv;
                    let durow = du.row_mut(i);
                    for (o, &g) in durow.iter_mut().zip(doh.row(i)) {
                        *o = g * c.inv[i];
                    }
                }
                // U = φQ·B.
                let mut dphi_q = matmul(&du, &c.b.transpose());
                let db = matmul(&c.phi_q.transpose(), &du);
                // denom_i = φQ_i · t7.
                for i in 0..n {
                    let row = dphi_q.row_mut(i);
                    for (g, &t) in row.iter_mut().zip(&c.t7) {
                        *g += ddenom[i] * t;
                    }
                }
                // t7 = Σ_r φK_r ; B = φKᵀ·V.
                let mut dt7 = vec![0.0f32; m];
                for i in 0..n {
                    for (acc, &pq) in dt7.iter_mut().zip(c.phi_q.row(i)) {
                        *acc += ddenom[i] * pq;
                    }
                }
                let mut dphi_k = matmul(&c.v, &db.transpose());
                for r in 0..n {
                    let row = dphi_k.row_mut(r);
                    for (g, &t) in row.iter_mut().zip(&dt7) {
                        *g += t;
                    }
                }
                let dvh = matmul(&c.phi_k, &db);
                // Back through φ(x) = exp(x·Wᵀ/d^¼ − ‖x‖²/(2√d) − stab)/√m.
                let w = self.performer_w.as_ref().expect("performer features");
                let dh_dim = c.x_q.cols();
                let dqh = favor_backward(&c.x_q, &c.phi_q, &dphi_q, w, dh_dim);
                let dkh = favor_backward(&c.x_k, &c.phi_k, &dphi_k, w, dh_dim);
                (dqh, dkh, dvh)
            }
            HeadCache::Nystrom(c) => {
                // out = F1·M2, M2 = Z·M1, M1 = F3·V; Z is stop-grad.
                let df1 = matmul(doh, &c.m2.transpose());
                let dm2 = matmul(&c.f1.transpose(), doh);
                let dm1 = matmul(&c.z.transpose(), &dm2);
                let df3 = matmul(&dm1, &c.v.transpose());
                let mut dvh = matmul(&c.f3.transpose(), &dm1);
                // F1 = softmax(Q·K̃ᵀ·scale).
                let ds1 = softmax_backward(&c.f1, &df1);
                let (q_l, _) = segment_means(&c.q, c.seg_len.len());
                let (k_l, _) = segment_means(&c.k, c.seg_len.len());
                let mut dqh = matmul(&ds1, &k_l);
                dqh.scale(scale);
                let mut dk_l = matmul(&ds1.transpose(), &c.q);
                dk_l.scale(scale);
                // F3 = softmax(Q̃·Kᵀ·scale).
                let ds3 = softmax_backward(&c.f3, &df3);
                let mut dq_l = matmul(&ds3, &c.k);
                dq_l.scale(scale);
                let mut dkh = matmul(&ds3.transpose(), &q_l);
                dkh.scale(scale);
                // Segment-mean backward: spread landmark grads uniformly.
                scatter_segment_grad(&mut dqh, &dq_l, &c.seg_len);
                scatter_segment_grad(&mut dkh, &dk_l, &c.seg_len);
                let _ = &mut dvh;
                (dqh, dkh, dvh)
            }
            HeadCache::Linformer(c) => {
                let n = c.q.rows();
                let da = matmul(doh, &c.vp.transpose());
                let dvp = matmul(&c.a.transpose(), doh);
                let ds = softmax_backward(&c.a, &da);
                let mut dqh = matmul(&ds, &c.kp);
                dqh.scale(scale);
                let mut dkp = matmul(&ds.transpose(), &c.q);
                dkp.scale(scale);
                // kp = E_n·K, vp = F_n·V.
                let e = self.e_proj.as_mut().expect("linformer E");
                let de_n = matmul(&dkp, &c.k.transpose());
                for r in 0..de_n.rows() {
                    let grow = e.g.row_mut(r);
                    for (cidx, &g) in de_n.row(r).iter().enumerate() {
                        grow[cidx] += g;
                    }
                }
                let e_n = Matrix::from_fn(e.w.rows(), n, |r, cidx| e.w.get(r, cidx));
                let dkh = matmul(&e_n.transpose(), &dkp);
                let f = self.f_proj.as_mut().expect("linformer F");
                let df_n = matmul(&dvp, &c.v.transpose());
                for r in 0..df_n.rows() {
                    let grow = f.g.row_mut(r);
                    for (cidx, &g) in df_n.row(r).iter().enumerate() {
                        grow[cidx] += g;
                    }
                }
                let f_n = Matrix::from_fn(f.w.rows(), n, |r, cidx| f.w.get(r, cidx));
                let dvh = matmul(&f_n.transpose(), &dvp);
                (dqh, dkh, dvh)
            }
        }
    }

    pub fn params(&mut self) -> Vec<&mut Param> {
        let mut ps = Vec::new();
        ps.extend(self.wq.params());
        ps.extend(self.wk.params());
        ps.extend(self.wv.params());
        ps.extend(self.wo.params());
        if let Some(e) = self.e_proj.as_mut() {
            ps.push(e);
        }
        if let Some(f) = self.f_proj.as_mut() {
            ps.push(f);
        }
        ps
    }
}

/// Softmax backward: `dS = A ⊙ (dA − rowsum(dA ⊙ A))`.
pub fn softmax_backward(a: &Matrix<f32>, da: &Matrix<f32>) -> Matrix<f32> {
    let (n, c) = a.shape();
    let mut ds = Matrix::<f32>::zeros(n, c);
    for r in 0..n {
        let dot: f32 = a.row(r).iter().zip(da.row(r)).map(|(x, y)| x * y).sum();
        let drow = ds.row_mut(r);
        for ((o, &av), &dav) in drow.iter_mut().zip(a.row(r)).zip(da.row(r)) {
            *o = av * (dav - dot);
        }
    }
    ds
}

/// Segment means returning the segment lengths (for backward).
fn segment_means(x: &Matrix<f32>, m: usize) -> (Matrix<f32>, Vec<usize>) {
    let (n, d) = x.shape();
    let m = m.min(n);
    let base = n / m;
    let rem = n % m;
    let mut out = Matrix::<f32>::zeros(m, d);
    let mut lens = Vec::with_capacity(m);
    let mut row = 0usize;
    for s in 0..m {
        let len = base + usize::from(s < rem);
        lens.push(len);
        let orow = out.row_mut(s);
        for r in row..row + len {
            for (o, &v) in orow.iter_mut().zip(x.row(r)) {
                *o += v;
            }
        }
        orow.iter_mut().for_each(|v| *v /= len as f32);
        row += len;
    }
    (out, lens)
}

/// Backward of segment means: each row in segment s receives `g_s / len_s`.
fn scatter_segment_grad(dx: &mut Matrix<f32>, dseg: &Matrix<f32>, lens: &[usize]) {
    let mut row = 0usize;
    for (s, &len) in lens.iter().enumerate() {
        for r in row..row + len {
            let drow = dx.row_mut(r);
            for (o, &g) in drow.iter_mut().zip(dseg.row(s)) {
                *o += g / len as f32;
            }
        }
        row += len;
    }
}

/// Softmax with scaling, optionally N:M-masked (for Nyström+Dfss).
fn masked_softmax_scaled(s: &Matrix<f32>, scale: f32, pattern: Option<NmPattern>) -> Matrix<f32> {
    let mut out = s.clone();
    out.scale(scale);
    if let Some(p) = pattern {
        if out.cols().is_multiple_of(p.m()) {
            let mask = p.mask_matrix(&out);
            for r in 0..out.rows() {
                let row = out.row_mut(r);
                for (c, x) in row.iter_mut().enumerate() {
                    if mask.get(r, c) == 0.0 {
                        *x = f32::NEG_INFINITY;
                    }
                }
            }
        }
    }
    for r in 0..out.rows() {
        math::softmax_row(out.row_mut(r));
    }
    out
}

/// FAVOR+ feature map (training variant, f32).
fn favor_features(x: &Matrix<f32>, w: &Matrix<f32>, d: usize) -> Matrix<f32> {
    let m = w.rows();
    let quarter = (d as f32).sqrt().sqrt();
    let proj = matmul(x, &w.transpose());
    let stab = proj
        .as_slice()
        .iter()
        .copied()
        .fold(f32::NEG_INFINITY, f32::max)
        / quarter;
    let inv_sqrt_m = 1.0 / (m as f32).sqrt();
    Matrix::from_fn(x.rows(), m, |i, j| {
        let sq: f32 = x.row(i).iter().map(|a| a * a).sum::<f32>() / (2.0 * (d as f32).sqrt());
        ((proj.get(i, j) / quarter - sq - stab + 1e-6).exp()) * inv_sqrt_m
    })
}

/// Backward through the FAVOR+ feature map (stabiliser treated as constant).
fn favor_backward(
    x: &Matrix<f32>,
    phi: &Matrix<f32>,
    dphi: &Matrix<f32>,
    w: &Matrix<f32>,
    d: usize,
) -> Matrix<f32> {
    let quarter = (d as f32).sqrt().sqrt();
    // dproj_ij = dphi_ij · phi_ij (through exp), scaled by 1/d^¼ on x.
    let dproj = Matrix::from_fn(phi.rows(), phi.cols(), |i, j| {
        dphi.get(i, j) * phi.get(i, j)
    });
    let mut dx = matmul(&dproj, w);
    dx.scale(1.0 / quarter);
    // sq_i = ‖x_i‖²/(2√d): dsq_i = −Σ_j dphi_ij φ_ij; dx_i += dsq_i · x_i/√d.
    for i in 0..x.rows() {
        let dsq: f32 = -dproj.row(i).iter().sum::<f32>();
        let drow = dx.row_mut(i);
        for (o, &xv) in drow.iter_mut().zip(x.row(i)) {
            *o += dsq * xv / (d as f32).sqrt();
        }
    }
    dx
}

/// Orthogonal random features (shared with the inference implementation in
/// dfss-core; duplicated here to keep the training stack self-contained).
pub fn orthogonal_features(m: usize, d: usize, rng: &mut Rng) -> Matrix<f32> {
    let mut w = Matrix::<f32>::zeros(m, d);
    let mut done = 0usize;
    while done < m {
        let rows = d.min(m - done);
        let mut block: Vec<Vec<f32>> = (0..rows)
            .map(|_| (0..d).map(|_| rng.normal(0.0, 1.0)).collect())
            .collect();
        for i in 0..rows {
            for j in 0..i {
                let dot: f32 = block[i].iter().zip(&block[j]).map(|(a, b)| a * b).sum();
                let (lo, hi) = block.split_at_mut(i);
                for (a, &b) in hi[0].iter_mut().zip(&lo[j]) {
                    *a -= dot * b;
                }
            }
            let norm: f32 = block[i].iter().map(|a| a * a).sum::<f32>().sqrt();
            block[i].iter_mut().for_each(|a| *a /= norm.max(1e-9));
        }
        for row in block.iter_mut() {
            let chi: f32 = (0..d)
                .map(|_| {
                    let g = rng.normal(0.0, 1.0);
                    g * g
                })
                .sum::<f32>()
                .sqrt();
            row.iter_mut().for_each(|a| *a *= chi);
        }
        for (bi, row) in block.iter().enumerate() {
            w.row_mut(done + bi).copy_from_slice(row);
        }
        done += rows;
    }
    w
}

/// Iterative pseudo-inverse (training copy, stop-grad in backward).
fn iterative_pinv(a: &Matrix<f32>, iters: usize) -> Matrix<f32> {
    let m = a.rows();
    let mut max_row = 0.0f32;
    let mut col_sums = vec![0.0f32; m];
    for r in 0..m {
        let mut s = 0.0f32;
        for (c, &v) in a.row(r).iter().enumerate() {
            s += v.abs();
            col_sums[c] += v.abs();
        }
        max_row = max_row.max(s);
    }
    let max_col = col_sums.iter().copied().fold(0.0, f32::max);
    let mut z = a.transpose();
    z.scale(1.0 / (max_row * max_col).max(1e-9));
    let eye = |alpha: f32| Matrix::<f32>::from_fn(m, m, |r, c| if r == c { alpha } else { 0.0 });
    for _ in 0..iters {
        let az = matmul(a, &z);
        let mut t1 = eye(7.0);
        t1.axpy(-1.0, &az);
        let mut t2 = eye(15.0);
        t2.axpy(-1.0, &matmul(&az, &t1));
        let mut t3 = eye(13.0);
        t3.axpy(-1.0, &matmul(&az, &t2));
        z = matmul(&z, &t3);
        z.scale(0.25);
    }
    z
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mha(kind: AttnKind, d: usize, heads: usize, n: usize, seed: u64) -> MultiHeadAttention {
        let mut rng = Rng::new(seed);
        MultiHeadAttention::new(kind, d, heads, n, &mut rng)
    }

    fn loss_of(y: &Matrix<f32>, r: &Matrix<f32>) -> f32 {
        y.as_slice()
            .iter()
            .zip(r.as_slice())
            .map(|(a, b)| a * b)
            .sum()
    }

    /// Finite-difference check of dx for any MHA configuration.
    fn check_dx(kind: AttnKind, n: usize, d: usize, heads: usize, tol: f32) {
        let mut m = mha(kind, d, heads, n, 7);
        let mut rng = Rng::new(11);
        let x = Matrix::random_normal(n, d, 0.0, 0.5, &mut rng);
        let rmat = Matrix::<f32>::random_normal(n, d, 0.0, 1.0, &mut rng);
        let _y = m.forward(&x, true, false);
        let dx = m.backward(&rmat);
        let h = 2e-3;
        // Spot-check a handful of coordinates (full check is O(n·d) forwards).
        for &(r, c) in &[(0usize, 0usize), (1, d - 1), (n - 1, d / 2), (n / 2, 1)] {
            let mut xp = x.clone();
            xp.set(r, c, x.get(r, c) + h);
            let mut xm = x.clone();
            xm.set(r, c, x.get(r, c) - h);
            let yp = m.forward(&xp, false, false);
            let ym = m.forward(&xm, false, false);
            let fd = (loss_of(&yp, &rmat) - loss_of(&ym, &rmat)) / (2.0 * h);
            assert!(
                (fd - dx.get(r, c)).abs() < tol * (1.0 + fd.abs()),
                "{kind:?} ({r},{c}): fd {fd} vs analytic {}",
                dx.get(r, c)
            );
        }
    }

    #[test]
    fn full_attention_gradcheck() {
        check_dx(AttnKind::Full, 8, 8, 2, 3e-2);
    }

    #[test]
    fn dfss_1_2_gradcheck() {
        check_dx(AttnKind::Nm(NmPattern::P1_2), 8, 8, 2, 3e-2);
    }

    #[test]
    fn dfss_2_4_gradcheck() {
        check_dx(AttnKind::Nm(NmPattern::P2_4), 8, 8, 2, 3e-2);
    }

    #[test]
    fn local_gradcheck() {
        check_dx(AttnKind::Local(4), 8, 8, 2, 3e-2);
    }

    /// The BigBird keep-mask's active column blocks per row block, checking
    /// on the way that the mask is constant over every block.
    fn bigbird_blocks(n: usize, block: usize, seed: u64) -> Vec<Vec<usize>> {
        let scores = Matrix::<f32>::zeros(n, n);
        let mask = build_mask(
            &AttnKind::BigBird { block, seed },
            &scores,
            &scores,
            &scores,
        );
        let blocks = n / block;
        let active: Vec<Vec<usize>> = (0..blocks)
            .map(|rb| {
                let row = mask.row(rb * block);
                (0..blocks).filter(|&cb| row[cb * block] == 1.0).collect()
            })
            .collect();
        for r in 0..n {
            for c in 0..n {
                let expect = r >= blocks * block
                    || c >= blocks * block
                    || active[r / block].contains(&(c / block));
                assert_eq!(mask.get(r, c) == 1.0, expect, "n = {n}: ({r}, {c})");
            }
        }
        active
    }

    #[test]
    fn bigbird_contains_global_and_diagonal() {
        let active = bigbird_blocks(256, 32, 1);
        assert_eq!(active.len(), 8);
        for (rb, blocks) in active.iter().enumerate() {
            assert_eq!(blocks.len(), 6, "row block {rb}");
            assert!(blocks.contains(&0), "global block, row block {rb}");
            assert!(blocks.contains(&rb), "diagonal block, row block {rb}");
        }
    }

    /// Table 4's BigBird row (block 8, seed 13) at n = 64, and with a
    /// ragged tail that attends globally: the seeded random blocks are
    /// pinned, so a change in the order of the draws fails here.
    #[test]
    fn bigbird_mask_pins_table4_draws() {
        let want: Vec<Vec<usize>> = vec![
            vec![0, 1, 2, 4, 6, 7],
            vec![0, 1, 2, 3, 5, 6],
            vec![0, 1, 2, 3, 5, 6],
            vec![0, 2, 3, 4, 5, 6],
            vec![0, 2, 3, 4, 5, 7],
            vec![0, 3, 4, 5, 6, 7],
            vec![0, 3, 4, 5, 6, 7],
            vec![0, 2, 4, 5, 6, 7],
        ];
        for n in [64, 68] {
            assert_eq!(bigbird_blocks(n, 8, 13), want, "n = {n}");
        }
    }

    #[test]
    fn linformer_gradcheck() {
        check_dx(AttnKind::Linformer { proj: 4 }, 8, 8, 2, 3e-2);
    }

    #[test]
    fn performer_gradcheck() {
        check_dx(
            AttnKind::Performer {
                features: 32,
                seed: 5,
            },
            8,
            8,
            2,
            6e-2,
        );
    }

    #[test]
    fn nystrom_runs_forward_backward() {
        // Z is stop-grad, so no exact FD check — but shapes and finiteness
        // must hold and the gradient must be non-trivial.
        let mut m = mha(AttnKind::Nystrom { landmarks: 4 }, 8, 2, 16, 3);
        let mut rng = Rng::new(4);
        let x = Matrix::random_normal(16, 8, 0.0, 0.5, &mut rng);
        let y = m.forward(&x, true, false);
        assert_eq!(y.shape(), (16, 8));
        let dx = m.backward(&Matrix::from_fn(16, 8, |_, _| 1.0));
        assert!(dx.as_slice().iter().all(|v| v.is_finite()));
        assert!(dx.frobenius_norm() > 1e-6);
    }

    #[test]
    fn mask_family_masks_have_correct_density() {
        let mut rng = Rng::new(5);
        let s = Matrix::random_normal(16, 16, 0.0, 1.0, &mut rng);
        let q = Matrix::random_normal(16, 8, 0.0, 1.0, &mut rng);
        let k = Matrix::random_normal(16, 8, 0.0, 1.0, &mut rng);
        let m12 = build_mask(&AttnKind::Nm(NmPattern::P1_2), &s, &q, &k);
        assert_eq!(m12.as_slice().iter().filter(|&&x| x == 1.0).count(), 128);
        let mt = build_mask(&AttnKind::TopK(4), &s, &q, &k);
        assert_eq!(mt.as_slice().iter().filter(|&&x| x == 1.0).count(), 64);
        let mf = build_mask(&AttnKind::FixedPrefix(0.25), &s, &q, &k);
        assert_eq!(mf.as_slice().iter().filter(|&&x| x == 1.0).count(), 64);
    }

    #[test]
    fn longformer_mask_includes_global_tokens() {
        let mut rng = Rng::new(6);
        let s = Matrix::random_normal(16, 16, 0.0, 1.0, &mut rng);
        let q = Matrix::random_normal(16, 8, 0.0, 1.0, &mut rng);
        let k = q.clone();
        let m = build_mask(
            &AttnKind::Longformer {
                window: 4,
                global_tokens: 2,
            },
            &s,
            &q,
            &k,
        );
        // Global rows/cols fully on.
        for i in 0..16 {
            assert_eq!(m.get(0, i), 1.0);
            assert_eq!(m.get(i, 1), 1.0);
        }
        // A distant non-global pair is off.
        assert_eq!(m.get(10, 15), 0.0);
    }

    #[test]
    fn group_masks_are_symmetric_blocks() {
        let mask = group_mask(6, &[vec![0, 2], vec![1, 3, 4], vec![5]]);
        assert_eq!(mask.get(0, 2), 1.0);
        assert_eq!(mask.get(2, 0), 1.0);
        assert_eq!(mask.get(1, 4), 1.0);
        assert_eq!(mask.get(0, 1), 0.0);
        assert_eq!(mask.get(5, 5), 1.0);
    }

    #[test]
    fn bf16_forward_runs() {
        let mut m = mha(AttnKind::Nm(NmPattern::P2_4), 8, 2, 16, 8);
        let mut rng = Rng::new(9);
        let x = Matrix::random_normal(16, 8, 0.0, 0.5, &mut rng);
        let y32 = m.forward(&x, false, false);
        let y16 = m.forward(&x, false, true);
        // bf16 rounding perturbs but does not destroy the output.
        let diff = y32.zip_with(&y16, |a, b| a - b);
        let rel = diff.frobenius_norm() / y32.frobenius_norm().max(1e-9);
        assert!(rel < 0.1, "bf16 perturbation too large: {rel}");
        assert!(rel > 0.0, "bf16 should differ from f32");
    }

    #[test]
    fn swapping_kind_is_one_line() {
        // The Figure 3 pitch: same model, one-field change.
        let mut rng = Rng::new(10);
        // Concentrated inputs: with random *untrained* weights the attention
        // rows are near-uniform and pruning half the entries moves the
        // output a lot; scaling the inputs concentrates the softmax like a
        // trained model's attention, which is the regime of the paper's
        // claim.
        let x = Matrix::random_normal(16, 8, 0.0, 2.0, &mut rng);
        let mut dense = mha(AttnKind::Full, 8, 2, 16, 42);
        let mut sparse = mha(AttnKind::Full, 8, 2, 16, 42);
        sparse.kind = AttnKind::Nm(NmPattern::P1_2); // the one-line change
        let yd = dense.forward(&x, false, false);
        let ys = sparse.forward(&x, false, false);
        // Same weights (same seed) → outputs close but not identical.
        let rel = yd.zip_with(&ys, |a, b| a - b).frobenius_norm() / yd.frobenius_norm();
        assert!(rel < 1.0, "Dfss should approximate dense: {rel}");
        assert!(rel > 0.0);
    }
}
