//! The workloads' fixed shapes and rates, and their seeded inputs.
//!
//! Rates and shapes are constants, never re-measured per run, so a parent
//! commit and a change see identical traffic for the same seed. The probes
//! build their inputs through these same functions.

use dfss_core::dfss::DfssAttention;
use dfss_core::full::FullAttention;
use dfss_core::mechanism::Attention;
use dfss_nmsparse::NmPattern;
use dfss_serve::sched::SchedPolicy;
use dfss_serve::{AttentionServer, BatchPolicy, KvConfig};
use dfss_tensor::{BatchedMatrix, Matrix, Rng};
use std::sync::Arc;
use std::time::Duration;

/// Head width of every workload.
pub const D: usize = 64;

/// `(n, B×H)` of the `attn_batched` calls: enough heads per call that each
/// runs for tens of milliseconds on a two-core host.
pub const ATTN_SHAPES: [(usize, usize); 3] = [(512, 16), (1024, 8), (4096, 1)];

/// The `attn_batched` mechanisms, by metric name.
pub const ATTN_MECHS: [&str; 3] = ["dfss12", "dfss24", "full"];

/// Concurrent decode sessions in `serve_mixed`.
pub const FLEET: usize = 16;
/// Shortest prompt of a decode session; lengths spread over
/// `PROMPT_MIN..PROMPT_MIN + PROMPT_SPREAD` around 1024.
pub const PROMPT_MIN: usize = 961;
/// Width of the prompt-length spread.
pub const PROMPT_SPREAD: usize = 128;
/// Fewest tokens a session decodes before it closes and a fresh one opens.
pub const QUOTA_MIN: usize = 64;
/// Width of the token-quota spread.
pub const QUOTA_SPREAD: usize = 64;
/// Prefill lengths of the open-loop stream.
pub const PREFILL_NS: [usize; 2] = [512, 1024];
/// Prefill arrivals per second, half of each length. Fixed: at about 13 ms
/// of host work per prefill this is a modest share of a two-core host.
pub const PREFILL_PER_S: usize = 8;
/// Distinct prefill inputs per length (requests cycle through them).
pub const PREFILL_POOL: usize = 4;

/// Prompt rows a `http_front` session appends as one block.
pub const HTTP_PROMPT: usize = 256;
/// Tokens a `http_front` session decodes.
pub const HTTP_TOKENS: usize = 32;
/// `n` of the `http_front` prefill.
pub const HTTP_PREFILL_N: usize = 256;
/// Distinct prompt and prefill bodies per connection.
pub const HTTP_POOL: usize = 2;

/// Rows per prefill chunk and rows per iteration of the continuous
/// scheduler (its defaults).
pub fn sched_policy() -> SchedPolicy {
    SchedPolicy::default()
}

/// KV geometry: 1024-element pages (16 rows of width 64), a budget no
/// workload reaches, no eviction.
pub fn kv_config() -> KvConfig {
    KvConfig::default()
}

/// The serving mechanism: Dfss 1:2 (the paper's float configuration).
pub fn serving_mech() -> Arc<dyn Attention<f32> + Send + Sync> {
    Arc::new(DfssAttention::new(NmPattern::P1_2))
}

/// The `attn_batched` mechanisms, in [`ATTN_MECHS`] order.
pub fn attn_mechs() -> Vec<Box<dyn Attention<f32> + Send + Sync>> {
    vec![
        Box::new(DfssAttention::new(NmPattern::P1_2)),
        Box::new(DfssAttention::new(NmPattern::P2_4)),
        Box::new(FullAttention),
    ]
}

/// The continuous-scheduler server both serving workloads run.
pub fn start_server() -> AttentionServer<f32> {
    AttentionServer::start_continuous_with_kv(
        serving_mech(),
        BatchPolicy::batched(FLEET, Duration::from_millis(1)),
        sched_policy(),
        kv_config(),
    )
}

/// An independent generator for one purpose of one seed.
pub fn rng(seed: u64, purpose: u64) -> Rng {
    Rng::new(seed).fork(purpose)
}

/// Stream tags for [`rng`].
pub mod purpose {
    /// `attn_batched` inputs (forked once more per shape).
    pub const ATTN: u64 = 1;
    /// `serve_mixed` prompts and prefill inputs.
    pub const SERVE_POOL: u64 = 2;
    /// `serve_mixed`'s initial fleet.
    pub const SERVE_FLEET: u64 = 3;
    /// `serve_mixed` session lifecycle and token rows after priming.
    pub const LIFECYCLE: u64 = 7;
    /// `serve_mixed` prefill arrival schedule.
    pub const ARRIVALS: u64 = 4;
    /// `http_front` bodies (forked once more per connection).
    pub const HTTP: u64 = 5;
    /// Which outputs the checks sample.
    pub const CHECK: u64 = 6;
}

/// A `rows × cols` matrix of standard normals.
pub fn normal(rng: &mut Rng, rows: usize, cols: usize) -> Matrix<f32> {
    Matrix::random_normal(rows, cols, 0.0, 1.0, rng)
}

/// A row of `D` standard normals.
pub fn normal_row(rng: &mut Rng) -> Vec<f32> {
    (0..D).map(|_| rng.normal(0.0, 1.0)).collect()
}

/// `(Q, K, V)` stacks of one `attn_batched` shape.
pub fn attn_inputs(
    seed: u64,
    n: usize,
    bh: usize,
) -> (BatchedMatrix<f32>, BatchedMatrix<f32>, BatchedMatrix<f32>) {
    let mut rng = rng(seed, purpose::ATTN).fork(n as u64);
    let q = BatchedMatrix::random_normal(bh, n, D, 0.0, 1.0, &mut rng);
    let k = BatchedMatrix::random_normal(bh, n, D, 0.0, 1.0, &mut rng);
    let v = BatchedMatrix::random_normal(bh, n, D, 0.0, 1.0, &mut rng);
    (q, k, v)
}

/// A prompt length: odd, so it is misaligned with M = 2 and M = 4 and with
/// the 16-row pages.
pub fn prompt_len(rng: &mut Rng) -> usize {
    (PROMPT_MIN + rng.below(PROMPT_SPREAD)) | 1
}

/// Tokens a fresh session decodes before it closes.
pub fn token_quota(rng: &mut Rng) -> usize {
    QUOTA_MIN + rng.below(QUOTA_SPREAD)
}

/// A block of key rows and the matching value rows.
pub type KvBlock = (Matrix<f32>, Matrix<f32>);

/// One prefill input.
#[derive(Clone, Debug)]
pub struct Prefill {
    /// Queries, `n × D`.
    pub q: Matrix<f32>,
    /// Keys, `n × D`.
    pub k: Matrix<f32>,
    /// Values, `n × D`.
    pub v: Matrix<f32>,
}

/// `serve_mixed`'s pools: prompt K/V blocks (each `PROMPT_MIN +
/// PROMPT_SPREAD` rows, sliced to a session's length) and prefill inputs
/// (`PREFILL_POOL` per length, lengths interleaved).
pub fn serve_pools(seed: u64) -> (Vec<KvBlock>, Vec<Prefill>) {
    let mut rng = rng(seed, purpose::SERVE_POOL);
    let rows = PROMPT_MIN + PROMPT_SPREAD;
    let prompts = (0..4)
        .map(|_| (normal(&mut rng, rows, D), normal(&mut rng, rows, D)))
        .collect();
    let prefills = (0..PREFILL_POOL)
        .flat_map(|_| PREFILL_NS)
        .map(|n| Prefill {
            q: normal(&mut rng, n, D),
            k: normal(&mut rng, n, D),
            v: normal(&mut rng, n, D),
        })
        .collect();
    (prompts, prefills)
}

/// The open-loop prefill schedule: `(due offset in seconds, prefill pool
/// index)` covering `horizon_s`. Each second holds exactly
/// [`PREFILL_PER_S`] arrivals at independent uniform times — a Poisson
/// process conditioned on its count per second, so every seed offers the
/// same load — and the two lengths alternate in a seeded order.
pub fn arrivals(seed: u64, horizon_s: f64) -> Vec<(f64, usize)> {
    let mut rng = rng(seed, purpose::ARRIVALS);
    let mut out = Vec::new();
    for sec in 0..horizon_s.ceil() as usize {
        let mut lens: Vec<usize> = (0..PREFILL_PER_S).map(|j| j % PREFILL_NS.len()).collect();
        for j in (1..lens.len()).rev() {
            lens.swap(j, rng.below(j + 1));
        }
        let mut times: Vec<f64> = (0..PREFILL_PER_S)
            .map(|_| sec as f64 + rng.uniform())
            .collect();
        times.sort_by(f64::total_cmp);
        for (t, len) in times.into_iter().zip(lens) {
            let idx = rng.below(PREFILL_POOL) * PREFILL_NS.len() + len;
            out.push((t, idx));
        }
    }
    out
}

/// The decode fleet as `serve_mixed` primes it: each session's prompt K/V
/// (ragged lengths) and one query row per session.
#[derive(Debug)]
pub struct Fleet {
    /// Prompt keys per session.
    pub k: Vec<Matrix<f32>>,
    /// Prompt values per session.
    pub v: Vec<Matrix<f32>>,
    /// One query row per session, `FLEET × D`.
    pub q: Matrix<f32>,
}

impl Fleet {
    /// The fleet of `seed`.
    pub fn new(seed: u64) -> Fleet {
        Fleet::from_pool(seed, &serve_pools(seed).0)
    }

    /// The fleet of `seed`, slicing prompts from an already built pool.
    pub fn from_pool(seed: u64, prompts: &[KvBlock]) -> Fleet {
        let mut rng = rng(seed, purpose::SERVE_FLEET);
        let mut k = Vec::with_capacity(FLEET);
        let mut v = Vec::with_capacity(FLEET);
        for _ in 0..FLEET {
            let (pk, pv) = fresh_prompt(&mut rng, prompts);
            k.push(pk);
            v.push(pv);
        }
        let q = normal(&mut rng, FLEET, D);
        Fleet { k, v, q }
    }
}

/// The prompt K/V of a fresh session: a seeded length, sliced from a
/// seeded pool entry.
pub fn fresh_prompt(rng: &mut Rng, prompts: &[KvBlock]) -> KvBlock {
    let len = prompt_len(rng);
    let (pk, pv) = &prompts[rng.below(prompts.len())];
    (head_rows(pk, len), head_rows(pv, len))
}

/// The first `rows` rows of `m`.
pub fn head_rows(m: &Matrix<f32>, rows: usize) -> Matrix<f32> {
    Matrix::from_vec(rows, m.cols(), m.as_slice()[..rows * m.cols()].to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_hold_a_fixed_balanced_count_per_second() {
        let a = arrivals(7, 5.0);
        assert_eq!(a.len(), 5 * PREFILL_PER_S);
        assert_eq!(a, arrivals(7, 5.0), "same seed, same schedule");
        for sec in 0..5 {
            let this: Vec<_> = a.iter().filter(|(t, _)| *t as usize == sec).collect();
            assert_eq!(this.len(), PREFILL_PER_S);
            let long = this
                .iter()
                .filter(|(_, i)| i % PREFILL_NS.len() == 1)
                .count();
            assert_eq!(long, PREFILL_PER_S / 2);
        }
        assert!(a.windows(2).all(|w| w[0].0 <= w[1].0), "due times ascend");
    }

    #[test]
    fn prompt_lengths_are_odd_and_around_1024() {
        let mut r = rng(3, purpose::SERVE_FLEET);
        for _ in 0..100 {
            let len = prompt_len(&mut r);
            assert_eq!(len % 2, 1);
            assert!((PROMPT_MIN..PROMPT_MIN + PROMPT_SPREAD + 1).contains(&len));
        }
    }
}
