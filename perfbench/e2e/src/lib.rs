//! The repository benchmark's end-to-end runner, as a library so the
//! per-layer probes replay exactly the same seeded inputs.
//!
//! Three workloads, each driving one part of the stack hard:
//!
//! * [`attn`] — `attn_batched`: `Attention::forward_batched` for Dfss 1:2,
//!   Dfss 2:4 and Full on identical inputs (kernels and mechanism only).
//! * [`serve`] — `serve_mixed`: a 16-stream decode fleet plus an open-loop
//!   prefill stream through an in-process continuous `AttentionServer`.
//! * [`http_front`] — `http_front`: the same server behind `HttpServer`,
//!   driven by keep-alive `HttpClient` connections.
//!
//! Everything is measured from outside the program: the runner times calls
//! into public functions and reads only what the public API returns.

pub mod attn;
pub mod http_front;
pub mod inputs;
pub mod report;
pub mod serve;
pub mod stats;
pub mod trace;

use report::Metric;

/// What one timed run of a workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The workload's end-to-end metrics (set-up time and memory are added
    /// by the caller, which owns the set-up repetitions).
    pub metrics: Vec<Metric>,
    /// Operations attempted in the timed region.
    pub attempted: u64,
    /// Operations that returned a typed error or a wrong status.
    pub failed: u64,
    /// Sampled outputs that differed, bit for bit, from solo compute.
    pub mismatches: u64,
    /// Sampled outputs that were checked.
    pub checked: u64,
    /// Per-layer numbers, collected only when the caller asks for them.
    pub layers: Vec<Metric>,
    /// Numbers worth recording that no bound guards.
    pub extras: Vec<Metric>,
}

/// The workloads, by their command-line names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// See [`attn`].
    AttnBatched,
    /// See [`serve`].
    ServeMixed,
    /// See [`http_front`].
    HttpFront,
}

impl Workload {
    /// Parse a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "attn_batched" => Some(Workload::AttnBatched),
            "serve_mixed" => Some(Workload::ServeMixed),
            "http_front" => Some(Workload::HttpFront),
            _ => None,
        }
    }

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AttnBatched => "attn_batched",
            Workload::ServeMixed => "serve_mixed",
            Workload::HttpFront => "http_front",
        }
    }
}
