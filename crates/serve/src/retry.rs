//! Retry with jittered exponential backoff for transient serving errors.
//!
//! Load shedding ([`ServeError::Overloaded`], [`SessionError::Overloaded`])
//! and KV back-pressure ([`SessionError::KvBudgetExhausted`]) are
//! *transient*: the condition clears as the worker drains the queue or
//! other sessions close. [`with_backoff`] wraps an operation so those
//! errors are retried on a capped exponential schedule with **full
//! jitter** (each sleep is drawn uniformly from `[0, cap(base · 2ᵃ)]`,
//! the de-synchronising schedule that keeps a thundering herd of shed
//! clients from re-converging on the same instant), while every
//! non-transient error — and a transient one on the final attempt —
//! returns immediately. Jitter is drawn from a seeded [`Rng`], so a
//! given `(policy, seed)` retries on an identical schedule every run:
//! the chaos harness can assert on retried outcomes deterministically.
//!
//! ```
//! use dfss_serve::retry::{with_backoff, Backoff};
//! use dfss_serve::ServeError;
//! use std::time::Duration;
//!
//! let mut calls = 0;
//! let out: Result<u32, ServeError> = with_backoff(Backoff::quick(3), || {
//!     calls += 1;
//!     if calls < 3 {
//!         Err(ServeError::Overloaded { depth: 8 })
//!     } else {
//!         Ok(42)
//!     }
//! });
//! assert_eq!(out, Ok(42));
//! assert_eq!(calls, 3);
//! ```
//!
//! [`ServeError::Overloaded`]: crate::ServeError::Overloaded
//! [`SessionError::Overloaded`]: crate::SessionError::Overloaded
//! [`SessionError::KvBudgetExhausted`]: crate::SessionError::KvBudgetExhausted

use crate::http::HttpClientError;
use crate::{ServeError, SessionError};
use dfss_tensor::Rng;
use std::time::Duration;

/// Whether an error is worth retrying: the refusal reflects a momentary
/// resource condition, not a property of the request itself.
pub trait Transient {
    /// `true` when a later identical call could succeed without any
    /// change to the request.
    fn is_transient(&self) -> bool;
}

impl Transient for ServeError {
    fn is_transient(&self) -> bool {
        matches!(self, ServeError::Overloaded { .. })
    }
}

impl Transient for SessionError {
    fn is_transient(&self) -> bool {
        matches!(
            self,
            SessionError::Overloaded { .. } | SessionError::KvBudgetExhausted { .. }
        )
    }
}

/// The wire-level view of the same contract: a `503` is a shed
/// (connection cap, queue overload, or KV back-pressure — all of which
/// clear) and a `408` is a tripped read deadline; both are worth
/// retrying. Every other status reflects the request itself, and a
/// transport failure means there is no server answer to classify.
///
/// A full client retry loop against a server with an injected pool
/// exhaustion — the first append is shed with `503 Retry-After`, the
/// retry succeeds:
///
/// ```
/// use dfss_core::full::FullAttention;
/// use dfss_serve::http::{HttpClient, HttpConfig, HttpServer};
/// use dfss_serve::retry::{with_backoff, Backoff};
/// use dfss_serve::wire::Json;
/// use dfss_serve::{AttentionServer, BatchPolicy, FaultKind, FaultPlan};
/// use std::sync::Arc;
///
/// // Operation 0 is the open; operation 1 (the first append) is
/// // admitted as if the KV pool had zero free pages.
/// let att = AttentionServer::<f32>::start_with_faults(
///     Arc::new(FullAttention),
///     BatchPolicy::default(),
///     FaultPlan::new().inject(1, FaultKind::ExhaustPool),
/// );
/// let server = HttpServer::bind(att, HttpConfig::default()).unwrap();
/// let mut client = HttpClient::connect(server.local_addr());
///
/// let opened = client
///     .call("POST", "/v1/sessions", Some(&Json::obj(vec![("d", Json::Num(4.0))])))
///     .unwrap();
/// let sid = opened.get("session").unwrap().as_f64().unwrap() as u64;
/// let body = Json::obj(vec![
///     ("k_row", Json::f32_row(&[1.0; 4])),
///     ("v_row", Json::f32_row(&[2.0; 4])),
/// ]);
/// let out = with_backoff(Backoff::quick(3), || {
///     client.call("POST", &format!("/v1/sessions/{sid}/append"), Some(&body))
/// });
/// assert!(out.is_ok(), "the 503 Retry-After was transient");
/// let stats = server.shutdown();
/// assert_eq!(stats.kv_rows_appended, 1);
/// ```
impl Transient for HttpClientError {
    fn is_transient(&self) -> bool {
        matches!(
            self,
            HttpClientError::Status {
                status: 503 | 408,
                ..
            }
        )
    }
}

/// The retry schedule: attempt count, backoff base/cap, and the jitter
/// seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Backoff {
    /// Total attempts (the first call included). At least 1.
    pub attempts: u32,
    /// Backoff scale: attempt `a` (0-based) sleeps up to `base · 2ᵃ`.
    pub base: Duration,
    /// Ceiling on any single sleep.
    pub cap: Duration,
    /// Seed for the jitter draw — same seed, same schedule.
    pub seed: u64,
}

impl Backoff {
    /// A millisecond-scale schedule for in-process retries (base 1 ms,
    /// cap 50 ms).
    pub fn quick(attempts: u32) -> Backoff {
        Backoff {
            attempts,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(50),
            seed: 0x5eed,
        }
    }
}

impl Default for Backoff {
    fn default() -> Backoff {
        Backoff::quick(4)
    }
}

/// Run `op` until it succeeds, fails non-transiently, or exhausts
/// `policy.attempts`, sleeping a jittered exponential backoff between
/// transient failures. Returns the last result either way.
pub fn with_backoff<T, E: Transient>(
    policy: Backoff,
    mut op: impl FnMut() -> Result<T, E>,
) -> Result<T, E> {
    assert!(policy.attempts >= 1, "at least one attempt");
    let mut rng = Rng::new(policy.seed);
    for attempt in 0..policy.attempts {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) if e.is_transient() && attempt + 1 < policy.attempts => {
                let exp = policy
                    .base
                    .saturating_mul(1u32 << attempt.min(20))
                    .min(policy.cap);
                // Full jitter: uniform in [0, exp].
                let sleep = exp.mul_f64(rng.uniform());
                std::thread::sleep(sleep);
            }
            Err(e) => return Err(e),
        }
    }
    unreachable!("loop returns on every attempt outcome");
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfss_core::mechanism::RequestError;

    #[test]
    fn transient_errors_retry_until_success() {
        let mut calls = 0;
        let out: Result<&str, SessionError> = with_backoff(Backoff::quick(5), || {
            calls += 1;
            if calls < 4 {
                Err(SessionError::KvBudgetExhausted { need: 2, free: 0 })
            } else {
                Ok("served")
            }
        });
        assert_eq!(out, Ok("served"));
        assert_eq!(calls, 4);
    }

    #[test]
    fn non_transient_errors_return_immediately() {
        let mut calls = 0;
        let out: Result<(), ServeError> = with_backoff(Backoff::quick(5), || {
            calls += 1;
            Err(ServeError::Rejected(RequestError::EmptyRequest))
        });
        assert!(matches!(out, Err(ServeError::Rejected(_))));
        assert_eq!(calls, 1, "validation failures must not be retried");
    }

    #[test]
    fn attempts_bound_transient_retries() {
        let mut calls = 0;
        let out: Result<(), ServeError> = with_backoff(Backoff::quick(3), || {
            calls += 1;
            Err(ServeError::Overloaded { depth: 9 })
        });
        assert_eq!(out, Err(ServeError::Overloaded { depth: 9 }));
        assert_eq!(calls, 3);
    }

    #[test]
    fn transient_classification_matches_the_docs() {
        assert!(ServeError::Overloaded { depth: 1 }.is_transient());
        assert!(!ServeError::ServerGone.is_transient());
        assert!(!ServeError::WaitTimeout.is_transient());
        assert!(!ServeError::BatchPanicked {
            payload: "x".into()
        }
        .is_transient());
        assert!(SessionError::Overloaded { depth: 1 }.is_transient());
        assert!(SessionError::KvBudgetExhausted { need: 1, free: 0 }.is_transient());
        assert!(!SessionError::UnknownSession(crate::SessionId(0)).is_transient());
        assert!(!SessionError::Evicted(crate::SessionId(0)).is_transient());
    }
}
