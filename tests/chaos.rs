//! Deterministic chaos harness: random interleaved serving traffic with a
//! random seeded [`FaultPlan`], asserting the fault-tolerance contract
//! end to end:
//!
//! - **No hang**: every handle resolves within a bounded wait, whatever
//!   faults fired.
//! - **Typed failures**: a request only ever fails with a typed
//!   [`ServeError`] — injected panics surface as `BatchPanicked`, injected
//!   pool exhaustion as `KvBudgetExhausted` at admission; nothing else.
//! - **Isolation + recovery**: requests that succeed are **bit-identical**
//!   to fault-free solo computation against a host-side model of each
//!   session's cache at submission time — including every request served
//!   *after* a panic poisoned an earlier batch. Odd seeds store the KV
//!   cache bf16-quantised; their model holds each admitted row rounded
//!   through bf16, and the decode must match that host-widen model.
//! - **Reconciliation**: after closing every session, lifetime counters
//!   balance (`kv_pages_allocated == kv_pages_freed`) and the stats agree
//!   with the per-handle outcomes.

use dfss::prelude::*;
use dfss_serve::{
    AttentionServer, BatchPolicy, DecodeRequest, FaultKind, FaultPlan, KvConfig, KvDtype,
    ServeError,
};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// Bounded wait: long enough that a live server always answers, short
/// enough that a hang fails the test instead of wedging CI.
const NO_HANG: Duration = Duration::from_secs(30);

fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn chaos_faults_stay_isolated_typed_and_reconciled(
        seed in 0u64..10_000,
        ops in proptest::collection::vec(0usize..8, 24),
        // Fault schedule: front-door ordinals (two ops per stream element
        // at most, so they land in 0..48) paired positionally with kinds —
        // panic / slow-launch / pool exhaustion. KillServer has its own
        // targeted unit test; here the server must stay *up*.
        fault_ops in proptest::collection::vec(0u64..48, 6),
        fault_kinds in proptest::collection::vec(0usize..3, 6),
    ) {
        let mech_dfss = DfssAttention::new(NmPattern::P1_2);
        let mech_full = FullAttention;
        let mech: Arc<dyn Attention<f32> + Send + Sync> = if seed % 3 == 0 {
            Arc::new(mech_full)
        } else {
            Arc::new(mech_dfss)
        };
        let mut plan = FaultPlan::new();
        for (&op, &kind) in fault_ops.iter().zip(&fault_kinds) {
            let kind = match kind {
                0 => FaultKind::PanicInBatch,
                1 => FaultKind::SlowLaunch(Duration::from_millis(1)),
                _ => FaultKind::ExhaustPool,
            };
            plan = plan.inject(op, kind);
        }
        // The KV-dtype draw: odd seeds run the bf16 store.
        let kv_dtype = if seed % 2 == 1 { KvDtype::Bf16 } else { KvDtype::Native };
        let kv = KvConfig { kv_dtype, ..KvConfig::default() };
        let server = AttentionServer::start_continuous_with_kv_faults(
            Arc::clone(&mech),
            BatchPolicy::default(),
            SchedPolicy::default(),
            kv,
            plan,
        );
        // What the store holds of an admitted row: the row itself, or its
        // bf16 rounding widened back to f32.
        let stored = |m: &Matrix<f32>| match kv_dtype {
            KvDtype::Native => m.clone(),
            KvDtype::Bf16 => m.map(|x| Bf16::from_f32(x).to_f32()),
        };
        let (d, d_v) = (8usize, 8usize);
        let mut rng = Rng::new(seed);
        // Host-side model of every open session's cache, updated only on
        // session ops the server admitted (a synchronous Ok) — injected
        // exhaustion leaves both the server cache and the model untouched.
        let mut model: Vec<(dfss_serve::SessionId, Matrix<f32>, Matrix<f32>)> = Vec::new();
        let mut prefills = Vec::new();
        let mut decodes = Vec::new();
        for &op in &ops {
            match op {
                // Open + prime a session; either admission call may be
                // refused by an injected ExhaustPool.
                0 | 1 => {
                    let len = 1 + rng.below(7);
                    let k = Matrix::<f32>::random_normal(len, d, 0.0, 1.0, &mut rng);
                    let v = Matrix::<f32>::random_normal(len, d_v, 0.0, 1.0, &mut rng);
                    let Ok(s) = server.open_session(d, d_v) else { continue };
                    if server.extend(s, k.clone(), v.clone()).is_ok() {
                        model.push((s, stored(&k), stored(&v)));
                    } else {
                        // Primed nothing: retire the empty session.
                        server.close_session(s).expect("open session closes");
                    }
                }
                // Append one row to a random open session.
                2 | 3 => {
                    if model.is_empty() { continue; }
                    let i = rng.below(model.len());
                    let k_row: Vec<f32> = (0..d).map(|_| rng.normal(0.0, 1.0)).collect();
                    let v_row: Vec<f32> = (0..d_v).map(|_| rng.normal(0.0, 1.0)).collect();
                    if server.append(model[i].0, k_row.clone(), v_row.clone()).is_ok() {
                        let (_, k, v) = &mut model[i];
                        *k = k.vstack(&stored(&Matrix::from_vec(1, d, k_row)));
                        *v = v.vstack(&stored(&Matrix::from_vec(1, d_v, v_row)));
                    }
                }
                // Decode on a random open session; the expected output is a
                // fault-free solo decode over the model's cache snapshot.
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
                        .expect("admission has no injected failure mode for decode");
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
                    prefills.push((server.submit(q, k, v).expect("valid request"), want));
                }
            }
        }
        // No hang, typed failures, bit-identical successes — including
        // everything served after a poisoned batch.
        let mut ok_prefills = 0u64;
        let mut panicked = 0u64;
        for (i, (handle, want)) in prefills.into_iter().enumerate() {
            match handle.wait_timeout(NO_HANG) {
                Ok(served) => {
                    ok_prefills += 1;
                    prop_assert!(
                        bits_equal(served.output.as_slice(), want.as_slice()),
                        "prefill {} diverged from fault-free solo forward", i
                    );
                }
                Err(ServeError::BatchPanicked { payload }) => {
                    panicked += 1;
                    prop_assert!(payload.contains("injected kernel panic"));
                }
                Err(other) => {
                    return Err(TestCaseError::fail(format!(
                        "prefill {i} failed untyped-ly for this plan: {other}"
                    )));
                }
            }
        }
        let mut ok_decodes = 0u64;
        for (i, (handle, want, len_at_submit)) in decodes.into_iter().enumerate() {
            match handle.wait_timeout(NO_HANG) {
                Ok(served) => {
                    ok_decodes += 1;
                    prop_assert_eq!(served.cached_len, len_at_submit);
                    prop_assert!(
                        bits_equal(served.output.as_slice(), want.as_slice()),
                        "decode {} diverged from fault-free solo decode", i
                    );
                }
                Err(ServeError::BatchPanicked { payload }) => {
                    panicked += 1;
                    prop_assert!(payload.contains("injected kernel panic"));
                }
                Err(other) => {
                    return Err(TestCaseError::fail(format!(
                        "decode {i} failed untyped-ly for this plan: {other}"
                    )));
                }
            }
        }
        // Close everything, then the books must balance.
        for (s, _, _) in model {
            server.close_session(s).expect("close");
        }
        let stats = server.shutdown();
        prop_assert_eq!(stats.served, ok_prefills);
        prop_assert_eq!(stats.decode_steps, ok_decodes);
        prop_assert_eq!(stats.rejected, 0);
        // Pages must not leak across faults, and the handle outcomes must
        // agree with the server's panic counter.
        prop_assert_eq!(stats.kv_pages_allocated, stats.kv_pages_freed);
        prop_assert_eq!(panicked > 0, stats.batch_panics > 0);
    }
}
