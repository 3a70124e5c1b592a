//! Sharded multi-engine serving contract, end to end:
//!
//! - **Stable routing**: a decode session is pinned to one shard at open
//!   and never moves — its KV pages live and die on that shard.
//! - **Pinned engines**: each prefill is admitted by the least-loaded
//!   shard and served there alone — its `AdmitPrefill` lands in that
//!   shard's trace, decode steps run only on the session's shard, and
//!   outputs stay bit-identical to solo unsharded compute.
//! - **Per-shard admission**: sharded prefill goes through the chosen
//!   shard's own front door, so a malformed request is counted as
//!   `rejected` and `BatchPolicy::with_queue_depth` sheds typed
//!   `Overloaded` per shard.
//! - **Per-shard reconciliation**: after chaos-style faulted traffic on a
//!   4-shard server, every shard's lifetime page counters balance
//!   (`kv_pages_allocated == kv_pages_freed`) once all sessions close.
//! - **Shard-count invariance**: the same inputs produce bitwise equal
//!   outputs on 1-shard and 4-shard servers.

use dfss::prelude::*;
use dfss_serve::sched::SchedEvent;
use std::sync::Arc;
use std::time::Duration;

/// Bounded wait: long enough that a live server always answers, short
/// enough that a hang fails the test instead of wedging CI.
const NO_HANG: Duration = Duration::from_secs(30);

fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn full_server(shards: usize) -> ShardedServer<f32> {
    ShardedServer::start(
        Arc::new(FullAttention),
        BatchPolicy::per_request(),
        SchedPolicy::default(),
        KvConfig::default(),
        shards,
    )
}

#[test]
fn sessions_pin_to_one_shard_for_their_whole_lifetime() {
    let server = full_server(4);
    let d = 8usize;
    let mut rng = Rng::new(42);
    let mut sessions = Vec::new();
    for _ in 0..32 {
        let s = server.open_session(d, d).unwrap();
        sessions.push((s, server.shard_of(s).expect("open session is routed")));
    }
    // The hash spreads sessions over more than one shard.
    let mut used: Vec<usize> = sessions.iter().map(|&(_, shard)| shard).collect();
    used.sort_unstable();
    used.dedup();
    assert!(used.len() > 1, "32 sessions all hashed to one shard");
    // Appends and decode steps never move a session.
    for round in 0..3 {
        for &(s, home) in &sessions {
            let k_row: Vec<f32> = (0..d).map(|_| rng.normal(0.0, 1.0)).collect();
            let v_row: Vec<f32> = (0..d).map(|_| rng.normal(0.0, 1.0)).collect();
            server.append(s, k_row, v_row).unwrap();
            assert_eq!(server.shard_of(s), Some(home), "append moved the session");
            if round > 0 {
                let q_row: Vec<f32> = (0..d).map(|_| rng.normal(0.0, 1.0)).collect();
                let h = server
                    .submit_decode(DecodeRequest { session: s, q_row })
                    .unwrap();
                h.wait_timeout(NO_HANG).unwrap();
                assert_eq!(server.shard_of(s), Some(home), "decode moved the session");
            }
        }
    }
    // Decode executed exactly on the pinned shards: per-shard step counts
    // match the session routing.
    let mut expected_steps = [0u64; 4];
    for &(_, home) in &sessions {
        expected_steps[home] += 2; // rounds 1 and 2
    }
    for (i, stats) in server.stats_snapshot().iter().enumerate() {
        assert_eq!(stats.decode_steps, expected_steps[i]);
    }
    for &(s, _) in &sessions {
        server.close_session(s).unwrap();
    }
    let stats = server.shutdown();
    assert_eq!(stats.iter().map(|s| s.sessions_opened).sum::<u64>(), 32);
    assert_eq!(stats.iter().map(|s| s.sessions_closed).sum::<u64>(), 32);
    for shard in &stats {
        assert_eq!(shard.kv_pages_allocated, shard.kv_pages_freed);
    }
}

#[test]
fn least_loaded_routing_spreads_prefill_and_preserves_bit_parity() {
    let mech: Arc<dyn Attention<f32> + Send + Sync> = Arc::new(FullAttention);
    let server = ShardedServer::start(
        Arc::clone(&mech),
        BatchPolicy::per_request(),
        // Small chunks over big jobs: every prefill runs as many chunks on
        // the shard that admitted it.
        SchedPolicy::new(16, 32),
        KvConfig::default(),
        2,
    );
    let d = 32usize;
    let n = 512usize;
    let mut rng = Rng::new(7);
    // One decode session, pinned; its steps run only on its own shard.
    let session = server.open_session(d, d).unwrap();
    let home = server.shard_of(session).unwrap();
    let k_row: Vec<f32> = (0..d).map(|_| rng.normal(0.0, 1.0)).collect();
    let v_row: Vec<f32> = (0..d).map(|_| rng.normal(0.0, 1.0)).collect();
    server.append(session, k_row, v_row).unwrap();
    // A burst of big prefills: the router spreads them by queue depth,
    // rotating ties, so both shards take some.
    let mut inputs = Vec::new();
    let mut handles = Vec::new();
    for _ in 0..6 {
        let q = Matrix::<f32>::random_normal(n, d, 0.0, 1.0, &mut rng);
        let k = Matrix::<f32>::random_normal(n, d, 0.0, 1.0, &mut rng);
        let v = Matrix::<f32>::random_normal(n, d, 0.0, 1.0, &mut rng);
        handles.push(server.submit(q.clone(), k.clone(), v.clone()).unwrap());
        inputs.push((q, k, v));
    }
    let q_row: Vec<f32> = (0..d).map(|_| rng.normal(0.0, 1.0)).collect();
    let dh = server
        .submit_decode(DecodeRequest {
            session,
            q_row: q_row.clone(),
        })
        .unwrap();
    dh.wait_timeout(NO_HANG).unwrap();
    for (handle, (q, k, v)) in handles.into_iter().zip(&inputs) {
        let served = handle.wait_timeout(NO_HANG).unwrap();
        let solo = {
            let mut ctx = GpuCtx::a100();
            mech.forward(&mut ctx, q, k, v)
        };
        assert!(
            bits_equal(served.output.as_slice(), solo.as_slice()),
            "sharded (routed and chunked) output diverged from solo forward"
        );
    }
    let traces = server.sched_traces();
    server.close_session(session).unwrap();
    let stats = server.shutdown();
    // Every prefill was served exactly once, and each shard served some.
    assert_eq!(stats.iter().map(|s| s.served).sum::<u64>(), 6);
    for (i, shard) in stats.iter().enumerate() {
        assert!(shard.served >= 1, "shard {i} served no prefill");
    }
    // A prefill is admitted and served by one shard alone: each shard's
    // trace admits exactly the prefills that shard served.
    for (i, (trace, shard)) in traces.iter().zip(&stats).enumerate() {
        let admitted = trace
            .events()
            .iter()
            .filter(|e| matches!(e, SchedEvent::AdmitPrefill { .. }))
            .count() as u64;
        assert_eq!(
            admitted, shard.served,
            "shard {i} served a prefill it never admitted"
        );
    }
    // Every job needs at least ceil(n/16) chunks.
    let total_chunks: u64 = stats.iter().map(|s| s.prefill_chunks).sum();
    assert!(total_chunks >= 6 * (n as u64).div_ceil(16));
    // Decode ran only on the pinned shard.
    for (i, shard) in stats.iter().enumerate() {
        assert_eq!(shard.decode_steps, if i == home { 1 } else { 0 });
    }
}

#[test]
fn malformed_sharded_prefill_is_rejected_and_counted_by_a_shard() {
    let server = full_server(2);
    let mut rng = Rng::new(5);
    // K is narrower than Q: the chosen shard's admission check refuses it.
    let q = Matrix::<f32>::random_normal(16, 8, 0.0, 1.0, &mut rng);
    let k = Matrix::<f32>::random_normal(16, 4, 0.0, 1.0, &mut rng);
    let v = Matrix::<f32>::random_normal(16, 8, 0.0, 1.0, &mut rng);
    match server.submit(q, k, v) {
        Err(ServeError::Rejected(_)) => {}
        other => panic!("malformed prefill was not rejected typed: {other:?}"),
    }
    let live: u64 = server.stats_snapshot().iter().map(|s| s.rejected).sum();
    assert_eq!(live, 1, "the fleet's live rollup missed the rejection");
    let stats = server.shutdown();
    assert_eq!(stats.iter().map(|s| s.rejected).sum::<u64>(), 1);
    assert_eq!(stats.iter().map(|s| s.served).sum::<u64>(), 0);
}

#[test]
fn queue_depth_bound_sheds_sharded_prefill_per_shard() {
    let mech: Arc<dyn Attention<f32> + Send + Sync> = Arc::new(FullAttention);
    let server = ShardedServer::start(
        Arc::clone(&mech),
        BatchPolicy::per_request().with_queue_depth(1),
        SchedPolicy::default(),
        KvConfig::default(),
        2,
    );
    let (n, d) = (1024usize, 64usize);
    let mut rng = Rng::new(11);
    // Build every input first so the submissions go back to back.
    let inputs: Vec<_> = (0..8)
        .map(|_| {
            (
                Matrix::<f32>::random_normal(n, d, 0.0, 1.0, &mut rng),
                Matrix::<f32>::random_normal(n, d, 0.0, 1.0, &mut rng),
                Matrix::<f32>::random_normal(n, d, 0.0, 1.0, &mut rng),
            )
        })
        .collect();
    let mut handles = Vec::new();
    let mut sheds = 0u64;
    for (q, k, v) in inputs {
        match server.submit(q, k, v) {
            Ok(h) => handles.push(h),
            Err(ServeError::Overloaded { depth }) => {
                assert!(depth >= 1, "shed below the bound");
                sheds += 1;
            }
            Err(e) => panic!("unexpected admission failure: {e:?}"),
        }
    }
    assert!(
        sheds >= 1,
        "a 2-shard fleet at depth 1 admitted 8 back-to-back prefills"
    );
    let admitted = handles.len() as u64;
    for h in handles {
        h.wait_timeout(NO_HANG)
            .expect("every admitted prefill is served");
    }
    let stats = server.shutdown();
    assert_eq!(stats.iter().map(|s| s.overload_sheds).sum::<u64>(), sheds);
    assert_eq!(stats.iter().map(|s| s.served).sum::<u64>(), admitted);
}

#[test]
fn four_shard_chaos_traffic_reconciles_per_shard_page_counters() {
    let mech: Arc<dyn Attention<f32> + Send + Sync> = Arc::new(FullAttention);
    // Per-shard fault plans: early front-door ops on each shard hit
    // injected pool exhaustion and decode-batch panics.
    let plans = (0..4)
        .map(|i| {
            FaultPlan::new()
                .inject(2 + i as u64, FaultKind::ExhaustPool)
                .inject(5 + i as u64, FaultKind::PanicInBatch)
                .inject(9, FaultKind::SlowLaunch(Duration::from_millis(1)))
        })
        .collect();
    let server = ShardedServer::start_with_faults(
        Arc::clone(&mech),
        BatchPolicy::per_request(),
        SchedPolicy::new(8, 16),
        KvConfig::default(),
        4,
        plans,
    );
    let d = 8usize;
    let mut rng = Rng::new(99);
    // Host-side model of each session's cache, updated only on admitted
    // ops — the bit-parity reference for successful decodes.
    let mut sessions: Vec<(SessionId, Matrix<f32>, Matrix<f32>)> = Vec::new();
    let mut decode_outcomes = Vec::new();
    for step in 0..60 {
        match step % 4 {
            0 => {
                if let Ok(s) = server.open_session(d, d) {
                    sessions.push((s, Matrix::zeros(0, d), Matrix::zeros(0, d)));
                }
            }
            1 | 2 => {
                if sessions.is_empty() {
                    continue;
                }
                let i = rng.below(sessions.len());
                let k_row: Vec<f32> = (0..d).map(|_| rng.normal(0.0, 1.0)).collect();
                let v_row: Vec<f32> = (0..d).map(|_| rng.normal(0.0, 1.0)).collect();
                let (s, k, v) = &mut sessions[i];
                // Injected exhaustion is a typed refusal that leaves the
                // cache (and so the model) untouched.
                if server.append(*s, k_row.clone(), v_row.clone()).is_ok() {
                    *k = k.vstack(&Matrix::from_vec(1, d, k_row));
                    *v = v.vstack(&Matrix::from_vec(1, d, v_row));
                }
            }
            _ => {
                if sessions.is_empty() {
                    continue;
                }
                let i = rng.below(sessions.len());
                let (s, k, v) = &sessions[i];
                if k.rows() == 0 {
                    continue;
                }
                let q_row: Vec<f32> = (0..d).map(|_| rng.normal(0.0, 1.0)).collect();
                if let Ok(h) = server.submit_decode(DecodeRequest {
                    session: *s,
                    q_row: q_row.clone(),
                }) {
                    decode_outcomes.push((h, q_row, k.clone(), v.clone()));
                }
            }
        }
    }
    // Every handle resolves within the bound — success or typed failure.
    let mut panics = 0u64;
    for (h, q_row, k, v) in decode_outcomes {
        match h.wait_timeout(NO_HANG) {
            Ok(got) => {
                let solo = {
                    let mut ctx = GpuCtx::a100();
                    mech.decode(&mut ctx, &Matrix::from_vec(1, d, q_row), &k, &v)
                };
                assert!(
                    bits_equal(got.output.as_slice(), solo.as_slice()),
                    "faulted-traffic decode diverged from the host model"
                );
            }
            Err(ServeError::BatchPanicked { .. }) => panics += 1,
            Err(e) => panic!("untyped or unexpected decode failure: {e:?}"),
        }
    }
    for (s, _, _) in &sessions {
        server.close_session(*s).unwrap();
    }
    let stats = server.shutdown();
    // The injected panics were isolated and counted. One panicked ragged
    // launch fails *every* step packed into it typed, so the per-launch
    // counter is a lower bound, not an equality.
    let counted: u64 = stats.iter().map(|s| s.batch_panics).sum();
    assert!(
        panics == 0 || counted >= 1,
        "{panics} typed BatchPanicked replies but no shard counted a panicked launch"
    );
    // Reconciliation, per shard: all pages returned after close-all.
    for (i, shard) in stats.iter().enumerate() {
        assert_eq!(
            shard.kv_pages_allocated, shard.kv_pages_freed,
            "shard {i} leaked KV pages under faulted traffic"
        );
    }
}

#[test]
fn sharded_http_front_door_serves_and_exports_per_shard_gauges() {
    let mech: Arc<dyn Attention<f32> + Send + Sync> = Arc::new(FullAttention);
    let fleet = ShardedServer::start(
        Arc::clone(&mech),
        BatchPolicy::per_request(),
        SchedPolicy::new(8, 16),
        KvConfig::default(),
        2,
    );
    let http = HttpServer::bind(
        {
            // bind_sharded is the sharded twin of bind; exercise it by
            // name below — this block only builds the single-engine
            // control used for the route-parity comparison.
            AttentionServer::start(Arc::clone(&mech), BatchPolicy::per_request())
        },
        HttpConfig::default(),
    )
    .unwrap();
    let control_addr = http.local_addr();
    let sharded = HttpServer::bind_sharded(fleet, HttpConfig::default()).unwrap();
    let addr = sharded.local_addr();
    let d = 8usize;
    let mut rng = Rng::new(31);
    let row_json = |row: &[f32]| WireJson::f32_row(row);
    let matrix_json = |m: &Matrix<f32>| {
        WireJson::Arr(
            (0..m.rows())
                .map(|i| row_json(&m.as_slice()[i * m.cols()..(i + 1) * m.cols()]))
                .collect(),
        )
    };
    // Prefill through both front doors must agree bitwise (the sharded
    // path chunks on one shard; the control serves whole).
    let q = Matrix::<f32>::random_normal(24, d, 0.0, 1.0, &mut rng);
    let k = Matrix::<f32>::random_normal(24, d, 0.0, 1.0, &mut rng);
    let v = Matrix::<f32>::random_normal(24, d, 0.0, 1.0, &mut rng);
    let body = WireJson::obj(vec![
        ("q", matrix_json(&q)),
        ("k", matrix_json(&k)),
        ("v", matrix_json(&v)),
    ]);
    let mut client = HttpClient::connect(addr).with_timeout(NO_HANG);
    let mut control = HttpClient::connect(control_addr).with_timeout(NO_HANG);
    let served = client.call("POST", "/v1/prefill", Some(&body)).unwrap();
    let expect = control.call("POST", "/v1/prefill", Some(&body)).unwrap();
    assert_eq!(
        served.get("output").unwrap().render(),
        expect.get("output").unwrap().render(),
        "sharded front-door prefill diverged from the single-engine route"
    );
    // Session traffic routes through the same global-id surface.
    let opened = client
        .call(
            "POST",
            "/v1/sessions",
            Some(&WireJson::obj(vec![("d", WireJson::Num(d as f64))])),
        )
        .unwrap();
    let sid = opened.get("session").unwrap().as_f64().unwrap() as u64;
    client
        .call(
            "POST",
            &format!("/v1/sessions/{sid}/append"),
            Some(&WireJson::obj(vec![
                ("k_row", row_json(&vec![1.0; d])),
                ("v_row", row_json(&vec![2.0; d])),
            ])),
        )
        .unwrap();
    let decoded = client
        .call(
            "POST",
            &format!("/v1/sessions/{sid}/decode"),
            Some(&WireJson::obj(vec![("q_row", row_json(&vec![0.5; d]))])),
        )
        .unwrap();
    assert_eq!(decoded.get("cached_len").unwrap().as_f64(), Some(1.0));
    // /metrics exports the fleet rollup and one labelled set per shard.
    let metrics = client.request("GET", "/metrics", None).unwrap();
    assert_eq!(metrics.status, 200);
    let text = String::from_utf8(metrics.body).unwrap();
    for gauge in [
        "dfss_served ",
        "dfss_shard_served{shard=\"0\"} ",
        "dfss_shard_served{shard=\"1\"} ",
        "dfss_shard_prefill_chunks{shard=\"0\"} ",
        "dfss_shard_kv_pages_allocated{shard=\"1\"} ",
        "dfss_shard_queue_depth_decode{shard=\"0\"} ",
    ] {
        assert!(
            text.lines().any(|l| l.starts_with(gauge)),
            "metrics missing per-shard gauge {gauge:?}\n{text}"
        );
    }
    // The rollup equals the sum of the per-shard served gauges.
    let read = |prefix: &str| -> u64 {
        text.lines()
            .find(|l| l.starts_with(prefix))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("unparsable gauge {prefix:?}"))
    };
    assert_eq!(
        read("dfss_served "),
        read("dfss_shard_served{shard=\"0\"} ") + read("dfss_shard_served{shard=\"1\"} ")
    );
    client
        .request("DELETE", &format!("/v1/sessions/{sid}"), None)
        .unwrap();
    // Drain folds every shard: page counters reconcile fleet-wide.
    let stats = sharded.shutdown();
    assert_eq!(stats.kv_pages_allocated, stats.kv_pages_freed);
    assert_eq!(stats.sessions_opened, 1);
    assert_eq!(stats.sessions_closed, 1);
    http.shutdown();
}

#[test]
fn outputs_are_bit_identical_across_shard_counts() {
    let mech: Arc<dyn Attention<f32> + Send + Sync> = Arc::new(DfssAttention::new(NmPattern::P2_4));
    let d = 16usize;
    let n = 64usize;
    let make_inputs = || {
        let mut rng = Rng::new(123);
        (0..4)
            .map(|_| {
                (
                    Matrix::<f32>::random_normal(n, d, 0.0, 1.0, &mut rng),
                    Matrix::<f32>::random_normal(n, d, 0.0, 1.0, &mut rng),
                    Matrix::<f32>::random_normal(n, d, 0.0, 1.0, &mut rng),
                )
            })
            .collect::<Vec<_>>()
    };
    let run = |shards: usize| {
        let server = ShardedServer::start(
            Arc::clone(&mech),
            BatchPolicy::per_request(),
            SchedPolicy::new(8, 16),
            KvConfig::default(),
            shards,
        );
        let outs: Vec<Matrix<f32>> = make_inputs()
            .into_iter()
            .map(|(q, k, v)| {
                server
                    .submit(q, k, v)
                    .unwrap()
                    .wait_timeout(NO_HANG)
                    .unwrap()
                    .output
            })
            .collect();
        server.shutdown();
        outs
    };
    let one = run(1);
    let four = run(4);
    let solo: Vec<Matrix<f32>> = make_inputs()
        .into_iter()
        .map(|(q, k, v)| {
            let mut ctx = GpuCtx::a100();
            mech.forward(&mut ctx, &q, &k, &v)
        })
        .collect();
    for ((a, b), c) in one.iter().zip(&four).zip(&solo) {
        assert!(bits_equal(a.as_slice(), c.as_slice()));
        assert!(bits_equal(b.as_slice(), c.as_slice()));
    }
}
