//! A runnable HTTP front door over a batched DFSS attention server.
//!
//! Binds an ephemeral loopback port, prints the URL, serves until killed
//! (Ctrl-C) or until `--serve-secs N` elapses, then drains gracefully and
//! prints the final counters.
//!
//! Run: `cargo run --release --example http_server -- --serve-secs 30`
//!
//! Then from another shell:
//!
//! ```text
//! curl $URL/healthz
//! curl -X POST $URL/v1/prefill -d '{"q":[[1,0],[0,1]],"k":[[1,0],[0,1]],"v":[[1,2],[3,4]]}'
//! curl $URL/metrics
//! ```

use dfss::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let mut serve_secs: Option<u64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--serve-secs" => {
                let n = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--serve-secs takes a number of seconds");
                serve_secs = Some(n);
            }
            other => {
                eprintln!("usage: http_server [--serve-secs N] (got {other:?})");
                std::process::exit(2);
            }
        }
    }

    let mech: Arc<dyn Attention<f32> + Send + Sync> = Arc::new(DfssAttention::new(NmPattern::P1_2));
    let att = AttentionServer::start(mech, BatchPolicy::default().with_queue_depth(64));
    let server = HttpServer::bind(att, HttpConfig::default()).expect("bind loopback");
    println!("LISTENING {}", server.url());

    match serve_secs {
        Some(secs) => std::thread::sleep(Duration::from_secs(secs)),
        None => loop {
            std::thread::sleep(Duration::from_secs(3600));
        },
    }

    let stats = server.shutdown();
    println!(
        "drained: {} connections accepted, {} requests served, {} decode steps, {} shed, {} force-closed",
        stats.http_connections_accepted,
        stats.served,
        stats.decode_steps,
        stats.overload_sheds + stats.http_connections_shed,
        stats.drain_force_closed
    );
}
