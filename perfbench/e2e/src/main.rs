//! End-to-end runner of the repository benchmark.
//!
//! ```text
//! perfbench-e2e --workload <attn_batched|serve_mixed|http_front> --seed <n>
//!               --seconds <s> --trace <0|1> [--out <dir>] [--commit <id>]
//!               [--setup-only]
//! ```
//!
//! `--trace 0` times the workload's set-up in this process and in fresh
//! copies of it (the median is `setup_s`), runs it untraced for
//! `--seconds`, and prints the end-to-end metrics. `--trace 1` alternates
//! short untraced and traced slices, `--seconds` of each in all, writes the
//! spans, and prints the tracing overhead. Either way the last stdout line
//! is the result object and a run record lands in `--out`. `--setup-only`
//! sets the workload up once, tears it down, and prints only the set-up
//! seconds.

use perfbench::report::{self, Metric};
use perfbench::stats::median;
use perfbench::trace::{self, Tracer};
use perfbench::{attn, http_front, serve, Outcome, Workload};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// Set-ups per untraced run, each in a fresh process so every one pays for
/// pool spawn and first-touch page faults; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Length of one slice of a traced run. Untraced and traced slices
/// alternate, so host drift and order effects fall on both alike.
const SLICE_S: f64 = 2.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    commit: String,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut out = PathBuf::from("perfbench/out");
    let mut commit = String::from("unknown");
    let mut setup_only = false;
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            setup_only = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value}")),
                })
            }
            "--out" => out = PathBuf::from(value),
            "--commit" => commit = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
        commit,
        setup_only,
    })
}

enum State {
    Attn(attn::Attn),
    Serve(Box<serve::Serve>),
    Http(http_front::Http),
}

fn setup(w: Workload, seed: u64) -> State {
    match w {
        Workload::AttnBatched => State::Attn(attn::setup(seed)),
        Workload::ServeMixed => State::Serve(Box::new(serve::setup(seed))),
        Workload::HttpFront => State::Http(http_front::setup(seed)),
    }
}

fn teardown(state: State) {
    match state {
        State::Attn(_) => {}
        State::Serve(s) => {
            s.finish();
        }
        State::Http(h) => {
            h.finish();
        }
    }
}

/// Seconds of one cold set-up, timed by a fresh copy of this program run
/// with the same arguments plus `--setup-only`.
fn child_setup_s() -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this program: {e}"))?;
    let done = Command::new(exe)
        .args(std::env::args().skip(1))
        .arg("--setup-only")
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a set-up process: {e}"))?;
    if !done.status.success() {
        return Err(format!("a set-up process failed ({})", done.status));
    }
    String::from_utf8_lossy(&done.stdout)
        .trim()
        .parse()
        .map_err(|_| "a set-up process printed no time".to_string())
}

/// One timed run; returns the outcome and the tracers that recorded it,
/// with span times counted from `epoch`.
fn run(state: &mut State, seconds: f64, traced: bool, epoch: Instant) -> (Outcome, Vec<Tracer>) {
    match state {
        State::Attn(a) => {
            let mut tr = Tracer::new(traced, epoch);
            let out = attn::run(a, seconds, &mut tr);
            (out, vec![tr])
        }
        State::Serve(s) => {
            let mut trs = [Tracer::new(traced, epoch), Tracer::new(traced, epoch)];
            let out = serve::run(s, seconds, &mut trs, false);
            (out, trs.into())
        }
        State::Http(h) => {
            let mut trs: Vec<Tracer> = (0..http_front::connections())
                .map(|_| Tracer::new(traced, epoch))
                .collect();
            let out = http_front::run(h, seconds, &mut trs, false);
            (out, trs)
        }
    }
}

fn value(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .map_or(f64::NAN, |m| m.value)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench-e2e: {e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    if args.setup_only {
        let t0 = Instant::now();
        let state = setup(w, args.seed);
        let secs = t0.elapsed().as_secs_f64();
        teardown(state);
        println!("{}", report::num(secs));
        return ExitCode::SUCCESS;
    }
    let mut setups = Vec::with_capacity(SETUP_REPS);
    if !args.trace {
        for _ in 1..SETUP_REPS {
            match child_setup_s() {
                Ok(s) => setups.push(s),
                Err(e) => {
                    eprintln!("perfbench-e2e: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    let t0 = Instant::now();
    let mut state = setup(w, args.seed);
    setups.push(t0.elapsed().as_secs_f64());

    let mut outcomes = Vec::new();
    let mut metrics = Vec::new();
    let mut record: Vec<(&str, String)> = Vec::new();
    if args.trace {
        let epoch = Instant::now();
        let pairs = ((args.seconds / SLICE_S).round() as usize).max(1);
        let slice = args.seconds / pairs as f64;
        let mut tracers = Vec::new();
        let (mut fracs, mut dp50s, mut rendered) = (Vec::new(), Vec::new(), Vec::new());
        for i in 0..pairs {
            // Alternate which slice of a pair runs first.
            let traced_first = i % 2 == 1;
            let (first, first_trs) = run(&mut state, slice, traced_first, epoch);
            let (second, second_trs) = run(&mut state, slice, !traced_first, epoch);
            let (untraced, traced, trs) = if traced_first {
                (second, first, first_trs)
            } else {
                (first, second, second_trs)
            };
            tracers.extend(trs);
            let (u, t) = (&untraced.metrics, &traced.metrics);
            fracs.push(1.0 - value(t, "main_per_s") / value(u, "main_per_s"));
            dp50s.push(value(t, "main_p50_ms") - value(u, "main_p50_ms"));
            rendered.push(report::object(&[
                ("untraced", report::metrics_object(u)),
                ("traced", report::metrics_object(t)),
            ]));
            outcomes.push(untraced);
            outcomes.push(traced);
        }
        let refs: Vec<&Tracer> = tracers.iter().collect();
        let spans: usize = refs.iter().map(|t| t.spans().len()).sum();
        let self_ms = trace::self_time_ms(&refs);
        metrics.push(Metric::new(
            "trace.overhead_frac",
            median(&mut fracs),
            "ratio",
        ));
        metrics.push(Metric::new(
            "trace.overhead_p50_ms",
            median(&mut dp50s),
            "ms",
        ));
        metrics.push(Metric::new("trace.spans", spans as f64, "count"));
        let _ = std::fs::create_dir_all(&args.out);
        let csv = args
            .out
            .join(format!("spans-{}-seed{}.csv", w.name(), args.seed));
        if let Err(e) = trace::write_csv(&csv, &refs) {
            eprintln!("perfbench-e2e: cannot write {}: {e}", csv.display());
        }
        eprintln!("self time per layer over the traced slices ({spans} spans):");
        for (layer, t) in &self_ms {
            eprintln!("  {layer:<10} {t:>12.3} ms");
        }
        record.push(("spans_file", report::string(&csv.display().to_string())));
        record.push((
            "self_time_ms",
            report::object(
                &self_ms
                    .iter()
                    .map(|(k, v)| (*k, report::num(*v)))
                    .collect::<Vec<_>>(),
            ),
        ));
        record.push(("trace_slice_s", report::num(slice)));
        record.push(("trace_pairs", format!("[{}]", rendered.join(", "))));
    } else {
        let (base, _) = run(&mut state, args.seconds, false, Instant::now());
        metrics.extend(base.metrics.iter().cloned());
        metrics.push(Metric::new("setup_s", median(&mut setups.clone()), "s"));
        outcomes.push(base);
    }
    teardown(state);
    if !args.trace {
        metrics.push(Metric::new("peak_rss_mb", report::peak_rss_mb(), "MB"));
    }

    let attempted: u64 = outcomes.iter().map(|o| o.attempted).sum();
    let failed: u64 = outcomes.iter().map(|o| o.failed).sum();
    let mismatches: u64 = outcomes.iter().map(|o| o.mismatches).sum();
    let checked: u64 = outcomes.iter().map(|o| o.checked).sum();
    let correct = mismatches == 0 && failed == 0 && checked > 0;

    let mut fields = vec![
        ("workload", report::string(w.name())),
        ("seed", args.seed.to_string()),
        ("seconds", report::num(args.seconds)),
        ("trace", u8::from(args.trace).to_string()),
        ("commit", report::string(&args.commit)),
    ];
    fields.extend(report::host_fields());
    fields.push((
        "setup_runs_s",
        format!(
            "[{}]",
            setups
                .iter()
                .map(|s| report::num(*s))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    ));
    fields.push(("checked", checked.to_string()));
    fields.push(("mismatches", mismatches.to_string()));
    fields.push((
        "untraced_metrics",
        report::metrics_object(&outcomes[0].metrics),
    ));
    fields.push(("extras", report::metrics_object(&outcomes[0].extras)));
    fields.extend(record);
    let record = report::object(&fields);
    let _ = std::fs::create_dir_all(&args.out);
    let path = args.out.join(format!(
        "run-{}-seed{}-trace{}.json",
        w.name(),
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&path, format!("{record}\n")) {
        eprintln!("perfbench-e2e: cannot write {}: {e}", path.display());
    }
    eprintln!("{record}");
    println!(
        "{}",
        report::result_line(correct, attempted, failed + mismatches, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench-e2e: {mismatches} of {checked} checked outputs differ, {failed} operations failed");
        ExitCode::FAILURE
    }
}
