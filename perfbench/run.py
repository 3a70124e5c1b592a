#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result line.

    python3 perfbench/run.py --workload <attn_batched|serve_mixed|http_front> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the benchmark packages from source
(into $CARGO_TARGET_DIR, default .bench_build), runs the end-to-end runner,
and with --trace 1 also the per-layer probes. The last stdout line is one
JSON object with the keys correct, attempted, failed and metrics. Run
records and span files land in perfbench/out/. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("attn_batched", "serve_mixed", "http_front")
# Bound on everything after the build, so a hung run still ends in time.
RUN_BUDGET_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(package, env):
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(HERE / "Cargo.toml"), "-p", package,
    ]
    try:
        # Cargo's output goes to stderr: stdout carries only the result.
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    except OSError as e:
        log(f"cannot run cargo: {e}")
        return False
    return done.returncode == 0


def run(cmd, env, deadline):
    """Run a benchmark binary; return (exit code, parsed result or None)."""
    timeout = max(1.0, deadline - time.monotonic())
    try:
        done = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        log(f"{Path(cmd[0]).name} did not finish within {timeout:.0f} s")
        return 1, None
    lines = done.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return done.returncode, result


def commit_id():
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build"))
    target = Path(env["CARGO_TARGET_DIR"])
    if not target.is_absolute():
        target = ROOT / target
    release = target / "release"

    if not build("perfbench-e2e", env):
        log("the end-to-end runner does not build")
        return 1
    # The probes build separately: their failure never blocks an untraced run.
    probes_ok = build("perfbench-probes", env)
    if args.trace and not probes_ok:
        log("the per-layer probes do not build")
        return 1

    deadline = time.monotonic() + RUN_BUDGET_S
    out_dir, commit = str(HERE / "out"), commit_id()
    code, result = run(
        [
            str(release / "perfbench-e2e"),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--out", out_dir,
            "--commit", commit,
        ],
        env,
        deadline,
    )
    if result is None:
        return 1
    if args.trace:
        probe_code, probes = run(
            [
                str(release / "perfbench-probes"),
                "--seed", str(args.seed),
                "--out", out_dir,
                "--commit", commit,
            ],
            env,
            deadline,
        )
        if probes is None:
            return 1
        code = code or probe_code
        result = {
            "correct": result["correct"] and probes["correct"],
            "attempted": result["attempted"] + probes["attempted"],
            "failed": result["failed"] + probes["failed"],
            "metrics": {**probes["metrics"], **result["metrics"]},
        }
    print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
