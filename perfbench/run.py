#!/usr/bin/env python3
"""Builds the benchmark harness from source and runs one workload.

    python3 perfbench/run.py --workload <suite|vm-cotenant|fleet-churn> \
        --seed <n> --seconds <s> --trace <0|1> [--out <dir>]

Run it from the repository root. The harness (perfbench/harness, a Cargo
package with its own workspace) is built in release mode into
$CARGO_TARGET_DIR, or .bench_build when that is unset. The harness prints
one JSON line; this script adds the run's metadata (nproc, rustc -V,
git describe --dirty), writes the full record to
<out>/<workload>-seed<n>-trace<t>.json (default out: .perfbench-out in the
working directory), checks the metric names and units against
BENCHMARK.json, and prints the result as its last stdout line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is non-zero when the build fails, the harness crashes or
any output check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "harness", "Cargo.toml")
# Generous: a cold build plus the longest workload stays far below it.
RUN_TIMEOUT_S = 900


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def command_output(cmd, env=None):
    """First line of a command's stdout, or 'unknown' if it fails."""
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.strip().splitlines()
    return lines[0] if out.returncode == 0 and lines else "unknown"


def build(env):
    """Builds the harness; returns the executable's path."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    log("building the harness: " + " ".join(cmd))
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        log(f"build failed with exit code {done.returncode}")
        sys.exit(done.returncode or 1)
    exe = os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")
    if not os.path.isfile(exe):
        log(f"build produced no executable at {exe}")
        sys.exit(1)
    return exe


def expected_metrics(trace):
    """(name, unit) pairs BENCHMARK.json lists for this mode, if present."""
    path = os.path.join(os.getcwd(), "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path, encoding="utf-8") as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return [(m["name"], m["unit"]) for m in spec[key]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--out", default=".perfbench-out")
    a = ap.parse_args()

    env = dict(os.environ)
    env["CARGO_TARGET_DIR"] = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    out_dir = os.path.abspath(a.out)
    exe = build(env)

    cmd = [exe, "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace), "--out", out_dir]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"harness exceeded {RUN_TIMEOUT_S}s and was stopped")
        sys.exit(1)
    lines = done.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"harness exited {done.returncode} without a result line")
        sys.exit(done.returncode or 1)

    want = expected_metrics(a.trace)
    got = [(k, v["unit"]) for k, v in record["metrics"].items()]
    if want is not None and sorted(got) != sorted(want):
        log(f"metrics {sorted(got)} do not match BENCHMARK.json {sorted(want)}")
        sys.exit(1)

    # Kept out of the git lookup: a checkout without .git must not pick up
    # an enclosing repository's history.
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    record["meta"].update({
        "rustc": command_output(["rustc", "-V"]),
        "git_describe": command_output(["git", "describe", "--always", "--dirty"], git_env),
        "nproc_os": str(os.cpu_count()),
        "command": " ".join(sys.argv),
    })
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{a.workload}-seed{a.seed}-trace{a.trace}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.write("\n")
    attempted, failed = record["attempted"], record["failed"]
    log(f"wrote {path}; failed_frac {failed / max(attempted, 1):.6f}, digest {record['digest']}")
    result = {k: record[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result), flush=True)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
