#!/usr/bin/env python3
"""Build and run the PNB-BST stack benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Builds two variants of the `perfbench` package from source (plain, and
with the `stats` feature for the traced run) into $CARGO_TARGET_DIR
(default `.bench_build`), then runs each workload in its own process so
one workload's memory high-water mark cannot leak into the next.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. Untraced (`--trace 0`) the metrics
are the end-to-end ones; traced (`--trace 1`) they are the per-layer
ones, taken from the `stats` build, plus `trace.overhead_pct`: how much
lower the traced run's throughput is than an untraced run's, in percent.
Span traces are written to `<target>/trace/<workload>.jsonl`.

`--workload all` runs every workload in turn and prints each one's table;
its last line maps workload names to their result objects. The exit code
is non-zero if any output check failed or anything could not be built or
run.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["point-large", "contended-mixed", "wire-rr", "wire-bulk"]
BUILD_TIMEOUT_S = 850
# A build that compiled anything is followed by this pause: right after a
# compile-heavy minute the box runs the first measurement measurably
# differently (the depth-1 wire workload lands in a different regime).
SETTLE_AFTER_BUILD_S = 10
RUN_TIMEOUT_S = 150


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def target_dir():
    t = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return t if os.path.isabs(t) else os.path.join(ROOT, t)


def build(tdir):
    """Build both variants; return {variant: binary path}."""
    bins = {}
    started = time.monotonic()
    for variant, extra in (("plain", []), ("stats", ["--features", "stats"])):
        cmd = [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", os.path.join(HERE, "Cargo.toml"),
            "--target-dir", tdir,
        ] + extra
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"building the {variant} variant: {e}")
        if r.returncode != 0:
            fail(f"building the {variant} variant failed ({r.returncode})")
        # Both variants land on the same path; keep each under its own
        # name (copy, then rename, so a copy still running stays intact).
        dst = os.path.join(tdir, f"perfbench-{variant}")
        shutil.copy2(os.path.join(tdir, "release", "perfbench"), dst + ".tmp")
        os.replace(dst + ".tmp", dst)
        bins[variant] = dst
    if time.monotonic() - started > 3:
        time.sleep(SETTLE_AFTER_BUILD_S)
    return bins


def run_one(binary, args):
    """Run one workload process; return (table lines, result dict)."""
    try:
        r = subprocess.run([binary] + args, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(args)} did not finish in {RUN_TIMEOUT_S} s")
    lines = r.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(r.stdout)
        fail(f"{' '.join(args)} exited {r.returncode} without a result")
    if r.returncode not in (0, 1) or (r.returncode == 1) == result["correct"]:
        fail(f"{' '.join(args)} exited {r.returncode} with correct={result['correct']}")
    return lines[:-1], result


def workload_result(bins, tdir, workload, seed, seconds, traced):
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    table, plain = run_one(bins["plain"], common)
    if not traced:
        return table, plain
    out = os.path.join(tdir, "trace", f"{workload}.jsonl")
    ttable, tr = run_one(bins["stats"], common + ["--trace", "--trace-out", out])
    metrics = dict(tr["metrics"])
    traced_tput = metrics.pop("throughput_ops")["value"]
    base = plain["metrics"]["throughput_ops"]["value"]
    metrics["trace.overhead_pct"] = {"value": (base - traced_tput) / base * 100.0, "unit": "%"}
    result = {
        "correct": plain["correct"] and tr["correct"],
        "attempted": plain["attempted"] + tr["attempted"],
        "failed": plain["failed"] + tr["failed"],
        "metrics": metrics,
    }
    return table + ttable + [f"  {'trace.overhead_pct':<34} {metrics['trace.overhead_pct']['value']:>16.4} %"], result


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    if not 1 <= a.seconds <= 60:
        fail("--seconds must be 1..60")

    tdir = target_dir()
    bins = build(tdir)
    names = WORKLOADS if a.workload == "all" else [a.workload]
    results = {}
    for w in names:
        table, results[w] = workload_result(bins, tdir, w, a.seed, a.seconds, a.trace == 1)
        print("\n".join(table), flush=True)
    ok = all(r["correct"] for r in results.values())
    print(json.dumps(results[names[0]] if a.workload != "all" else results))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
