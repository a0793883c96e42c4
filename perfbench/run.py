#!/usr/bin/env python3
"""Builds and runs the NUMARCK checkpoint/restart benchmark.

    python3 perfbench/run.py --workload flash-restart --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --self-test

The driver (perfbench/driver.cpp) is built from the checkout's sources into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) on first use.
The last line of standard output is the result object; see README.md for the
workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["flash-restart", "cmip5-store"]
RUN_TIMEOUT_S = 170


def build_base():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return base if os.path.isabs(base) else os.path.join(ROOT, base)


def build():
    """Configures (once) and builds numarck-perfbench; returns its path."""
    bdir = os.path.join(build_base(), "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    # The generator's build file exists only after a configure that succeeded.
    if not any(os.path.exists(os.path.join(bdir, f))
               for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "numarck-perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(bdir, "numarck-perfbench")


def run_driver(exe, workload, seed, seconds, trace, quick=False):
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", os.path.join(build_base(), "perfbench-work")]
    if quick:
        cmd.append("--quick")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S, cwd=ROOT)
    return proc.returncode, proc.stdout


def parse(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-2])["env"], json.loads(lines[-1])


# Values the library computes deterministically: they must repeat bit for
# bit for one seed.
EXACT_E2E = ["stored_ratio", "mean_err_rate", "max_err_rate", "restore_nrmse"]
EXACT_LAYER = ["core.gamma", "store.chain_depth", "io.opens_per_restore",
               "io.fsyncs"]


def self_test(exe):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []

    def check(cond, what):
        if not cond:
            problems.append(what)

    for wl in WORKLOADS:
        runs = {}
        for key, seed, trace in [("a", 1, 0), ("b", 1, 0), ("c", 2, 0),
                                 ("ta", 1, 1), ("tb", 1, 1)]:
            code, out = run_driver(exe, wl, seed, 1, trace, quick=True)
            check(code == 0, f"{wl}/{key}: exit code {code}")
            if code != 0:
                break
            runs[key] = parse(out)
        if len(runs) < 5:
            continue
        for key, (env, res) in runs.items():
            check(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
                  f"{wl}/{key}: correct={res['correct']} failed={res['failed']}")
            names = spec["per_layer" if key.startswith("t") else "end_to_end"]
            for m in names:
                got = res["metrics"].get(m["name"])
                check(got is not None and got["unit"] == m["unit"]
                      and isinstance(got["value"], (int, float)),
                      f"{wl}/{key}: metric {m['name']} missing or wrong unit")
            check(len(res["metrics"]) == len(names),
                  f"{wl}/{key}: unexpected extra metrics")
        for m in EXACT_E2E:
            check(runs["a"][1]["metrics"][m]["value"]
                  == runs["b"][1]["metrics"][m]["value"],
                  f"{wl}: {m} differs between runs of one seed")
        for m in EXACT_LAYER:
            check(runs["ta"][1]["metrics"][m]["value"]
                  == runs["tb"][1]["metrics"][m]["value"],
                  f"{wl}: {m} differs between traced runs of one seed")
        check(runs["ta"][1]["metrics"]["trace.containers_compared"]["value"] > 0,
              f"{wl}: traced run compared no containers")
        check(runs["a"][0]["input_digest"] == runs["b"][0]["input_digest"],
              f"{wl}: one seed gave different inputs")
        check(runs["a"][0]["input_digest"] != runs["c"][0]["input_digest"],
              f"{wl}: a different seed gave the same inputs")
        print(f"self-test {wl}: {'ok' if not problems else 'FAILED'}",
              file=sys.stderr)
    for p in problems:
        print("self-test: " + p, file=sys.stderr)
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="short runs of every workload checking metric names, "
                         "units, exact counts and seeding")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if args.self_test:
        return self_test(exe)
    code, out = run_driver(exe, args.workload, args.seed, args.seconds,
                           args.trace)
    if code == 0:
        sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
