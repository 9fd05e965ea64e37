#!/usr/bin/env python3
"""Build and run the tussle benchmark.

    python3 perfbench/run.py --workload battery|chaos|reconverge \
        --seed N --seconds S --trace 0|1

Run it from the root of a tussle checkout.  It builds
perfbench/tussbench.exe from source with dune (into .bench_build/), runs
one workload, checks that the result line names exactly the metrics that
BENCHMARK.json lists for the mode (end_to_end for --trace 0, per_layer
for --trace 1) with their units, and prints the benchmark's output; the
last line is the JSON result.  A traced run also writes its spans to
.bench_out/.  It exits non-zero without a result line when the checkout
cannot build the benchmark.  See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "tussbench.exe")
SPANS_DIR = ".bench_out"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a tussle checkout (dune-project and lib/)")
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH")
    # no shared dune cache: the build reads and writes only the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = [dune, "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "./perfbench/tussbench.exe"]
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if proc.returncode != 0:
        fail(f"build failed (exit {proc.returncode})")


def expected_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(line, trace):
    try:
        result = json.loads(line)
    except ValueError:
        fail("the benchmark's last line is not JSON")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"extra {extra}, wrong unit {wrong}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["battery", "chaos", "reconverge"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    # planted faults for the sensitivity self-test (selftest.py)
    ap.add_argument("--plant-delay-ms", type=float)
    ap.add_argument("--plant-alloc-kb", type=int)
    ap.add_argument("--plant-fail-every", type=int)
    args = ap.parse_args()

    build()
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(SPANS_DIR, exist_ok=True)
        cmd += ["--spans", os.path.join(
            SPANS_DIR, f"spans-{args.workload}-{args.seed}.json")]
    for flag in ("plant_delay_ms", "plant_alloc_kb", "plant_fail_every"):
        value = getattr(args, flag)
        if value is not None:
            cmd += ["--" + flag.replace("_", "-"), str(value)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"benchmark exited {proc.returncode}")
    lines = proc.stdout.rstrip("\n").split("\n")
    check_result(lines[-1], args.trace)
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
