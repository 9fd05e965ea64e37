#!/usr/bin/env python3
"""Sensitivity self-test of the tussle benchmark.

    python3 perfbench/selftest.py [--seconds S]

Run it from the root of a tussle checkout.  It plants a delay, an
allocation and failures in the benchmark's own per-op wrapper (never in
the libraries), through run.py's --plant-* options, and checks that

  * the planted delay moves wall_s and op_p50_ms past their bounds in
    BENCHMARK.json, and lands in the per-layer metric of the wrapper
    (chaos.derive_us on chaos, routing.reconverge.ms_p50 on reconverge)
    rather than in the simulation's own layers;
  * the planted allocation moves alloc_mb past its bound and lands in
    the per-op allocation metrics;
  * planted failures raise the failure share and clear "correct".

Exits 0 when every check holds, 1 otherwise.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEED = 1031


def run(workload, trace, seconds, *plant):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(SEED), "--seconds", str(seconds),
           "--trace", str(trace), *plant]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(out.stdout.rstrip("\n").split("\n")[-1])
    result["values"] = {k: m["value"] for k, m in result["metrics"].items()}
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seconds", type=float, default=4)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bound = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    failures = []

    def check(label, ok):
        print(f"{'ok  ' if ok else 'FAIL'} {label}")
        if not ok:
            failures.append(label)

    def moved(label, base, planted, metric):
        b, p = base["values"][metric], planted["values"][metric]
        check(f"{label}: {metric} {b:.6g} -> {p:.6g} beyond bound "
              f"{bound[metric]}", p > b * (1 + bound[metric]))

    def rose_by(label, base, planted, metric, amount):
        b, p = base["values"][metric], planted["values"][metric]
        check(f"{label}: {metric} {b:.6g} -> {p:.6g} rose by at least "
              f"{amount:.6g}", p - b >= amount)

    def rose_less(label, base, planted, metric, amount):
        b, p = base["values"][metric], planted["values"][metric]
        check(f"{label}: {metric} {b:.6g} -> {p:.6g} rose by less than "
              f"{amount:.6g}", p - b < amount)

    s = args.seconds
    for workload, delay_ms, alloc_kb in (("chaos", 1.0, 1024),
                                         ("reconverge", 20.0, 16384)):
        base0, base1 = run(workload, 0, s), run(workload, 1, s)
        check(f"{workload}: unplanted run is correct",
              base0["correct"] and base1["correct"])
        delay = ["--plant-delay-ms", str(delay_ms)]
        d0, d1 = run(workload, 0, s, *delay), run(workload, 1, s, *delay)
        label = f"{workload} +{delay_ms} ms/op"
        moved(label, base0, d0, "wall_s")
        moved(label, base0, d0, "op_p50_ms")
        if workload == "chaos":
            rose_by(label, base1, d1, "chaos.derive_us", 0.5e3 * delay_ms)
            rose_less(label, base1, d1, "chaos.scenario_run_us",
                      0.2e3 * delay_ms)
        else:
            rose_by(label, base1, d1, "routing.reconverge.ms_p50",
                    0.5 * delay_ms)
            # what forwarding would gain per event had the delay landed there
            spread_ns = base1["values"]["routing.reconverge.count"] \
                * delay_ms * 1e6 / base1["values"]["netsim.forward.events"]
            rose_less(label, base1, d1, "netsim.forward.ns_per_event",
                      0.5 * spread_ns)
        alloc = ["--plant-alloc-kb", str(alloc_kb)]
        a0, a1 = run(workload, 0, s, *alloc), run(workload, 1, s, *alloc)
        label = f"{workload} +{alloc_kb} kB/op"
        moved(label, base0, a0, "alloc_mb")
        if workload == "chaos":
            for sc in ("line-transfer", "ring-selfheal", "ring-verified",
                       "grid-static"):
                rose_by(label, base1, a1, f"chaos.{sc}.alloc_kb",
                        0.9 * alloc_kb)
        else:
            per_pass_mb = base1["values"]["routing.reconverge.count"] \
                * alloc_kb * 1024 / 1e6
            rose_by(label, base1, a1, "routing.reconverge.alloc_mb",
                    0.9 * per_pass_mb)
        f0 = run(workload, 0, s, "--plant-fail-every", "10")
        share = f0["failed"] / f0["attempted"]
        check(f"{workload} fail every 10th op: failure share "
              f"{base0['failed']}/{base0['attempted']} -> "
              f"{f0['failed']}/{f0['attempted']}, correct "
              f"{f0['correct']}",
              base0["failed"] == 0 and share >= 0.08 and not f0["correct"])
    if failures:
        print(f"{len(failures)} check(s) failed")
        return 1
    print("all sensitivity checks hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
