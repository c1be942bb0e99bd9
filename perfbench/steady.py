#!/usr/bin/env python3
"""Steadiness check: runs each workload repeatedly on different seeds
and prints, for each end-to-end metric, the median and the spread (the
distance between the first and third quartile, as a share of the
median) next to the metric's bound from BENCHMARK.json.

Usage, from the root of the repository:

    python3 perfbench/steady.py [--runs 10] [--seconds S] [--workload NAME ...]

Run i uses seed i.

--seconds defaults to BENCHMARK.json's run_seconds. A spread above a
third of its bound is flagged; setup_s has no spread limit, only a
median that must not drift between two sets of runs.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workload", action="append",
                    default=None, choices=[w["name"] for w in bench["workloads"]])
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    ok = True
    for name in workloads:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        shares = set()
        for i in range(args.runs):
            seed = 1 + i
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(args.seconds), "--trace", "0"]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
            result = json.loads(out.splitlines()[-1])
            ok &= result["correct"]
            shares.add(result["failed"] / result["attempted"])
            for m, v in result["metrics"].items():
                values[m].append(v["value"])
            figures = " ".join(f"{m}={v['value']:.6g}" for m, v in result["metrics"].items())
            print(f"{name} seed {seed}: attempted {result['attempted']} failed "
                  f"{result['failed']} correct {result['correct']} {figures}", file=sys.stderr)
        print(f"{name}: failed share {sorted(shares)} over {args.runs} runs")
        print(f"  {'metric':<14} {'median':>14} {'spread':>8} {'bound':>6}")
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            flag = ""
            if m["name"] != "setup_s" and spread > m["bound"] / 3:
                flag = "  above a third of the bound"
                ok = False
            print(f"  {m['name']:<14} {med:>14.6g} {spread:>8.4f} {m['bound']:>6}"
                  f" {m['unit']}{flag}")
        ok &= len(shares) == 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
