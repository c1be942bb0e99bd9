#!/usr/bin/env python3
"""Builds the benchmark and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <sync-n16|chaos-mix|ledger> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Cargo package of its own; it is built in release
mode into $CARGO_TARGET_DIR (default: .bench_build). Every argument is
passed on to the benchmark binary. To the binary's end-to-end metrics
this script adds peak_rss_mb, the binary's peak resident memory as the
operating system reports it when the process ends. The last line of
standard output is the result as one JSON object.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "perfbench")
    proc = subprocess.Popen([exe] + sys.argv[1:], stdout=subprocess.PIPE, text=True)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        print(f"perfbench: benchmark exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    if "decided_per_s" in result["metrics"]:
        # ru_maxrss is in KiB on Linux.
        peak = usage.ru_maxrss / 1024
        result["metrics"]["peak_rss_mb"] = {"value": peak, "unit": "MB"}
        print(f"  {'peak_rss_mb':<30} {peak:>16.6f} MB")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
