#!/usr/bin/env python3
"""Serve-path benchmark entry point.

    python3 perfbench/run.py --workload scan_100k --seed 1 --seconds 25 --trace 0

Run from the repository root. Builds `subqd` (the repository's release
profile) and the `perfbench` runner into `$CARGO_TARGET_DIR` (default
`.bench_build`), then runs it, pinned to one CPU: it generates the
workload's store, serves it through `subqd --dir`, drives it with one
closed-loop client, checks the answers, and prints the metrics. The last
line of standard output is the JSON result. Store directories, span
files and summaries go to `.bench_run/`.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("scan_100k", "adhoc_100k", "churn_100k")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench)
    target = os.path.abspath(os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    env = dict(os.environ, CARGO_TARGET_DIR=target)

    builds = [
        # The server, exactly as the repository builds it.
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(root, "Cargo.toml"), "-p", "subq-server", "--bin", "subqd"],
        # The benchmark runner, a package of its own.
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(bench, "Cargo.toml"), "--bin", "perfbench"],
    ]
    for command in builds:
        # Build output goes to stderr: the last stdout line is the result.
        if subprocess.run(command, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(command), file=sys.stderr)
            return 2

    runner = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--subqd", os.path.join(target, "release", "subqd"),
        "--work", os.path.join(root, ".bench_run"),
    ]
    # The runner and the `subqd` it starts share one CPU: a closed-loop
    # client and the server thread answering it take turns, and handing
    # the turn to another CPU of a virtual machine waits for the
    # hypervisor to run that CPU, which made every figure follow the
    # neighbours' load. The builds above use every CPU.
    cpu = max(os.sched_getaffinity(0))
    return subprocess.run(runner, cwd=root, preexec_fn=lambda: os.sched_setaffinity(0, {cpu})).returncode


if __name__ == "__main__":
    sys.exit(main())
