#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload proto-mix --seed 1 --seconds 15 --trace 0

Arguments are passed to perfbench/main.exe unchanged (see perfbench/README.md).
The last line of standard output is the result object. Before printing it,
the metric names are checked against BENCHMARK.json, so the benchmark and its
definition cannot drift apart. Exits non-zero without a result when the
checkout cannot be built or the run fails.
"""

import json
import os
import shutil
import subprocess
import sys

TIMEOUT_S = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def dune():
    found = shutil.which("dune")
    if found:
        return [found]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("dune not found on PATH")


def main():
    root = os.getcwd()
    for needed in ("dune-project", "lib", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(root, needed)):
            fail("run from the root of a checkout (missing %s)" % needed)
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        dune() + ["build", "--root", ".", "--cache=disabled", "./perfbench/main.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        fail("build failed")
    exe = os.path.join(root, "_build", "default", "perfbench", "main.exe")
    try:
        run = subprocess.run(
            [exe] + sys.argv[1:], stdout=subprocess.PIPE, text=True, timeout=TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % TIMEOUT_S)
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(run.stdout)
        fail("benchmark exited with code %d" % run.returncode)
    result = json.loads(lines[-1])
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    trace = "--trace" in sys.argv and sys.argv[sys.argv.index("--trace") + 1] == "1"
    expected = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    if sorted(result["metrics"]) != sorted(expected):
        sys.stdout.write(run.stdout)
        fail(
            "metric names differ from BENCHMARK.json: printed %s, expected %s"
            % (sorted(result["metrics"]), sorted(expected))
        )
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
