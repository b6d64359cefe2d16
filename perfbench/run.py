#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload paper_medium|replan_churn
                             [--seed N] [--seconds S] [--trace 0|1]

Run it from the repository root. The first run configures and builds a
Release tree under .bench_build/perfbench (the ses library from the
repository's sources plus the harness in perfbench/src); later runs only
rebuild what changed. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. A traced run (--trace 1) also
writes its spans to .bench_build/perfbench/spans-<workload>-<seed>.jsonl.
The exit code is the benchmark's: 0 for a correct run whose result
holds exactly the metrics BENCHMARK.json lists for the run's mode, each
in its unit.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    """Configures and builds the perfbench binary; False on failure."""
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "--target", "perfbench",
              "-j", str(os.cpu_count() or 1)]]
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, env=env).returncode != 0:
            return False
    return True


def manifest_mismatch(result_line, trace):
    """What the result line lacks or adds against BENCHMARK.json, or ''."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    want = {m["name"]: m["unit"]
            for m in manifest["per_layer" if trace else "end_to_end"]}
    try:
        got = {name: m["unit"]
               for name, m in json.loads(result_line)["metrics"].items()}
    except (ValueError, KeyError, TypeError, AttributeError):
        return "the last line is not a result"
    problems = ["missing %s [%s]" % (n, u) for n, u in sorted(want.items())
                if got.get(n) != u]
    problems += ["unlisted %s [%s]" % (n, u) for n, u in sorted(got.items())
                 if want.get(n) != u]
    return "; ".join(problems)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["paper_medium", "replan_churn"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    command = [os.path.join(BUILD, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--spans-out", os.path.join(
            BUILD, "spans-%s-%d.jsonl" % (args.workload, args.seed))]
    run = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if run.returncode != 0:
        return run.returncode
    lines = run.stdout.splitlines()
    mismatch = manifest_mismatch(lines[-1] if lines else "", args.trace)
    if mismatch:
        print("perfbench: result does not match BENCHMARK.json: " + mismatch,
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
