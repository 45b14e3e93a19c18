#!/usr/bin/env python3
"""The extsphere benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload bundled-report --seed 7 --seconds 30 --trace 0

Workloads: bundled-report, polytope-check, witness-cover (see NOTES.md).
The workload runs in a child process of its own (``bench.py``), so its peak
resident memory is its own, with ``src`` on the import path and the BLAS and
OpenMP thread counts set to 1 in that child's environment only.  The last
line of standard output is the result object; ``--trace 1`` reports the
per-layer metrics instead of the end-to-end ones.

Exits non-zero without a result when the checkout holds no extsphere
sources, when the workload fails to run, or when it overruns its time limit.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("bundled-report", "polytope-check", "witness-cover")
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    missing = [p for p in ("src/extsphere/cli.py", "scenes/strip.scene")
               if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"not an extsphere checkout: missing {', '.join(missing)}", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, os.path.join(HERE, "bench.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    child = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        print(f"workload overran {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 3
    if child.returncode != 0:
        sys.stderr.write(out)
        print(f"workload exited with status {child.returncode}", file=sys.stderr)
        return child.returncode if child.returncode > 0 else 4
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
