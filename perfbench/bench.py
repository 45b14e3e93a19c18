"""Run one benchmark workload in this process and print its metrics.

Started by ``run.py`` in a child process of its own, from the root of a
source checkout with ``src`` on the import path.  One client calls
``extsphere.cli.main`` once per invocation, each after the previous one
returns (a closed loop, no concurrency).  A pass is one call of every
invocation of the workload; passes repeat until ``--seconds`` is used up and
the medians over passes are reported.  Times are normalized to the host's
nominal speed (see ``REFERENCE_S``).  Output checks run between passes,
outside the timed region.

With ``--trace 1`` untraced and traced passes alternate; the per-layer
metrics are per traced pass, and the tracing overhead is the difference of
the two medians.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from time import perf_counter

import numpy as np

import checks
import workloads
from extsphere import cli
from extsphere.scene import load_scene
from tracer import Tracer

SETUP_REPS = 7

# The shared host's speed drifts by tens of percent over tens of seconds: a
# fixed loop averaged 7.2-9.0 ms in 15 s windows a few minutes apart, and one
# witness-cover pass took 1.51 s, then 1.24 s.  No median within one run
# removes that, so every timed span is scaled by REFERENCE_S over the mean
# time of a fixed reference loop run just before and just after it: times
# are seconds at the host's nominal speed.  Raw pass times are printed too.
REFERENCE_S = 0.015
_REFERENCE_POINTS = np.random.default_rng(0).normal(size=(64, 2))


def reference_time() -> float:
    """Time of a fixed mix of interpreter work and small numpy calls."""
    start = perf_counter()
    acc = 0.0
    for i in range(1000):
        acc += float(np.min(np.linalg.norm(_REFERENCE_POINTS - _REFERENCE_POINTS[i % 64], axis=1)))
        for j in range(20):
            acc += j * 0.5
    return perf_counter() - start


def normalized(elapsed: float, ref_before: float, ref_after: float) -> float:
    return elapsed * REFERENCE_S / (0.5 * (ref_before + ref_after))


END_TO_END = {"wall_s": "s", "setup_s": "s", "witnesses_per_s": "1/s", "peak_rss_mb": "MB"}
CASE_TAGS = ("C1-direct", "C1.1", "C1.2.1", "C1.2.2", "C1.2.3", "C2.1", "C2-finite-delta", "failed")

# (metric, traced name, field, unit); field "units" is points, rows or
# normals as the tracer counts them for that name.
LAYER_TABLE = (
    ("sets.distance_many.calls", "sets.distance_many", "calls", "count"),
    ("sets.distance_many.points", "sets.distance_many", "units", "count"),
    ("sets.distance_many.self_s", "sets.distance_many", "self", "s"),
    ("sets.project_point.calls", "sets.project_point", "calls", "count"),
    ("sets.project_point.self_s", "sets.project_point", "self", "s"),
    ("sets.project.calls", "sets.project", "calls", "count"),
    ("sets.project.self_s", "sets.project", "self", "s"),
    ("sets.contains_many.calls", "sets.contains_many", "calls", "count"),
    ("sets.contains_many.points", "sets.contains_many", "units", "count"),
    ("sets.contains_many.self_s", "sets.contains_many", "self", "s"),
    ("sets.in_boundary_of_interior.calls", "sets.in_boundary_of_interior", "calls", "count"),
    ("sets.in_boundary_of_interior.self_s", "sets.in_boundary_of_interior", "self", "s"),
    ("sets.ray_membership_intervals.calls", "sets.ray_membership_intervals", "calls", "count"),
    ("sets.ray_membership_intervals.self_s", "sets.ray_membership_intervals", "self", "s"),
    ("sets.validate.s", "sets.validate", "total", "s"),
    ("sconvex.in_capped_envelope.calls", "sconvex.in_capped_envelope", "calls", "count"),
    ("sconvex.in_capped_envelope.self_s", "sconvex.in_capped_envelope", "self", "s"),
    ("sconvex.in_full_envelope.calls", "sconvex.in_full_envelope", "calls", "count"),
    ("sconvex.is_s_convex.s", "sconvex.is_s_convex", "total", "s"),
    ("sconvex.check_boundary_projection_uniqueness.s",
     "sconvex.check_boundary_projection_uniqueness", "total", "s"),
    ("sconvex.check_thin_margin_open.s", "sconvex.check_thin_margin_open", "total", "s"),
    ("proximal.sample_unit_normals.calls", "proximal.sample_unit_normals", "calls", "count"),
    ("proximal.sample_unit_normals.self_s", "proximal.sample_unit_normals", "self", "s"),
    ("proximal.realization_margins.calls", "proximal.realization_margins", "calls", "count"),
    ("proximal.realization_margins.rows", "proximal.realization_margins", "units", "count"),
    ("proximal.realization_margins.self_s", "proximal.realization_margins", "self", "s"),
    ("proximal.is_proximal_normal.calls", "proximal.is_proximal_normal", "calls", "count"),
    ("proximal.is_proximal_normal.self_s", "proximal.is_proximal_normal", "self", "s"),
    ("proximal.first_boundary_return.calls", "proximal.first_boundary_return", "calls", "count"),
    ("cover.construct_witness.calls", "cover.construct_witness", "calls", "count"),
    ("cover.construct_witness.s", "cover.construct_witness", "total", "s"),
    ("cover.find_interior_point_near.calls", "cover.find_interior_point_near", "calls", "count"),
    ("cover.boundary_crossing.calls", "cover.boundary_crossing", "calls", "count"),
    ("cover.boundary_crossing.self_s", "cover.boundary_crossing", "self", "s"),
    ("conditions.check_extended_condition.s", "conditions.check_extended_condition", "total", "s"),
    ("conditions.audit_lower_semicontinuity.s", "conditions.audit_lower_semicontinuity", "total", "s"),
    ("conditions.verify_union_of_balls.s", "conditions.verify_union_of_balls", "total", "s"),
    ("conditions.cover_radius.calls", "conditions.cover_radius", "calls", "count"),
    ("scene.load_scene.s", "scene.load_scene", "total", "s"),
    ("cli.main.self_s", "cli.main", "self", "s"),
)


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in output order."""
    units = {name: unit for name, _, _, unit in LAYER_TABLE}
    units["proximal.sample_unit_normals.cone_size"] = "count"
    units["sconvex.envelope_memo.hit_ratio"] = "ratio"
    units["sconvex.envelope_memo.lookups"] = "count"
    for tag in CASE_TAGS:
        units[f"cover.case.{tag}"] = "count"
    units["trace.wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    units["trace.spans"] = "count"
    return units


def layer_metrics(tracer: Tracer, passes: int, traced_wall: float, untraced_wall: float) -> dict:
    stats = tracer.stats
    values = {name: getattr(stats[traced], field) / passes for name, traced, field, _ in LAYER_TABLE}
    cone = stats["proximal.sample_unit_normals"]
    values["proximal.sample_unit_normals.cone_size"] = cone.units / cone.calls if cone.calls else 0.0
    # Memo misses are the cone samplings the envelope memo had to run.
    lookups = stats["sconvex.realizable_boundary_point"].calls
    misses = tracer.edges[("sconvex.realizable_boundary_point", "proximal.sample_unit_normals")]
    values["sconvex.envelope_memo.hit_ratio"] = 1.0 - misses / lookups if lookups else 0.0
    values["sconvex.envelope_memo.lookups"] = lookups / passes
    for tag in CASE_TAGS:
        values[f"cover.case.{tag}"] = tracer.tags[f"cover.case.{tag}"] / passes
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - untraced_wall
    values["trace.spans"] = len(tracer.spans) / passes
    units = per_layer_units()
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def environment(args) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
        "threads_env": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


class Runner:
    """Runs passes over a workload's invocations and checks their outputs."""

    def __init__(self, wl, paths: dict, scenes: dict, workdir: str):
        self.wl = wl
        self.paths = paths
        self.scenes = scenes
        self.workdir = workdir
        self.seen_digests: dict = {}
        self.attempted = 0
        self.failed = 0
        self.walls = {False: [], True: []}  # traced? -> normalized pass times
        self.raw_walls: list[float] = []
        self.witness_rates: list[float] = []
        self.invocation_times: dict = {}

    def run_pass(self, tracer: Tracer | None = None):
        """One timed pass, traced when a tracer is given, then its checks.

        Garbage from earlier passes is collected first, so that neither the
        pass time nor the peak memory depends on how many passes ran before.
        The tracer is installed for the invocations only, not the checks.
        """
        traced = tracer is not None
        gc.collect()
        results = []
        refs = [reference_time()]
        pass_start = perf_counter()
        if traced:
            tracer.install()
        try:
            for inv in self.wl.invocations:
                out = os.path.join(self.workdir, f"{inv.scene}.{inv.command}.json")
                argv = [inv.argv[0], self.paths[inv.scene], *inv.argv[1:], "--json-report", out]
                buf = io.StringIO()
                start = perf_counter()
                try:
                    with contextlib.redirect_stdout(buf):
                        rc = cli.main(argv)
                except (Exception, SystemExit):
                    traceback.print_exc()
                    rc = None
                elapsed = perf_counter() - start
                refs.append(reference_time())
                results.append((inv, rc, normalized(elapsed, refs[-2], refs[-1]),
                                buf.getvalue(), out))
        finally:
            if traced:
                tracer.uninstall()
        self.raw_walls.append(perf_counter() - pass_start)
        self.walls[traced].append(sum(r[2] for r in results))

        witnesses, witness_time = 0, 0.0
        for inv, rc, elapsed, stdout, out in results:
            self.attempted += 1
            if not traced:
                self.invocation_times.setdefault((inv.scene, inv.command), []).append(elapsed)
            payload = _read_report(out)
            if rc is None:
                problems = ["raised"]
            else:
                problems = checks.check_invocation(
                    inv, rc, payload, self.scenes[inv.scene], self.seen_digests)
            if problems:
                self.failed += 1
                print(f"FAILED {inv.scene} {inv.command}: {'; '.join(problems)}", file=sys.stderr)
            elif inv.command in ("cover", "report"):
                witnesses += checks.witnesses_built(inv.command, payload, stdout)
                witness_time += elapsed
        if not traced and witness_time > 0.0:
            self.witness_rates.append(witnesses / witness_time)


def _read_report(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        os.remove(path)
    except (OSError, ValueError):
        return None
    return payload


def measure_setup(paths: dict) -> float:
    """Median over repetitions of the summed scene-load time.

    A loaded scene holds reference cycles (set description and its grid
    oracle); collecting them between repetitions keeps the repetitions out
    of the workload's peak memory.
    """
    totals = []
    for _ in range(SETUP_REPS):
        gc.collect()
        total = 0.0
        ref_before = reference_time()
        for path in paths.values():
            start = perf_counter()
            load_scene(path)
            total += perf_counter() - start
        totals.append(normalized(total, ref_before, reference_time()))
    return statistics.median(totals)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    root = os.getcwd()
    wl = workloads.build(args.workload, args.seed, os.path.join(root, "scenes"))
    out_dir = os.path.join(root, ".bench_out")
    workdir = os.path.join(out_dir, f"{args.workload}-s{args.seed}-p{os.getpid()}")
    os.makedirs(workdir)
    try:
        paths = wl.write(workdir)
        scenes = {name: load_scene(path) for name, path in paths.items()}
        setup_s = measure_setup(paths)
        runner = Runner(wl, paths, scenes, workdir)
        tracer = Tracer() if args.trace else None
        # Passes run while the next one, at the typical pass time, still fits
        # the budget; the trace mode alternates untraced and traced passes.
        budget_start = perf_counter()
        while True:
            traced = tracer is not None and len(runner.walls[False]) > len(runner.walls[True])
            runner.run_pass(tracer if traced else None)
            done = runner.walls[False] and (tracer is None or runner.walls[True])
            typical = statistics.median(runner.raw_walls)
            if done and perf_counter() - budget_start + typical > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("env: " + json.dumps(environment(args), sort_keys=True))
    for (scene, command), times in runner.invocation_times.items():
        print(f"invocation {scene} {command}: normalized median {statistics.median(times):.4f} s "
              f"over {len(times)} calls")
    walls, traced_walls = runner.walls[False], runner.walls[True]
    print(f"passes: {len(walls)} untraced, {len(traced_walls)} traced; raw pass wall s: "
          f"{', '.join(f'{w:.3f}' for w in runner.raw_walls)}; "
          f"failed_ops: {runner.failed}/{runner.attempted}")
    wall_s = statistics.median(walls)
    if tracer is not None:
        metrics = layer_metrics(tracer, len(traced_walls), statistics.median(traced_walls), wall_s)
        with open(os.path.join(out_dir, f"trace-{args.workload}-s{args.seed}.json"), "w",
                  encoding="utf-8") as handle:
            json.dump(tracer.dump(), handle)
    else:
        values = {
            "wall_s": wall_s,
            "setup_s": setup_s,
            "witnesses_per_s": statistics.median(runner.witness_rates or [0.0]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(json.dumps({
        "correct": runner.failed == 0, "attempted": runner.attempted,
        "failed": runner.failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
