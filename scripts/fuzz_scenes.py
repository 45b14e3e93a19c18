#!/usr/bin/env python3
"""Randomized cross-validation over generated scenes.

Builds random multi-component scenes (disjoint half-planes, balls, lines,
points, or a lone ball complement), attaches random radius rules, and then
checks, per scene:

* analytic distances agree with the brute-force grid cloud within 2h (where
  the nearest set point may lie outside the box, analytic <= brute + 2h),
* every constructed witness is sound against the analytic distance,
* on scenes where the condition holds, witness construction never fails,
* the normal cones of the condition-check samples, sampled in one batch,
  equal their one-row calls bit for bit, and so do the equidistant points
  that the S-convexity probe bisects in lockstep (half-space normals here
  are generic, where one-row and batched kernels could round differently),
* the three-way harness verdicts agree (the consistency flag).

Exit status 0 when every scene passes; detailed lines otherwise.

Usage:
    python scripts/fuzz_scenes.py [--scenes N] [--seed S] [--harness-every K]
"""

import argparse
import math
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np  # noqa: E402

from extsphere.conditions import check_extended_condition, cover_radius  # noqa: E402
from extsphere.cover import construct_witness  # noqa: E402
from extsphere.geom import GeometryError  # noqa: E402
from extsphere.proximal import (  # noqa: E402
    RadiusField,
    sample_unit_normals,
    sample_unit_normals_many,
)
from extsphere.sconvex import _bisect_equidistant, equivalence_harness  # noqa: E402
from extsphere.sets import (  # noqa: E402
    AffineSubspace,
    BallComplement,
    ClosedBall,
    ClosedSetDesc,
    FinitePointSet,
    HalfSpace,
    SetError,
    Union,
)


def random_scene(rng: np.random.Generator):
    box = ((-6.0, -6.0), (6.0, 6.0))
    if rng.random() < 0.12:
        center = rng.uniform(-1.5, 1.5, size=2)
        leaf = BallComplement(center, rng.uniform(0.8, 2.5), label="shell")
        desc = ClosedSetDesc(leaf, box=box)
        return desc
    kinds = ["halfspace", "ball", "line", "point"]
    count = int(rng.integers(1, 4))
    leaves = []
    for k in range(count):
        kind = kinds[int(rng.integers(len(kinds)))]
        label = f"{kind}{k}"
        if kind == "halfspace":
            angle = rng.uniform(0, 2 * math.pi)
            n = np.array([math.cos(angle), math.sin(angle)])
            leaves.append(HalfSpace(n, rng.uniform(-4.5, -2.0), label=label))
        elif kind == "ball":
            leaves.append(ClosedBall(rng.uniform(-3, 3, size=2), rng.uniform(0.4, 1.6), label=label))
        elif kind == "line":
            angle = rng.uniform(0, math.pi)
            d = np.array([math.cos(angle), math.sin(angle)])
            leaves.append(AffineSubspace(rng.uniform(-3, 3, size=2), [d], label=label))
        else:
            pts = rng.uniform(-4, 4, size=(int(rng.integers(1, 3)), 2))
            leaves.append(FinitePointSet(pts, label=label))
    root = leaves[0] if len(leaves) == 1 else Union(leaves)
    return ClosedSetDesc(root, box=box)


def random_radius_field(desc, rng):
    rules = {}
    for leaf in desc.leaves:
        rules[leaf.label] = "inf" if rng.random() < 0.25 else float(rng.uniform(0.3, 2.5))
    return RadiusField.from_sources(rules)


def batched_cone_problems(desc, seed: int) -> list[str]:
    """Cones of the condition check's boundary samples, sampled in one
    batch, against the one-row call at each sample."""
    samples = desc.sample_boundary(60, seed=seed)
    A = np.reshape([a for a, _ in samples], (-1, desc.dim))
    A = A[desc.boundary_of_interior_many(A)[0]]
    problems = []
    for a, cone in zip(A, sample_unit_normals_many(desc, A, rho_max=80.0)):
        try:
            one = sample_unit_normals(desc, a, rho_max=80.0)
        except GeometryError as exc:
            problems.append(f"seed {seed}: one-row cone call at {a.tolist()} fails: {exc}")
            continue
        if not (
            np.array_equal(one.directions, cone.directions)
            and np.array_equal(one.realizations, cone.realizations)
        ):
            problems.append(f"seed {seed}: batched cone differs from the one-row cone at {a.tolist()}")
    return problems


def lockstep_probe_problems(desc, seed: int) -> list[str]:
    """Equidistant points of the S-convexity probe, bisected in lockstep
    for the sample pairs of each label pair as the probe does, against the
    one-pair bisection of each pair."""
    by_label: dict[str, list[np.ndarray]] = {}
    for p, lab in desc.sample_boundary(40, seed=seed):
        by_label.setdefault(lab, []).append(p)
    leaf_by_label = {leaf.label: leaf for leaf in desc.leaves}
    labels = sorted(by_label)
    problems = []
    for ii, lab_i in enumerate(labels):
        for lab_j in labels[ii + 1:]:
            li, lj = leaf_by_label[lab_i], leaf_by_label[lab_j]
            pairs = [(p, q) for p in by_label[lab_i][:8] for q in by_label[lab_j][:8]]
            P_i, P_j = (np.asarray(ends) for ends in zip(*pairs))
            lockstep = _bisect_equidistant(desc, li, lj, P_i, P_j)
            for r, s_pt in enumerate(lockstep):
                one = _bisect_equidistant(desc, li, lj, P_i[r:r + 1], P_j[r:r + 1])[0]
                if (one is None) != (s_pt is None) or (one is not None and not np.array_equal(one, s_pt)):
                    problems.append(
                        f"seed {seed}: lockstep equidistant point differs from the one-pair "
                        f"bisection between {P_i[r].tolist()} and {P_j[r].tolist()}"
                    )
    return problems


def run_one(seed: int, with_harness: bool) -> list[str]:
    rng = np.random.default_rng(seed)
    problems: list[str] = []
    for _ in range(40):
        try:
            desc = random_scene(rng)
            desc.validate()
            break
        except SetError:
            continue
    else:
        return [f"seed {seed}: could not build a valid scene"]
    rf = random_radius_field(desc, rng)

    oracle = desc.oracle
    lo, hi = desc.box
    probe = rng.uniform(lo, hi, size=(200, 2))
    analytic = desc.distance_many(probe)
    brute = oracle.distance_many(probe)
    # The brute cloud stops at the box, so brute bounds the distance from
    # above everywhere but from below only where its ball stays in the box.
    inside = brute <= np.minimum(probe - lo, hi - probe).min(axis=1)
    gap = np.where(inside, np.abs(analytic - brute), analytic - brute)
    worst = float(np.max(gap))
    if worst > 2 * oracle.h:
        problems.append(f"seed {seed}: grid disagreement {worst:.3g} > {2*oracle.h:.3g}")

    report = check_extended_condition(desc, rf, boundary_samples=60, seed=seed, rho_max=80.0)
    problems.extend(batched_cone_problems(desc, seed))
    problems.extend(lockstep_probe_problems(desc, seed))

    try:
        pts = desc.sample_exterior(60, seed=seed + 1)
    except SetError:
        pts = []
    failures = 0
    for i, x in enumerate(pts):
        w = construct_witness(desc, rf, x, delta_list=(0.5, 4.0), seed=i, rho_max=80.0)
        if not w.ok:
            failures += 1
            continue
        if w.ball is not None:
            c = np.asarray(w.ball.center)
            r = w.ball.radius
            rho = cover_radius(desc, rf, x)
            if abs(r - rho) > 1e-9 * (1 + rho):
                problems.append(f"seed {seed}: witness radius {r} != cover radius {rho} at {x}")
            if np.linalg.norm(x - c) > r + 1e-9 or desc.distance(c) < r - 1e-9:
                problems.append(f"seed {seed}: unsound witness at {x.tolist()}")
        else:
            for delta, clear in w.delta_checks:
                if clear < delta - 1e-9:
                    problems.append(f"seed {seed}: unsound delta witness at {x.tolist()}")
    if report.verdict == "holds" and failures:
        problems.append(
            f"seed {seed}: {failures} witness failures although the condition holds"
        )

    if with_harness:
        harness = equivalence_harness(desc, rf, boundary_samples=40, seed=seed, rho_max=80.0)
        if not harness.consistent:
            problems.append(
                f"seed {seed}: harness inconsistent {harness.verdicts} "
                f"(condition {report.verdict}, labels {[l.label for l in desc.leaves]})"
            )
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenes", type=int, default=60)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--harness-every", type=int, default=3,
                        help="run the (slower) harness on every K-th scene")
    args = parser.parse_args()
    all_problems = []
    for k in range(args.scenes):
        seed = args.seed + k
        problems = run_one(seed, with_harness=(k % args.harness_every == 0))
        all_problems.extend(problems)
        for line in problems:
            print("PROBLEM:", line)
    print(f"checked {args.scenes} scenes: {len(all_problems)} problems")
    return 0 if not all_problems else 1


if __name__ == "__main__":
    sys.exit(main())
